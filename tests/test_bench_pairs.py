import argparse
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# ten pairs of a lower-is-better time: the parent's quartiles (inclusive)
# are 0.8725, 0.88 and 0.8975, an interquartile distance of 0.025
PARENT = [0.90, 0.87, 0.88, 0.91, 0.86, 0.89, 0.88, 0.87, 0.92, 0.88]
CHANGE = [0.75, 0.74, 0.76, 0.75, 0.73, 0.77, 0.74, 0.76, 0.75, 0.88]


def test_summary_of_a_gain():
    # the change wins 9 pairs (the last is a tie, counting for neither
    # side) and its median, 0.75, is 0.13 below the parent's
    got = bench_pairs.summarize(PARENT, CHANGE, "lower")
    assert got["parent_median"] == pytest.approx(0.88)
    assert got["change_median"] == pytest.approx(0.75)
    assert got["parent_quartiles"] == pytest.approx([0.8725, 0.88, 0.8975])
    assert got["parent_iqr"] == pytest.approx(0.025)
    assert got["ratio"] == pytest.approx(0.75 / 0.88)
    assert got["change_won"] == "9 of 10"
    assert got["gain_holds"]


def test_summary_rejects_too_few_wins_a_narrow_gap_or_the_wrong_direction():
    # 8 of 10 wins with a wide gap; 10 of 10 wins with a gap under the
    # parent's interquartile distance; and the gain read the other way
    assert not bench_pairs.summarize(PARENT, CHANGE[:8] + [0.95, 0.95], "lower")["gain_holds"]
    narrow = [p - 0.01 for p in PARENT]
    got = bench_pairs.summarize(PARENT, narrow, "lower")
    assert got["change_won"] == "10 of 10" and not got["gain_holds"]
    got = bench_pairs.summarize(PARENT, CHANGE, "higher")
    assert got["change_won"] == "0 of 10" and not got["gain_holds"]


def test_seed_range_needs_two_seeds():
    assert bench_pairs.seed_range("81-90") == list(range(81, 91))
    with pytest.raises(argparse.ArgumentTypeError, match="two seeds"):
        bench_pairs.seed_range("81")
