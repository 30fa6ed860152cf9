import argparse
import importlib.util
import subprocess
import sys
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
    got = bench_pairs.summarize(PARENT, CHANGE, "lower", 0.15)
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
    assert not bench_pairs.summarize(PARENT, CHANGE[:8] + [0.95, 0.95], "lower", 0.15)["gain_holds"]
    narrow = [p - 0.01 for p in PARENT]
    got = bench_pairs.summarize(PARENT, narrow, "lower", 0.15)
    assert got["change_won"] == "10 of 10" and not got["gain_holds"]
    got = bench_pairs.summarize(PARENT, CHANGE, "higher", 0.15)
    assert got["change_won"] == "0 of 10" and not got["gain_holds"]


def test_no_regression_verdicts():
    # "worse": the change's median is worse than the parent's by more than
    # bound x |parent median|, here 0.13 read the wrong way against a
    # margin of 0.088; a margin of 0.132 holds it. "unresolved": the
    # parent's interquartile distance, 0.025, is wider than a margin of
    # 0.0088, and some run of the change does not beat every run of the
    # parent; "held" once every run beats every one, or by default
    assert bench_pairs.summarize(PARENT, CHANGE, "higher", 0.10)["no_regression"] == "worse"
    assert bench_pairs.summarize(PARENT, CHANGE, "higher", 0.15)["no_regression"] == "held"
    assert bench_pairs.summarize(PARENT, CHANGE, "lower", 0.15)["no_regression"] == "held"
    narrow = [p - 0.01 for p in PARENT]
    assert bench_pairs.summarize(PARENT, narrow, "lower", 0.01)["no_regression"] == "unresolved"
    assert bench_pairs.summarize(PARENT, CHANGE, "lower", 0.01)["no_regression"] == "unresolved"
    # the first nine pairs: every run of the change is below 0.86, the
    # parent's fastest, while the parent's IQR, 0.03, is still wider than
    # the margin
    got = bench_pairs.summarize(PARENT[:9], CHANGE[:9], "lower", 0.01)
    assert got["parent_iqr"] == pytest.approx(0.03) and got["no_regression"] == "held"


def test_seed_range_needs_two_seeds():
    assert bench_pairs.seed_range("81-90") == list(range(81, 91))
    with pytest.raises(argparse.ArgumentTypeError, match="two seeds"):
        bench_pairs.seed_range("81")


@pytest.mark.parametrize(
    "body, code",
    [
        ("import sys\nprint('boom', file=sys.stderr)\nsys.exit(3)\n", 3),
        ("import sys\nprint('no result')\nprint('boom', file=sys.stderr)\n", 0),
    ],
    ids=["exit_3", "no_json"],
)
def test_failed_run_stops_with_its_stderr(tmp_path, body, code):
    # a run that exits non-zero, or exits 0 without a JSON result line,
    # stops the script with status 1 and a message naming the tree, the
    # workload, the seed and the exit code, then the run's standard error
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(body)
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path), str(tmp_path), "--workload", "fdi_detect",
         "--seeds", "7-8", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    first, _, rest = proc.stderr.partition("\n")
    assert str(tmp_path) in first and "--workload fdi_detect --seed 7" in first
    assert f"exited {code} without a JSON result" in first
    assert rest.strip() == "boom"
