"""Command-line front end.

Subcommands:

* ``simulate``     -- run the configured Monte Carlo trials and print the
                      per-detector metrics; optionally write step logs.
* ``sweep``        -- threshold sweep producing tradeoff.csv.
* ``false-alarm``  -- no-attack runs estimating each detector's average
                      false alarm period; writes false_alarm.csv.
* ``stealth-audit``-- on-off budget and persistent-stealth gap for a
                      Gaussian pair, printed as CSV.

A bad config or topology file, an ``--out`` that cannot be made a
directory, or ``stealth-audit`` arguments out of the construction's range
are usage errors: ``gridwatch <command>: error: <message>`` on
stderr and exit status 2, as argparse reports a bad argument. ``--out`` is
made before the run by every command that takes it.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import harness, stealth
from .expconfig import ConfigError, load_config
from .grid_model import TopologyError, finite, positive


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", default=".", help="output directory for CSV files")


def _out_dir(text: str) -> Path:
    """The ``--out`` directory, made before the run so that a path that
    cannot be one fails at once."""
    out = Path(text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"bad value for '--out': {text!r} ({exc.strerror})") from None
    return out


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"bad value for 'seed': {args.seed} (must be >= 0)")
    out = _out_dir(args.out)
    ctx = harness.prepare(cfg)
    log_steps = args.log_steps or cfg.run.log_steps
    results = harness.run_trials(ctx, master_seed=args.seed, log_steps=log_steps)
    tau = cfg.run.tau

    rows = []
    for name in ctx.enabled:
        stops = [r.stop(name) for r in results]
        if cfg.attack.kind == "none":
            fap = harness.estimate_false_alarm_period(stops, cfg.run.horizon)
            rows.append((name, "false_alarm_period", fap.mean, fap.ci_half, fap.n_censored))
        else:
            d = harness.estimate_delay(stops, tau)
            miss = harness.missed_detection_ratio(stops, tau, cfg.run.eta)
            rows.append((name, "delay", d.mean, d.ci_half, miss))
    syncs = sum(r.syncs for r in results)
    rows.append(("alg1", "sync_frac", syncs / sum(r.sync_steps for r in results), math.nan, syncs))
    harness.write_rows(sys.stdout, ["detector", "metric", "value", "ci_half", "extra"], rows)

    if cfg.attack.kind != "none":
        ratios = harness.first_detector_ratio(results, ctx.enabled, tau)
        harness.write_first_detector_csv(out / "first_detector.csv", ratios)
        print(f"wrote {out / 'first_detector.csv'}")
    if log_steps:
        harness.write_trial_log_csv(out / "trial_log.csv", results[0])
        print(f"wrote {out / 'trial_log.csv'}")
    return 0


def _thresholds(text: str) -> "list[float]":
    """The ascending, finite comma list of ``--thresholds``."""
    try:
        h_list = [finite(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad value for '--thresholds': {text!r} ({exc})") from None
    if h_list != sorted(h_list):
        raise ConfigError(f"bad value for '--thresholds': {text!r} (must be ascending)")
    return h_list


def cmd_sweep(args) -> int:
    h_list = _thresholds(args.thresholds)
    cfg = load_config(args.config)
    out = _out_dir(args.out) / "tradeoff.csv"
    points = harness.sweep_tradeoff(cfg, h_list, which=args.detector)
    harness.write_tradeoff_csv(out, points)
    rows = [(p.h, p.fap, p.delay, p.miss_ratio) for p in points]
    harness.write_rows(sys.stdout, ["h", "fap", "delay", "miss_ratio"], rows)
    print(f"wrote {out}")
    return 0


def cmd_false_alarm(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args.out) / "false_alarm.csv"
    summaries = harness.false_alarm_experiment(cfg)
    header = ["detector", "fap", "fap_ci", "censored", "runs"]
    rows = [
        (name, fap.mean, fap.ci_half, fap.n_censored, fap.n_runs)
        for name, fap in summaries.items()
    ]
    harness.write_csv(out, header, rows)
    harness.write_rows(sys.stdout, header, rows)
    print(f"wrote {out}")
    return 0


def _gaussian_arg(text: str) -> "tuple[float, float]":
    try:
        mu, s2 = text.split(",")
        return finite(mu), positive(s2)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected 'mean,variance' with a finite mean and a variance > 0"
        ) from None


def cmd_stealth_audit(args) -> int:
    mu0, s2 = args.f0
    mu1, s2b = args.f1
    if s2 != s2b:
        raise ConfigError("the symmetric construction needs equal variances")
    try:
        f0, f1 = stealth.symmetric_pair(mu0, mu1, s2)
        budget = stealth.onoff_budget(f0, f1, args.hprime)
        f1p = stealth.construct_stealthy_gaussian(mu0, mu1, s2, args.phi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    t_on, t_off = budget.integerized()
    header, row = zip(
        ("kl_10", budget.kl_10),
        ("kl_01", budget.kl_01),
        ("t_on_max", budget.t_on_max),
        ("t_off_min", budget.t_off_min),
        ("t_on", t_on),
        ("t_off", t_off),
        ("duty_bound", budget.duty_bound),
        ("common_kl", stealth.kl_gaussian(f1p, f0)),
        ("gap", stealth.persistent_stealth_gap(f1p, f0, f1)),
    )
    harness.write_rows(sys.stdout, header, [row])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gridwatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run Monte Carlo trials")
    _add_config(p)
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--log-steps", action="store_true", help="write trial_log.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="threshold sweep -> tradeoff.csv")
    _add_config(p)
    p.add_argument("--thresholds", required=True, help="ascending comma list of h values")
    p.add_argument("--detector", choices=("alg1", "alg2"), default="alg1")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("false-alarm", help="no-attack false alarm periods")
    _add_config(p)
    p.set_defaults(func=cmd_false_alarm)

    p = sub.add_parser("stealth-audit", help="on-off budget and stealth gap")
    p.add_argument("--f0", type=_gaussian_arg, required=True, help="clean 'mean,variance'")
    p.add_argument("--f1", type=_gaussian_arg, required=True, help="attacked 'mean,variance'")
    p.add_argument("--hprime", type=finite, required=True, help="attacker threshold")
    p.add_argument("--phi", type=finite, default=0.0, help="correlation of the shaped density")
    p.set_defaults(func=cmd_stealth_audit)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TopologyError) as exc:
        sub.choices[args.command].error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
