import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch import expconfig, harness, load_config
from gridwatch.cli import main
from gridwatch.expconfig import ConfigError

MINIMAL = """
[model]
topology = {topology}
lambda = 1
sigma_v2 = 1e-4
sigma_w2 = 1e-4

[detector]
gamma = 0.022
sigma2_min = 1e-2
h = 5
{extra_detector}
[attack]
{attack}

[run]
trials = {trials}
horizon = {horizon}
tau = 20
seed = 1
"""


def write(tmp_path, text, name="c.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_config_roundtrip(tmp_path, two_bus_path):
    p = write(
        tmp_path,
        MINIMAL.format(
            topology=two_bus_path, extra_detector="", attack="kind = none",
            trials=2, horizon=50,
        ),
    )
    cfg = load_config(p)
    assert cfg.model.lam == 1
    assert cfg.detector.h == 5.0
    assert cfg.attack.kind == "none"
    assert cfg.attack.tau == math.inf
    assert cfg.shewhart_phi is None and cfg.chi2 is None
    assert cfg.run.eta == 50  # default


def test_unknown_key_rejected_with_line(tmp_path, two_bus_path):
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="bogus = 3\n", attack="kind = none",
        trials=1, horizon=50,
    )
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        load_config(write(tmp_path, text))


def test_unknown_section_rejected(tmp_path, two_bus_path):
    text = (
        MINIMAL.format(
            topology=two_bus_path, extra_detector="", attack="kind = none",
            trials=1, horizon=50,
        )
        + "\n[plotting]\nstyle = dark\n"
    )
    with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
        load_config(write(tmp_path, text))


def test_missing_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"missing required section \[detector\]"):
        load_config(write(tmp_path, "[model]\ntopology = x\nsigma_v2 = 1\nsigma_w2 = 1\n"))


def test_onoff_attack_normalization(tmp_path, two_bus_path):
    attack = "kind = onoff\ninner = hybrid\nt_on = 1\nt_off = 3\np = 0.5\nfdi_uniform = 0.01\njam_uniform = 1e-4,2e-4"
    p = write(
        tmp_path,
        MINIMAL.format(
            topology=two_bus_path, extra_detector="", attack=attack, trials=1, horizon=50,
        ),
    )
    cfg = load_config(p)
    assert cfg.attack.kind == "hybrid"
    assert (cfg.attack.t_on, cfg.attack.t_off) == (1, 3)
    assert cfg.attack.tau == 20
    assert cfg.attack.jam_law.lo == pytest.approx(1e-4)


def test_onoff_requires_inner_and_periods(tmp_path, two_bus_path):
    attack = "kind = onoff\nt_on = 1\nt_off = 3"
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack=attack, trials=1, horizon=50,
    )
    with pytest.raises(ConfigError, match="inner"):
        load_config(write(tmp_path, text))


def test_fixed_meter_selection_and_explicit_x0(tmp_path, two_bus_path):
    attack = "kind = fdi\nmeters = 0\nfdi_fixed = 0.1"
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack=attack, trials=1, horizon=50,
    ).replace("[attack]", "x0 = 0.25\n\n[attack]")
    # x0 key belongs to [model]; splice it there instead
    text = text.replace("sigma_w2 = 1e-4", "sigma_w2 = 1e-4\nx0 = 0.25")
    text = text.replace("x0 = 0.25\n\n[attack]", "[attack]")
    cfg = load_config(write(tmp_path, text))
    assert cfg.model.x0_mode == "explicit"
    assert cfg.model.x0_values == [0.25]
    assert cfg.attack.selection == ("fixed", (0,))
    assert cfg.attack.fdi_law.value == pytest.approx(0.1)


def test_attack_requires_matching_law(tmp_path, two_bus_path):
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack="kind = fdi\np = 0.5",
        trials=1, horizon=50,
    )
    with pytest.raises(ConfigError, match="fdi_uniform or fdi_fixed"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize(
    "attack, tau, key",
    [
        ("kind = fdi\nfdi_uniform = abc", 20, "fdi_uniform"),
        ("kind = jamming\njam_uniform = 1e-4", 20, "jam_uniform"),
        ("kind = jamming\njam_uniform = 4e-4,2e-4", 20, "jam_uniform"),
        ("kind = fdi\nfdi_fixed = 0.1\nmeters = x", 20, "meters"),
        ("kind = fdi\nfdi_fixed = 0.5\nmeters =", 20, "meters"),
        ("kind = fdi\nfdi_fixed = 0.1\np = 2", 20, "p"),
        ("kind = bogus", 20, "kind"),
        ("kind = onoff\ninner = fdi\nfdi_fixed = 0.1\nt_on = 0\nt_off = 1", 20, "t_on"),
        ("kind = fdi\nfdi_fixed = 0.1", 0, "tau"),
        ("kind = fdi\nfdi_uniform = nan", 20, "fdi_uniform"),
        ("kind = fdi\nfdi_fixed = inf", 20, "fdi_fixed"),
        ("kind = jamming\njam_uniform = -1,-0.5", 20, "jam_uniform"),
        ("kind = hybrid\nfdi_fixed = 0.1\njam_fixed = -1e-4", 20, "jam_fixed"),
        ("kind = topology-fault", 20, "fault_meters"),
    ],
)
def test_bad_attack_value_names_its_key(tmp_path, two_bus_path, attack, tau, key):
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack=attack, trials=1, horizon=50,
    ).replace("tau = 20", f"tau = {tau}")
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        load_config(write(tmp_path, text))


FDI = "kind = fdi\nfdi_fixed = 0.1"


@pytest.mark.parametrize(
    "attack, old, new, key",
    [
        ("kind = none", "horizon = 50", "horizon = -5", "horizon"),
        ("kind = none", "horizon = 50", "horizon = 0", "horizon"),
        ("kind = none", "seed = 1", "seed = -1", "seed"),
        (FDI, "h = 5", "h = 5\nmu0_samples = 0", "mu0_samples"),
        (FDI, "seed = 1", "seed = 1\n[chi2]\nm = 0\nl = 80\nvarphi = 25", "m"),
        (FDI, "seed = 1", "seed = 1\n[chi2]\nm = 5\nl = 4\nvarphi = 25", "l"),
        (FDI, "seed = 1", "seed = 1\n[chi2]\nm = 100\nvarphi = 25", "l"),
        (FDI, "tau = 20", "tau = nan", "tau"),
        ("kind = none", "tau = 20", "tau = inf", "tau"),
        ("kind = none", "tau = 20", "tau = 20.5", "tau"),
        ("kind = none", "tau = 20", "tau = 0", "tau"),
        ("kind = none", "tau = 20", "tau = -7", "tau"),
        (FDI, "h = 5", "h = nan", "h"),
        (FDI, "h = 5", "h = inf", "h"),
        (FDI, "h = 5", "h = 5\nnp_q = inf", "np_q"),
        (FDI, "h = 5", "h = 5\neuclid_d = nan", "euclid_d"),
        (FDI, "h = 5", "h = 5\ncosine_d = -inf", "cosine_d"),
        (FDI, "seed = 1", "seed = 1\n[shewhart]\nphi = nan", "phi"),
        (FDI, "seed = 1", "seed = 1\n[chi2]\nvarphi = inf", "varphi"),
        (FDI, "lambda = 1", "lambda = 0", "lambda"),
        (FDI, "sigma_v2 = 1e-4", "sigma_v2 = -1", "sigma_v2"),
        (FDI, "sigma_v2 = 1e-4", "sigma_v2 = 0", "sigma_v2"),
        (FDI, "sigma_w2 = 1e-4", "sigma_w2 = inf", "sigma_w2"),
        (FDI, "sigma_w2 = 1e-4", "sigma_w2 = 1e-4\np0 = -1", "p0"),
        (FDI, "sigma_w2 = 1e-4", "sigma_w2 = 1e-4\np0 = nan", "p0"),
        (FDI, "gamma = 0.022", "gamma = -1", "gamma"),
        (FDI, "gamma = 0.022", "gamma = inf", "gamma"),
        (FDI, "sigma2_min = 1e-2", "sigma2_min = inf", "sigma2_min"),
        (FDI, "seed = 1", "seed = 1\n[shewhart]\nphi = -1", "phi"),
        (FDI, "seed = 1", "seed = 1\n[chi2]\nvarphi = -1", "varphi"),
        (FDI, "sigma_w2 = 1e-4", "sigma_w2 = 1e-4\nx0 = abc", "x0"),
        (FDI, "sigma_w2 = 1e-4", "sigma_w2 = 1e-4\nx0 = nan", "x0"),
    ],
)
def test_bad_config_value_names_its_key(tmp_path, two_bus_path, attack, old, new, key):
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack=attack, trials=1, horizon=50,
    )
    assert old in text
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        load_config(write(tmp_path, text.replace(old, new)))


@pytest.mark.parametrize(
    "attack, meter",
    [
        ("kind = fdi\nfdi_fixed = 0.1\nmeters = {}", -1),
        ("kind = fdi\nfdi_fixed = 0.1\nmeters = {}", 1),
        ("kind = topology-fault\nfault_meters = {}", 1),
    ],
)
def test_meters_outside_model_rejected(tmp_path, two_bus_path, attack, meter):
    # the two-bus model has one meter: fixed meters -1 would silently attack
    # it, and 1 would raise IndexError at the onset, partway through a run
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack=attack.format(meter), trials=1, horizon=50,
    )
    with pytest.raises(ConfigError, match=f"unknown meter index {meter}"):
        harness.prepare(load_config(write(tmp_path, text)))


def test_explicit_x0_of_wrong_length_names_x0(tmp_path, two_bus_path):
    # the two-bus model has one state; the length is known once the
    # topology is loaded, so prepare checks it
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack="kind = none", trials=1, horizon=50,
    ).replace("sigma_w2 = 1e-4", "sigma_w2 = 1e-4\nx0 = 0.25, 0.5")
    with pytest.raises(ConfigError, match=r"\bx0\b"):
        harness.prepare(load_config(write(tmp_path, text)))


def test_horizon_must_exceed_tau(tmp_path, two_bus_path):
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack="kind = fdi\nfdi_uniform = 0.1",
        trials=1, horizon=10,
    )
    with pytest.raises(ConfigError, match="horizon"):
        load_config(write(tmp_path, text))


def test_cli_simulate_rejects_negative_seed(tmp_path, two_bus_path, monkeypatch, capsys):
    # --seed replaces the config's seed after load_config checked it; a bad
    # seed is rejected before the --out directory is made
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack="kind = none", trials=1, horizon=50,
    )
    monkeypatch.setattr(harness, "prepare", lambda *args, **kwargs: pytest.fail("prepare ran"))
    out = tmp_path / "new"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(write(tmp_path, text)), "--out", str(out), "--seed", "-1"])
    assert exc.value.code == 2
    assert "gridwatch simulate: error: bad value for 'seed'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("thresholds", ["2,x", "5,2", "2,nan", ""])
def test_cli_sweep_rejects_bad_thresholds(tmp_path, two_bus_path, monkeypatch, capsys, thresholds):
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack="kind = fdi\nfdi_uniform = 0.4",
        trials=1, horizon=50,
    )
    monkeypatch.setattr(harness, "sweep_tradeoff", lambda *args, **kwargs: pytest.fail("sweep ran"))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(write(tmp_path, text)), "--thresholds", thresholds])
    assert exc.value.code == 2
    assert "gridwatch sweep: error: bad value for '--thresholds'" in capsys.readouterr().err


def test_sweep_alg2_without_its_other_rules_is_a_usage_error(tmp_path, two_bus_path, monkeypatch, capsys):
    # with neither [shewhart] nor [chi2], alg2 is alg1; the sweep used to
    # print alg1's curve under the alg2 name
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack="kind = fdi\nfdi_uniform = 0.4",
        trials=1, horizon=50,
    )
    cfg_path = write(tmp_path, text)
    monkeypatch.setattr(harness, "prepare", lambda *a, **k: pytest.fail("prepare ran"))
    monkeypatch.setattr(harness, "run_trial", lambda *a, **k: pytest.fail("trial ran"))
    with pytest.raises(ConfigError, match="'--detector'"):
        harness.sweep_tradeoff(load_config(cfg_path), [5.0, 10.0], which="alg2")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg_path), "--thresholds", "5,10", "--detector", "alg2",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "gridwatch sweep: error: bad value for '--detector'" in capsys.readouterr().err
    assert not (tmp_path / "tradeoff.csv").exists()


@pytest.mark.parametrize("name", ["missing.grid", "."])
def test_unreadable_topology_names_topology_before_any_trial(tmp_path, monkeypatch, capsys, name):
    # a missing file, or a directory, is a ConfigError naming the key and
    # the path, from prepare and from the CLI, before the baseline or a
    # trial runs
    cfg_path = write(tmp_path, MINIMAL.format(
        topology=name, extra_detector="np_q = 5", attack="kind = none", trials=1, horizon=50,
    ))
    cfg = load_config(cfg_path)
    monkeypatch.setattr(harness, "innovation_norm_baseline", lambda *a, **k: pytest.fail("baseline ran"))
    monkeypatch.setattr(harness, "run_trial", lambda *a, **k: pytest.fail("trial ran"))
    with pytest.raises(ConfigError, match="'topology'") as exc:
        harness.prepare(cfg)
    assert repr(str(cfg.model.topology_path)) in str(exc.value)
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "gridwatch simulate: error: bad value for 'topology'" in err
    assert str(cfg.model.topology_path) in err


@pytest.mark.parametrize(
    "value, cache", [("None", "none"), ("AUTO", "auto"), ("None.txt", "None.txt")]
)
def test_mu0_cache_keywords_match_in_any_case(tmp_path, two_bus_path, value, cache):
    # like every other keyword value; mu0_cache = None used to name a
    # sidecar file called None in the working directory
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector=f"mu0_cache = {value}", attack="kind = none",
        trials=1, horizon=50,
    )
    assert load_config(write(tmp_path, text)).detector.mu0_cache == cache


def test_unreadable_mu0_cache_is_a_usage_error(tmp_path, two_bus_path, monkeypatch, capsys):
    # a cache path under a regular file cannot be read: exit status 2 with
    # the key and the path, before any trial runs
    (tmp_path / "file").write_text("")
    cache = tmp_path / "file" / "mu0.txt"
    cfg_path = write(tmp_path, MINIMAL.format(
        topology=two_bus_path, extra_detector=f"np_q = 5\nmu0_samples = 10\nmu0_cache = {cache}",
        attack="kind = none", trials=1, horizon=50,
    ))
    monkeypatch.setattr(harness, "run_trial", lambda *a, **k: pytest.fail("trial ran"))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"gridwatch simulate: error: bad value for 'mu0_cache': {str(cache)!r}" in err


@pytest.mark.parametrize("name", ["missing.cfg", "."])
def test_unreadable_config_is_a_usage_error(tmp_path, capsys, name):
    # a missing file, or a directory, is a ConfigError naming the path, and
    # the CLI exits with status 2 instead of an OSError traceback
    path = tmp_path / name
    with pytest.raises(ConfigError, match="'--config'") as exc:
        load_config(path)
    assert repr(str(path)) in str(exc.value)
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--config", str(path)])
    assert exit_.value.code == 2
    assert f"gridwatch simulate: error: bad value for '--config': {str(path)!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "attack, key",
    [
        ("kind = fdi\nfdi_uniform = 0.02\nt_on = 1\nt_off = 3", "t_on"),
        ("kind = fdi\nfdi_uniform = 0.02\ninner = hybrid", "inner"),
        ("kind = fdi\nfdi_uniform = 0.02\nfault_meters = 0", "fault_meters"),
        ("kind = fdi\nfdi_uniform = 0.02\njam_uniform = 1e-4,2e-4", "jam_uniform"),
        ("kind = fdi\nfdi_uniform = 0.02\nfdi_fixed = 0.1", "fdi_fixed"),
        ("kind = fdi\nmeters = 0\np = 0.5\nfdi_uniform = 0.02", "p"),
        ("kind = hybrid\nfdi_fixed = 0.1\njam_uniform = 1e-4,2e-4\njam_fixed = 1e-4", "jam_fixed"),
        ("kind = jamming\njam_fixed = 1e-4\nfdi_fixed = 0.1", "fdi_fixed"),
        ("kind = none\np = 0.5", "p"),
        ("kind = topology-fault\nfault_meters = 0\nmeters = 0", "meters"),
        ("kind = onoff\ninner = fdi\nt_on = 1\nt_off = 3\nfdi_uniform = 0.02\njam_fixed = 1e-4",
         "jam_fixed"),
    ],
    ids=lambda v: v.split("\n")[0].removeprefix("kind = ") if "\n" in v else v,
)
def test_attack_key_its_kind_never_reads_is_rejected(tmp_path, two_bus_path, attack, key):
    # such a key used to be dropped (or, for t_on/t_off under kind = fdi,
    # to turn the attack into an undocumented on-off one)
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack=attack, trials=1, horizon=50,
    )
    with pytest.raises(ConfigError, match=rf"^\[attack\] key.* '{key}'"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_out_that_cannot_be_a_directory_is_a_usage_error_before_the_run(
    tmp_path, two_bus_path, monkeypatch, capsys, command
):
    # an --out under a regular file used to end in a traceback after the run
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    cfg_path = write(tmp_path, MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack="kind = fdi\nfdi_uniform = 0.4",
        trials=1, horizon=50,
    ))
    monkeypatch.setattr(harness, "prepare", lambda *a, **k: pytest.fail("prepare ran"))
    monkeypatch.setattr(harness, "sweep_tradeoff", lambda *a, **k: pytest.fail("sweep ran"))
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--thresholds", "5,10"] if command == "sweep" else []))
    assert exc.value.code == 2
    assert f"gridwatch {command}: error: bad value for '--out': {str(out)!r}" in capsys.readouterr().err


def test_cli_reports_a_bad_topology_as_a_usage_error(tmp_path, capsys):
    (tmp_path / "bad.grid").write_text("[buses]\n1 ref\n2 nan\n")
    cfg_path = write(tmp_path, MINIMAL.format(
        topology="bad.grid", extra_detector="", attack="kind = none", trials=1, horizon=50,
    ))
    with pytest.raises(SystemExit) as exc:
        main(["false-alarm", "--config", str(cfg_path)])
    assert exc.value.code == 2
    assert "gridwatch false-alarm: error: line 3: bad bus token 'nan'" in capsys.readouterr().err


def test_cli_stealth_audit(capsys):
    rc = main(
        [
            "stealth-audit",
            "--f0", "0,1",
            "--f1", "2,1",
            "--hprime", "4.5",
            "--phi", "0.6",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    header = out[0].split(",")
    row = dict(zip(header, out[1].split(",")))
    # two-component symmetric pair: KL both ways = |mu1-mu0|^2 * 2 / (2 sigma2) = 4
    assert float(row["kl_10"]) == pytest.approx(4.0)
    assert float(row["kl_01"]) == pytest.approx(4.0)
    assert float(row["t_on_max"]) == pytest.approx(4.5 / 4.0)
    assert float(row["duty_bound"]) == pytest.approx(0.5)
    assert float(row["common_kl"]) == pytest.approx(1.0 + 0.5 * math.log(1 / 0.64))
    assert abs(float(row["gap"])) < 1e-10
    assert int(row["t_on"]) == 1 and int(row["t_off"]) == 2


def test_cli_simulate_and_sweep(tmp_path, two_bus_path, capsys):
    cfgtext = MINIMAL.format(
        topology=two_bus_path,
        extra_detector="euclid_d = 0.4\n",
        attack="kind = fdi\np = 1.0\nfdi_uniform = 0.4",
        trials=3,
        horizon=60,
    )
    cfg_path = write(tmp_path, cfgtext)
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alg1,delay" in out
    assert (tmp_path / "first_detector.csv").exists()
    # the last row: the share of trial-steps at which alg1's CUSUM re-synced,
    # of the steps up to the later of alg1's and Shewhart's stops
    results = harness.run_trials(harness.prepare(load_config(cfg_path)))
    syncs = sum(r.syncs for r in results)
    closed = [max(r.stops[n] for n in ("alg1", "shewhart") if n in r.stops) for r in results]
    frac = syncs / sum(min(r.steps_run, c) for r, c in zip(results, closed))
    assert out.splitlines()[-2] == f"alg1,sync_frac,{frac:.10g},nan,{syncs}"

    rc = main(
        [
            "sweep",
            "--config", str(cfg_path),
            "--thresholds", "2,8",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "tradeoff.csv").read_text().splitlines()
    assert lines[0] == "h,fap,fap_ci,delay,delay_ci,miss_ratio,fap_censored,delay_false_alarms,delay_missed"
    assert len(lines) == 3


PRESETS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


@pytest.mark.parametrize("preset", PRESETS, ids=[p.stem for p in PRESETS])
def test_every_preset_simulates(tmp_path, monkeypatch, capsys, preset):
    # each shipped preset, cut to 2 trials of 160 steps (past every onset
    # tau of 100) with a small mu0 baseline and no cache, runs end to end:
    # one metric row per enabled detector and the sync share, the first
    # detector table when attacked and the step log when logged
    text = re.sub(r"(?m)^trials = .*$", "trials = 2", preset.read_text())
    text = re.sub(r"(?m)^horizon = .*$", "horizon = 160", text)
    text = text.replace("[detector]\n", "[detector]\nmu0_samples = 2000\nmu0_cache = none\n")
    cfg_path = write(tmp_path, text, preset.name)
    cfg = load_config(cfg_path)
    assert (cfg.run.trials, cfg.run.horizon, cfg.detector.mu0_samples) == (2, 160, 2000)
    prepared, prepare = [], harness.prepare
    monkeypatch.setattr(harness, "prepare", lambda c: prepared.append(prepare(c)) or prepared[-1])
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "detector,metric,value,ci_half,extra"
    metric = "false_alarm_period" if cfg.attack.kind == "none" else "delay"
    rows = [tuple(line.split(",")[:2]) for line in lines[1:] if not line.startswith("wrote ")]
    assert rows == [(name, metric) for name in prepared[0].enabled] + [("alg1", "sync_frac")]
    assert (out / "first_detector.csv").exists() == (cfg.attack.kind != "none")
    assert (out / "trial_log.csv").exists() == (preset.stem == "fig8_recovery")


def test_cli_false_alarm(tmp_path, two_bus_path, capsys):
    cfgtext = MINIMAL.format(
        topology=two_bus_path,
        extra_detector="",
        attack="kind = fdi\np = 1.0\nfdi_uniform = 0.4",
        trials=3,
        horizon=60,
    )
    cfg_path = write(tmp_path, cfgtext)
    printed = []
    for run in ("a", "b"):
        rc = main(["false-alarm", "--config", str(cfg_path), "--out", str(tmp_path / run)])
        assert rc == 0
        printed.append(capsys.readouterr().out.splitlines())
    # stdout holds the table, then the line naming the file it was written to
    table, wrote = printed[0][:-1], printed[0][-1]
    assert table[0] == "detector,fap,fap_ci,censored,runs"
    assert len(table) == 2  # alg1 alone
    assert wrote == f"wrote {tmp_path / 'a' / 'false_alarm.csv'}"
    assert printed[1][:-1] == table
    written = (tmp_path / "a" / "false_alarm.csv").read_bytes()
    assert written == "".join(line + "\n" for line in table).encode()
    assert written == (tmp_path / "b" / "false_alarm.csv").read_bytes()


def test_undecodable_byte_names_its_line(tmp_path, two_bus_path):
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack="kind = none", trials=1, horizon=50,
    )
    line = text.splitlines().index("h = 5") + 1
    p = tmp_path / "c.cfg"
    p.write_bytes(text.encode().replace(b"h = 5", b"h = 5 # \xff"))
    with pytest.raises(ConfigError, match=f"line {line}: not UTF-8"):
        load_config(p)


A_CONFIG = MINIMAL.replace("sigma_w2 = 1e-4", "sigma_w2 = 1e-4\na = a.csv")


def test_a_file_of_one_state_network(tmp_path, two_bus_path):
    (tmp_path / "a.csv").write_text("0.5\n")
    text = A_CONFIG.format(
        topology=two_bus_path, extra_detector="", attack="kind = none", trials=1, horizon=50,
    )
    assert harness.prepare(load_config(write(tmp_path, text))).model.A.tolist() == [[0.5]]


@pytest.mark.parametrize("content", ["nan\n", "0.9,0\n0,0.9\n", "junk\n", None])
def test_bad_a_file_names_a_before_the_baseline(tmp_path, two_bus_path, monkeypatch, content):
    # a nan entry diverged at the first step; a wrong shape, junk text and a
    # missing file raised untyped errors
    if content is not None:
        (tmp_path / "a.csv").write_text(content)
    text = A_CONFIG.format(
        topology=two_bus_path, extra_detector="np_q = 5\n", attack="kind = none", trials=1,
        horizon=50,
    )
    monkeypatch.setattr(harness, "innovation_norm_baseline", lambda *a, **k: pytest.fail("ran"))
    with pytest.raises(ConfigError, match="'a'"):
        harness.prepare(load_config(write(tmp_path, text)))


@pytest.mark.parametrize(
    "args",
    [
        ["--f0", "0,nan", "--f1", "2,1", "--hprime", "4.5"],
        ["--f0", "0,1", "--f1", "inf,1", "--hprime", "4.5"],
        ["--f0", "0,1", "--f1", "2,1", "--hprime", "nan"],
        ["--f0", "0,1", "--f1", "2,1", "--hprime", "4.5", "--phi", "inf"],
    ],
)
def test_cli_stealth_audit_rejects_non_finite_arguments(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(["stealth-audit", *args])
    assert exc.value.code == 2
    assert "error: argument --" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--f1", "2,1", "--hprime", "0.1"], "must be >= KL"),
        (["--f1", "2,1", "--hprime", "4.5", "--phi", "5"], "phi"),
        (["--f1", "0,1", "--hprime", "4.5"], "must differ"),
        (["--f1", "2,2", "--hprime", "4.5"], "needs equal variances"),
    ],
)
def test_cli_stealth_audit_reports_range_errors(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(["stealth-audit", "--f0", "0,1", *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "gridwatch stealth-audit: error: " in err and message in err


def test_readme_config_reference_loads_and_names_every_key(tmp_path):
    # the ini block under README's "Experiment configuration" is a config
    # that loads, and each of its sections names every key the loader
    # accepts there, as "key =" on a key line or in a comment, or in a
    # comment's list ("plus t_on, t_off")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Experiment configuration\n.*?```ini\n(.*?)```", readme, re.S).group(1)
    load_config(write(tmp_path, block))
    sections = dict(re.findall(r"(?ms)^\[(\w+)\]\n(.*?)(?=^\[|\Z)", block))
    assert sections.keys() == expconfig._SECTIONS.keys()
    for name, keys in expconfig._SECTIONS.items():
        unnamed = [key for key in keys if not re.search(rf"(?m)\b{key}( =|,|$)", sections[name])]
        assert not unnamed, f"README's [{name}] does not name {unnamed}"


CONFIG_TOKENS = (
    "[model]", "[detector]", "[shewhart]", "[chi2]", "[attack]", "[run]", "[plotting]", "#", "=",
    ",", "topology", "lambda", "sigma_v2", "a", "x0", "p0", "h", "np_q", "mu0_samples", "phi",
    "m", "l", "varphi", "kind", "p", "meters", "fdi_uniform", "jam_uniform", "jam_fixed",
    "inner", "t_on", "t_off", "fault_meters", "trials", "horizon", "tau", "seed", "workers",
    "ieee14", "none", "fdi", "jamming", "hybrid", "onoff", "topology-fault", "zeros", "true",
    "0", "1", "-1", "0.5", "2e-4", "1e400", "nan", "inf", "-inf", "x",
)


@st.composite
def config_bytes(draw):
    """A valid config with a few lines replaced by or spliced with lines of
    tokens or ``key = value`` lines of them, or arbitrary bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    lines = MINIMAL.format(
        topology="ieee14", extra_detector="", attack=FDI, trials=1, horizon=50,
    ).splitlines()
    tokens = st.lists(st.sampled_from(CONFIG_TOKENS), max_size=5)
    token_line = st.one_of(
        tokens.map(" ".join),
        st.tuples(st.sampled_from(CONFIG_TOKENS), tokens).map(lambda kv: f"{kv[0]} = {','.join(kv[1])}"),
    )
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        lines[i : i + draw(st.integers(0, 1))] = [draw(token_line)]
    return "\n".join(lines).encode()


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(data=config_bytes())
def test_load_config_fuzz_raises_only_config_error(tmp_path_factory, data):
    p = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    p.write_bytes(data)
    try:
        load_config(p)
    except ConfigError:
        pass
