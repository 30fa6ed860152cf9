import math

import pytest

from gridwatch import harness, load_config
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
        ("kind = fdi\nfdi_fixed = 0.1\np = 2", 20, "p"),
        ("kind = bogus", 20, "kind"),
        ("kind = onoff\ninner = fdi\nfdi_fixed = 0.1\nt_on = 0\nt_off = 1", 20, "t_on"),
        ("kind = fdi\nfdi_fixed = 0.1", 0, "tau"),
    ],
)
def test_bad_attack_value_names_its_key(tmp_path, two_bus_path, attack, tau, key):
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack=attack, trials=1, horizon=50,
    ).replace("tau = 20", f"tau = {tau}")
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        load_config(write(tmp_path, text))


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


def test_horizon_must_exceed_tau(tmp_path, two_bus_path):
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack="kind = fdi\nfdi_uniform = 0.1",
        trials=1, horizon=10,
    )
    with pytest.raises(ConfigError, match="horizon"):
        load_config(write(tmp_path, text))


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
    assert lines[0].startswith("h,fap,fap_ci,delay,delay_ci,miss_ratio")
    assert len(lines) == 3


def test_cli_false_alarm(tmp_path, two_bus_path, capsys):
    cfgtext = MINIMAL.format(
        topology=two_bus_path,
        extra_detector="",
        attack="kind = fdi\np = 1.0\nfdi_uniform = 0.4",
        trials=3,
        horizon=60,
    )
    cfg_path = write(tmp_path, cfgtext)
    rc = main(["false-alarm", "--config", str(cfg_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "detector,fap,fap_ci,censored,runs"
