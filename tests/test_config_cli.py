import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        ("kind = fdi\nfdi_uniform = nan", 20, "fdi_uniform"),
        ("kind = fdi\nfdi_fixed = inf", 20, "fdi_fixed"),
        ("kind = jamming\njam_uniform = -1,-0.5", 20, "jam_uniform"),
        ("kind = hybrid\nfdi_fixed = 0.1\njam_fixed = -1e-4", 20, "jam_fixed"),
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
    # --seed replaces the config's seed after load_config checked it
    text = MINIMAL.format(
        topology=two_bus_path, extra_detector="", attack="kind = none", trials=1, horizon=50,
    )
    monkeypatch.setattr(harness, "prepare", lambda *args, **kwargs: pytest.fail("prepare ran"))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(write(tmp_path, text)), "--seed", "-1"])
    assert exc.value.code == 2
    assert "gridwatch simulate: error: bad value for 'seed'" in capsys.readouterr().err


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
    ],
)
def test_cli_stealth_audit_reports_range_errors(args, message):
    with pytest.raises(SystemExit, match=message):
        main(["stealth-audit", "--f0", "0,1", *args])


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
