"""End-to-end command line behavior, driven through main(argv)."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import fragsim
from fragsim.cli import main

SIM_CFG = """
measure = atomic; atoms = 1.0:0.6,0.4
t_end = 1.0
obs_times = 0.5, 1.0
replicas = 2
seed = 9
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_simulate_writes_trace_pairs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "traces"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "wrote 2 replica trace pairs" in capsys.readouterr().out
    for i in range(2):
        events = (out / f"events_{i:04d}.csv").read_text(encoding="utf-8")
        snaps = (out / f"snapshots_{i:04d}.csv").read_text(encoding="utf-8")
        assert events.startswith("time,target_rank,parent_mass,s1,")
        assert snaps.startswith("time,lambda1,")
        assert len(snaps.splitlines()) == 3  # header + two observations


def test_simulate_is_deterministic_in_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a), "--seed", "5"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--seed", "5"]) == 0
    capsys.readouterr()
    for name in ("events_0000.csv", "snapshots_0001.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


PIN_CFG = """
measure = atomic; atoms = 1.0:0.6,0.4;0.5:0.5,0.3,0.2
alpha = 1.0
mass_floor = 1e-3
t_end = 20.0
obs_times = 1.0, 5.0, 20.0
"""

# sha256 of each trace file of `simulate --seed 5 --replicas 2` on PIN_CFG
PIN_SHA256 = {
    "events_0000.csv":
        "a46971e4052694d1e40ee462d8cc12966cc476948e632fdcb074d36256b7131f",
    "events_0001.csv":
        "94c7fe86d024891a3c73210d8b7a57072c16b714cf60c88b848ce5c43a9abe18",
    "snapshots_0000.csv":
        "98abd3e1fded3fe79b77546b2476a5cb560303f49752a37debf55d3d9c0ab1f6",
    "snapshots_0001.csv":
        "c1d26a3b2d5158f4f76b398ad86842026df4791141f13720516eeeb96983a941",
}


def test_simulate_traces_are_pinned(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PIN_CFG)
    out = tmp_path / "traces"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--seed", "5", "--replicas", "2"]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in PIN_SHA256}
    assert got == PIN_SHA256


def test_simulate_config_must_be_complete(tmp_path, capsys):
    no_t = write_cfg(tmp_path, "measure = binary_power; a = 0.5\neps = 0.1", "a.cfg")
    assert main(["simulate", "--config", no_t]) == 2
    no_law = write_cfg(tmp_path, "t_end = 1.0", "b.cfg")
    assert main(["simulate", "--config", no_law]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3


def test_simulate_reports_a_rate_overflow(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM_CFG.replace("t_end = 1.0", "t_end = 5.0")
                    + "alpha = -1\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mass_floor" in err


def test_simulate_rejects_an_infinite_atom_weight(tmp_path, capsys):
    # an infinite rate makes every wait 0, so the path never reached t_end
    cfg = write_cfg(tmp_path, SIM_CFG.replace("1.0:0.6,0.4", "inf:0.6,0.4"))
    out = tmp_path / "traces"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "finite sum" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_a_nan_observation_time(tmp_path, capsys):
    # a NaN time fails both bounds of a plain range check, and the
    # snapshots from it on would go missing while simulate exits 0
    cfg = write_cfg(tmp_path, SIM_CFG.replace("t_end = 1.0", "t_end = 2.0")
                    .replace("obs_times = 0.5, 1.0",
                             "obs_times = 0.5, nan, 1.0, 2.0"))
    out = tmp_path / "traces"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "observation time nan" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, extra", [
    (["--seed", "-3"], ""),
    ([], "seed = -3\n"),
    (["--replicas", "-1"], ""),
    (["--replicas", "0"], ""),
])
def test_simulate_rejects_a_bad_seed_or_replica_count(tmp_path, capsys, argv,
                                                      extra):
    cfg = write_cfg(tmp_path, PIN_CFG + extra)
    out = tmp_path / "traces"
    assert main(["simulate", "--config", cfg, "--out", str(out), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "wrote" not in captured.out
    assert not out.exists()


def test_verify_rejects_a_negative_seed(capsys):
    assert main(["verify", "erosion", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: suite 'erosion' needs "
                                              "an int seed >= 0")


def test_verify_subordinator_needs_a_single_atom_law(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "measure = binary_power; a = 0.5\n")
    assert main(["verify", "subordinator", "--config", cfg]) == 2
    assert "one-atom atomic law" in capsys.readouterr().err


@pytest.mark.parametrize("t_end", ["-1", "nan", "inf"])
def test_verify_subordinator_rejects_a_bad_horizon(tmp_path, capsys, t_end):
    cfg = write_cfg(tmp_path, f"t_end = {t_end}\n")
    assert main(["verify", "subordinator", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_subordinator_with_survival_rounded_to_1(tmp_path, capsys):
    # the survival SE is 0 here: the check scores 0 and passes
    cfg = write_cfg(tmp_path, "measure = atomic; atoms = 1.0:0.9999999999999999"
                              "\nt_end = 0.5\n")
    assert main(["verify", "subordinator", "--config", cfg,
                 "--replicas", "2000"]) == 0
    out = capsys.readouterr().out
    assert "check: survival_z statistic=0 < threshold=3 n=2000 pass" in out


@pytest.mark.parametrize("command", (["verify", "erosion"], ["simulate"]))
def test_a_config_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    # the load fails before simulate makes its output directory
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"\xfft_end = 1.0\n")
    assert main([*command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path} is not UTF-8 text")


def test_verify_pass(capsys):
    assert main(["verify", "erosion", "--replicas", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("suite: erosion\n")
    assert "overall: PASS" in out


def test_verify_failure_exit_code(capsys):
    # far too few replicas for the pinned KS threshold: a seeded, reliable
    # check failure (not a config error)
    assert main(["verify", "records", "--replicas", "60"]) == 1
    out = capsys.readouterr().out
    assert "overall: FAIL" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "made-up-suite"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_with_override_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "t_end = 0.5\nreplicas = 6")
    assert main(["verify", "erosion", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "('t', '0.5')" in out or "t=0.5" in out
    bad = write_cfg(tmp_path, "eps = 0.1", "bad.cfg")
    assert main(["verify", "erosion", "--config", bad]) == 2


def test_verify_rejects_a_non_positive_replica_count(capsys):
    assert main(["verify", "erosion", "--replicas", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: replica count 0")


def test_tail_grid(capsys):
    assert main(["tail", "--measure", "binary_power; a = 0.5",
                 "--x", "0.25,0.01"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "x,tail_nu2,gen_inverse_f"
    assert lines[1].startswith("0.25,0.5857864")
    assert lines[-1].startswith("dust_integral = 0.7071067812")
    # the explicit grammar prefix is also accepted
    assert main(["tail", "--measure", "measure = binary_power; a = 0.5",
                 "--x", "0.25"]) == 0
    assert "0.5857864" in capsys.readouterr().out


@pytest.mark.parametrize("suite, line, echo", (
    ("frechet-k", "event_budget = 6", "event_budget=6.0"),
    ("subordinator", "m_max = 3", "m_max=3"),
    ("correspondence", "n = 500", "n=500"),
    ("scaling", "r = 0.25", "r=0.25"),
))
def test_verify_takes_the_suite_only_keys(tmp_path, capsys, suite, line, echo):
    # the config file typed only SimConfig's keys, so each of these exited 2
    cfg = write_cfg(tmp_path, line + "\n")
    assert main(["verify", suite, "--config", cfg, "--replicas", "50"]) in (0, 1)
    config = [l for l in capsys.readouterr().out.splitlines()
              if l.startswith("config: ")]
    assert echo in config[0].split()


def test_simulate_rejects_a_suite_only_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM_CFG + "n = 5\n")
    out = tmp_path / "never"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    # the parser now types n for the suites; simulate must still refuse it
    assert "simulate does not take 'n'" in capsys.readouterr().err
    assert not out.exists()


def test_tail_keeps_the_closed_form_below_1e_300(capsys):
    assert main(["tail", "--measure", "binary_power; a = 0.5",
                 "--x", "1e-310"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1e-310,1e+155,0.5"


def test_tail_rejects_bad_input(capsys):
    assert main(["tail", "--measure", "binary_power", "--x", "0.25"]) == 2
    assert main(["tail", "--measure", "binary_power; a = 0.5", "--x", " "]) == 2
    assert main(["tail", "--measure", "binary_power; a = 0.5", "--x", "a"]) == 2
    # a NaN Beta parameter printed NaN rows and exited 0
    assert main(["tail", "--measure", "brennan_durrett; p = nan; q = 2",
                 "--x", "0.1"]) == 2
    # a NaN grid point printed a NaN row and exited 0
    assert main(["tail", "--measure", "atomic; atoms = 1.0:0.6,0.4",
                 "--x", "0.1,nan"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 5 and captured.out == ""


def test_argparse_usage_error():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["simulate"])  # --config is required


NO_SCIPY_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import fragsim
import fragsim.cli
code = fragsim.cli.main(["verify", "erosion", "--seed", "1"])
scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
law = fragsim.BrennanDurrett(2, 2)
dust = law.dust_integral()
tail = law.tail_nu2(0.25)
bd = sorted(m for m in sys.modules if m in ("scipy.stats", "scipy.integrate"))
print(json.dumps({"code": code, "scipy": scipy, "dust": dust, "tail": tail,
                  "bd": bd, "special": "scipy.special" in sys.modules}))
"""


def test_import_and_a_suite_load_no_scipy():
    # a fresh interpreter: this test process has imported scipy already
    src = os.path.dirname(os.path.dirname(os.path.abspath(fragsim.__file__)))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, src],
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["code"] == 0
    assert result["scipy"] == []
    # Brennan-Durrett loads scipy.special on first use, and nothing more
    assert result["dust"] == pytest.approx(0.3125, abs=1e-12)
    assert result["tail"] == pytest.approx(0.6875, abs=1e-12)
    assert result["special"] and result["bd"] == []
