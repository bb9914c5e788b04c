import csv
import json
import os

import pytest

from dnprobe.cli import main

GAMMA_CFG = """
[grid]
h = 0.0625
dt = 0.0625
pad = 12

[material]
gamma1 = constant:c0=1.02
gamma2 = constant:c0=1

[probe]
a_rule = power
r = 0.5

[sweep]
tau_list = 0.2,0.15,0.125
eps_list = 0.02,0.04
k_list = 4,8

[norms]
dict_size = 2

[output]
dir = {out}
prefix = demo
"""


@pytest.fixture
def cfg_path(tmp_path):
    out = tmp_path / "out"
    p = tmp_path / "exp.ini"
    p.write_text(GAMMA_CFG.format(out=out))
    return str(p)


def _read_csv(path):
    meta, rows = {}, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                k, v = line[1:].strip().split("=", 1)
                meta[k] = v
            else:
                rows.append(line.strip())
    header = rows[0].split(",")
    body = list(csv.reader(rows[1:]))
    return meta, header, body


def test_unknown_key_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[grid]\nstep = 0.1\n")
    assert main(["forward", "-c", str(p)]) == 2
    assert "step" in capsys.readouterr().err


def test_unknown_section_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[solver]\ntol = 1e-8\n")
    assert main(["forward", "-c", str(p)]) == 2
    assert "solver" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert main(["forward", "-c", str(tmp_path / "nope.ini")]) == 2


def test_forward_writes_flux_csv(cfg_path, tmp_path):
    assert main(["forward", "-c", cfg_path]) == 0
    path = tmp_path / "out" / "demo_flux.csv"
    meta, header, body = _read_csv(path)
    assert "config_hash" in meta and "norm" in meta and "version" in meta
    assert len(body) > 0


def test_forward_is_deterministic(cfg_path, tmp_path):
    assert main(["forward", "-c", cfg_path]) == 0
    path = tmp_path / "out" / "demo_flux.csv"
    first = path.read_bytes()
    assert main(["forward", "-c", cfg_path]) == 0
    assert path.read_bytes() == first


def test_forward_mms_prints_orders(cfg_path, capsys):
    assert main(["forward", "-c", cfg_path, "--mms"]) == 0
    out = capsys.readouterr().out
    assert "order" in out


def test_linearize_check_table(cfg_path, tmp_path, capsys):
    assert main(["linearize-check", "-c", cfg_path]) == 0
    meta, header, body = _read_csv(tmp_path / "out" / "demo_linearize.csv")
    assert header[:2] == ["k", "d_k"]
    assert [int(r[0]) for r in body] == [4, 8]
    assert "d_k" in capsys.readouterr().out


def test_probe_gamma_report(cfg_path, tmp_path, capsys):
    assert main(["probe-gamma", "-c", cfg_path]) == 0
    with open(tmp_path / "out" / "demo_gamma_report.json") as fh:
        rep = json.load(fh)
    assert rep["target"] == "gamma"
    assert rep["reference_value"] == pytest.approx(0.02)
    # constant contrast: the sweep must land close to it
    assert rep["extrapolated_value"] == pytest.approx(0.02, rel=0.25)
    meta, header, body = _read_csv(tmp_path / "out" / "demo_gamma_sweep.csv")
    assert header == ["target", "t0", "lambda", "tau", "estimate"]
    assert len(body) == 3
    assert meta["config_hash"] == rep["config_hash"]


def test_stability_report(cfg_path, tmp_path, capsys):
    assert main(["stability", "-c", cfg_path]) == 0
    with open(tmp_path / "out" / "demo_stability_report.json") as fh:
        rep = json.load(fh)
    assert rep["target"] == "gamma"
    assert len(rep["rows"]) == 2
    assert rep["fitted_slope"] == pytest.approx(1.0, abs=0.2)
    assert "slope" in capsys.readouterr().out


def test_stability_failed_row_is_strict_json(cfg_path, tmp_path, monkeypatch):
    import dnprobe.reconstruct as reconstruct
    from dnprobe.pde import PDEError
    real, calls = reconstruct.eta_surrogate, []

    def fail_first_eps(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise PDEError("outside operational smallness radius (injected)")
        return real(*args, **kwargs)

    monkeypatch.setattr(reconstruct, "eta_surrogate", fail_first_eps)
    assert main(["stability", "-c", cfg_path]) == 0

    def reject(name):
        raise ValueError(f"invalid JSON constant {name}")

    with open(tmp_path / "out" / "demo_stability_report.json") as fh:
        rep = json.load(fh, parse_constant=reject)
    failed, good = rep["rows"]
    assert not failed["ok"] and "injected" in failed["why"]
    assert failed["eta"] is None and failed["recovered"] is None
    assert good["ok"] and good["eta"] > 0.0


def test_report_summarizes_outputs(cfg_path, tmp_path, capsys):
    main(["probe-gamma", "-c", cfg_path])
    capsys.readouterr()
    assert main(["report", "-c", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "demo_gamma_report.json" in out
    assert "extrapolated_value" in out


def test_report_empty_dir(cfg_path, tmp_path, capsys):
    os.makedirs(tmp_path / "out", exist_ok=True)
    assert main(["report", "-c", cfg_path]) == 0
    assert "no reports" in capsys.readouterr().out


def test_infeasible_probe_exits_1(tmp_path, capsys):
    # tau below the 2h resolution guard must fail cleanly, not crash
    p = tmp_path / "exp.ini"
    p.write_text(GAMMA_CFG.format(out=tmp_path / "out")
                 .replace("tau_list = 0.2,0.15,0.125", "tau_list = 0.1,0.05"))
    assert main(["probe-gamma", "-c", str(p)]) == 1
    assert "error" in capsys.readouterr().err


def test_inadmissible_law_exits_2_before_any_solve(tmp_path, capsys):
    # gamma1 below the positivity floor must be rejected by name, not probed
    p = tmp_path / "exp.ini"
    p.write_text(GAMMA_CFG.format(out=tmp_path / "out")
                 .replace("gamma1 = constant:c0=1.02",
                          "gamma1 = constant:c0=-0.5\nm_floor = 0.5"))
    assert main(["probe-gamma", "-c", str(p)]) == 2
    assert "gamma_floor" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
