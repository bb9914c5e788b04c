import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dnprobe import cli
from dnprobe.cli import main
from dnprobe.config import ConfigError, load_config
from dnprobe.pde import SpaceTimeField
from dnprobe.reconstruct import recover_gamma_point, recover_rho_point

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


def test_forward_csv_is_what_csv_writer_writes(cfg_path, tmp_path, monkeypatch):
    # the flux rows are joined by hand, a level at a time: the file must be
    # byte for byte the one csv.writer writes for the same rows
    cfg = load_config(cfg_path)
    grid = cfg.grid
    rng = np.random.default_rng(5)
    shape = (grid.nt + 1,) + grid.patch_support_mask().shape
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-120, 120, shape)
    values[1] = 0.0
    values[2, ::2] = -0.0
    monkeypatch.setattr(cli, "solve_forward",
                        lambda *args, **kw: SpaceTimeField(values=values, grid=grid))
    assert main(["forward", "-c", cfg_path]) == 0
    ids = np.flatnonzero(grid.patch_support_mask().ravel())
    buf = io.StringIO(newline="")
    meta = cli._meta(cfg)
    cli._csv_header(buf, meta, ["face_node_id", "t", "flux"]).writerows(
        (i, f"{t:.10g}", f"{v:.12e}")
        for t, level in zip(grid.times, values) for i, v in zip(ids, level.ravel()[ids]))
    assert (tmp_path / "out" / "demo_flux.csv").read_bytes() == buf.getvalue().encode()


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


def test_a_failed_stability_solve_exits_1_and_writes_nothing(cfg_path, tmp_path, monkeypatch,
                                                             capsys):
    # a PDEError met while the table is formed fails the run: exit 1 with
    # an error line naming it, and neither the CSV nor the JSON is written
    import dnprobe.reconstruct as reconstruct
    from dnprobe.pde import PDEError

    def fail(*args, **kwargs):
        raise PDEError("outside operational smallness radius (injected)")

    monkeypatch.setattr(reconstruct, "eta_surrogate", fail)
    assert main(["stability", "-c", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: outside operational smallness radius (injected)"
    assert not (tmp_path / "out" / "demo_stability.csv").exists()
    assert not (tmp_path / "out" / "demo_stability_report.json").exists()


@pytest.mark.parametrize("field", ["fitted_rate", "extrapolated_value"])
def test_sweep_with_a_non_finite_fit_is_strict_json(cfg_path, tmp_path, monkeypatch, field):
    # a non-finite fitted rate or extrapolated value is written as null,
    # and the command still succeeds
    real = cli.tau_sweep

    def nan_fit(*args, **kwargs):
        report = real(*args, **kwargs)
        setattr(report, field, float("nan"))
        return report

    monkeypatch.setattr(cli, "tau_sweep", nan_fit)
    assert main(["probe-gamma", "-c", cfg_path]) == 0

    def reject(name):
        raise ValueError(f"invalid JSON constant {name}")

    with open(tmp_path / "out" / "demo_gamma_report.json") as fh:
        rep = json.load(fh, parse_constant=reject)
    assert rep[field] is None
    assert all(math.isfinite(e) for e in rep["raw_estimates"])


def test_a_failed_schur_check_exits_1_by_name(cfg_path, tmp_path, monkeypatch, capsys):
    # the positive-definite check of the Omega' Schur complement fails:
    # a named error line and exit 1, not numpy's LinAlgError traceback
    def not_spd(S):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", not_spd)
    assert main(["probe-gamma", "-c", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: Omega' Schur complement is not positive definite"
    assert not (tmp_path / "out" / "demo_gamma_report.json").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_non_finite_json_value_fails_the_write(tmp_path, bad):
    # JSON has no NaN or infinity: the write refuses it and leaves no file
    path = tmp_path / "out" / "demo_gamma_report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_json(str(path), {"raw_estimates": [0.01, bad]})
    assert os.listdir(tmp_path / "out") == []


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


def test_report_without_an_output_dir_finds_nothing(cfg_path, tmp_path, capsys):
    assert not (tmp_path / "out").exists()
    assert main(["report", "-c", cfg_path]) == 0
    captured = capsys.readouterr()
    assert "no reports found" in captured.out and captured.err == ""


@pytest.mark.parametrize("text, why", [('{"target": "gam', "line 1"),
                                       ("[]", "not a JSON object but a list")],
                         ids=["truncated", "list"])
def test_report_names_a_report_it_cannot_read(cfg_path, tmp_path, capsys, text, why):
    out = tmp_path / "out"
    out.mkdir()
    (out / "demo_bad.json").write_text(text)
    (out / "demo_good.json").write_text('{"target": "gamma"}')
    assert main(["report", "-c", cfg_path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {out / 'demo_bad.json'}: ")
    assert why in captured.err and "Traceback" not in captured.err
    assert "demo_good.json" in captured.out and "no reports" not in captured.out


def test_infeasible_probe_exits_2(tmp_path, capsys):
    # tau below the 2h resolution guard is rejected by name before any solve
    p = tmp_path / "exp.ini"
    p.write_text(GAMMA_CFG.format(out=tmp_path / "out")
                 .replace("tau_list = 0.2,0.15,0.125", "tau_list = 0.1,0.05"))
    assert main(["probe-gamma", "-c", str(p)]) == 2
    assert "tau_resolution fails" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_inadmissible_law_exits_2_before_any_solve(tmp_path, capsys):
    # gamma1 below the positivity floor must be rejected by name, not probed
    p = tmp_path / "exp.ini"
    p.write_text(GAMMA_CFG.format(out=tmp_path / "out")
                 .replace("gamma1 = constant:c0=1.02",
                          "gamma1 = constant:c0=-0.5\nm_floor = 0.5"))
    assert main(["probe-gamma", "-c", str(p)]) == 2
    assert "gamma_floor" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_kappa_cap_is_enforced_at_load(tmp_path, capsys):
    # sup d_t rho1 = 0.2 * 2 pi * 0.2 = 0.25 exceeds the cap of 0.1
    p = tmp_path / "exp.ini"
    p.write_text(GAMMA_CFG.format(out=tmp_path / "out")
                 .replace("gamma2 = constant:c0=1",
                          "gamma2 = constant:c0=1\nrho1 = trig_t:c0=1:c1=0.2:freq=0.2\n"
                          "kappa_cap = 0.1"))
    assert main(["forward", "-c", str(p)]) == 2
    assert "rho_dt_cap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verbose_forward_reports_newton_counts_on_stderr(cfg_path, capsys):
    assert main(["forward", "-c", cfg_path]) == 0
    quiet = capsys.readouterr()
    assert main(["forward", "-v", "-c", cfg_path]) == 0
    loud = capsys.readouterr()
    # constant laws and diagonal A: the frozen DST step is the Newton step
    assert "factorizations 0" in loud.err and "factorizations" not in quiet.err
    assert loud.out == quiet.out


def test_verbose_linearize_check_reports_counts_per_k(cfg_path, capsys):
    # the k-scaled data of linearize-check are one stacked forward solve;
    # -v keeps one line of counts per k.  A gamma constant in space takes
    # one residual stencil per iteration: each level's first residual is
    # built from the stencil of the level before
    assert main(["linearize-check", "-v", "-c", cfg_path]) == 0
    err = capsys.readouterr().err
    for k in (4, 8):
        assert f"forward k={k}: steps 16 iterations 14 factorizations 0 " in err
        line = next(x for x in err.splitlines() if x.startswith(f"forward k={k}:"))
        assert line.endswith(" stencils 14")


# --- paper hypotheses a subcommand needs, rejected before any solve ----------

RHO3D = GAMMA_CFG.replace("[grid]\n", "[grid]\ndim = 3\n").replace(
    "[material]\n", "[material]\nperturb_target = rho\n"
    "perturb_profile = trig_t:c0=0:c1=1:freq=0.5\n")


def _set(old, new, text=GAMMA_CFG):
    assert old in text
    return text.replace(old, new, 1)


def _args(command, mms=False):
    """The parsed arguments _probe_plan reads."""
    return argparse.Namespace(command=command, mms=mms)


def _exits_2_naming(tmp_path, capsys, text, command, predicate):
    p = tmp_path / "exp.ini"
    p.write_text(text.format(out=tmp_path / "out"))
    assert main([command, "-c", str(p)]) == 2
    assert f"{predicate} fails" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["probe-rho", "stability"])
def test_rho_probes_on_two_dimensions_exit_2(tmp_path, capsys, command):
    text = RHO3D.replace("dim = 3", "dim = 2")
    _exits_2_naming(tmp_path, capsys, text, command, "rho_dim")


@pytest.mark.parametrize("command", ["probe-rho", "stability"])
def test_rho_probes_with_anisotropic_matrix_exit_2(tmp_path, capsys, command):
    text = RHO3D.replace("[material]\n", "[material]\na_diag = 1,1,2\n")
    _exits_2_naming(tmp_path, capsys, text, command, "rho_identity_A")


@pytest.mark.parametrize("command", ["probe-rho", "stability"])
def test_rho_probes_with_unequal_conductivities_exit_2(tmp_path, capsys, command):
    # gamma1 - gamma2 leaks into the rho estimate on supp chi
    text = RHO3D_SMALL.replace("[material]\n", "[material]\ngamma1 = constant:c0=1.05\n")
    _exits_2_naming(tmp_path, capsys, text, command, "rho_equal_gamma")


@pytest.mark.parametrize("command", ["probe-gamma", "probe-rho"])
def test_single_tau_sweep_exits_2(tmp_path, capsys, command):
    text = (RHO3D if command == "probe-rho" else GAMMA_CFG).replace(
        "tau_list = 0.2,0.15,0.125", "tau_list = 0.2,0.2")
    _exits_2_naming(tmp_path, capsys, text, command, "tau_sweep")


# --- probe geometry over every tau a subcommand uses ---------------------------


def _case(command, text, predicate):
    return pytest.param(command, text, predicate, id=predicate)


@pytest.mark.parametrize("command, text, predicate", [
    _case("probe-gamma", _set("[probe]\n", "[probe]\nx0 = 0,0.5,0.5\n"), "x0_dim"),
    _case("probe-gamma", _set("[probe]\n", "[probe]\nx0 = 0.5,0.5\n"), "x0_on_face"),
    _case("probe-gamma", _set("[probe]\n", "[probe]\nx0 = 0,0.03\n"), "x0_in_patch"),
    # pad 12 at h = 1/16 puts the admissibility radius at 0.375
    _case("probe-gamma", _set("tau_list = 0.2,0.15,0.125", "tau_list = 0.5,0.2"),
          "tau_admissible"),
    _case("stability", _set("[probe]\n", "[probe]\nt0 = 1.5\n"), "t0_interior"),
    # 1/a_tau = sqrt(0.3) reaches past t0 = 0.5
    _case("probe-gamma", _set("tau_list = 0.2,0.15,0.125", "tau_list = 0.3,0.2"),
          "cutoff_support"),
    _case("linearize-check", _set("tau_list = 0.2,0.15,0.125", "tau_list ="), "probe_tau"),
])
def test_infeasible_probe_geometry_exits_2(tmp_path, capsys, command, text, predicate):
    _exits_2_naming(tmp_path, capsys, text, command, predicate)


@pytest.mark.parametrize("r", ["0", "-0.1"])
def test_power_rule_without_positive_r_exits_2(tmp_path, capsys, r):
    # t0 = 1.5 of T = 3: the window 1/a_tau = tau^r fits inside (0, T), so
    # only a_tau_power refuses it
    text = _set("r = 0.5", f"r = {r}\nt0 = 1.5").replace("[grid]\n", "[grid]\nt_final = 3\n")
    _exits_2_naming(tmp_path, capsys, text, "probe-gamma", "a_tau_power")


def test_linearize_check_without_a_k_exits_2(tmp_path, capsys, monkeypatch):
    # an empty k_list would solve the probe and write a table of no rows
    import dnprobe.singular as singular
    solved = []
    monkeypatch.setattr(singular, "solve_corrector", lambda *args: solved.append(args))
    _exits_2_naming(tmp_path, capsys, _set("k_list = 4,8", "k_list ="), "linearize-check",
                    "k_sweep")
    assert solved == []


def test_rho_plateau_that_cannot_cover_the_bump_exits_2(tmp_path, capsys):
    # T = 1, t0 = 0.5: the plateau half-width is 0.3 < tau^r = sqrt(0.2)
    _exits_2_naming(tmp_path, capsys, RHO3D, "probe-rho", "plateau_cover")


def test_forward_checks_the_probe_it_solves_with(tmp_path, capsys):
    # forward drives the gamma probe at min(tau_list) and refuses a rho
    # kind; with --mms it runs on manufactured data: no probe
    text = GAMMA_CFG.replace("tau_list = 0.2,0.15,0.125", "tau_list = 0.2,0.1")
    _exits_2_naming(tmp_path, capsys, text, "forward", "tau_resolution")
    p = tmp_path / "exp.ini"
    p.write_text(text.format(out=tmp_path / "out"))
    assert cli._probe_plan(load_config(str(p)), _args("forward", mms=True)) is None
    p.write_text(text.replace("[probe]\n", "[probe]\nkind = rho\n")
                 .format(out=tmp_path / "out"))
    with pytest.raises(ConfigError, match="forward_kind fails"):
        cli._probe_plan(load_config(str(p)), _args("forward"))
    assert cli._probe_plan(load_config(str(p)), _args("forward", mms=True)) is None


@pytest.mark.parametrize("text, predicate", [
    (_set("[probe]\n", "[probe]\nkind = rho\n"), "forward_kind"),
    (_set("tau_list = 0.2,0.15,0.125", "tau_list ="), "probe_tau"),
], ids=["rho-kind", "no-tau"])
def test_forward_without_a_gamma_probe_exits_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                                text, predicate):
    # a datum of no probe would solve zero data and write an all-zero flux
    solved = []
    monkeypatch.setattr(cli, "solve_forward", lambda *args, **kwargs: solved.append(args))
    _exits_2_naming(tmp_path, capsys, text, "forward", predicate)
    assert solved == []


# --- malformed and out-of-set config values ------------------------------------


@pytest.mark.parametrize("text, named", [
    (GAMMA_CFG.replace("h = 0.0625", "h = abc"), "h"),
    (GAMMA_CFG.replace("tau_list = 0.2,0.15,0.125", "tau_list = 0.2,x"), "tau_list"),
    (GAMMA_CFG.replace("pad = 12", "pad = 12\npatch_interval = 0.25"), "patch_interval"),
    (GAMMA_CFG + "\n[grid]\ndim = 2\n", "grid"),
    ("dt = 0.0625\n" + GAMMA_CFG, "dt"),
], ids=["float", "float-list", "interval", "duplicate-section", "no-section-header"])
def test_malformed_config_exits_2(tmp_path, capsys, text, named):
    p = tmp_path / "exp.ini"
    p.write_text(text.format(out=tmp_path / "out"))
    assert main(["forward", "-c", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text, named", [
    ("forward", _set("[probe]\n", "[probe]\nkind = foo\n"), "kind = 'foo'"),
    ("probe-gamma", _set("a_rule = power", "a_rule = cubic"), "a_rule = 'cubic'"),
    ("probe-gamma", _set("[probe]\n", "[probe]\nshape = bogus\n"), "shape = 'bogus'"),
    ("probe-gamma", _set("dict_size = 2", "dict_size = 2\nkind = bogus"),
     "unknown key 'kind' in section [norms]"),
    ("probe-gamma", _set("[grid]\n", "[grid]\ndim = 3\n",
                         _set("dict_size = 2", "dict_size = 2\nkind = spectral")),
     "unknown key 'kind' in section [norms]"),
    # the constant of H cancels in every estimate: no key sets it
    ("probe-gamma", _set("[probe]\n", "[probe]\nconv = 10\n"),
     "unknown key 'conv' in section [probe]"),
    ("stability", _set("dict_size = 2", "dict_size = 0"), "dict_size"),
    ("linearize-check", _set("k_list = 4,8", "k_list = 0"), "k_list"),
    ("stability", _set("eps_list = 0.02,0.04", "eps_list ="), "eps_sweep fails"),
    ("stability", _set("eps_list = 0.02,0.04", "eps_list = -0.01,-0.02,-0.04"),
     "eps_sweep fails"),
    ("stability", _set("eps_list = 0.02,0.04", "eps_list = 0,-0.02,0.04"), "eps_sweep fails"),
], ids=["probe-kind", "a-rule", "shape", "norm-kind", "spectral-3d", "probe-conv",
        "dict-size", "k-list", "eps-list", "negative-eps", "one-negative-eps"])
def test_value_outside_its_set_exits_2(tmp_path, capsys, command, text, named):
    p = tmp_path / "exp.ini"
    p.write_text(text.format(out=tmp_path / "out"))
    assert main([command, "-c", str(p)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text, named", [
    ("forward", _set("h = 0.0625", "h = nan"), "[grid] h = 'nan' is not finite"),
    ("forward", _set("dt = 0.0625", "dt = nan"), "[grid] dt = 'nan' is not finite"),
    ("forward", _set("[grid]\n", "[grid]\nt_final = inf\n"), "[grid] t_final = 'inf'"),
    ("forward", _set("pad = 12", "pad = 12\npatch_interval = 0.25:inf"),
     "[grid] patch_interval"),
    ("probe-gamma", _set("[material]\n", "[material]\nlambda = nan\n"),
     "[material] lambda = 'nan' is not finite"),
    ("probe-gamma", _set("tau_list = 0.2,0.15,0.125", "tau_list = 0.2,0.15,nan"),
     "[sweep] tau_list"),
    ("probe-gamma", _set("[probe]\n", "[probe]\nx0 = 0,inf\n"), "[probe] x0"),
    ("forward", _set("gamma1 = constant:c0=1.02", "gamma1 = constant:c0=nan"),
     "non-finite law parameter 'c0=nan' in [material] gamma1"),
    ("stability", _set("[material]\n", "[material]\nperturb_profile = trig_t:c1=-inf\n"),
     "non-finite law parameter 'c1=-inf' in [material] perturb_profile"),
], ids=["h", "dt", "t-final", "interval", "lambda", "float-list", "x0", "law-spec",
        "perturb-profile"])
def test_non_finite_config_number_exits_2(tmp_path, capsys, command, text, named):
    # NaN and infinity parse as floats: each is refused by name at load,
    # before a solve, a traceback or a bare NaN in a JSON report
    p = tmp_path / "exp.ini"
    p.write_text(text.format(out=tmp_path / "out"))
    assert main([command, "-c", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["forward", "linearize-check", "probe-gamma", "stability"])
@pytest.mark.parametrize("text, named", [
    (_set("h = 0.0625", "h = 0"), "h must be positive"),
    (_set("dt = 0.0625", "dt = 0"), "dt must be positive"),
    # not "dt does not divide T", which names the wrong key
    (_set("[grid]\n", "[grid]\nt_final = 0\n"), "t_final must be positive"),
    (_set("[grid]\n", "[grid]\nt_final = -1\n"), "t_final must be positive"),
], ids=["h", "dt", "t_final-0", "t_final-negative"])
def test_zero_grid_step_exits_2_by_name(tmp_path, capsys, command, text, named):
    p = tmp_path / "exp.ini"
    p.write_text(text.format(out=tmp_path / "out"))
    assert main([command, "-c", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert not (tmp_path / "out").exists()


def test_negative_dict_seed_exits_2_before_any_solve(tmp_path, capsys):
    p = tmp_path / "exp.ini"
    p.write_text(_set("dict_size = 2", "dict_size = 2\ndict_seed = -1")
                 .format(out=tmp_path / "out"))
    assert main(["stability", "-c", str(p)]) == 2
    assert "[norms] dict_seed = -1 must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("floor", ["-1", "0"])
def test_non_positive_floor_exits_2_before_any_solve(tmp_path, capsys, floor):
    # a floor at or below zero would let gamma1 = -0.5 through to a forward
    # solve that diverges; the floor itself is refused by name
    p = tmp_path / "exp.ini"
    p.write_text(_set("gamma1 = constant:c0=1.02", f"gamma1 = constant:c0=-0.5\nm_floor = {floor}")
                 .format(out=tmp_path / "out"))
    assert main(["forward", "-c", str(p)]) == 2
    assert f"[material] m_floor = {floor} must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bump_shapes_come_from_the_skew_table(tmp_path):
    from dnprobe.singular import BUMP_SKEW
    for shape in BUMP_SKEW:
        p = tmp_path / "exp.ini"
        p.write_text(GAMMA_CFG.replace("[probe]\n", f"[probe]\nshape = {shape}\n")
                     .format(out=tmp_path / "out"))
        assert load_config(str(p)).bump_shape == shape


def _python(code: str, *args) -> str:
    """Run code in a fresh interpreter on the package source; its stdout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_cli_and_subcommands_that_factorize_nothing_load_no_scipy(cfg_path):
    # DST-I, the Omega' Schur solve, quadrature and root finding run on
    # numpy alone; scipy is for the Newton Jacobian's sparse LU only; no
    # thread pool is imported either
    code = ("import contextlib, io, sys\n"
            "import dnprobe.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rcs = [cli.main([c, '-c', sys.argv[1]]) for c in ('probe-gamma', "
            "'stability', 'forward', 'linearize-check', 'report')]\n"
            "print(rcs, sorted(m for m in sys.modules if m.startswith('scipy')), "
            "'concurrent.futures' in sys.modules)")
    assert _python(code, cfg_path).strip() == "[0, 0, 0, 0, 0] [] False"


def test_a_factorizing_forward_solve_loads_splu_through_the_module():
    # the first factorization imports scipy.sparse.linalg; a rebinding of
    # pde.splu is what the Newton fallback then calls
    code = """
import sys
from dnprobe import pde
from dnprobe.geometry import build_grid
from dnprobe.material import make_law, make_matrix
import numpy as np
g = build_grid(2, 1 / 16, 1 / 16, 1.0)
law = make_law(gamma=("poly_s", {"c0": 1.0, "c1": 0.5, "c2": 0.5}))
# 2 t x_0 on dOmega, built here: the child has no tests/ on its path
x = g.node_coords()[0]
gb = pde.BoundaryField(values=2.0 * g.times[:, None, None] * x * ~pde.interior_mask(g),
                       grid=g)
solve = lambda: pde.solve_forward(law, make_matrix(np.eye(2)), g, 0.0, gb).newton
before = sorted(m for m in sys.modules if m.startswith("scipy"))
first = solve()
loaded = "scipy.sparse.linalg" in sys.modules
calls, real = [], pde.splu
pde.splu = lambda J: calls.append(1) or real(J)
second = solve()
print(before, loaded, first == second, first["factorizations"], len(calls))
"""
    before, loaded, same, factorizations, calls = _python(code).split()
    assert (before, loaded, same) == ("[]", "True", "True")
    assert int(calls) == int(factorizations) >= 1


def test_stability_builds_its_probe_once(tmp_path, monkeypatch):
    # three eps: the probe is built once, and one frozen call solves every
    # eps's law pair on the dictionary and the probe
    import dnprobe.dnmap as dnmap
    import dnprobe.reconstruct as reconstruct
    real_flux, real_basis = reconstruct.patch_linear_flux, reconstruct.build_basis
    solved, built = [], []

    def counted_flux(*args, **kwargs):
        solved.append(1)
        return real_flux(*args, **kwargs)

    def counted_basis(*args, **kwargs):
        built.append(1)
        return real_basis(*args, **kwargs)

    monkeypatch.setattr(dnmap, "patch_linear_flux", counted_flux)
    monkeypatch.setattr(reconstruct, "patch_linear_flux", counted_flux)
    monkeypatch.setattr(reconstruct, "build_basis", counted_basis)
    p = tmp_path / "exp.ini"
    p.write_text(GAMMA_CFG.replace("eps_list = 0.02,0.04", "eps_list = 0.01,0.02,0.04")
                 .format(out=tmp_path / "out"))
    assert main(["stability", "-c", str(p)]) == 0
    assert len(built) == 1
    assert len(solved) == 1


@pytest.mark.parametrize("command", ["probe-gamma", "stability"])
def test_a_command_builds_the_law_family_once(tmp_path, monkeypatch, command):
    # the config keeps the family its admissibility check builds, and the
    # plan and the stability table read it: one perturb_law per eps
    import dnprobe.config as config
    real, built = config.perturb_law, []
    monkeypatch.setattr(config, "perturb_law",
                        lambda base, eps, *args: built.append(eps) or real(base, eps, *args))
    p = tmp_path / "exp.ini"
    p.write_text(GAMMA_CFG.replace("eps_list = 0.02,0.04", "eps_list = 0.01,0.02,0.04")
                 .format(out=tmp_path / "out"))
    assert main([command, "-c", str(p)]) == 0
    assert built == [0.01, 0.02, 0.04]


def test_rho3d_probe_builds_only_what_its_data_read(tmp_path, monkeypatch):
    # on the benchmark's rho3d-probe configs: probe-rho solves one corrector
    # stack of the n = 3 derivatives of each of its four probes, no H, and
    # cuts each derivative field to the patch face once; stability solves
    # the 3 of its one probe; make_cutoffs forms no s-lattice, the bump
    # constant being formed at import
    import dnprobe.reconstruct as reconstruct
    import dnprobe.singular as singular
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir,
                                             "perfbench"))
    import workloads
    paths = workloads.write_configs("rho3d-probe", 0, str(tmp_path), str(tmp_path / "out"))
    real_corrector, real_face = singular.solve_corrector, reconstruct.probe_boundary_field
    real_lattice, real_cutoffs = singular._s_lattice, reconstruct.make_cutoffs
    stacks, faces, lattices, in_cutoffs = [], [], [], []

    def counted_corrector(*args, **kwargs):
        out = real_corrector(*args, **kwargs)
        stacks.append(len(out["load_norm"]))
        return out

    def counted_cutoffs(*args, **kwargs):
        in_cutoffs.append(1)
        try:
            return real_cutoffs(*args, **kwargs)
        finally:
            in_cutoffs.pop()

    monkeypatch.setattr(singular, "solve_corrector", counted_corrector)
    monkeypatch.setattr(reconstruct, "probe_boundary_field",
                        lambda *args: faces.append(1) or real_face(*args))
    monkeypatch.setattr(singular, "_s_lattice",
                        lambda: lattices.append(bool(in_cutoffs)) or real_lattice())
    monkeypatch.setattr(reconstruct, "make_cutoffs", counted_cutoffs)
    counts = {}
    for _, argv in workloads.pass_commands("rho3d-probe", paths):
        stacks.clear()
        faces.clear()
        assert main(argv) == 0, argv
        counts[argv[0]] = (list(stacks), len(faces))
    assert counts == {"probe-rho": ([12], 12), "stability": ([3], 3)}
    assert lattices and not any(lattices)  # Phi_tau reads the lattice, make_cutoffs not


def test_forward_prints_the_row_count_it_writes(cfg_path, tmp_path, capsys):
    assert main(["forward", "-c", cfg_path]) == 0
    _, _, body = _read_csv(tmp_path / "out" / "demo_flux.csv")
    assert f"({len(body)} rows)" in capsys.readouterr().out


def test_benchmark_tracer_installs_on_the_package(cfg_path):
    # perfbench/spans.py wraps package functions and splu bindings by name;
    # a rename in src must fail here, not only under --trace 1.  Installed
    # after `import dnprobe.cli`, as perfbench/child.py does, the tracer
    # must also see the layers the subcommands reach, the Omega' operator
    # built inside the corrector solve included
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    code = ("import contextlib, io, json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import dnprobe.cli as cli\n"
            "import spans\n"
            "tracer = spans.Tracer()\n"
            "spans.install(tracer)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rcs = [cli.main([c, '-c', sys.argv[2]]) for c in ('forward', 'probe-gamma', "
            "'stability')]\n"
            "print(json.dumps([rcs, spans.layer_metrics(tracer.export())]))")
    [rcs, metrics] = json.loads(_python(code, os.path.join(root, "perfbench"), cfg_path))
    assert rcs == [0, 0, 0]
    assert metrics["pde.forward_calls"] == 1
    assert metrics["singular.corrector_calls"] == 3  # one probe build per subcommand
    for layer in ("config.load_s", "singular.operator_s", "singular.basis_s",
                  "singular.energy_s", "dnmap.pairing_s", "dnmap.norm_s",
                  "dnmap.dictionary_s", "dnmap.eta_s", "cli.write_s", "cli.bytes_written"):
        assert metrics[layer] > 0, layer


RHO3D_SMALL = """
[grid]
dim = 3
h = 0.0625
dt = 0.125
t_final = 2.5
pad = 8

[material]
rho1 = trig_t:c0=1:c1=0.2:freq=0.2
rho2 = constant:c0=1
perturb_target = rho
perturb_profile = trig_t:c0=0:c1=1:freq=0.2

[probe]
t0 = 1.25
kind = rho
r = 0.25

[sweep]
tau_list = 0.2,0.15
eps_list = 0.1,0.2

[norms]
dict_size = 2

[output]
dir = {out}
prefix = rho
"""


@pytest.mark.parametrize("command, text", [("probe-gamma", GAMMA_CFG),
                                           ("probe-rho", RHO3D_SMALL)],
                         ids=["probe-gamma", "probe-rho"])
def test_probe_sweeps_solve_one_corrector_stack_and_one_flux_per_law(
        tmp_path, monkeypatch, command, text):
    # every probe of the sweep, with H for gamma and its n first derivatives
    # for rho, shares one stacked Omega' corrector solve and one frozen call
    # on the law pair; the estimates are those of the probes recovered one
    # at a time
    import dnprobe.reconstruct as reconstruct
    import dnprobe.singular as singular
    real_corrector, real_flux = singular.solve_corrector, reconstruct.patch_linear_flux
    correctors, fluxes = [], []

    def counted_corrector(*args, **kwargs):
        correctors.append(1)
        return real_corrector(*args, **kwargs)

    def counted_flux(laws, *args):
        fluxes.append(list(laws))
        return real_flux(laws, *args)

    monkeypatch.setattr(singular, "solve_corrector", counted_corrector)
    monkeypatch.setattr(reconstruct, "patch_linear_flux", counted_flux)
    p = tmp_path / "exp.ini"
    p.write_text(text.format(out=tmp_path / "out"))
    assert main([command, "-c", str(p)]) == 0
    cfg = load_config(str(p))
    assert len(correctors) == 1
    assert fluxes == [[(cfg.law1, cfg.law2)]]
    monkeypatch.undo()
    target = command.split("-")[1]
    with open(tmp_path / "out" / f"{cfg.prefix}_{target}_report.json") as fh:
        rep = json.load(fh)
    checked = cli._probe_plan(cfg, _args(command))
    [pair] = checked.pairs
    assert [probe.tau for probe in checked.probes] == rep["tau_sequence"]
    for probe, est in zip(checked.probes, rep["raw_estimates"]):
        one = (recover_gamma_point(pair, cfg.A, cfg.grid, cfg.lam, probe) if target == "gamma"
               else recover_rho_point(pair, cfg.A, cfg.grid, cfg.lam, probe))
        assert abs(est - one) <= 1e-12 * abs(one)


_RHO1_TRIG = "rho1 = trig_t:c0=1:c1=0.2:freq=0.2"
_RHO1_RISING = "rho1 = affine_t:c0=1:c1=0.2"


def test_rho_pair_without_interior_maximum_exits_2(tmp_path, capsys):
    # rho1 - rho2 = 0.2 t peaks only at t = T: the rho probe cannot see it
    text = RHO3D_SMALL.format(out=tmp_path / "out")
    p = tmp_path / "exp.ini"
    p.write_text(text.replace(_RHO1_TRIG, _RHO1_RISING))
    assert main(["probe-rho", "-c", str(p)]) == 2
    assert "interior_max" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # equal rho laws are a degenerate zero difference, which stays allowed
    p.write_text(text.replace(_RHO1_TRIG, "rho1 = constant:c0=1"))
    assert load_config(str(p)).probe_kind == "rho"


def test_interior_max_is_checked_on_the_rho_probes_a_command_builds(tmp_path, capsys):
    # [probe] kind picks no probe: probe-rho builds rho probes whatever it
    # says, and forward refuses kind = rho before building any
    text = _set(_RHO1_TRIG, _RHO1_RISING, RHO3D_SMALL)
    defaults = _set("kind = rho\n", "", _set("perturb_target = rho\n", "", text))
    _exits_2_naming(tmp_path, capsys, defaults, "probe-rho", "interior_max")
    _exits_2_naming(tmp_path, capsys, text, "forward", "forward_kind")


@pytest.mark.parametrize("text", [GAMMA_CFG, RHO3D_SMALL], ids=["gamma", "rho"])
def test_stability_forms_each_target_difference_twice(tmp_path, monkeypatch, text):
    # once in the plan's check and once in the table's, whose rows read
    # their true difference off it
    import dnprobe.reconstruct as reconstruct
    real, formed = reconstruct._coeff_difference, []
    monkeypatch.setattr(reconstruct, "_coeff_difference",
                        lambda pair, *args: formed.append(pair) or real(pair, *args))
    p = tmp_path / "exp.ini"
    p.write_text(text.format(out=tmp_path / "out"))
    assert main(["stability", "-c", str(p)]) == 0
    assert len(formed) == 2 * len(load_config(str(p)).eps_list)


_SUBCOMMANDS = pytest.mark.parametrize("command, text", [
    ("forward", GAMMA_CFG), ("linearize-check", GAMMA_CFG), ("probe-gamma", GAMMA_CFG),
    ("probe-rho", RHO3D_SMALL), ("stability", GAMMA_CFG), ("stability", RHO3D_SMALL),
], ids=["forward", "linearize-check", "probe-gamma", "probe-rho", "stability-gamma",
        "stability-rho"])


@_SUBCOMMANDS
def test_main_checks_the_probes_and_pairs_its_subcommand_builds(
        tmp_path, monkeypatch, command, text):
    # the probes main checks before dispatch are what the subcommand then
    # builds: reconstruct.probe_data receives the value check_probes made
    import dnprobe.reconstruct as reconstruct
    real_check, real_data = cli.check_probes, reconstruct.probe_data
    checked, built = [], []

    def recorded_check(*args, **kwargs):
        checked.append(real_check(*args, **kwargs))
        return checked[-1]

    def recorded_data(probes):
        built.append(probes)
        return real_data(probes)

    monkeypatch.setattr(cli, "check_probes", recorded_check)
    monkeypatch.setattr(cli, "probe_data", recorded_data)
    monkeypatch.setattr(reconstruct, "probe_data", recorded_data)
    p = tmp_path / "exp.ini"
    p.write_text(text.format(out=tmp_path / "out"))
    assert main([command, "-c", str(p)]) == 0
    assert len(checked) == 1 and checked[0].probes
    assert len(built) == 1 and built[0] is checked[0]


# (probes, rho law pairs) of each subcommand of _SUBCOMMANDS: the taus of
# a sweep, one probe otherwise; the pair of a rho sweep, each nonzero eps
# of a rho stability table
_CHECKED = {"forward": (1, 0), "linearize-check": (1, 0), "probe-gamma": (3, 0),
            "probe-rho": (2, 1), "stability-gamma": (1, 0), "stability-rho": (1, 2)}


@_SUBCOMMANDS
def test_a_subcommand_places_cuts_off_and_checks_each_probe_once(
        tmp_path, monkeypatch, request, command, text):
    # one placement and one cutoff build per probe, and one
    # require_equal_gamma per rho law pair, over the whole subcommand
    import dnprobe.reconstruct as reconstruct
    names = ("exterior_point", "make_cutoffs", "require_equal_gamma")
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(reconstruct, name, counted(name, getattr(reconstruct, name)))
    p = tmp_path / "exp.ini"
    p.write_text(text.format(out=tmp_path / "out"))
    assert main([command, "-c", str(p)]) == 0
    probes, rho_pairs = _CHECKED[request.node.callspec.id]
    assert calls == {"exterior_point": probes, "make_cutoffs": probes,
                     "require_equal_gamma": rho_pairs}


_ZERO_PROFILE = "perturb_profile = constant:c0=0"


@pytest.mark.parametrize("text", [
    _set("[material]\n", f"[material]\n{_ZERO_PROFILE}\n"),
    _set("[material]\n", f"[material]\n{_ZERO_PROFILE}\n",
         _set("gamma1 = constant:c0=1.02", "gamma1 = constant:c0=1")),
    _set("perturb_profile = trig_t:c0=0:c1=1:freq=0.2", _ZERO_PROFILE, RHO3D_SMALL),
    _set("perturb_profile = trig_t:c0=0:c1=1:freq=0.2", _ZERO_PROFILE,
         _set("rho1 = trig_t:c0=1:c1=0.2:freq=0.2", "rho1 = constant:c0=1", RHO3D_SMALL)),
], ids=["gamma2d", "gamma2d-equal-laws", "rho3d", "rho3d-equal-laws"])
def test_stability_with_a_perturbation_zero_at_lambda_exits_2(tmp_path, capsys,
                                                               monkeypatch, text):
    # every eps then reads the same coefficient difference, zero for equal
    # laws: a slope or Holder constant fitted to the rows would divide by
    # zero or mean nothing, so the family is refused before any solve
    import dnprobe.singular as singular
    solved = []
    monkeypatch.setattr(singular, "solve_corrector", lambda *args: solved.append(args))
    _exits_2_naming(tmp_path, capsys, text, "stability", "eps_perturbation")
    assert solved == []


def test_probes_and_stability_measure_patch_data_on_the_face(tmp_path, monkeypatch):
    # the boundary norms read face arrays (the 2D spectral and the 3D L2
    # kind): no subcommand forms data on all of dOmega
    from dnprobe.pde import BoundaryField

    def refuse(self):
        raise AssertionError("BoundaryField formed")

    monkeypatch.setattr(BoundaryField, "__post_init__", refuse)
    for text, commands in ((GAMMA_CFG, ("probe-gamma", "stability")),
                           (RHO3D_SMALL, ("probe-rho", "stability"))):
        p = tmp_path / "exp.ini"
        p.write_text(text.format(out=tmp_path / "out"))
        for command in commands:
            assert main([command, "-c", str(p)]) == 0, command
