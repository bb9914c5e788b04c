import csv
import json
import os
import subprocess
import sys

import pytest

from dnprobe.cli import main
from dnprobe.config import load_config

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


def test_rho_pair_without_interior_maximum_exits_2(tmp_path, capsys):
    # rho1 - rho2 = 0.2 t peaks only at t = T: the rho probe cannot see it
    text = GAMMA_CFG.format(out=tmp_path / "out").replace("[probe]\n", "[probe]\nkind = rho\n")
    p = tmp_path / "exp.ini"
    p.write_text(text.replace("gamma2 = constant:c0=1",
                              "gamma2 = constant:c0=1\nrho1 = affine_t:c0=1:c1=0.2"))
    assert main(["probe-rho", "-c", str(p)]) == 2
    assert "interior_max" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # equal rho laws are a degenerate zero difference, which stays allowed
    p.write_text(text)
    assert load_config(str(p)).probe_kind == "rho"


def test_verbose_forward_reports_newton_counts_on_stderr(cfg_path, capsys):
    assert main(["forward", "-c", cfg_path]) == 0
    quiet = capsys.readouterr()
    assert main(["forward", "-v", "-c", cfg_path]) == 0
    loud = capsys.readouterr()
    # constant laws and diagonal A: the frozen DST step is the Newton step
    assert "factorizations 0" in loud.err and "factorizations" not in quiet.err
    assert loud.out == quiet.out


def test_forward_and_linearize_outputs_do_not_depend_on_worker_count(
        cfg_path, tmp_path, capsys, monkeypatch):
    # both subcommands run one forward solve each, the k-scaled data of
    # linearize-check as one stack; -v keeps one line of counts per k
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("DNPROBE_WORKERS", workers)
        assert main(["forward", "-c", cfg_path]) == 0
        assert main(["linearize-check", "-v", "-c", cfg_path]) == 0
        err = capsys.readouterr().err
        outputs.append({name: (tmp_path / "out" / name).read_bytes()
                        for name in ("demo_flux.csv", "demo_linearize.csv")})
        for k in (4, 8):
            assert f"forward k={k}: steps 16 iterations 14 factorizations 0 " in err
    assert outputs[0] == outputs[1]


# --- paper hypotheses a subcommand needs, rejected before any solve ----------

RHO3D = GAMMA_CFG.replace("[grid]\n", "[grid]\ndim = 3\n").replace(
    "[material]\n", "[material]\nperturb_target = rho\n"
    "perturb_profile = trig_t:c0=0:c1=1:freq=0.5\n")


def _set(old, new, text=GAMMA_CFG):
    assert old in text
    return text.replace(old, new, 1)


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


def test_rho_plateau_that_cannot_cover_the_bump_exits_2(tmp_path, capsys):
    # T = 1, t0 = 0.5: the plateau half-width is 0.3 < tau^r = sqrt(0.2)
    _exits_2_naming(tmp_path, capsys, RHO3D, "probe-rho", "plateau_cover")


def test_forward_checks_the_probe_it_solves_with(tmp_path, capsys):
    # forward drives the gamma probe at min(tau_list); with a rho kind it
    # runs on zero data and needs no probe
    text = GAMMA_CFG.replace("tau_list = 0.2,0.15,0.125", "tau_list = 0.2,0.1")
    _exits_2_naming(tmp_path, capsys, text, "forward", "tau_resolution")
    p = tmp_path / "exp.ini"
    p.write_text(text.replace("[probe]\n", "[probe]\nkind = rho\n")
                 .format(out=tmp_path / "out"))
    load_config(str(p)).check_command("forward")


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
    ("probe-gamma", _set("dict_size = 2", "dict_size = 2\nkind = bogus"), "kind = 'bogus'"),
    ("probe-gamma", _set("[grid]\n", "[grid]\ndim = 3\n",
                         _set("dict_size = 2", "dict_size = 2\nkind = spectral")),
     "spectral"),
    ("stability", _set("dict_size = 2", "dict_size = 0"), "dict_size"),
    ("linearize-check", _set("k_list = 4,8", "k_list = 0"), "k_list"),
    ("stability", _set("eps_list = 0.02,0.04", "eps_list ="), "eps_sweep fails"),
], ids=["probe-kind", "a-rule", "shape", "norm-kind", "spectral-3d", "dict-size",
        "k-list", "eps-list"])
def test_value_outside_its_set_exits_2(tmp_path, capsys, command, text, named):
    p = tmp_path / "exp.ini"
    p.write_text(text.format(out=tmp_path / "out"))
    assert main([command, "-c", str(p)]) == 2
    assert named in capsys.readouterr().err
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
    # numpy alone; scipy is for the Newton Jacobian's sparse LU only
    code = ("import contextlib, io, sys, dnprobe.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rcs = [cli.main([c, '-c', sys.argv[1]]) for c in ('probe-gamma', "
            "'stability', 'forward', 'linearize-check', 'report')]\n"
            "print(rcs, sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert _python(code, cfg_path).strip() == "[0, 0, 0, 0, 0] []"


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
gb = pde.boundary_field_from_callable(g, lambda t, x: 2.0 * t * x[..., 0])
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
    # three eps: one eta solve per eps, the reference dictionary once, the
    # probe once and its reference response once
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
    assert len(solved) == 3 + 1 + 3 + 1


def test_forward_prints_the_row_count_it_writes(cfg_path, tmp_path, capsys):
    assert main(["forward", "-c", cfg_path]) == 0
    _, _, body = _read_csv(tmp_path / "out" / "demo_flux.csv")
    assert f"({len(body)} rows)" in capsys.readouterr().out


def test_benchmark_tracer_installs_on_the_package():
    # perfbench/spans.py wraps package functions and splu bindings by name;
    # a rename in src must fail here, not only under --trace 1
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dnprobe.cli, spans; "
            "spans.install(spans.Tracer())")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", code, os.path.join(root, "perfbench")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
