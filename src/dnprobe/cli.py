"""Command line entry points for the probing experiments.

Subcommands:

  forward          solve the quasilinear problem with the configured probe
                   datum (or zero data) and dump the patch flux as CSV;
                   --mms runs a refinement study instead and prints orders
  linearize-check  Frechet-derivative decay table d_k
  probe-gamma      tau-sweep gamma recovery, CSV + JSON report
  probe-rho        tau-sweep rho recovery, CSV + JSON report
  stability        eps-indexed stability-rate table, CSV + JSON
  report           summarize the JSON reports found in the output dir

All file writes are atomic (tmp file + rename) and embed the config hash
and the active boundary-norm flag.  DNPROBE_WORKERS bounds the worker
pool used for sweep points.
"""

import argparse
import csv
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config
from .geometry import GridError, build_grid
from .material import MaterialError, make_law
from .singular import SingularError, _omega_prime_operator
from .pde import BoundaryField, PDEError, mms_problem, solve_forward
from .dnmap import (linearization_check, make_norm, nonlinear_flux,
                    DNMapError)
from .reconstruct import (ProbeSpec, ReconstructError, gamma_probe_data,
                          recover_gamma_point, recover_rho_point,
                          stability_experiment, tau_sweep)

_ERRORS = (GridError, MaterialError, SingularError, PDEError, DNMapError,
           ReconstructError)


def _atomic_write(path: str, writer):
    """Write via a sibling temp file and rename into place."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header_meta: dict, columns, rows):
    def w(fh):
        for k, v in header_meta.items():
            fh.write(f"# {k}={v}\n")
        cw = csv.writer(fh)
        cw.writerow(columns)
        cw.writerows(rows)
    _atomic_write(path, w)


def _finite_or_none(x):
    """JSON has no NaN or infinity; such values are written as null."""
    return x if not isinstance(x, float) or math.isfinite(x) else None


def _write_json(path, payload: dict):
    _atomic_write(path, lambda fh: json.dump(payload, fh, indent=2, sort_keys=True))


def _meta(cfg: ExperimentConfig):
    norm = make_norm(cfg.grid, cfg.norm_kind)
    return {"config_hash": cfg.hash, "norm": norm.flag,
            "seed": cfg.seed, "version": __version__}


def _out(cfg: ExperimentConfig, stem: str) -> str:
    return os.path.join(cfg.out_dir, f"{cfg.prefix}_{stem}")


def _probe_spec(cfg: ExperimentConfig, tau: float, kind=None) -> ProbeSpec:
    return ProbeSpec(x0=cfg.x0, t0=cfg.t0, tau=tau,
                     kind=kind or cfg.probe_kind, r=cfg.probe_r,
                     a_rule=cfg.a_rule, shape=cfg.bump_shape, conv=cfg.conv)


# ---------------------------------------------------------------------------
# subcommands


def cmd_forward(cfg: ExperimentConfig, args) -> int:
    if args.mms:
        return _forward_mms(cfg)
    grid = cfg.grid
    if cfg.tau_list and cfg.probe_kind == "gamma":
        g, _, _ = gamma_probe_data(grid, cfg.A, _probe_spec(cfg, min(cfg.tau_list)))
    else:
        g = BoundaryField(values=np.zeros((grid.nt + 1,) + grid.shape), grid=grid)
    u = solve_forward(cfg.law1, cfg.A, grid, cfg.lam, g)
    flux = nonlinear_flux(u, cfg.law1, cfg.A, grid)
    rows = []
    smask = grid.patch_support_mask()
    ids = np.flatnonzero(smask.ravel())
    for m, t in enumerate(grid.times):
        vals = flux.values[m].ravel()
        for i in ids:
            rows.append((int(i), f"{t:.10g}", f"{vals[i]:.12e}"))
    _write_csv(_out(cfg, "flux.csv"), _meta(cfg), ["face_node_id", "t", "flux"], rows)
    print(f"wrote {_out(cfg, 'flux.csv')} ({len(rows)} rows)")
    return 0


def _forward_mms(cfg: ExperimentConfig) -> int:
    """Refinement study with a manufactured solution; prints observed orders."""
    lam = cfg.lam
    base = cfg.grid

    def spatial_exact(t, X):
        out = np.sin(np.pi * X[..., 0])
        for a in range(1, X.shape[-1]):
            out = out * np.sin(np.pi * X[..., a])
        return out

    def err_space(h, dt):
        # exact field linear in t: implicit Euler is exact in time, so the
        # measured error is purely spatial
        grid = build_grid(base.dim, h, dt, base.T, pad=base.pad)
        exact = lambda t, X: lam + t * spatial_exact(t, X)
        exact_dt = lambda t, X: spatial_exact(t, X)

        def exact_grad(t, X):
            grads = []
            for a in range(grid.dim):
                g = np.pi * np.cos(np.pi * X[..., a])
                for b in range(grid.dim):
                    if b != a:
                        g = g * np.sin(np.pi * X[..., b])
                grads.append(t * g)
            return grads

        def exact_hess(t, X):
            H = []
            for a in range(grid.dim):
                row = []
                for b in range(grid.dim):
                    if a == b:
                        e = -np.pi ** 2 * spatial_exact(t, X)
                    else:
                        e = np.pi ** 2 * np.cos(np.pi * X[..., a]) * np.cos(np.pi * X[..., b])
                        for c in range(grid.dim):
                            if c not in (a, b):
                                e = e * np.sin(np.pi * X[..., c])
                    row.append(t * e)
                H.append(row)
            return H

        g, src, ex = mms_problem(grid, cfg.law1, cfg.A, lam, exact, exact_dt,
                                 exact_grad, exact_hess)
        u = solve_forward(cfg.law1, cfg.A, grid, lam, g, source=src)
        return float(np.abs(u.values - ex).max())

    def err_time(h, dt):
        # exact field affine in x: resolved exactly by the stencil, so the
        # measured error is purely temporal
        grid = build_grid(base.dim, h, dt, base.T, pad=base.pad)
        sx = lambda X: sum(X[..., a] for a in range(grid.dim))
        exact = lambda t, X: lam + np.sin(0.9 * t) * sx(X)
        exact_dt = lambda t, X: 0.9 * np.cos(0.9 * t) * sx(X)
        exact_grad = lambda t, X: [np.sin(0.9 * t) + 0.0 * X[..., 0]] * grid.dim
        exact_hess = lambda t, X: [[0.0 * X[..., 0]] * grid.dim] * grid.dim
        g, src, ex = mms_problem(grid, cfg.law1, cfg.A, lam, exact, exact_dt,
                                 exact_grad, exact_hess)
        u = solve_forward(cfg.law1, cfg.A, grid, lam, g, source=src)
        return float(np.abs(u.values - ex).max())

    h0, dt0 = base.h, base.dt
    e_h = [err_space(h0, dt0), err_space(h0 / 2, dt0)]
    e_t = [err_time(h0, dt0), err_time(h0, dt0 / 2)]
    p_h = np.log2(e_h[0] / e_h[1])
    p_t = np.log2(e_t[0] / e_t[1])
    print("refinement   error_coarse   error_fine   observed_order")
    print(f"space (h)    {e_h[0]:.4e}    {e_h[1]:.4e}   {p_h:.3f}")
    print(f"time (dt)    {e_t[0]:.4e}    {e_t[1]:.4e}   {p_t:.3f}")
    return 0


def cmd_linearize_check(cfg: ExperimentConfig, args) -> int:
    grid = cfg.grid
    g, _, _ = gamma_probe_data(grid, cfg.A, _probe_spec(cfg, min(cfg.tau_list), "gamma"))
    rows = linearization_check(cfg.law1, cfg.A, grid, cfg.lam, g, cfg.k_list)
    out = [(r["k"], f"{r['d_k']:.12e}", r["ok"], r["why"]) for r in rows]
    _write_csv(_out(cfg, "linearize.csv"), _meta(cfg), ["k", "d_k", "ok", "note"], out)
    for r in rows:
        print(f"k={r['k']:<6d} d_k={r['d_k']:.6e} ok={r['ok']}")
    return 0


def _sweep_cmd(cfg: ExperimentConfig, target: str) -> int:
    grid = cfg.grid
    norm = make_norm(grid, cfg.norm_kind)
    pair = (cfg.law1, cfg.law2)
    op = _omega_prime_operator(grid, cfg.A)
    if target == "gamma":
        ref = float(cfg.law1.gamma(cfg.t0, cfg.lam) - cfg.law2.gamma(cfg.t0, cfg.lam))
        rec = lambda tau: recover_gamma_point(pair, cfg.A, grid, cfg.lam,
                                              _probe_spec(cfg, tau, "gamma"), op=op)
    else:
        ref = float(cfg.law1.rho(cfg.t0, cfg.lam) - cfg.law2.rho(cfg.t0, cfg.lam))
        rec = lambda tau: recover_rho_point(pair, grid, cfg.lam,
                                            _probe_spec(cfg, tau, "rho"),
                                            A=cfg.A, op=op)
    report = tau_sweep(rec, cfg.tau_list, target=target, point=(cfg.t0, cfg.lam),
                       reference=ref, norm_flag=norm.flag)
    rows = [(target, cfg.t0, cfg.lam, f"{tau:.6g}", f"{est:.12e}")
            for tau, est in zip(report.tau_sequence, report.raw_estimates)]
    _write_csv(_out(cfg, f"{target}_sweep.csv"), _meta(cfg),
               ["target", "t0", "lambda", "tau", "estimate"], rows)
    payload = {"target": target, "point": [cfg.t0, cfg.lam],
               "tau_sequence": report.tau_sequence,
               "raw_estimates": report.raw_estimates,
               "extrapolated_value": report.extrapolated_value,
               "reference_value": report.reference_value,
               "fitted_rate": report.fitted_rate,
               "norm_flag": report.norm_flag, "notes": report.notes}
    payload.update(_meta(cfg))
    _write_json(_out(cfg, f"{target}_report.json"), payload)
    print(f"{target} at (t0={cfg.t0}, lambda={cfg.lam}): "
          f"extrapolated {report.extrapolated_value:.6g} "
          f"(reference {ref:.6g}); wrote {_out(cfg, f'{target}_report.json')}")
    return 0


def cmd_probe_gamma(cfg, args):
    return _sweep_cmd(cfg, "gamma")


def cmd_probe_rho(cfg, args):
    return _sweep_cmd(cfg, "rho")


def cmd_stability(cfg: ExperimentConfig, args) -> int:
    grid = cfg.grid
    target = cfg.perturb_target
    norm = make_norm(grid, cfg.norm_kind)
    tau = min(cfg.tau_list)
    op = _omega_prime_operator(grid, cfg.A)
    if target == "gamma":
        rec = lambda pair: recover_gamma_point(pair, cfg.A, grid, cfg.lam,
                                               _probe_spec(cfg, tau, "gamma"), op=op)
    else:
        rec = lambda pair: recover_rho_point(pair, grid, cfg.lam,
                                             _probe_spec(cfg, tau, "rho"),
                                             A=cfg.A, op=op)
    table = stability_experiment(cfg.law_family(), target, cfg.A, grid, cfg.lam,
                                 rec, dict_seed=cfg.dict_seed,
                                 dict_size=cfg.dict_size, norm=norm)
    rows = [(r.eps, f"{r.eta:.12e}", f"{r.true_diff:.12e}",
             f"{r.recovered:.12e}", r.ok, r.why) for r in table.rows]
    _write_csv(_out(cfg, "stability.csv"), _meta(cfg),
               ["eps", "eta", "true_diff", "recovered", "ok", "note"], rows)
    payload = {"target": target,
               "rows": [{k: _finite_or_none(v) for k, v in vars(r).items()}
                        for r in table.rows],
               "fitted_slope": _finite_or_none(table.fitted_slope),
               "holder_constant": _finite_or_none(table.holder_constant),
               "holder_ok": table.holder_ok,
               "norm_flag": table.norm_flag}
    payload.update(_meta(cfg))
    _write_json(_out(cfg, "stability_report.json"), payload)
    if table.fitted_slope is not None:
        print(f"fitted slope (true diff vs eta): {table.fitted_slope:.4f}")
    if table.holder_ok is not None:
        print(f"one-sided Holder bound holds: {table.holder_ok}")
    return 0


def cmd_report(cfg: ExperimentConfig, args) -> int:
    found = 0
    for name in sorted(os.listdir(cfg.out_dir or ".")):
        if not (name.startswith(cfg.prefix + "_") and name.endswith(".json")):
            continue
        with open(os.path.join(cfg.out_dir, name)) as fh:
            data = json.load(fh)
        found += 1
        print(f"== {name} (config {data.get('config_hash', '?')}, "
              f"norm {data.get('norm', data.get('norm_flag', '?'))})")
        for key in ("target", "extrapolated_value", "reference_value",
                    "fitted_rate", "fitted_slope", "holder_ok", "notes"):
            if data.get(key) not in (None, ""):
                print(f"   {key}: {data[key]}")
    if not found:
        print("no reports found")
    return 0


_COMMANDS = {
    "forward": cmd_forward,
    "linearize-check": cmd_linearize_check,
    "probe-gamma": cmd_probe_gamma,
    "probe-rho": cmd_probe_rho,
    "stability": cmd_stability,
    "report": cmd_report,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="dnprobe",
                                 description="Singular boundary probes for a "
                                 "quasilinear parabolic DN map")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("-c", "--config", required=True, help="experiment config file")
    ap.add_argument("--mms", action="store_true",
                    help="forward: run a manufactured-solution refinement study")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, GridError, MaterialError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg, args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
