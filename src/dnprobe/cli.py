"""Command line entry points for the probing experiments.

Subcommands:

  forward          solve the quasilinear problem with the configured gamma
                   probe datum and dump the patch flux as CSV;
                   --mms runs a refinement study instead and prints orders
  linearize-check  Frechet-derivative decay table d_k
  probe-gamma      tau-sweep gamma recovery, CSV + JSON report
  probe-rho        tau-sweep rho recovery, CSV + JSON report
  stability        eps-indexed stability-rate table, CSV + JSON
  report           summarize the JSON reports found in the output dir

_probe_plan decides the probes a subcommand builds and the law pairs it
reads at them, and checks them once (reconstruct.check_probes); main
passes the checked probes to the subcommand, which builds and solves
them without checking them again.  A config or plan that fails a check
exits 2 with "config error:" before any solve or write; an error during
the run exits 1 with "error:", as does an output directory or file that
cannot be written.  main is where a package error becomes an exit code.

All file writes are atomic (tmp file + rename) and embed the config hash
and the flag of the grid's boundary norm (dnmap.norm_flag).  A probe or
stability command makes one stacked corrector solve and one frozen solve
call for all its laws.
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
from .material import MaterialError
from .singular import SingularError
from .pde import PDEError, mms_problem, solve_forward
from .dnmap import level_flux, linearization_check, norm_flag, DNMapError
from .reconstruct import (ProbeSpec, ReconstructError, check_probes, point_recovery,
                          probe_data, stability_experiment, stability_pairs, sweep_taus,
                          tau_sweep)

# what ends a run with exit 1: a package error, or an output that cannot
# be written (an OSError)
_ERRORS = (GridError, MaterialError, SingularError, PDEError, DNMapError,
           ReconstructError, OSError)


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


def _csv_header(fh, header_meta: dict, columns):
    """Write the `# key=value` lines and the column row; returns the csv
    writer for the rows."""
    for k, v in header_meta.items():
        fh.write(f"# {k}={v}\n")
    cw = csv.writer(fh)
    cw.writerow(columns)
    return cw


def _write_csv(path, header_meta: dict, columns, rows):
    _atomic_write(path, lambda fh: _csv_header(fh, header_meta, columns).writerows(rows))


def _finite_or_none(x):
    """JSON has no NaN or infinity; such values are written as null."""
    return x if not isinstance(x, float) or math.isfinite(x) else None


def _write_json(path, payload: dict):
    """Strict JSON: a NaN or infinity fails the write, leaving no file."""
    _atomic_write(path, lambda fh: json.dump(payload, fh, indent=2, sort_keys=True,
                                             allow_nan=False))


def _meta(cfg: ExperimentConfig):
    return {"config_hash": cfg.hash, "norm": norm_flag(cfg.grid.dim),
            "seed": cfg.seed, "version": __version__}


def _out(cfg: ExperimentConfig, stem: str) -> str:
    return os.path.join(cfg.out_dir, f"{cfg.prefix}_{stem}")


def _probe_plan(cfg: ExperimentConfig, args):
    """The checked probes a subcommand builds with the law pairs it reads
    at them (reconstruct.check_probes), or None.

    A probe sweep has a probe per tau of sweep_taus and the config's pair;
    stability one probe of the target's kind at the smallest tau and the
    pair of each nonzero eps (stability_pairs); linearize-check, which
    needs a k, and forward without --mms, which needs [probe] kind =
    gamma, a gamma probe there.
    """
    command, pairs = args.command, []
    if command in ("probe-gamma", "probe-rho"):
        kind, pairs = command[len("probe-"):], [(cfg.law1, cfg.law2)]
    elif command == "stability":
        kind = cfg.perturb_target
        pairs = stability_pairs(cfg.law_family, kind, cfg.lam, cfg.grid.T)
    elif command == "linearize-check" or (command == "forward" and not args.mms):
        kind = "gamma"
        if command == "forward" and cfg.probe_kind != kind:
            raise ConfigError(f"forward_kind fails: forward drives a gamma probe, "
                              f"[probe] kind = {cfg.probe_kind!r}")
    else:
        return None
    if command.startswith("probe-"):
        taus = sweep_taus(cfg.tau_list)
    elif cfg.tau_list:
        taus = [min(cfg.tau_list)]
    else:
        raise ConfigError(f"probe_tau fails: {command} needs a tau, tau_list is empty")
    if command == "linearize-check" and not cfg.k_list:
        raise ConfigError("k_sweep fails: linearize-check needs a k, k_list is empty")
    probes = [ProbeSpec(x0=cfg.x0, t0=cfg.t0, tau=tau, kind=kind, r=cfg.probe_r,
                        a_rule=cfg.a_rule, shape=cfg.bump_shape)
              for tau in taus]
    return check_probes(cfg.grid, cfg.A, probes, pairs, lam=cfg.lam)


def _report_newton(args, label: str, stats):
    """With -v, print one forward solve's Newton counts to stderr."""
    if args.verbose and stats is not None:
        print(f"{label}: steps {stats['steps']} iterations {stats['iterations']} "
              f"factorizations {stats['factorizations']} "
              f"max_residual {stats['max_residual']:.3e} stencils {stats['stencils']}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_forward(cfg: ExperimentConfig, args, checked) -> int:
    if args.mms:
        return _forward_mms(cfg, args)
    grid = cfg.grid
    [([(g, _)], _)] = probe_data(checked)
    flux = solve_forward(cfg.law1, cfg.A, grid, cfg.lam, g,
                         keep=level_flux(cfg.law1, cfg.A, grid))
    _report_newton(args, "forward", flux.newton)
    ids = np.flatnonzero(grid.patch_support_mask().ravel())
    meta = _meta(cfg)

    def write(fh):  # one level at a time, not held: a list of all rows costs a full GC
        _csv_header(fh, meta, ["face_node_id", "t", "flux"])
        heads = [f"{i}," for i in ids.tolist()]
        for t, level in zip(grid.times, flux.values):
            ts = f"{t:.10g},"  # the rows csv.writer would write, \r\n-terminated
            fh.write("\r\n".join([head + ts + format(v, ".12e")
                                  for head, v in zip(heads, level.ravel()[ids].tolist())]))
            fh.write("\r\n")

    _atomic_write(_out(cfg, "flux.csv"), write)
    print(f"wrote {_out(cfg, 'flux.csv')} ({grid.times.size * ids.size} rows)")
    return 0


def _forward_mms(cfg: ExperimentConfig, args) -> int:
    """Refinement study with a manufactured solution; prints observed orders."""
    lam, base, n = cfg.lam, cfg.grid, cfg.grid.dim

    def spatial(X):
        out = np.sin(np.pi * X[..., 0])
        for a in range(1, n):
            out = out * np.sin(np.pi * X[..., a])
        return out

    def spatial_grad(t, X):
        grads = []
        for a in range(n):
            g = np.pi * np.cos(np.pi * X[..., a])
            for b in range(n):
                if b != a:
                    g = g * np.sin(np.pi * X[..., b])
            grads.append(t * g)
        return grads

    # (u, d_t u, grad u, second derivatives) of each exact field.  In
    # space: linear in t, so implicit Euler is exact in time and the
    # measured error is purely spatial.  In time: affine in x, resolved
    # exactly by the stencil, so the measured error is purely temporal.
    sx = lambda X: sum(X[..., a] for a in range(n))
    in_space = (lambda t, X: lam + t * spatial(X), lambda t, X: spatial(X), spatial_grad,
                lambda t, X: [t * (-np.pi ** 2 * spatial(X))] * n)
    in_time = (lambda t, X: lam + np.sin(0.9 * t) * sx(X),
               lambda t, X: 0.9 * np.cos(0.9 * t) * sx(X),
               lambda t, X: [np.sin(0.9 * t) + 0.0 * X[..., 0]] * n,
               lambda t, X: [0.0 * X[..., 0]] * n)

    def error(label, exact, h, dt):
        """Max error of the forward solve of exact's problem at (h, dt)."""
        grid = build_grid(n, h, dt, base.T, pad=base.pad)
        g, src, ex = mms_problem(grid, cfg.law1, cfg.A, lam, *exact)
        u = solve_forward(cfg.law1, cfg.A, grid, lam, g, source=src)
        _report_newton(args, f"mms {label} h={h:g} dt={dt:g}", u.newton)
        return float(np.abs(u.values - ex).max())

    h0, dt0 = base.h, base.dt
    e_h = [error("space", in_space, h0, dt0), error("space", in_space, h0 / 2, dt0)]
    e_t = [error("time", in_time, h0, dt0), error("time", in_time, h0, dt0 / 2)]
    p_h = np.log2(e_h[0] / e_h[1])
    p_t = np.log2(e_t[0] / e_t[1])
    print("refinement   error_coarse   error_fine   observed_order")
    print(f"space (h)    {e_h[0]:.4e}    {e_h[1]:.4e}   {p_h:.3f}")
    print(f"time (dt)    {e_t[0]:.4e}    {e_t[1]:.4e}   {p_t:.3f}")
    return 0


def cmd_linearize_check(cfg: ExperimentConfig, args, checked) -> int:
    [([(g, _)], _)] = probe_data(checked)
    rows = linearization_check(cfg.law1, cfg.A, cfg.grid, cfg.lam, g, cfg.k_list)
    out = [(r["k"], f"{r['d_k']:.12e}", r["ok"], r["why"]) for r in rows]
    _write_csv(_out(cfg, "linearize.csv"), _meta(cfg), ["k", "d_k", "ok", "note"], out)
    for r in rows:
        print(f"k={r['k']:<6d} d_k={r['d_k']:.6e} ok={r['ok']}")
        _report_newton(args, f"forward k={r['k']}", r["newton"])
    return 0


def cmd_probe(cfg: ExperimentConfig, args, checked) -> int:
    """probe-gamma and probe-rho: the tau sweep of the plan's probes."""
    target = checked.kind
    ref = float(getattr(cfg.law1, target)(cfg.t0, cfg.lam)
                - getattr(cfg.law2, target)(cfg.t0, cfg.lam))
    [estimates] = point_recovery(checked)
    report = tau_sweep([probe.tau for probe in checked.probes], estimates, reference=ref)
    rows = [(target, cfg.t0, cfg.lam, f"{tau:.6g}", f"{est:.12e}")
            for tau, est in zip(report.tau_sequence, report.raw_estimates)]
    _write_csv(_out(cfg, f"{target}_sweep.csv"), _meta(cfg),
               ["target", "t0", "lambda", "tau", "estimate"], rows)
    payload = {"target": target, "point": [cfg.t0, cfg.lam],
               "tau_sequence": report.tau_sequence,
               "raw_estimates": report.raw_estimates,  # finite: the report checks them
               "extrapolated_value": _finite_or_none(report.extrapolated_value),
               "reference_value": _finite_or_none(report.reference_value),
               "fitted_rate": _finite_or_none(report.fitted_rate),
               "norm_flag": norm_flag(cfg.grid.dim), "notes": report.notes}
    payload.update(_meta(cfg))
    _write_json(_out(cfg, f"{target}_report.json"), payload)
    print(f"{target} at (t0={cfg.t0}, lambda={cfg.lam}): "
          f"extrapolated {report.extrapolated_value:.6g} "
          f"(reference {ref:.6g}); wrote {_out(cfg, f'{target}_report.json')}")
    return 0


def cmd_stability(cfg: ExperimentConfig, args, checked) -> int:
    table = stability_experiment(checked, cfg.law_family, dict_seed=cfg.dict_seed,
                                 dict_size=cfg.dict_size)
    rows = [(r.eps, f"{r.eta:.12e}", f"{r.true_diff:.12e}",
             f"{r.recovered:.12e}", r.ok, r.why) for r in table.rows]
    _write_csv(_out(cfg, "stability.csv"), _meta(cfg),
               ["eps", "eta", "true_diff", "recovered", "ok", "note"], rows)
    payload = {"target": table.target,
               "rows": [{k: _finite_or_none(v) for k, v in vars(r).items()}
                        for r in table.rows],
               "fitted_slope": _finite_or_none(table.fitted_slope),
               "holder_constant": _finite_or_none(table.holder_constant),
               "holder_ok": table.holder_ok,
               "norm_flag": norm_flag(cfg.grid.dim)}
    payload.update(_meta(cfg))
    _write_json(_out(cfg, "stability_report.json"), payload)
    if table.fitted_slope is not None:
        print(f"fitted slope (true diff vs eta): {table.fitted_slope:.4f}")
    if table.holder_ok is not None:
        print(f"one-sided Holder bound holds: {table.holder_ok}")
    return 0


def cmd_report(cfg: ExperimentConfig, args, checked) -> int:
    """Summarize the prefix's JSON reports; a report that cannot be read as
    a JSON object is named on stderr and makes the exit status 1."""
    try:
        names = sorted(os.listdir(cfg.out_dir or "."))
    except FileNotFoundError:
        names = []
    found, status = 0, 0
    for name in names:
        if not (name.startswith(cfg.prefix + "_") and name.endswith(".json")):
            continue
        path = os.path.join(cfg.out_dir, name)
        try:
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError(f"not a JSON object but a {type(data).__name__}")
        except (OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            status = 1
            continue
        found += 1
        print(f"== {name} (config {data.get('config_hash', '?')}, "
              f"norm {data.get('norm', data.get('norm_flag', '?'))})")
        for key in ("target", "extrapolated_value", "reference_value",
                    "fitted_rate", "fitted_slope", "holder_ok", "notes"):
            if data.get(key) not in (None, ""):
                print(f"   {key}: {data[key]}")
    if not found and not status:
        print("no reports found")
    return status


_COMMANDS = {
    "forward": cmd_forward,
    "linearize-check": cmd_linearize_check,
    "probe-gamma": cmd_probe,
    "probe-rho": cmd_probe,
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
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print forward-solver counts per solve to stderr")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
        checked = _probe_plan(cfg, args)
    except (ConfigError, GridError, MaterialError, SingularError, ReconstructError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg, args, checked)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
