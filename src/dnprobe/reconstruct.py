"""Pointwise coefficient recovery from linearized DN differences.

The gamma value at (t0, lambda) is read off from the Rayleigh-type ratio

    <(Lambda^1 - Lambda^2) g_tau, g_tau> / int_Omega A grad H . grad H,

where g_tau is the singular probe concentrated at (x0, t0); the rho value
uses the derivative probes g_{j,tau}, gbar_{j,tau} summed over axes.  Both
recover coefficient *differences*; absolute values are differences plus
the known reference law.  tau-sweeps, power-law extrapolation, and the
stability-rate experiments live here too.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .geometry import Grid, exterior_point
from .material import MatrixField, make_matrix
from .singular import SingularError, build_basis, grad_H_energy, make_cutoffs
from .pde import PDEError, probe_boundary_field
from .dnmap import (eta_surrogate, lambda_difference_flux, make_norm,
                    random_bump_dictionary, surface_pairing)


class ReconstructError(RuntimeError):
    pass


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("DNPROBE_WORKERS", "1")))
    except ValueError:
        return 1


def _map(fn, items):
    n = worker_count()
    if n == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class ProbeSpec:
    """One probe instance: anchor, time, distance, and cutoff calibration."""

    x0: tuple
    t0: float
    tau: float
    kind: str = "gamma"
    r: float = 0.25
    a_rule: str = None
    shape: str = "symmetric"
    conv: float = 1.0


@dataclass
class ReconstructionReport:
    target: str
    point: tuple                 # (t0, lambda)
    tau_sequence: list
    raw_estimates: list
    extrapolated_value: float
    reference_value: float = None
    fitted_rate: float = None
    norm_flag: str = ""
    notes: str = ""

    def __post_init__(self):
        taus = list(self.tau_sequence)
        if any(b >= a for a, b in zip(taus, taus[1:])):
            raise ReconstructError("tau sequence must be strictly decreasing")
        if not all(np.isfinite(self.raw_estimates)):
            raise ReconstructError("non-finite recovery estimate")


# ---------------------------------------------------------------------------
# gamma recovery


def gamma_probe_data(grid: Grid, A: MatrixField, probe: ProbeSpec, op=None):
    """(boundary datum g_tau, basis, cutoffs) for one gamma probe."""
    geom = exterior_point(grid, probe.x0, probe.tau, probe.t0)
    cut = make_cutoffs(probe.t0, probe.tau, "gamma", grid, r=probe.r,
                       tau0=geom.tau0, shape=probe.shape, a_rule=probe.a_rule)
    basis = build_basis(grid, geom, A, conv=probe.conv, kind="gamma", op=op)
    spatial = basis.H_omega - basis.v_omega
    g = probe_boundary_field(grid, cut.phi_tau, spatial)
    return g, basis, cut


def recover_gamma_point(pair, A: MatrixField, grid: Grid, lam: float,
                        probe: ProbeSpec, op=None) -> float:
    """Estimate of gamma^1(t0, lambda) - gamma^2(t0, lambda)."""
    if probe.kind != "gamma":
        raise ReconstructError("gamma recovery needs a gamma-kind probe")
    g, basis, _ = gamma_probe_data(grid, A, probe, op=op)
    energy = grad_H_energy(basis, grid)
    if energy <= 1e-14:
        raise ReconstructError("singular-basis energy underflow")
    diff = lambda_difference_flux(pair, A, grid, lam, g)
    return surface_pairing(diff, g, grid) / energy


# ---------------------------------------------------------------------------
# rho recovery


def rho_probe_data(grid: Grid, probe: ProbeSpec, A: MatrixField, op=None):
    """Derivative-probe data for rho recovery.

    Returns (list of (g_j, gbar_j) per axis, basis, cutoffs).
    """
    if grid.dim < 3:
        raise ReconstructError("rho probes need n >= 3")
    if not A.is_identity:
        raise ReconstructError("rho probes are restricted to A = Id")
    geom = exterior_point(grid, probe.x0, probe.tau, probe.t0)
    cut = make_cutoffs(probe.t0, probe.tau, "rho", grid, r=probe.r,
                       tau0=geom.tau0, shape=probe.shape, a_rule=probe.a_rule)
    basis = build_basis(grid, geom, A, conv=probe.conv, kind="rho", op=op)
    fam = []
    for j in range(grid.dim):
        spatial = basis.djH_omega[j] - basis.vj_omega[j]
        g_j = probe_boundary_field(grid, lambda t: cut.chi(t) * cut.Phi_tau(t), spatial)
        gbar_j = probe_boundary_field(grid, cut.phi_tau, spatial)
        fam.append((g_j, gbar_j))
    return fam, basis, cut


def recover_rho_point(pair, grid: Grid, lam: float, probe: ProbeSpec,
                      A: MatrixField = None, op=None) -> float:
    """Estimate of rho^1(t0, lambda) - rho^2(t0, lambda), n >= 3, A = Id.

    Assumes gamma^1 = gamma^2, so the conductivity cross term of the rho
    identity vanishes identically.
    """
    A = make_matrix(np.eye(grid.dim)) if A is None else A
    fam, basis, _ = rho_probe_data(grid, probe, A, op=op)
    energy = grad_H_energy(basis, grid)
    if energy <= 1e-14:
        raise ReconstructError("singular-basis energy underflow")
    total = 0.0
    for g_j, gbar_j in fam:
        diff = lambda_difference_flux(pair, A, grid, lam, g_j)
        total += surface_pairing(diff, gbar_j, grid)
    return total / energy


# ---------------------------------------------------------------------------
# tau sweeps


def _fit_extrapolation(taus, estimates):
    """Fit e(tau) = e_inf + c * tau^p through the last three sweep points."""
    t1, t2, t3 = taus[-3:]
    e1, e2, e3 = estimates[-3:]
    d12, d23 = e1 - e2, e2 - e3
    if d12 == 0.0 and d23 == 0.0:
        return e3, 0.0
    if d23 == 0.0 or (d12 / d23) <= 1.0:
        return None, None  # not a decaying power trend
    target = d12 / d23

    def gap(p):
        return (t1 ** p - t2 ** p) / (t2 ** p - t3 ** p) - target

    try:
        p = brentq(gap, 1e-3, 8.0)
    except ValueError:
        return None, None
    e_inf = e3 - d23 * t3 ** p / (t2 ** p - t3 ** p)
    return e_inf, p


def tau_sweep(recover, tau_list, target: str = "gamma", point=(None, None),
              reference: float = None, norm_flag: str = "") -> ReconstructionReport:
    """Run a recovery callable over a decreasing tau sequence and fit rates.

    recover: tau -> estimate.  Extrapolation uses the e_inf + c tau^p model
    on the last three points and is skipped (finest raw value reported)
    when the sequence is non-monotone or not power-like.
    """
    taus = sorted(set(float(t) for t in tau_list), reverse=True)
    if len(taus) < 2:
        raise ReconstructError("tau sweep needs at least two distinct values")
    estimates = _map(recover, taus)
    notes = []
    if len(taus) >= 3:
        e_inf, p = _fit_extrapolation(taus, estimates)
        if e_inf is None:
            e_inf = estimates[-1]
            notes.append("extrapolation skipped (non-power trend)")
    else:
        e_inf = estimates[-1]
        notes.append("insufficient sweep for extrapolation")
    rate = None
    if reference is not None and len(taus) >= 4:
        errs = np.abs(np.asarray(estimates) - reference)
        if np.all(errs > 0):
            rate = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
        else:
            notes.append("rate fit skipped (exact hit)")
    elif reference is not None:
        notes.append("rate omitted (fewer than 4 sweep points)")
    return ReconstructionReport(target=target, point=point, tau_sequence=taus,
                                raw_estimates=list(map(float, estimates)),
                                extrapolated_value=float(e_inf),
                                reference_value=reference, fitted_rate=rate,
                                norm_flag=norm_flag, notes="; ".join(notes))


# ---------------------------------------------------------------------------
# stability experiments


@dataclass
class StabilityRow:
    eps: float
    eta: float
    true_diff: float
    recovered: float
    ok: bool = True
    why: str = ""


@dataclass
class StabilityTable:
    target: str
    rows: list
    fitted_slope: float = None   # gamma target
    holder_constant: float = None  # rho target
    holder_ok: bool = None
    norm_flag: str = ""


def _sup_coeff_difference(pair, lam: float, T: float, target: str,
                          samples: int = 512) -> float:
    law1, law2 = pair
    t = np.linspace(0.0, T, samples)
    if target == "gamma":
        d = law1.gamma(t, lam) - law2.gamma(t, lam)
    else:
        d = law1.rho(t, lam) - law2.rho(t, lam)
    return float(np.abs(d).max())


def stability_experiment(family, target: str, A: MatrixField, grid: Grid,
                         lam: float, recover, dict_seed: int = 0,
                         dict_size: int = 16, norm=None) -> StabilityTable:
    """Rate table over an eps-indexed family of law pairs.

    family: list of (eps, (law1, law2)).  recover: law_pair -> recovered
    difference at the probed point.  For the gamma target the table gets a
    log-log slope of true difference vs eta; for rho a one-sided check of
    diff <= C * eta^{1/9} with C calibrated at the largest eps.
    """
    norm = make_norm(grid) if norm is None else norm
    dictionary = random_bump_dictionary(grid, dict_size, seed=dict_seed)
    rows = []
    for eps, pair in family:
        if eps == 0.0:
            rows.append(StabilityRow(eps=0.0, eta=0.0, true_diff=0.0,
                                     recovered=0.0, ok=True,
                                     why="zero row excluded from fits"))
            continue
        try:
            eta = eta_surrogate(pair, A, grid, lam, dictionary, norm=norm)
            rec = recover(pair)
        except (PDEError, SingularError) as exc:
            rows.append(StabilityRow(eps=eps, eta=float("nan"),
                                     true_diff=float("nan"),
                                     recovered=float("nan"), ok=False,
                                     why=str(exc)))
            continue
        rows.append(StabilityRow(eps=eps, eta=eta,
                                 true_diff=_sup_coeff_difference(pair, lam, grid.T, target),
                                 recovered=rec))
    good = [r for r in rows if r.ok and r.eps > 0.0]
    table = StabilityTable(target=target, rows=rows, norm_flag=norm.flag)
    if len(good) >= 2 and target == "gamma":
        x = np.log([r.eta for r in good])
        y = np.log([r.true_diff for r in good])
        table.fitted_slope = float(np.polyfit(x, y, 1)[0])
    if target == "rho" and good:
        cal = max(good, key=lambda r: r.eps)
        C = cal.true_diff / cal.eta ** (1.0 / 9.0)
        table.holder_constant = C
        table.holder_ok = all(r.true_diff <= C * r.eta ** (1.0 / 9.0) * (1 + 1e-9)
                              for r in good)
    return table
