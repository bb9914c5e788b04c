"""Pointwise coefficient recovery from linearized DN differences.

The gamma value at (t0, lambda) is read off from the Rayleigh-type ratio

    <(Lambda^1 - Lambda^2) g_tau, g_tau> / int_Omega A grad H . grad H,

where g_tau is the singular probe concentrated at (x0, t0); the rho value
uses the derivative probes g_{j,tau}, gbar_{j,tau} summed over axes.  Both
recover coefficient *differences*; absolute values are differences plus
the known reference law.  tau-sweeps, power-law extrapolation, and the
stability-rate experiments live here too.

check_probes runs every check of probes and the law pairs read at them
once, before any solve, and returns them as a CheckedProbes value;
probe_data, point_recovery and stability_experiment take that value and
check nothing again.  The hypotheses of the rho estimate on a law pair
(interior_max, rho_equal_gamma) are checked there, on the pairs of rho
probes only.  A point recovery and a stability experiment each
make one dnmap.patch_linear_flux call; a sweep fits the estimates of one
point recovery over its probes.  A failed check, probe build or solve
raises, by the name of its predicate where it has one.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import Grid, exterior_point
from .material import MatrixField, check_interior_max
from .singular import SingularError, build_basis, grad_H_energy, make_cutoffs
from .pde import PatchField, probe_boundary_field
from .dnmap import (BoundaryNorm, eta_surrogate, patch_linear_flux,
                    random_bump_dictionary, surface_pairing)


class ReconstructError(RuntimeError):
    pass


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


@dataclass
class ReconstructionReport:
    tau_sequence: list
    raw_estimates: list
    extrapolated_value: float
    reference_value: float = None
    fitted_rate: float = None
    notes: str = ""

    def __post_init__(self):
        taus = list(self.tau_sequence)
        if any(b >= a for a, b in zip(taus, taus[1:])):
            raise ReconstructError("tau sequence must be strictly decreasing")
        if not all(np.isfinite(self.raw_estimates)):
            raise ReconstructError("non-finite recovery estimate")


# ---------------------------------------------------------------------------
# probes and pointwise recovery


def require_equal_gamma(pair, lam: float, times: np.ndarray, cuts):
    """Reject a law pair for rho probes whose conductivities differ,
    gamma1(t, lambda) != gamma2(t, lambda), at a level of times inside
    supp chi of any of the cutoff sets cuts: the rho estimate assumes
    gamma1 = gamma2 there and would read the conductivity difference."""
    t = times[np.logical_or.reduce([cut.chi(times) > 0.0 for cut in cuts])]
    gap = np.abs(pair[0].gamma(t, lam) - pair[1].gamma(t, lam))
    if gap.any():
        raise ReconstructError(f"rho_equal_gamma fails: rho probes need gamma1 = gamma2 "
                               f"on supp chi, |gamma1 - gamma2| = {gap.max():.3g} "
                               f"at t = {t[gap.argmax()]:.3g}")


@dataclass(frozen=True)
class CheckedProbes:
    """Probes of one kind, placed, cut off and checked with
    the law pairs read at them at lam.  check_probes builds it;
    probe_data, point_recovery and stability_experiment take it, check
    nothing again, and solve no pair it was not checked with (require)."""

    grid: Grid
    A: MatrixField
    lam: float
    probes: tuple  # ProbeSpec
    geoms: tuple   # ProbeGeometry of each probe (exterior_point)
    cuts: tuple    # CutoffSet of each probe (make_cutoffs)
    pairs: tuple   # the law pairs checked

    @property
    def kind(self) -> str:
        return self.probes[0].kind

    def require(self, pairs) -> list:
        """pairs, each one of the checked pairs; else raise checked_pairs."""
        for law1, law2 in pairs:
            if (law1, law2) not in self.pairs:
                raise ReconstructError(f"checked_pairs fails: {law1.label} vs {law2.label} "
                                       f"is not a law pair these probes were checked with")
        return list(pairs)


def check_probes(grid: Grid, A: MatrixField, probes, law_pairs, *,
                 lam: float) -> CheckedProbes:
    """Everything before a solve of probes and the law pairs read at them.

    Rho probes need n >= 3 and A = Id, which the rho estimate assumes.
    Each probe is placed (exterior_point) and gets its cutoffs
    (make_cutoffs); for rho probes each law pair read at lam needs a
    difference |rho1 - rho2| that peaks inside (0, T) or is zero
    (interior_max, material.check_interior_max) and equal conductivities
    on supp chi (require_equal_gamma).  A failed check raises by the name
    of its predicate.
    """
    if len({p.kind for p in probes}) != 1:
        raise ReconstructError("probes built together need one kind")
    kind = probes[0].kind
    if kind == "rho" and grid.dim < 3:
        raise SingularError(f"rho_dim fails: rho probes need n >= 3, dim = {grid.dim}")
    if kind == "rho" and not A.is_identity:
        raise SingularError(f"rho_identity_A fails: rho probes need A = Id, "
                            f"diag(A) = {np.diagonal(A.A).tolist()}")
    geoms = [exterior_point(grid, p.x0, p.tau) for p in probes]
    cuts = [make_cutoffs(p.t0, p.tau, p.kind, grid, r=p.r, tau0=geom.tau0, shape=p.shape,
                         a_rule=p.a_rule) for p, geom in zip(probes, geoms)]
    if kind == "rho":
        for pair in law_pairs:
            peak = check_interior_max(pair, lam, grid.times)
            if not peak.interior:
                raise ReconstructError(f"{pair[0].label} vs {pair[1].label}: interior_max "
                                       f"fails: |rho1 - rho2| peaks only at t = "
                                       f"{peak.t_max:.3g}")
            require_equal_gamma(pair, lam, grid.times, cuts)
    return CheckedProbes(grid, A, lam, tuple(probes), tuple(geoms), tuple(cuts),
                         tuple(law_pairs))


def probe_data(checked: CheckedProbes):
    """Boundary data and H energy of checked probes, built together.

    Returns one (pairs, energy) per probe: a pair (g, gbar) per member
    of its basis (build_basis), g the member cut to the patch face once
    (probe_boundary_field, which leak-checks it) times the probe's time
    profile.  The kind sets only the profiles: a gamma datum is
    g = phi_tau (H - v), read against itself; a rho datum is
    g_j = chi Phi_tau (d_j H - v_j), read against gbar_j = phi_tau
    (d_j H - v_j), the PatchField of phi_tau and g_j's face.  energy is
    the gradient energy of H that the probe's pairings are divided by.
    The correctors of all the probes are one stacked solve.
    """
    grid, kind = checked.grid, checked.kind
    bases = build_basis(grid, checked.geoms, checked.A, kind=kind)
    out = []
    for basis, cut in zip(bases, checked.cuts):
        energy = grad_H_energy(basis, grid)
        if energy <= 1e-14:
            raise ReconstructError("singular-basis energy underflow")
        phi = cut.phi_tau(grid.times)
        profile = phi if kind == "gamma" else cut.chi(grid.times) * cut.Phi_tau(grid.times)
        gs = [probe_boundary_field(grid, profile, member) for member in basis.members]
        out.append(([(g, g if profile is phi else PatchField(phi, g.face, grid)) for g in gs],
                    energy))
    return out


def recover_gamma_point(pair, A: MatrixField, grid: Grid, lam: float,
                        probe: ProbeSpec) -> float:
    """Estimate of gamma^1(t0, lambda) - gamma^2(t0, lambda)."""
    if probe.kind != "gamma":
        raise ReconstructError("gamma recovery needs a gamma-kind probe")
    return point_recovery(check_probes(grid, A, [probe], [pair], lam=lam), pair)[0]


def recover_rho_point(pair, A: MatrixField, grid: Grid, lam: float,
                      probe: ProbeSpec) -> float:
    """Estimate of rho^1(t0, lambda) - rho^2(t0, lambda), n >= 3, A = Id.

    Needs gamma^1 = gamma^2 on supp chi, so the conductivity cross term of
    the rho identity vanishes identically, and a rho difference that peaks
    inside (0, T); check_probes raises ReconstructError naming
    rho_equal_gamma or interior_max otherwise, and SingularError
    naming rho_dim or rho_identity_A in fewer than 3 dimensions or for any
    A but the identity.
    """
    if probe.kind != "rho":
        raise ReconstructError("rho recovery needs a rho-kind probe")
    return point_recovery(check_probes(grid, A, [probe], [pair], lam=lam), pair)[0]


def _estimates(built, diffs, grid: Grid) -> list:
    """Each probe's pairing <diff, gbar> summed over its data, over its
    energy of H; diffs: (Lambda^1 - Lambda^2) g of built's data g in order."""
    diffs = iter(diffs)
    return [sum(surface_pairing(diff, gbar.values, grid)
                for (_, gbar), diff in zip(pairs, diffs)) / energy
            for pairs, energy in built]


def point_recovery(checked: CheckedProbes, pair) -> list:
    """Recovered differences of the law pair at the checked probes, one
    per probe; the pair must be one they were checked with.

    The probes' kind sets the target.  Each probe's pairing
    <(Lambda^1 - Lambda^2) g, gbar>, summed over its data (probe_data),
    is divided by its gradient energy of H.  All their data go through
    one patch_linear_flux call on the pair.
    """
    laws = checked.require([pair])
    built = probe_data(checked)
    [diff] = patch_linear_flux(laws, checked.A, checked.grid, checked.lam,
                               [g for pairs, _ in built for g, _ in pairs])
    return _estimates(built, diff, checked.grid)


# ---------------------------------------------------------------------------
# tau sweeps


def _fit_extrapolation(taus, estimates):
    """Fit e(tau) = e_inf + c * tau^p through the last three sweep points.

    e_inf = e3 - d23 t3^p / (t2^p - t3^p) divides by a difference of close
    powers, so it amplifies rounding in the raw estimates: about thirtyfold
    on the rho3d-probe sweeps (6.8e-14 relative in the raw estimates gave
    2.3e-12 in e_inf).  A bound on the estimates of a sweep, such as the
    1e-12 agreement of a stacked sweep with its probes one at a time,
    covers the raw estimates; e_inf carries this conditioning factor on
    top of it."""
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

    lo, hi = 1e-3, 8.0
    g_lo = gap(lo)
    if g_lo * gap(hi) > 0.0:
        return None, None
    while lo < (p := 0.5 * (lo + hi)) < hi:  # bisect down to rounding
        lo, hi = (p, hi) if (gap(p) > 0.0) == (g_lo > 0.0) else (lo, p)
    e_inf = e3 - d23 * t3 ** p / (t2 ** p - t3 ** p)
    return e_inf, p


def sweep_taus(tau_list) -> list:
    """The distinct taus of a sweep, decreasing; a sweep needs two."""
    taus = sorted(set(float(t) for t in tau_list), reverse=True)
    if len(taus) < 2:
        raise ReconstructError(f"tau_sweep fails: a tau sweep needs at least two "
                               f"distinct values, tau_list = {list(tau_list)}")
    return taus


def tau_sweep(taus, estimates, reference: float = None) -> ReconstructionReport:
    """Fit the estimates of a sweep, one per tau, taus strictly decreasing.

    The estimates are what one point_recovery call gives for the sweep's
    probes, ordered by sweep_taus.  Extrapolation uses the e_inf + c tau^p
    model on the last three points and is skipped (finest raw value
    reported) when the sequence is non-monotone or not power-like; with a
    reference value and four points or more, the log-log slope of the
    error is the fitted rate.
    """
    sweep_taus(taus)  # two distinct taus; the report checks their order
    taus, estimates = list(map(float, taus)), list(map(float, estimates))
    if len(estimates) != len(taus):
        raise ReconstructError("a sweep needs one estimate per tau")
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
    return ReconstructionReport(tau_sequence=taus, raw_estimates=estimates,
                                extrapolated_value=float(e_inf),
                                reference_value=reference, fitted_rate=rate,
                                notes="; ".join(notes))


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


def _coeff_difference(pair, lam: float, T: float, target: str) -> np.ndarray:
    """target^1 - target^2 of a law pair at lam, on 512 times across [0, T]."""
    t = np.linspace(0.0, T, 512)
    return getattr(pair[0], target)(t, lam) - getattr(pair[1], target)(t, lam)


def _family_differences(family, target: str, lam: float, T: float) -> list:
    """(eps, pair, _coeff_difference of the pair) of a stability family's
    nonzero eps, in order.

    A table needs a nonzero eps and none below 0 (a zero row is kept and
    fits nothing).  Its target difference at lam must be nonzero at each
    nonzero eps and differ between any two: a perturbation profile that
    is zero at lam leaves every row with the same difference, so a slope
    or Holder constant fitted to the rows would divide by zero or mean
    nothing.
    """
    eps = [e for e, _ in family]
    if not any(eps) or min(eps) < 0.0:
        raise ReconstructError(f"eps_sweep fails: a stability table needs a nonzero eps "
                               f"and none below 0, eps_list = {eps}")
    rows = [(e, pair, _coeff_difference(pair, lam, T, target))
            for e, pair in family if e != 0.0]
    for i, (e, _, d) in enumerate(rows):
        if not d.any() or any(np.array_equal(d, prior) for _, _, prior in rows[:i]):
            raise ReconstructError(f"eps_perturbation fails: the {target} difference at "
                                   f"lambda = {lam} is zero at eps = {e} or that of an "
                                   f"earlier eps; it must change with eps")
    return rows


def stability_pairs(family, target: str, lam: float, T: float) -> list:
    """The law pairs of a stability family's nonzero eps, in order, checked
    by _family_differences."""
    return [pair for _, pair, _ in _family_differences(family, target, lam, T)]


def stability_experiment(checked: CheckedProbes, family, dict_seed: int = 0,
                         dict_size: int = 16) -> StabilityTable:
    """Rate table over an eps-indexed family of law pairs at one checked
    probe, whose kind is the target.

    family: list of (eps, (law1, law2)), checked by stability_pairs; its
    nonzero-eps pairs must be ones the probe was checked with.  A row's
    eta is the dictionary surrogate of its pair in the grid's
    BoundaryNorm, its true difference is the largest of the target
    difference its check formed, and its recovered value is read at the
    probe.  One patch_linear_flux call on the dictionary and probe data
    takes every row's pair, so each distinct law is solved once, and forms
    one row's difference at a time, dropped before the next is formed.
    For the gamma target the table gets a log-log slope of true
    difference vs eta; for rho a one-sided check of diff <= C *
    eta^{1/9} with C calibrated at the largest eps.
    """
    grid, lam, target = checked.grid, checked.lam, checked.kind
    nonzero = _family_differences(family, target, lam, grid.T)
    pairs = checked.require([pair for _, pair, _ in nonzero])
    if len(checked.probes) != 1:
        raise ReconstructError("a stability table reads one probe")
    norm = BoundaryNorm(grid)
    dictionary = random_bump_dictionary(grid, dict_size, seed=dict_seed)
    half_norms = [norm.half(g.values) for g in dictionary]
    built = probe_data(checked)
    n = len(dictionary)
    diffs = patch_linear_flux(pairs, checked.A, grid, lam,
                              dictionary + [g for g, _ in built[0][0]])
    true_diffs = (float(np.abs(d).max()) for _, _, d in nonzero)
    rows = []
    for eps, _ in family:
        if eps == 0.0:
            rows.append(StabilityRow(eps=0.0, eta=0.0, true_diff=0.0, recovered=0.0,
                                     why="zero row excluded from fits"))
            continue
        diff = next(diffs)  # (Lambda^1 - Lambda^2) g of the row's pair
        rows.append(StabilityRow(eps=eps, eta=eta_surrogate(diff[:n], half_norms, norm),
                                 true_diff=next(true_diffs),
                                 recovered=_estimates(built, diff[n:], grid)[0]))
        diff = None  # dropped before the next row's difference is formed
    good = [r for r in rows if r.eps > 0.0]
    table = StabilityTable(target=target, rows=rows)
    if len(good) >= 2 and target == "gamma":
        x = np.log([r.eta for r in good])
        y = np.log([r.true_diff for r in good])
        table.fitted_slope = float(np.polyfit(x, y, 1)[0])
    if target == "rho":
        cal = max(good, key=lambda r: r.eps)
        C = cal.true_diff / cal.eta ** (1.0 / 9.0)
        table.holder_constant = C
        table.holder_ok = all(r.true_diff <= C * r.eta ** (1.0 / 9.0) * (1 + 1e-9)
                              for r in good)
    return table
