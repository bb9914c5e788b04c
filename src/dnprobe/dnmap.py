"""Boundary flux extraction, pairings, discrete boundary norms, eta surrogate.

The nonlinear map N sends a boundary datum g to the heat flux
gamma(t, u) (A grad u . nu) on the patch S; its linearization at the
background state is Lambda g = gamma(t, lambda) (A grad w . nu).  This
module extracts both fluxes from solved fields, computes the duality
pairing two ways (direct surface quadrature and the weak form with an
interior lifting), provides desk-scale stand-ins for the H^{1/2,1/2}
boundary norms, and assembles the operator-norm surrogate eta used by the
stability experiments.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .geometry import Grid, trapezoid_weights
from .material import MaterialLaw, MatrixField
from .pde import (BoundaryField, SpaceTimeField, constant_stiffness,
                  interior_mask, solve_forward, solve_linearized, PDEError)


class DNMapError(RuntimeError):
    pass


@dataclass
class FluxRecord:
    """Flux samples on the patch face (full face array, zero off S)."""

    values: np.ndarray          # (nt+1, *face_shape)
    grid: Grid


def _face_normal_derivative(field_level: np.ndarray, grid: Grid) -> np.ndarray:
    """Outward normal derivative on the patch face, 3-point one-sided.

    Exact for fields affine in the normal coordinate.
    """
    d, side = grid.patch_axis, grid.patch_side
    h = grid.h
    sl = lambda k: tuple(slice(None) if a != d else k for a in range(grid.dim))
    if side == 0:
        inward = (-3.0 * field_level[sl(0)] + 4.0 * field_level[sl(1)]
                  - field_level[sl(2)]) / (2.0 * h)
        return -inward  # nu = -e_d
    inward = (-3.0 * field_level[sl(-1)] + 4.0 * field_level[sl(-2)]
              - field_level[sl(-3)]) / (2.0 * h)
    return -inward      # derivative along -e_d; nu = +e_d


def _face_conormal(field_level: np.ndarray, grid: Grid, A: MatrixField) -> np.ndarray:
    """A grad(field) . nu on the patch face."""
    d = grid.patch_axis
    nu_d = -1.0 if grid.patch_side == 0 else 1.0
    dn = _face_normal_derivative(field_level, grid)  # = nu_d * d_d(field)
    out = A.A[d, d] * dn
    face = field_level[grid.face_node_selector(d, grid.patch_side)]
    for k, e in enumerate(grid.tangential_axes):
        if A.A[d, e] != 0.0:
            out = out + nu_d * A.A[d, e] * np.gradient(face, grid.h, axis=k, edge_order=2)
    return out


def nonlinear_flux(u: SpaceTimeField, law: MaterialLaw, A: MatrixField,
                   grid: Grid) -> FluxRecord:
    """DN output gamma(t, u) (A grad u . nu) on S at every time level."""
    face_sel = grid.face_node_selector(grid.patch_axis, grid.patch_side)
    smask = grid.patch_support_mask()
    vals = np.zeros((grid.nt + 1,) + smask.shape)
    for m, t in enumerate(grid.times):
        lvl = u.values[m]
        con = _face_conormal(lvl, grid, A)
        vals[m] = law.gamma(t, lvl[face_sel]) * con
        vals[m][~smask] = 0.0
    return FluxRecord(values=vals, grid=grid)


def linear_flux(w: SpaceTimeField, law: MaterialLaw, A: MatrixField,
                grid: Grid, lam: float) -> FluxRecord:
    """Linearized DN output gamma(t, lambda) (A grad w . nu) on S."""
    face_sel = grid.face_node_selector(grid.patch_axis, grid.patch_side)
    smask = grid.patch_support_mask()
    vals = np.zeros((grid.nt + 1,) + smask.shape)
    for m, t in enumerate(grid.times):
        con = _face_conormal(w.values[m], grid, A)
        vals[m] = float(law.gamma(t, lam)) * con
        vals[m][~smask] = 0.0
    return FluxRecord(values=vals, grid=grid)


# ---------------------------------------------------------------------------
# surface quadrature and the direct pairing


def surface_pairing(flux: FluxRecord, h: BoundaryField, grid: Grid) -> float:
    """int_{S x (0,T)} flux * h dsigma dt by trapezoid quadrature."""
    face_sel = grid.face_node_selector(grid.patch_axis, grid.patch_side)
    hv = h.values[(slice(None),) + face_sel]
    W = trapezoid_weights(flux.values.shape[1:], grid.h)
    wt = trapezoid_weights(grid.times.shape, grid.dt)
    per_level = (flux.values * hv * W).reshape(grid.nt + 1, -1).sum(axis=1)
    return float((per_level * wt).sum())


def flux_l2_st(flux: FluxRecord, grid: Grid) -> float:
    """L2(S x (0,T)) norm of a flux record."""
    W = trapezoid_weights(flux.values.shape[1:], grid.h)
    wt = trapezoid_weights(grid.times.shape, grid.dt)
    per_level = (flux.values ** 2 * W).reshape(grid.nt + 1, -1).sum(axis=1)
    return math.sqrt(float((per_level * wt).sum()))


# ---------------------------------------------------------------------------
# weak pairing via interior lifting


class Lifting:
    """Per-time-slice A-harmonic extension operator into Omega."""

    def __init__(self, grid: Grid, A: MatrixField):
        K, flat_int = constant_stiffness(grid, A.A)
        self.grid = grid
        self.K = K
        self.flat_int = flat_int
        self.lu = splu(K[:, flat_int].tocsc())

    def extend(self, boundary_level: np.ndarray) -> np.ndarray:
        full = boundary_level.copy()
        full.ravel()[self.flat_int] = 0.0
        if not full.any():
            return full  # zero trace lifts to exact zero
        rhs = -(self.K @ full.ravel())
        full.ravel()[self.flat_int] = self.lu.solve(rhs)
        return full


def lift_terminal_zero(h: BoundaryField, grid: Grid, A: MatrixField,
                       lifting: Lifting = None) -> np.ndarray:
    """E_T h: slice-wise harmonic extension; zero at t=T inherited from h."""
    h.check_compatible("end")
    lifting = Lifting(grid, A) if lifting is None else lifting
    out = np.empty((grid.nt + 1,) + grid.shape)
    for m in range(grid.nt + 1):
        out[m] = lifting.extend(h.values[m])
    return out


def weak_pairing(w: SpaceTimeField, h: BoundaryField, law: MaterialLaw,
                 A: MatrixField, grid: Grid, lam: float,
                 lifting: Lifting = None) -> float:
    """<Lambda g, h> through the interior identity with lifting E_T h.

    Computes int_Q (-d_t rho_lam w E - rho_lam w d_t E + gamma_lam
    A grad w . grad E); h must vanish at t = T.
    """
    E = lift_terminal_zero(h, grid, A, lifting)
    times = grid.times
    rho = np.array([float(law.rho(t, lam)) for t in times])
    drho = np.array([float(law.rho.dt(t, lam)) for t in times])
    gam = np.array([float(law.gamma(t, lam)) for t in times])
    dE = np.gradient(E, grid.dt, axis=0, edge_order=2)
    W = trapezoid_weights(grid.shape, grid.h)
    wt = trapezoid_weights(grid.times.shape, grid.dt)
    total = 0.0
    for m in range(grid.nt + 1):
        gw = np.gradient(w.values[m], grid.h, edge_order=2)
        gE = np.gradient(E[m], grid.h, edge_order=2)
        grad_term = np.zeros(grid.shape)
        for a in range(grid.dim):
            for b in range(grid.dim):
                if A.A[a, b] != 0.0:
                    grad_term += A.A[a, b] * gw[a] * gE[b]
        integrand = (-drho[m] * w.values[m] * E[m]
                     - rho[m] * w.values[m] * dE[m]
                     + gam[m] * grad_term)
        total += wt[m] * float((integrand * W).sum())
    return total


# ---------------------------------------------------------------------------
# boundary norms


def _closed_curve_samples(values_full: np.ndarray, grid: Grid) -> np.ndarray:
    """Order boundary-node values of a 2D grid along the closed curve.

    Walk: bottom edge left->right, right edge up, top edge right->left,
    left edge down; corner duplicates dropped.  (nt+1, 4N) output.
    """
    N = grid.n_cells
    bottom = values_full[:, :, 0]            # y=0, x increasing
    right = values_full[:, N, :]             # x=1, y increasing
    top = values_full[:, ::-1, N]            # y=1, x decreasing
    left = values_full[:, 0, ::-1]           # x=0, y decreasing
    return np.concatenate([bottom[:, :N], right[:, :N], top[:, :N], left[:, :N]],
                          axis=1)


@dataclass
class BoundaryNorm:
    """Discrete stand-in for the H^{1/2,1/2} boundary norm and its dual.

    n=2: DFT in (arclength, time) with weights (1+|xi_s|) + (1+|xi_t|);
    dual uses inverse weights, so |<f,g>_L2| <= dual(f) * half(g).
    n=3: plain L2(Sigma) and flag "L2".
    """

    grid: Grid
    kind: str   # "spectral" or "L2"

    @property
    def flag(self) -> str:
        return "spectral-half" if self.kind == "spectral" else "L2"

    def _weights(self, n_s: int, n_t: int):
        L = 4.0
        xi_s = 2.0 * math.pi * np.abs(np.fft.fftfreq(n_s, d=L / n_s))
        xi_t = 2.0 * math.pi * np.abs(np.fft.fftfreq(n_t, d=self.grid.T / n_t))
        return (1.0 + xi_s)[None, :] + (1.0 + xi_t)[:, None]

    def _spectrum(self, samples: np.ndarray):
        n_t, n_s = samples.shape
        ds = 4.0 / n_s
        co = np.fft.fft2(samples) * math.sqrt(self.grid.dt * ds / (n_t * n_s))
        return np.abs(co) ** 2

    def half(self, field) -> float:
        vals = _as_boundary_values(field, self.grid)
        if self.kind == "L2":
            return _l2_sigma(vals, self.grid)
        samples = _closed_curve_samples(vals, self.grid)[:-1]
        p = self._spectrum(samples)
        return math.sqrt(float((self._weights(p.shape[1], p.shape[0]) * p).sum()))

    def dual(self, field) -> float:
        vals = _as_boundary_values(field, self.grid)
        if self.kind == "L2":
            return _l2_sigma(vals, self.grid)
        samples = _closed_curve_samples(vals, self.grid)[:-1]
        p = self._spectrum(samples)
        return math.sqrt(float((p / self._weights(p.shape[1], p.shape[0])).sum()))


def make_norm(grid: Grid, kind: str = None) -> BoundaryNorm:
    if kind is None:
        kind = "spectral" if grid.dim == 2 else "L2"
    if kind == "spectral" and grid.dim != 2:
        raise DNMapError("the spectral boundary norm exists only in 2D")
    if kind not in ("spectral", "L2"):
        raise DNMapError(f"unknown norm kind {kind!r}")
    return BoundaryNorm(grid=grid, kind=kind)


def _as_boundary_values(field, grid: Grid) -> np.ndarray:
    """Full (nt+1, *shape) array with the field's boundary values."""
    if isinstance(field, BoundaryField):
        return field.values
    if isinstance(field, FluxRecord):
        vals = np.zeros((grid.nt + 1,) + grid.shape)
        face = grid.face_node_selector(grid.patch_axis, grid.patch_side)
        vals[(slice(None),) + face] = field.values
        return vals
    return np.asarray(field, dtype=float)


def _l2_sigma(values_full: np.ndarray, grid: Grid) -> float:
    bmask = ~interior_mask(grid)
    # each boundary node carries a face-area weight; corner/edge nodes are
    # shared between faces, a second-order detail ignored by this stand-in
    wt = trapezoid_weights(grid.times.shape, grid.dt)
    per_level = (values_full[:, bmask] ** 2).sum(axis=1) * grid.h ** (grid.dim - 1)
    return math.sqrt(float((per_level * wt).sum()))


# ---------------------------------------------------------------------------
# linearization check and operator-norm surrogate


def linearization_check(law: MaterialLaw, A: MatrixField, grid: Grid, lam: float,
                        g: BoundaryField, k_list) -> list:
    """Frechet-derivative decay table d_k = ||k N(g/k) - Lambda g||.

    Rows where the forward Newton solve diverges are flagged instead of
    raising.
    """
    w = solve_linearized(law, A, grid, lam, g)
    lam_flux = linear_flux(w, law, A, grid, lam)
    rows = []
    for k in k_list:
        gk = BoundaryField(values=g.values / k, grid=grid, support=g.support)
        try:
            u = solve_forward(law, A, grid, lam, gk)
        except PDEError as exc:
            rows.append({"k": k, "d_k": float("nan"), "ok": False, "why": str(exc)})
            continue
        nf = nonlinear_flux(u, law, A, grid)
        diff = FluxRecord(values=k * nf.values - lam_flux.values, grid=grid)
        rows.append({"k": k, "d_k": flux_l2_st(diff, grid), "ok": True, "why": ""})
    return rows


def lambda_difference_flux(law_pair, A: MatrixField, grid: Grid, lam: float,
                           g: BoundaryField) -> FluxRecord:
    """(Lambda^1 - Lambda^2) g as one flux record."""
    law1, law2 = law_pair
    w1 = solve_linearized(law1, A, grid, lam, g)
    w2 = solve_linearized(law2, A, grid, lam, g)
    f1 = linear_flux(w1, law1, A, grid, lam)
    f2 = linear_flux(w2, law2, A, grid, lam)
    return FluxRecord(values=f1.values - f2.values, grid=grid)


def random_bump_dictionary(grid: Grid, count: int = 16, seed: int = 0) -> list:
    """Smooth random boundary data supported in S x (0,T).

    Space: Gaussian bump in the patch tangential coordinates, clipped by a
    smooth patch window; time: sine arch vanishing at both endpoints.
    """
    rng = np.random.default_rng(seed)
    smask = grid.patch_support_mask()
    face = grid.face_node_selector(grid.patch_axis, grid.patch_side)
    ax = grid.axis_nodes()
    tang = np.meshgrid(*([ax] * (grid.dim - 1)), indexing="ij")
    lo = np.array(grid.patch_lo) * grid.h
    hi = np.array(grid.patch_hi) * grid.h
    # smooth window vanishing on the patch rim
    window = np.ones_like(tang[0])
    for k in range(grid.dim - 1):
        window = window * np.sin(np.pi * np.clip((tang[k] - lo[k]) / (hi[k] - lo[k]), 0, 1))
    out = []
    times = grid.times
    for _ in range(count):
        c = lo + rng.uniform(0.25, 0.75, size=grid.dim - 1) * (hi - lo)
        wdt = rng.uniform(0.1, 0.3) * (hi - lo).min()
        r2 = sum((tang[k] - c[k]) ** 2 for k in range(grid.dim - 1))
        space = np.exp(-r2 / (2 * wdt ** 2)) * window
        space[~smask] = 0.0
        mode = rng.integers(1, 4)
        prof = np.sin(np.pi * mode * times / grid.T) ** 2
        prof[0] = prof[-1] = 0.0  # exact, not sin(pi*k) roundoff
        vals = np.zeros((grid.nt + 1,) + grid.shape)
        vals[(slice(None),) + face] = (prof.reshape((-1,) + (1,) * (grid.dim - 1))
                                       * space[None])
        out.append(BoundaryField(values=vals, grid=grid, support="S"))
    return out


def eta_surrogate(law_pair, A: MatrixField, grid: Grid, lam: float,
                  dictionary: list, norm: BoundaryNorm = None) -> float:
    """Dictionary maximum of ||(Lambda^1-Lambda^2) g||_dual / ||g||_half.

    A lower bound of the operator norm; acceptance fits use it on both
    sides of every relation, so the bias is consistent.
    """
    if not dictionary:
        raise DNMapError("eta surrogate needs a nonempty dictionary")
    norm = make_norm(grid) if norm is None else norm
    best = 0.0
    for g in dictionary:
        denom = norm.half(g)
        if denom == 0.0:
            continue
        diff = lambda_difference_flux(law_pair, A, grid, lam, g)
        best = max(best, norm.dual(diff) / denom)
    return best
