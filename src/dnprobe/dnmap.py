"""Boundary flux extraction, pairings, discrete boundary norms, eta surrogate.

The nonlinear map N sends a boundary datum g to the heat flux
gamma(t, u) (A grad u . nu) on the patch S; its linearization at the
background state is Lambda g = gamma(t, lambda) (A grad w . nu).  This
module extracts both fluxes from solved fields, computes the duality
pairing two ways (direct surface quadrature and the weak form with an
interior lifting), provides desk-scale stand-ins for the H^{1/2,1/2}
boundary norms, and assembles the operator-norm surrogate eta used by the
stability experiments.  The lifting is the DST-I box solve of pde, one
call over all time levels; nothing here is factorized.

Fluxes, the dictionary and the data they pair with are pde.PatchField
face arrays.  The probes and eta read (Lambda^1 - Lambda^2) g off
patch_linear_flux, which solves the frozen problem for a stack of patch
data in the sine basis and forms only the two planes next to the face,
and the linearization check reads Lambda g off it too.
lambda_difference_flux, the full-field solve_linearized plus linear_flux
on PatchField.boundary(), is the reference it is tested against; no
subcommand calls either.  The linearization check advances its data
g/k for all k in one stacked pde.solve_forward.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft2, fftfreq
from numpy.random import default_rng

from .geometry import Grid, trapezoid_weights
from .material import MaterialLaw, MatrixField
from .pde import (BoundaryField, PatchField, SpaceTimeField, _frozen_setup, _lazy_splu,
                  dirichlet_solve, dst1, interior_mask, solve_forward, solve_linearized,
                  PDEError)

# nothing here factorizes: perfbench/spans.py SPLU_MODULES is the only
# reader of dnmap.splu
__getattr__ = _lazy_splu(globals())


class DNMapError(RuntimeError):
    pass


def _face_normal_derivative(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Outward normal derivative on the patch face, 3-point one-sided.

    field is a node array whose last grid.dim axes are space; leading axes
    are a batch.  Exact for fields affine in the normal coordinate.
    """
    d, side = grid.patch_axis, grid.patch_side
    h = grid.h
    sl = lambda k: (Ellipsis,) + tuple(slice(None) if a != d else k for a in range(grid.dim))
    if side == 0:
        inward = (-3.0 * field[sl(0)] + 4.0 * field[sl(1)] - field[sl(2)]) / (2.0 * h)
        return -inward  # nu = -e_d
    inward = (-3.0 * field[sl(-1)] + 4.0 * field[sl(-2)] - field[sl(-3)]) / (2.0 * h)
    return -inward      # derivative along -e_d; nu = +e_d


def _face_conormal(field: np.ndarray, grid: Grid, A: MatrixField) -> np.ndarray:
    """A grad(field) . nu on the patch face; leading axes of field beyond
    the grid.dim space axes are a batch."""
    d = grid.patch_axis
    nu_d = -1.0 if grid.patch_side == 0 else 1.0
    dn = _face_normal_derivative(field, grid)  # = nu_d * d_d(field)
    out = A.A[d, d] * dn
    face = field[(Ellipsis,) + grid.face_node_selector(d, grid.patch_side)]
    for k, e in enumerate(grid.tangential_axes):
        if A.A[d, e] != 0.0:
            out = out + nu_d * A.A[d, e] * np.gradient(face, grid.h, axis=k - (grid.dim - 1),
                                                       edge_order=2)
    return out


def _patch_flux(field: SpaceTimeField, gamma, grid: Grid, A: MatrixField) -> PatchField:
    """gamma (A grad u . nu) on S at every time level, one evaluation over
    the (nt+1, *shape) history; gamma broadcasts against its face arrays."""
    vals = gamma * _face_conormal(field.values, grid, A)
    vals[:, ~grid.patch_support_mask()] = 0.0
    return PatchField(values=vals, grid=grid)


def _face_times(grid: Grid) -> np.ndarray:
    """The time levels as a column against (nt+1, *face_shape) arrays."""
    return grid.times.reshape((-1,) + (1,) * (grid.dim - 1))


def nonlinear_flux(u: SpaceTimeField, law: MaterialLaw, A: MatrixField,
                   grid: Grid) -> PatchField:
    """DN output gamma(t, u) (A grad u . nu) on S at every time level."""
    face = (slice(None),) + grid.face_node_selector(grid.patch_axis, grid.patch_side)
    return _patch_flux(u, law.gamma(_face_times(grid), u.values[face]), grid, A)


def linear_flux(w: SpaceTimeField, law: MaterialLaw, A: MatrixField,
                grid: Grid, lam: float) -> PatchField:
    """Linearized DN output gamma(t, lambda) (A grad w . nu) on S."""
    return _patch_flux(w, law.gamma(_face_times(grid), lam), grid, A)


# ---------------------------------------------------------------------------
# surface quadrature and the direct pairing


def surface_pairing(flux: PatchField, h: PatchField, grid: Grid) -> float:
    """int_{S x (0,T)} flux * h dsigma dt by trapezoid quadrature."""
    W = trapezoid_weights(flux.values.shape[1:], grid.h)
    wt = trapezoid_weights(grid.times.shape, grid.dt)
    per_level = (flux.values * h.values * W).reshape(grid.nt + 1, -1).sum(axis=1)
    return float((per_level * wt).sum())


def flux_l2_st(flux: PatchField, grid: Grid) -> float:
    """L2(S x (0,T)) norm of patch values."""
    W = trapezoid_weights(flux.values.shape[1:], grid.h)
    wt = trapezoid_weights(grid.times.shape, grid.dt)
    per_level = (flux.values ** 2 * W).reshape(grid.nt + 1, -1).sum(axis=1)
    return math.sqrt(float((per_level * wt).sum()))


# ---------------------------------------------------------------------------
# weak pairing via interior lifting


def lift_terminal_zero(h: BoundaryField, grid: Grid, A: MatrixField) -> np.ndarray:
    """E_T h: slice-wise A-harmonic extension into Omega (diagonal A), all
    time levels in one DST-I box solve; zero at t=T inherited from h."""
    h.check_compatible("end")
    return dirichlet_solve(h.values.copy(), A.A, grid.h)


def weak_pairing(w: SpaceTimeField, h: BoundaryField, law: MaterialLaw,
                 A: MatrixField, grid: Grid, lam: float) -> float:
    """<Lambda g, h> through the interior identity with lifting E_T h.

    Computes int_Q (-d_t rho_lam w E - rho_lam w d_t E + gamma_lam
    A grad w . grad E); h must vanish at t = T.
    """
    E = lift_terminal_zero(h, grid, A)
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

    def half(self, field) -> float:
        return self._norm(field, lambda p, w: w * p)

    def dual(self, field) -> float:
        return self._norm(field, lambda p, w: p / w)

    def _norm(self, field, weigh) -> float:
        """sqrt(sum weigh(p, w)) over the (arclength, time) power spectrum p
        of a BoundaryField or PatchField on dOmega and the weights w; the
        L2 kind is plain L2(Sigma)."""
        if isinstance(field, PatchField):
            field = field.boundary()
        if self.kind == "L2":
            return _l2_sigma(field.values, self.grid)
        samples = _closed_curve_samples(field.values, self.grid)[:-1]
        n_t, n_s = samples.shape
        ds = 4.0 / n_s
        p = np.abs(fft2(samples) * math.sqrt(self.grid.dt * ds / (n_t * n_s))) ** 2
        xi_s = 2.0 * math.pi * np.abs(fftfreq(n_s, d=ds))
        xi_t = 2.0 * math.pi * np.abs(fftfreq(n_t, d=self.grid.T / n_t))
        w = (1.0 + xi_s)[None, :] + (1.0 + xi_t)[:, None]
        return math.sqrt(float(weigh(p, w).sum()))


def make_norm(grid: Grid, kind: str = None) -> BoundaryNorm:
    if kind is None:
        kind = "spectral" if grid.dim == 2 else "L2"
    if kind == "spectral" and grid.dim != 2:
        raise DNMapError("the spectral boundary norm exists only in 2D")
    if kind not in ("spectral", "L2"):
        raise DNMapError(f"unknown norm kind {kind!r}")
    return BoundaryNorm(grid=grid, kind=kind)


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
                        g: PatchField, k_list) -> list:
    """Frechet-derivative decay table d_k = ||k N(g/k) - Lambda g||.

    Lambda g comes from patch_linear_flux.  The data g/k for every k are
    advanced in one stacked solve_forward; a datum whose Newton solve
    diverges leaves the stack and its row is flagged instead of raising.
    "newton" holds the solver counts of the row's datum.
    """
    lam_flux = patch_linear_flux(law, A, grid, lam, [g])[0]
    scaled = [PatchField(values=g.values / k, grid=grid) for k in k_list]
    rows = []
    for k, u in zip(k_list, solve_forward(law, A, grid, lam, scaled)):
        if isinstance(u, PDEError):
            rows.append({"k": k, "d_k": float("nan"), "ok": False, "why": str(u),
                         "newton": None})
            continue
        nf = nonlinear_flux(u, law, A, grid)
        diff = PatchField(values=k * nf.values - lam_flux, grid=grid)
        rows.append({"k": k, "d_k": flux_l2_st(diff, grid), "ok": True, "why": "",
                     "newton": u.newton})
    return rows


def lambda_difference_flux(law_pair, A: MatrixField, grid: Grid, lam: float,
                           g: BoundaryField) -> PatchField:
    """(Lambda^1 - Lambda^2) g on S by two full-field frozen solves."""
    law1, law2 = law_pair
    w1 = solve_linearized(law1, A, grid, lam, g)
    w2 = solve_linearized(law2, A, grid, lam, g)
    f1 = linear_flux(w1, law1, A, grid, lam)
    f2 = linear_flux(w2, law2, A, grid, lam)
    return PatchField(values=f1.values - f2.values, grid=grid)


def patch_linear_flux(law: MaterialLaw, A: MatrixField, grid: Grid, lam: float,
                      data: list) -> np.ndarray:
    """Lambda g on S for a list of patch data (PatchField).

    Same numbers as linear_flux(solve_linearized(g.boundary())) datum by
    datum, but the frozen problem is solved in the sine basis of the
    interior box and only the two node planes next to the face are ever
    formed.  For data on the face, K g is -(a_dd / h^2) g_face on the
    interior plane p next to it, whose DST-I along the normal is
    2 sin(pi k p / N); each implicit Euler step is then one elementwise
    update per mode.  The planes come
    back through the inverse-DST rows sin(pi k j / N) / N along the normal
    and one tangential inverse DST.  Returns (len(data), nt+1, *face_shape)
    flux values, zero off S: row b is the PatchField values of data[b].
    """
    d, side = grid.patch_axis, grid.patch_side
    for g in data:
        g.check_compatible("start")
    eig, basis, gam, rho = _frozen_setup(law, A, grid, lam)
    basis = [basis[e] for e in grid.tangential_axes]
    N, h, dt, nt = grid.n_cells, grid.h, grid.dt, grid.nt
    a_dd = A.A[d, d]
    faces = np.stack([g.values for g in data])  # (B, nt+1, *face_shape)
    faces[:, 0] = 0.0  # as solve_linearized's w(0) = 0
    inner = (Ellipsis,) + (slice(1, -1),) * (grid.dim - 1)
    src = dst1(faces[inner], basis)
    # normal modes first, then the tangential ones in face order
    eig = np.moveaxis(eig, d, 0)
    k = np.arange(1, N)
    planes = (1, 2) if side == 0 else (N - 1, N - 2)  # p = planes[0]
    col = (2.0 * np.sin(np.pi * k * planes[0] / N)).reshape((-1,) + (1,) * (grid.dim - 1))
    rows = np.sin(np.pi * np.outer(planes, k) / N) / N
    B = len(data)
    state = np.zeros((B,) + eig.shape)
    near = np.zeros((B, nt + 1, 2) + eig.shape[1:])
    times = grid.times
    for m in range(1, nt + 1):
        r, gm = rho(times[m]) / dt, gam(times[m])
        state = (r * state + (gm * a_dd / h ** 2) * src[:, m, None] * col) \
            / (r + gm * eig)
        near[:, m] = (rows @ state.reshape(B, N - 1, -1)).reshape((B,) + near.shape[2:])
    P = np.zeros((B, nt + 1, 2) + faces.shape[2:])
    P[inner] = dst1(near, basis)
    inward = (-3.0 * faces + 4.0 * P[:, :, 0] - P[:, :, 1]) / (2.0 * h)
    gam_t = np.array([gam(t) for t in times]).reshape((1, -1) + (1,) * (grid.dim - 1))
    out = gam_t * (a_dd * -inward)
    out[:, :, ~grid.patch_support_mask()] = 0.0
    return out


def random_bump_dictionary(grid: Grid, count: int = 16, seed: int = 0) -> list:
    """Smooth random boundary data supported in S x (0,T).

    Space: Gaussian bump in the patch tangential coordinates, clipped by a
    smooth patch window; time: sine arch vanishing at both endpoints.
    """
    rng = default_rng(seed)
    smask = grid.patch_support_mask()
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
        vals = prof.reshape((-1,) + (1,) * (grid.dim - 1)) * space[None]
        out.append(PatchField(values=vals, grid=grid))
    return out


def eta_surrogate(law_pair, A: MatrixField, grid: Grid, lam: float,
                  dictionary: list, norm: BoundaryNorm = None,
                  reference: np.ndarray = None, half_norms: list = None) -> float:
    """Dictionary maximum of ||(Lambda^1-Lambda^2) g||_dual / ||g||_half.

    A lower bound of the operator norm; acceptance fits use it on both
    sides of every relation, so the bias is consistent.  reference, if
    given, is patch_linear_flux of the second law on the dictionary, and
    half_norms, if given, is norm.half of each datum, so a caller sweeping
    the first law solves the second and measures the data only once.
    """
    if not dictionary:
        raise DNMapError("eta surrogate needs a nonempty dictionary")
    norm = make_norm(grid) if norm is None else norm
    law1, law2 = law_pair
    if reference is None:
        reference = patch_linear_flux(law2, A, grid, lam, dictionary)
    if half_norms is None:
        half_norms = [norm.half(g) for g in dictionary]
    diffs = patch_linear_flux(law1, A, grid, lam, dictionary) - reference
    best = 0.0
    for denom, diff in zip(half_norms, diffs):
        if denom == 0.0:
            continue
        best = max(best, norm.dual(PatchField(values=diff, grid=grid)) / denom)
    return best
