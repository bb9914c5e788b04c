"""Implicit solvers for the quasilinear heat problem and its linearization.

The forward problem

    rho(t, u) du/dt - div(gamma(t, u) A grad u) = f,   u|_{t=0} = lambda,
    u = lambda + g on the boundary,

is advanced by implicit Euler with a Newton iteration per step; the
Jacobian is analytic, using the closed-form s-derivatives carried by the
MaterialLaw.  The linearized problem freezes both coefficients at the
background value s = lambda.  For diagonal A the type-I discrete sine
transform diagonalizes the frozen operator on the interior box, so each
step is one forward and one inverse DST-I (Buzbee, Golub & Nielson, SIAM
J. Numer. Anal. 7, 1970); the adjoint problem is the same operator stepped
backward from a zero terminal state.  Frozen solves and the stiffness
matrix K they couple the boundary through require diagonal A.

Spatial discretization is the standard second-order stencil with
face-averaged diffusion coefficients on the diagonal of A.  The forward
solver also takes off-diagonal (cross) terms, by centered differences
with the coefficient frozen in the Jacobian.  The source term exists only
for manufactured-solution studies.
"""

from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn, idstn
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .geometry import Grid
from .material import MatrixField

NEWTON_TOL = 1e-10
NEWTON_CAP = 25


class PDEError(RuntimeError):
    pass


@dataclass
class SpaceTimeField:
    """Scalar field on all Omega-closure nodes at every time level."""

    values: np.ndarray  # (nt+1, *grid.shape)
    grid: Grid


@dataclass
class BoundaryField:
    """Dirichlet boundary data: node array per level, zero at interior nodes.

    support is "S" when the datum is a patch probe (vanishing on the rest
    of the boundary) and "full" otherwise.
    """

    values: np.ndarray  # (nt+1, *grid.shape)
    grid: Grid
    support: str = "full"

    def __post_init__(self):
        interior = interior_mask(self.grid)
        if np.any(self.values[:, interior] != 0.0):
            raise PDEError("boundary data carries interior values")

    def check_compatible(self, where: str = "start", tol: float = 1e-12):
        scale = max(1.0, np.abs(self.values).max())
        if where == "start":
            bad = np.abs(self.values[0]).max() > tol * scale
            msg = "boundary data must vanish at t=0"
        else:
            bad = np.abs(self.values[-1]).max() > tol * scale
            msg = "adjoint boundary data must vanish at t=T"
        if bad:
            raise PDEError(msg)


def interior_mask(grid: Grid):
    m = np.ones(grid.shape, dtype=bool)
    for a in range(grid.dim):
        m[grid.face_node_selector(a, 0)] = False
        m[grid.face_node_selector(a, 1)] = False
    return m


def boundary_field_from_callable(grid: Grid, fn, support: str = "full") -> BoundaryField:
    """Sample fn(t, X) (X a stack of coordinate arrays) on boundary nodes."""
    coords = np.stack(grid.node_coords(), axis=-1)
    bmask = ~interior_mask(grid)
    vals = np.zeros((grid.nt + 1,) + grid.shape)
    for m, t in enumerate(grid.times):
        full = np.asarray(fn(t, coords), dtype=float)
        vals[m][bmask] = full[bmask]
    return BoundaryField(values=vals, grid=grid, support=support)


def probe_boundary_field(grid: Grid, time_profile, spatial: np.ndarray,
                         tol: float = 1e-7) -> BoundaryField:
    """Boundary datum time_profile(t) * spatial(x) restricted to dOmega.

    spatial is a full node array (e.g. H - v_tau); it must vanish on
    dOmega \\ S up to tol relative to its peak, or the probe construction
    leaked outside the patch and we refuse to continue.
    """
    bmask = ~interior_mask(grid)
    smask = np.zeros(grid.shape, dtype=bool)
    face = grid.face_node_selector(grid.patch_axis, grid.patch_side)
    smask[face] = grid.patch_support_mask()
    off_patch = bmask & ~smask
    peak = np.abs(spatial[bmask]).max()
    leak = np.abs(spatial[off_patch]).max()
    if peak > 0.0 and leak > tol * peak:
        raise PDEError(f"probe support leaks off the patch: {leak:.3e} vs peak {peak:.3e}")
    prof = np.asarray(time_profile(grid.times), dtype=float)
    vals = np.zeros((grid.nt + 1,) + grid.shape)
    vals[:, smask] = prof[:, None] * spatial[smask][None, :]
    return BoundaryField(values=vals, grid=grid, support="S")


# ---------------------------------------------------------------------------
# spatial operators


def _flat_strides(shape):
    return [int(np.prod(shape[a + 1:])) for a in range(len(shape))]


def constant_stiffness(grid: Grid, A: np.ndarray):
    """Rows of K = -div(A grad .) for interior nodes, columns over all nodes.

    Constant diagonal coefficient; raises PDEError for off-diagonal A.
    """
    if np.any(A != np.diag(np.diagonal(A))):
        raise PDEError("frozen-coefficient operators need a diagonal A")
    shape = grid.shape
    size = int(np.prod(shape))
    strides = _flat_strides(shape)
    imask = interior_mask(grid)
    flat_int = np.flatnonzero(imask.ravel())
    n_int = flat_int.size
    h2 = grid.h ** 2
    loc = np.arange(n_int)

    rows, cols, vals = [loc], [flat_int], [np.full(n_int, 2.0 * np.trace(A) / h2)]
    for a in range(grid.dim):
        for sgn in (-1, 1):
            rows.append(loc)
            cols.append(flat_int + sgn * strides[a])
            vals.append(np.full(n_int, -A[a, a] / h2))
    K = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(n_int, size)).tocsc()
    return K, flat_int


def _nonlinear_diffusion(grid: Grid, A: np.ndarray, gamma_vals: np.ndarray,
                         u: np.ndarray):
    """div(gamma A grad u) at interior nodes (full arrays in, full array out)."""
    h = grid.h
    out = np.zeros_like(u)
    dim = grid.dim
    for a in range(dim):
        up = np.roll(u, -1, axis=a)
        dn = np.roll(u, 1, axis=a)
        gup = np.roll(gamma_vals, -1, axis=a)
        gdn = np.roll(gamma_vals, 1, axis=a)
        out += A[a, a] * (0.5 * (gamma_vals + gup) * (up - u)
                          - 0.5 * (gdn + gamma_vals) * (u - dn)) / h ** 2
    for a in range(dim):
        for b in range(dim):
            if a == b or A[a, b] == 0.0:
                continue
            # d_a(gamma a_ab d_b u) with centered differences in both axes
            dbu = (np.roll(u, -1, axis=b) - np.roll(u, 1, axis=b)) / (2 * h)
            flux = gamma_vals * dbu
            out += A[a, b] * (np.roll(flux, -1, axis=a) - np.roll(flux, 1, axis=a)) / (2 * h)
    return out


def _forward_jacobian(grid: Grid, A: np.ndarray, law, t: float, u: np.ndarray,
                      u_prev: np.ndarray, dt: float, flat_int, red):
    """Analytic Jacobian of the implicit-Euler residual wrt interior u."""
    shape = grid.shape
    strides = _flat_strides(shape)
    h2 = grid.h ** 2
    uf = u.ravel()
    g = law.gamma(t, u)
    gs = law.gamma.ds(t, u)
    rho = law.rho(t, u).ravel()[flat_int]
    rho_s = law.rho.ds(t, u).ravel()[flat_int]
    gf, gsf = g.ravel(), gs.ravel()

    n_int = flat_int.size
    loc = np.arange(n_int)
    diag = rho / dt + rho_s * (uf[flat_int] - u_prev.ravel()[flat_int]) / dt
    rows, cols, vals = [], [], []
    for a in range(grid.dim):
        for sgn in (-1, 1):
            nb = flat_int + sgn * strides[a]
            face = 0.5 * (gf[flat_int] + gf[nb])
            # -d/du_i of the face flux sum
            diag = diag + A[a, a] * (face - 0.5 * gsf[flat_int] * (uf[nb] - uf[flat_int])) / h2
            inn = red[nb] >= 0
            rows.append(loc[inn])
            cols.append(red[nb[inn]])
            vals.append((A[a, a] * (-face - 0.5 * gsf[nb] * (uf[nb] - uf[flat_int])) / h2)[inn])
    # cross terms: coefficient frozen (gamma treated as constant in u)
    for a in range(grid.dim):
        for b in range(grid.dim):
            if a == b or A[a, b] == 0.0:
                continue
            for sa in (-1, 1):
                ga = gf[flat_int + sa * strides[a]]
                for sb in (-1, 1):
                    nb = flat_int + sa * strides[a] + sb * strides[b]
                    inn = red[nb] >= 0
                    rows.append(loc[inn])
                    cols.append(red[nb[inn]])
                    vals.append((-A[a, b] * sa * sb * ga / (4.0 * h2))[inn])
    rows.append(loc)
    cols.append(loc)
    vals.append(diag)
    J = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(n_int, n_int)).tocsc()
    return J


# ---------------------------------------------------------------------------
# solvers


def solve_forward(law, A: MatrixField, grid: Grid, lam: float, g: BoundaryField,
                  source=None, newton_tol: float = NEWTON_TOL,
                  newton_cap: int = NEWTON_CAP) -> SpaceTimeField:
    """Implicit-Euler / Newton solve of the quasilinear problem.

    source, if given, is an array (nt+1, *shape) added to the right side
    (manufactured-solution studies only).  Newton divergence is reported
    as the boundary amplitude lying outside the operational smallness
    radius of the background state.
    """
    g.check_compatible("start")
    shape = grid.shape
    imask = interior_mask(grid)
    flat_int = np.flatnonzero(imask.ravel())
    red = -np.ones(int(np.prod(shape)), dtype=np.int64)
    red[flat_int] = np.arange(flat_int.size)
    dt = grid.dt

    u = np.empty((grid.nt + 1,) + shape)
    u[0] = lam
    for m in range(1, grid.nt + 1):
        t = grid.times[m]
        u_prev = u[m - 1]
        cur = u_prev.copy()
        cur[~imask] = lam + g.values[m][~imask]
        f_m = source[m] if source is not None else None
        converged = False
        for _ in range(newton_cap):
            res_full = (law.rho(t, cur) * (cur - u_prev) / dt
                        - _nonlinear_diffusion(grid, A.A, law.gamma(t, cur), cur))
            if f_m is not None:
                res_full = res_full - f_m
            res = res_full.ravel()[flat_int]
            if not np.all(np.isfinite(res)):
                raise PDEError("outside operational smallness radius "
                               f"(non-finite residual at t={t:g})")
            if np.abs(res).max() <= newton_tol:
                converged = True
                break
            J = _forward_jacobian(grid, A.A, law, t, cur, u_prev, dt, flat_int, red)
            delta = splu(J).solve(-res)
            cur.ravel()[flat_int] += delta
        if not converged:
            raise PDEError("outside operational smallness radius "
                           f"(Newton cap {newton_cap} hit at t={t:g})")
        u[m] = cur
    return SpaceTimeField(values=u, grid=grid)


def _frozen_setup(law, A: MatrixField, grid: Grid, lam: float):
    """Stiffness K, its DST-I spectrum on the interior box, and the frozen
    coefficients t -> gamma(t, lam) and t -> rho(t, lam).

    K restricted to the interior is sum_a a_aa (-D_a^2), and the sine
    modes sin(pi k j / N) diagonalize each -D_a^2 with eigenvalue
    (4 / h^2) sin^2(pi k / 2N), k = 1..N-1.
    """
    K, _ = constant_stiffness(grid, A.A)
    N = grid.n_cells
    s2 = (4.0 / grid.h ** 2) * np.sin(0.5 * np.pi * np.arange(1, N) / N) ** 2
    eig = np.zeros((N - 1,) * grid.dim)
    for a in range(grid.dim):
        eig += A.A[a, a] * s2.reshape((-1,) + (1,) * (grid.dim - 1 - a))
    gam = lambda t: float(law.gamma(t, lam))
    rho = lambda t: float(law.rho(t, lam))
    return K, eig, gam, rho


def _frozen_step(eig, rho_over_dt: float, gam: float, rhs: np.ndarray):
    """Solve (rho/dt I + gamma K_int) x = rhs on the interior box by DST-I."""
    return idstn(dstn(rhs, type=1) / (rho_over_dt + gam * eig), type=1)


def solve_linearized(law, A: MatrixField, grid: Grid, lam: float, g: BoundaryField,
                     source=None) -> SpaceTimeField:
    """Linear solve with coefficients frozen at the background s = lambda."""
    g.check_compatible("start")
    K, eig, gam, rho = _frozen_setup(law, A, grid, lam)
    inner = (slice(1, -1),) * grid.dim
    dt = grid.dt
    w = g.values.copy()
    w[0] = 0.0  # g(0) vanishes only to check_compatible's tolerance
    for m in range(1, grid.nt + 1):
        t = grid.times[m]
        rhs = (rho(t) / dt) * w[m - 1][inner] \
            - gam(t) * (K @ g.values[m].ravel()).reshape(eig.shape)
        if source is not None:
            rhs = rhs + source[m][inner]
        w[m][inner] = _frozen_step(eig, rho(t) / dt, gam(t), rhs)
    return SpaceTimeField(values=w, grid=grid)


def solve_adjoint(law, A: MatrixField, grid: Grid, lam: float,
                  gbar: BoundaryField) -> SpaceTimeField:
    """Backward solve of -d_t(rho_lam wbar) - gamma_lam div(A grad wbar) = 0.

    Terminal state is zero; gbar must vanish at t = T.
    """
    gbar.check_compatible("end")
    K, eig, gam, rho = _frozen_setup(law, A, grid, lam)
    inner = (slice(1, -1),) * grid.dim
    dt = grid.dt
    w = gbar.values.copy()
    w[-1] = 0.0  # likewise gbar(T)
    for m in range(grid.nt - 1, -1, -1):
        t = grid.times[m]
        rhs = (rho(grid.times[m + 1]) / dt) * w[m + 1][inner] \
            - gam(t) * (K @ gbar.values[m].ravel()).reshape(eig.shape)
        w[m][inner] = _frozen_step(eig, rho(t) / dt, gam(t), rhs)
    return SpaceTimeField(values=w, grid=grid)


# ---------------------------------------------------------------------------
# manufactured solutions


def mms_problem(grid: Grid, law, A: MatrixField, lam: float, exact, exact_dt,
                exact_grad, exact_hess):
    """Source + boundary data making `exact` solve the continuous problem.

    exact(t, X) -> field; exact_dt likewise; exact_grad(t, X) -> list of
    first partials; exact_hess(t, X) -> matrix [d_a d_b u] as nested lists.
    Returns (g: BoundaryField, source array, exact field array).
    """
    coords = np.stack(grid.node_coords(), axis=-1)
    bmask = ~interior_mask(grid)
    nt = grid.nt
    gvals = np.zeros((nt + 1,) + grid.shape)
    src = np.zeros((nt + 1,) + grid.shape)
    ex = np.zeros((nt + 1,) + grid.shape)
    for m, t in enumerate(grid.times):
        u = np.asarray(exact(t, coords), dtype=float)
        ex[m] = u
        gvals[m][bmask] = (u - lam)[bmask]
        ut = np.asarray(exact_dt(t, coords), dtype=float)
        gradu = exact_grad(t, coords)
        hess = exact_hess(t, coords)
        gam = law.gamma(t, u)
        gam_s = law.gamma.ds(t, u)
        div = np.zeros(grid.shape)
        for a in range(grid.dim):
            for b in range(grid.dim):
                if A.A[a, b] == 0.0:
                    continue
                div += A.A[a, b] * (gam_s * gradu[a] * gradu[b] + gam * hess[a][b])
        src[m] = law.rho(t, u) * ut - div
    g = BoundaryField(values=gvals, grid=grid, support="full")
    return g, src, ex
