"""Implicit solvers for the quasilinear heat problem and its linearization.

The forward problem

    rho(t, u) du/dt - div(gamma(t, u) A grad u) = f,   u|_{t=0} = lambda,
    u = lambda + g on the boundary,

is advanced by implicit Euler with a chord-Newton iteration per step
(Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
ch. 5).  For diagonal A the first chord matrix is the frozen operator at
the step's own time, rho(t_m, lambda)/dt + gamma(t_m, lambda) K, applied
by one DST-I pair: small data keep u near lambda, so it is nearly the
Jacobian, and for u-independent laws it is the Jacobian, so such solves
factorize nothing and the chord step is the Newton step.  When a step
fails to cut the max-norm residual to CHORD_RATE of the previous one, the
analytic Jacobian (closed-form s-derivatives carried by the MaterialLaw)
is factorized by sparse LU at the current iterate, and that factorization
is reused across iterations and time steps until the next such failure.
Off-diagonal A has no frozen DST step and factorizes the Jacobian at the
first iteration.  That LU is the only use of scipy on a subcommand's
path: splu is a module attribute resolved on first access, so
scipy.sparse.linalg loads only when a Jacobian is factorized.
solve_forward advances a list of data as one stack, in
one loop over time steps and iterations: each datum keeps its own
convergence, chord and counts, the data on the frozen chord share one
DST-I pair over the trailing axes, and a datum with a factorized Jacobian
solves with it alone.  A datum that diverges leaves the stack with its
own PDEError; the others continue.  linearization_check in dnmap solves
all of its k-scaled data this way.

The linearized problem freezes both coefficients at the background value
s = lambda.  For diagonal A the type-I discrete sine transform
diagonalizes the frozen operator on the interior box, so each step is one
forward and one inverse DST-I (Buzbee, Golub & Nielson, SIAM J. Numer.
Anal. 7, 1970); the adjoint problem is the same operator stepped
backward from a zero terminal state.  dst1 is that transform in its
orthonormal form, which is its own inverse: dense sine matrices, one per
axis (sine_basis, built per operator next to box_spectrum), applied with
@ on contiguous trailing axes, one code path for every shape.  Frozen
solves and the stiffness matrix K they couple the boundary through
require diagonal A.  No
subcommand calls solve_linearized: the probes, eta and the linearization
check take Lambda g from dnmap.patch_linear_flux, which solves the same
steps in the sine basis for data on the patch face, and the full-field
solve here is its reference.  dirichlet_solve is the same
transform for the steady problem on any rectangular box with Dirichlet
data: the harmonic lifting of dnmap and both boxes of the Omega'
corrector in singular use it, so the forward Jacobian, once the frozen
chord step stalls, is the only matrix factorized.

Data on the measurement patch S x (0, T) -- probes, dictionary data and
every flux -- are PatchField face arrays, zero off S.  The frozen solves
take BoundaryField node arrays on all of dOmega; PatchField.boundary() is
that conversion, used by the boundary norms.  solve_forward takes either
kind and writes one level at a time onto its iterate (dirichlet_level),
so patch data never become histories on all of dOmega.

Spatial discretization is the standard second-order stencil with
face-averaged diffusion coefficients on the diagonal of A, applied
matrix-free by _diffusion (the forward residual, and with gamma = 1 the
Omega' residual check in singular).  stiffness() assembles its constant
form on a node mask as a scipy sparse matrix, importing scipy.sparse
inside; only the full-field reference solves (solve_linearized,
solve_adjoint) and the tests use it.  The forward solver also takes
off-diagonal (cross) terms, by centered differences with the coefficient
frozen in the Jacobian.  The source term exists only for
manufactured-solution studies.
"""

import sys
from dataclasses import dataclass

import numpy as np

from .geometry import Grid
from .material import MatrixField

NEWTON_TOL = 1e-10
NEWTON_CAP = 25
CHORD_RATE = 0.1  # a step must cut the residual to this fraction, else refactorize


class PDEError(RuntimeError):
    pass


def _lazy_splu(namespace: dict):
    """A PEP 562 module __getattr__ binding splu (scipy.sparse.linalg) into
    namespace on first access, so scipy loads only when something factorizes."""
    def __getattr__(name):
        if name != "splu":
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        from scipy.sparse.linalg import splu
        namespace["splu"] = splu
        return splu
    return __getattr__


# the Newton fallback calls pde.splu through the module, so a rebinding of
# it (perfbench/spans.py SPLU_MODULES, the counting tests) is what runs
__getattr__ = _lazy_splu(globals())


@dataclass
class SpaceTimeField:
    """Scalar field on all Omega-closure nodes at every time level."""

    values: np.ndarray  # (nt+1, *grid.shape)
    grid: Grid
    newton: dict | None = None  # solver counts, set by solve_forward


class _TimeLevels:
    """Data given at every time level, values[m] at grid.times[m]."""

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


@dataclass
class BoundaryField(_TimeLevels):
    """Dirichlet data on all of dOmega: node array per level, zero at
    interior nodes."""

    values: np.ndarray  # (nt+1, *grid.shape)
    grid: Grid

    def __post_init__(self):
        if self.values[(slice(None),) + (slice(1, -1),) * self.grid.dim].any():
            raise PDEError("boundary data carries interior values")

    def dirichlet_level(self, m: int, lam: float, out: np.ndarray):
        """Write lam + the data of level m onto the node array out."""
        np.add(lam, self.values[m], out=out)


@dataclass
class PatchField(_TimeLevels):
    """Values on the patch face at every time level, zero off S: the probe
    and dictionary data and every flux."""

    values: np.ndarray  # (nt+1, *face_shape), axes as patch_support_mask
    grid: Grid

    def __post_init__(self):
        support = self.grid.patch_support_mask()
        shape = (self.grid.nt + 1,) + support.shape
        if self.values.shape != shape:
            raise PDEError(f"patch data needs shape {shape}, not {self.values.shape}")
        if self.values[:, ~support].any():
            raise PDEError("patch data carries values off S")

    def dirichlet_level(self, m: int, lam: float, out: np.ndarray):
        """Write lam + the data of level m onto the node array out: one
        level of boundary(), with no history on all of dOmega formed."""
        grid = self.grid
        out[...] = lam
        out[grid.face_node_selector(grid.patch_axis, grid.patch_side)] = lam + self.values[m]

    def boundary(self) -> BoundaryField:
        """The same data as Dirichlet data on all of dOmega."""
        grid = self.grid
        face = (slice(None),) + grid.face_node_selector(grid.patch_axis, grid.patch_side)
        vals = np.zeros((grid.nt + 1,) + grid.shape)
        vals[face] = self.values
        return BoundaryField(values=vals, grid=grid)


def interior_mask(grid: Grid):
    m = np.ones(grid.shape, dtype=bool)
    for a in range(grid.dim):
        m[grid.face_node_selector(a, 0)] = False
        m[grid.face_node_selector(a, 1)] = False
    return m


def boundary_field_from_callable(grid: Grid, fn) -> BoundaryField:
    """Sample fn(t, X) (X a stack of coordinate arrays) on boundary nodes."""
    coords = np.stack(grid.node_coords(), axis=-1)
    bmask = ~interior_mask(grid)
    vals = np.zeros((grid.nt + 1,) + grid.shape)
    for m, t in enumerate(grid.times):
        full = np.asarray(fn(t, coords), dtype=float)
        vals[m][bmask] = full[bmask]
    return BoundaryField(values=vals, grid=grid)


def probe_boundary_field(grid: Grid, time_profile, spatial: np.ndarray,
                         tol: float = 1e-7) -> PatchField:
    """Patch datum time_profile(t) * spatial(x) on S.

    spatial is a full node array (e.g. H - v_tau); it must vanish on
    dOmega \\ S up to tol relative to its peak, or the probe construction
    leaked outside the patch and we refuse to continue.
    """
    bmask = ~interior_mask(grid)
    face = grid.face_node_selector(grid.patch_axis, grid.patch_side)
    support = grid.patch_support_mask()
    off_patch = bmask.copy()
    off_patch[face] &= ~support
    peak = np.abs(spatial[bmask]).max()
    leak = np.abs(spatial[off_patch]).max()
    if peak > 0.0 and leak > tol * peak:
        raise PDEError(f"probe support leaks off the patch: {leak:.3e} vs peak {peak:.3e}")
    prof = np.asarray(time_profile(grid.times), dtype=float)
    vals = np.zeros((grid.nt + 1,) + support.shape)
    vals[:, support] = prof[:, None] * spatial[face][support][None, :]
    return PatchField(values=vals, grid=grid)


# ---------------------------------------------------------------------------
# spatial operators


def _flat_strides(shape):
    return [int(np.prod(shape[a + 1:])) for a in range(len(shape))]


def stiffness(interior, A: np.ndarray, h: float):
    """(K, flat indices of the True nodes of the mask interior): rows of
    K = -div(A grad .) (constant diagonal A, 2n+1 points, spacing h) at
    those nodes, columns over all nodes, whose box must hold each stencil."""
    shape = interior.shape
    strides = _flat_strides(shape)
    flat_int = np.flatnonzero(interior.ravel())
    n_int = flat_int.size
    h2 = h ** 2
    loc = np.arange(n_int)

    rows, cols, vals = [loc], [flat_int], [np.full(n_int, 2.0 * np.trace(A) / h2)]
    for a in range(len(shape)):
        for sgn in (-1, 1):
            rows.append(loc)
            cols.append(flat_int + sgn * strides[a])
            vals.append(np.full(n_int, -A[a, a] / h2))
    from scipy.sparse import coo_matrix
    K = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(n_int, interior.size)).tocsc()
    return K, flat_int


def _diagonal(A: np.ndarray) -> np.ndarray:
    if np.any(A != np.diag(np.diagonal(A))):
        raise PDEError("frozen-coefficient operators need a diagonal A")
    return np.diagonal(A)


def constant_stiffness(grid: Grid, A: np.ndarray):
    """Rows of K = -div(A grad .) for interior nodes, columns over all nodes.

    Constant diagonal coefficient; raises PDEError for off-diagonal A.
    """
    _diagonal(A)
    return stiffness(interior_mask(grid), A, grid.h)


def box_spectrum(a_diag, h: float, lengths) -> np.ndarray:
    """Eigenvalues of -div(A grad .), A = diag(a_diag), on the interior
    nodes of a box of lengths[a] cells along axis a with zero Dirichlet
    data, in DST-I mode order: the sine modes sin(pi k j / L) diagonalize
    -D_a^2 with eigenvalue (4 / h^2) sin^2(pi k / 2L), k = 1..L-1."""
    eig = 0.0
    for a, L in zip(a_diag, lengths):
        s2 = (4.0 / h ** 2) * np.sin(0.5 * np.pi * np.arange(1, L) / L) ** 2
        eig = np.add.outer(eig, a * s2)
    return eig


def sine_rows(j, L: int) -> np.ndarray:
    """Orthonormal DST-I modes sqrt(2/L) sin(pi kappa j / L), kappa = 1..L-1,
    at the node indices j (rows); zero outside 0 < j < L."""
    j = np.asarray(j)
    # sin(pi m / L) has period 2L in the integer m = kappa j: one table
    table = np.sqrt(2.0 / L) * np.sin(np.pi * np.arange(2 * L) / L)
    Q = table[np.outer(j, np.arange(1, L)) % (2 * L)]
    Q[(j <= 0) | (j >= L)] = 0.0
    return Q


def sine_basis(lengths) -> list:
    """Per axis, the orthonormal DST-I matrix of the interior nodes of a
    box of lengths[a] cells: sine_rows on nodes 1..L-1, in the mode order
    of box_spectrum, built once per distinct L.  Each is symmetric and its
    own inverse."""
    mats = {L: sine_rows(np.arange(1, L), L) for L in set(lengths)}
    return [mats[L] for L in lengths]


def dst1(x: np.ndarray, basis: list) -> np.ndarray:
    """Orthonormal DST-I of x over its last len(basis) axes, basis[a] acting
    on the a-th of them; leading axes are a batch.  Dense sine matrices
    applied with @ on contiguous trailing axes: x @ Q on the last axis, and
    Q @ x on an earlier one with the axes after it flattened.  The inverse
    transform is the same call."""
    x = x @ basis[-1]
    for k in range(2, len(basis) + 1):
        shape = x.shape
        x = (basis[-k] @ x.reshape(shape[:-k] + (shape[-k], -1))).reshape(shape)
    return x


def dirichlet_solve(u: np.ndarray, A: np.ndarray, h: float, basis=None) -> np.ndarray:
    """Overwrite the interior of the node box u (its last A.shape[0] axes;
    leading axes are a batch) with the solution of -div(A grad v) = 0 whose
    Dirichlet data are the boundary values of u, by one forward and one
    inverse DST-I.  Constant diagonal A; basis is the box's sine_basis,
    built here when not given.  Returns u."""
    a = _diagonal(A)
    n = a.size
    lengths = [m - 1 for m in u.shape[-n:]]
    basis = sine_basis(lengths) if basis is None else basis
    inner = (Ellipsis,) + (slice(1, -1),) * n
    rhs = np.zeros(u[inner].shape)
    for ax in range(n):
        for end in (0, -1):
            plane = [slice(1, -1)] * n
            plane[ax] = end
            near = [slice(None)] * n
            near[ax] = end
            rhs[(Ellipsis,) + tuple(near)] += (a[ax] / h ** 2) * u[(Ellipsis,) + tuple(plane)]
    u[inner] = dst1(dst1(rhs, basis) / box_spectrum(a, h, lengths), basis)
    return u


def _along(axis: int, sl: slice):
    """Index tuple applying sl to one axis and keeping the axes before it."""
    return (slice(None),) * axis + (sl,)


def _diffusion(A: np.ndarray, h: float, gamma_vals: np.ndarray, u: np.ndarray):
    """div(gamma A grad u) at the interior nodes of the node arrays u and
    gamma_vals (interior-box array out): face-averaged gamma on the diagonal
    of A, centered differences for cross terms.  The last A.shape[0] axes
    are space; leading axes are a batch."""
    dim = A.shape[0]
    lead = u.ndim - dim
    out = np.zeros(u.shape[:lead] + tuple(n - 2 for n in u.shape[lead:]))
    for a in range(dim):
        box = (Ellipsis,) + tuple(slice(None) if c == a else slice(1, -1)
                                  for c in range(dim))
        ua, ga, ax = u[box], gamma_vals[box], lead + a
        face = ga[_along(ax, slice(1, None))] + ga[_along(ax, slice(None, -1))]
        out += (0.5 * A[a, a] / h ** 2) * np.diff(face * np.diff(ua, axis=ax), axis=ax)
    for a in range(dim):
        for b in range(dim):
            if a == b or A[a, b] == 0.0:
                continue
            # d_a(gamma a_ab d_b u): both axes over all nodes, the rest interior
            box = (Ellipsis,) + tuple(slice(None) if c in (a, b) else slice(1, -1)
                                      for c in range(dim))
            ub, gb, ax, bx = u[box], gamma_vals[box], lead + a, lead + b
            flux = gb[_along(bx, slice(1, -1))] * (ub[_along(bx, slice(2, None))]
                                                    - ub[_along(bx, slice(None, -2))])
            out += (A[a, b] / (4 * h ** 2)) * (flux[_along(ax, slice(2, None))]
                                                - flux[_along(ax, slice(None, -2))])
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
    from scipy.sparse import coo_matrix
    J = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(n_int, n_int)).tocsc()
    return J


# ---------------------------------------------------------------------------
# solvers


def solve_forward(law, A: MatrixField, grid: Grid, lam: float, g,
                  source=None, newton_tol: float = NEWTON_TOL,
                  newton_cap: int = NEWTON_CAP):
    """Implicit-Euler / chord-Newton solve of the quasilinear problem.

    g is one datum, a BoundaryField on all of dOmega or a PatchField on S,
    and the result is its SpaceTimeField; PDEError is raised if it fails.
    g may also be a list of data, advanced together in one loop; then the
    result is a list holding, per datum, its SpaceTimeField or the
    PDEError that stopped it alone, and the other data continue.  Each
    datum keeps its own chord (see the module docstring): data on the
    frozen chord share one DST-I pair per iteration, and a datum whose
    chord stalls, or any datum for non-diagonal A, factorizes and solves
    its own Jacobian.  source, if given, is an array (nt+1, *shape) added
    to the right side of every datum (manufactured-solution studies only).
    Newton divergence is reported as the boundary amplitude lying outside
    the operational smallness radius of the background state.  Each
    field's `newton` records time steps, iterations, factorizations and
    the largest final residual.
    """
    data = g if isinstance(g, list) else [g]
    B, dim, dt, times = len(data), grid.dim, grid.dt, grid.times
    errors = [None] * B
    for b, datum in enumerate(data):
        try:
            datum.check_compatible("start")
        except PDEError as exc:
            errors[b] = exc
    inner = (slice(1, -1),) * dim
    stack_inner = (slice(None),) + inner
    flat_int = np.flatnonzero(interior_mask(grid).ravel())
    red = -np.ones(int(np.prod(grid.shape)), dtype=np.int64)
    red[flat_int] = np.arange(flat_int.size)
    diagonal = A.is_diagonal
    if diagonal:
        eig, basis, gam, rho = _frozen_setup(law, A, grid, lam)

    u = [np.empty((grid.nt + 1,) + grid.shape) for _ in range(B)]  # per-datum histories
    cur = np.full((B,) + grid.shape, float(lam))  # the level being solved
    lus = [None] * B  # None while on the frozen chord
    iterations, factorizations, worst = [0] * B, [0] * B, [0.0] * B
    for m in range(1, grid.nt + 1):
        t = times[m]
        todo = [b for b in range(B) if errors[b] is None]
        prev = cur.copy()
        for b in todo:
            u[b][m - 1] = prev[b]
            data[b].dirichlet_level(m, lam, cur[b])
        cur[stack_inner] = prev[stack_inner]
        if diagonal:
            rho_dt, gam_t = rho(t) / dt, gam(t)
        last = [None] * B
        for _ in range(newton_cap):
            if not todo:
                break
            # while every datum iterates, c is a view of cur; else a copy
            sel = slice(None) if len(todo) == B else todo
            c, p = cur[sel], prev[sel]
            res = (law.rho(t, c[stack_inner]) * (c[stack_inner] - p[stack_inner]) / dt
                   - _diffusion(A.A, grid.h, law.gamma(t, c), c))
            if source is not None:
                res -= source[m][inner]
            flat = res.reshape(len(todo), -1)
            finite = np.isfinite(flat).all(axis=1)
            norms = np.abs(flat).max(axis=1)
            chord, solved, going = [], [], []
            for j, b in enumerate(todo):
                if not finite[j]:
                    errors[b] = PDEError("outside operational smallness radius "
                                         f"(non-finite residual at t={t:g})")
                    continue
                if norms[j] <= newton_tol:
                    worst[b] = max(worst[b], float(norms[j]))
                    continue
                stalled = last[b] is not None and norms[j] > CHORD_RATE * last[b]
                if stalled or (lus[b] is None and not diagonal):
                    # splu through the module attribute: a rebinding is what runs
                    splu = sys.modules[__name__].splu
                    lus[b] = splu(_forward_jacobian(grid, A.A, law, t, c[j], p[j],
                                                    dt, flat_int, red))
                    factorizations[b] += 1
                last[b] = norms[j]
                iterations[b] += 1
                going.append(j)
                (chord if lus[b] is None else solved).append(j)
            if chord:
                rows = slice(None) if len(chord) == len(todo) else chord
                c[(rows,) + inner] -= _frozen_step(eig, basis, rho_dt, gam_t, res[rows])
            for j in solved:
                c[j][inner] -= lus[todo[j]].solve(res[j].ravel()).reshape(res.shape[1:])
            if isinstance(sel, list):
                cur[sel] = c
            todo = [todo[j] for j in going]
        for b in todo:
            errors[b] = PDEError("outside operational smallness radius "
                                 f"(Newton cap {newton_cap} hit at t={t:g})")
    for b in range(B):
        u[b][-1] = cur[b]
    out = [SpaceTimeField(values=u[b], grid=grid,
                          newton={"steps": grid.nt, "iterations": iterations[b],
                                  "factorizations": factorizations[b],
                                  "max_residual": worst[b]})
           if errors[b] is None else errors[b] for b in range(B)]
    if isinstance(g, list):
        return out
    if errors[0] is not None:
        raise errors[0]
    return out[0]


def _frozen_setup(law, A: MatrixField, grid: Grid, lam: float):
    """The DST-I spectrum of K on the interior box (box_spectrum), the
    box's sine_basis, and the frozen coefficients t -> gamma(t, lam) and
    t -> rho(t, lam)."""
    lengths = (grid.n_cells,) * grid.dim
    eig = box_spectrum(_diagonal(A.A), grid.h, lengths)
    gam = lambda t: float(law.gamma(t, lam))
    rho = lambda t: float(law.rho(t, lam))
    return eig, sine_basis(lengths), gam, rho


def _frozen_step(eig, basis, rho_over_dt: float, gam: float, rhs: np.ndarray):
    """Solve (rho/dt I + gamma K_int) x = rhs on the interior box by DST-I;
    leading axes of rhs beyond eig's are a batch."""
    return dst1(dst1(rhs, basis) / (rho_over_dt + gam * eig), basis)


def solve_linearized(law, A: MatrixField, grid: Grid, lam: float, g: BoundaryField,
                     source=None) -> SpaceTimeField:
    """Linear solve with coefficients frozen at the background s = lambda."""
    g.check_compatible("start")
    eig, basis, gam, rho = _frozen_setup(law, A, grid, lam)
    K, _ = constant_stiffness(grid, A.A)
    inner = (slice(1, -1),) * grid.dim
    dt, times = grid.dt, grid.times
    w = g.values.copy()
    w[0] = 0.0  # g(0) vanishes only to check_compatible's tolerance
    for m in range(1, grid.nt + 1):
        t = times[m]
        rhs = (rho(t) / dt) * w[m - 1][inner] \
            - gam(t) * (K @ g.values[m].ravel()).reshape(eig.shape)
        if source is not None:
            rhs = rhs + source[m][inner]
        w[m][inner] = _frozen_step(eig, basis, rho(t) / dt, gam(t), rhs)
    return SpaceTimeField(values=w, grid=grid)


def solve_adjoint(law, A: MatrixField, grid: Grid, lam: float,
                  gbar: BoundaryField) -> SpaceTimeField:
    """Backward solve of -d_t(rho_lam wbar) - gamma_lam div(A grad wbar) = 0.

    Terminal state is zero; gbar must vanish at t = T.  It is the discrete
    adjoint of solve_linearized: for W = solve_linearized(g), g(0) = 0,
    sum_m gamma(t_m) (K g_m) . wbar_m = sum_m gamma(t_m) W_m . (K gbar_m)
    over interior nodes and m = 1..nt-1, to rounding.
    """
    gbar.check_compatible("end")
    eig, basis, gam, rho = _frozen_setup(law, A, grid, lam)
    K, _ = constant_stiffness(grid, A.A)
    inner = (slice(1, -1),) * grid.dim
    dt, times = grid.dt, grid.times
    w = gbar.values.copy()
    w[-1] = 0.0  # likewise gbar(T)
    for m in range(grid.nt - 1, -1, -1):
        t = times[m]
        rhs = (rho(times[m + 1]) / dt) * w[m + 1][inner] \
            - gam(t) * (K @ gbar.values[m].ravel()).reshape(eig.shape)
        w[m][inner] = _frozen_step(eig, basis, rho(t) / dt, gam(t), rhs)
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
    return BoundaryField(values=gvals, grid=grid), src, ex
