"""Implicit solvers for the quasilinear heat problem and its linearization.

The forward problem

    rho(t, u) du/dt - div(gamma(t, u) A grad u) = f,   u|_{t=0} = lambda,
    u = lambda + g on the boundary,

is advanced by implicit Euler with a chord-Newton iteration per step
(Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
ch. 5).  Every datum starts on the frozen operator at the step's own time,
rho(t_m, lambda)/dt + gamma(t_m, lambda) K, applied by one DST-I pair:
small data keep u near lambda, so it is nearly the Jacobian, and for
u-independent laws it is the Jacobian, so such solves factorize nothing
and the chord step is the Newton step.  When a step fails to cut the
max-norm residual to CHORD_RATE of the previous one, the analytic
Jacobian (closed-form s-derivatives carried by the MaterialLaw) is
factorized by sparse LU at the current iterate, and that factorization is
reused across iterations and time steps until the next such failure.
That stall fallback is the only use of scipy in the package:
splu is a module attribute resolved on first access, so
scipy.sparse.linalg loads only when a Jacobian is factorized.
solve_forward advances a list of data as one stack, in
one loop over time steps and iterations: each datum keeps its own
convergence, chord and counts, the data on the frozen chord share one
DST-I pair over the trailing axes, and a datum with a factorized Jacobian
solves with it alone.  A datum that diverges leaves the stack with its
own PDEError; the others continue.  A chord iteration costs its DST-I
pair, then the residual stencil of the new iterate and one max-norm
reduction (it propagates NaN and +-inf, so it is the finiteness test
too): a coefficient that does not vary in s (Coefficient.varies_in_s)
enters the residual as its value at the level, one scalar-t evaluation
per level, and _diffusion takes such a gamma as a scalar; a law that
varies in s is evaluated on the iterate at every residual.  When gamma
does not vary in s, a level's first residual applies no stencil: inside,
the iterate is the converged level before, whose last residual applied
the stencil already, and only the boundary values changed.  Each datum
keeps the stencil of its last residual and the gamma it was scaled by,
and the first residual is -gamma_m times that stencil over that gamma
plus A_aa / h^2 times the change on the interior plane next to each
face (_faces), minus the source: a level costs one stencil per
iteration, and with a gamma that varies in s one more.  The loop holds
only the level being solved and the one before it, in two buffers: each level
copies the stack once into the previous-level buffer, and the data
(dirichlet_level) write the boundary nodes only, so the interior starts
from the previous level's values.  Each converged level of the stack
goes to a keep function: by default the level itself, so each datum's
values are its (nt+1, *shape) history, while the DN map (the forward
subcommand, and linearization_check in dnmap for all of its k-scaled
data) keeps only the patch flux of each level, dnmap.level_flux, so its
memory is that of a few levels, not of nt+1 of them per datum.

The linearized problem freezes both coefficients at the background value
s = lambda.  A is diagonal (material.make_matrix refuses any other), so
the type-I discrete sine transform diagonalizes the frozen operator on
the interior box and each step is one forward and one inverse DST-I
(Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970).
dst1 is that transform in its orthonormal form, which is its own inverse:
dense sine matrices, one per axis (sine_basis, built per operator next to
box_spectrum), applied with @ on contiguous trailing axes, one code path
for every shape.  No subcommand calls solve_linearized: the probes, eta
and the linearization check take Lambda g from dnmap.patch_linear_flux,
which solves the same steps in the sine basis for data on the patch face,
and the full-field solve here is its reference (the tests' adjoint solve
steps the same operator backward).  dirichlet_solve is the same transform
for the steady problem on any rectangular box with Dirichlet data: both
boxes of the Omega' corrector in singular use it, so the forward
Jacobian, once the frozen chord step stalls, is the only matrix
factorized.  Its load, dirichlet_load, is the unit stencil of the box's
boundary values alone; the corrector reduces it to the scale of its
residual check.

Data on the measurement patch S x (0, T) -- the probes and the
dictionary -- are PatchFields: a time profile over grid.times times a
face array, zero off S.  Only the two factors are stored; their product,
the values, is formed when it is read.  That is the one form patch data
take, and dnmap.patch_linear_flux solves the frozen problem once per
distinct profile.  Fluxes and their differences are plain (nt+1,
*face_shape) face arrays.  The full-field frozen solves take
BoundaryField node arrays on all of dOmega; solve_forward takes either
kind and writes one level of the data at a time onto its iterate
(dirichlet_level), so patch data never become histories on all of
dOmega.  Every frozen solve reads gamma(t_m, lambda) and rho(t_m,
lambda) from arrays over grid.times (_frozen_setup), one law evaluation
each per solve.

Spatial discretization is the standard second-order stencil with
face-averaged diffusion coefficients times the diagonal of A, applied
matrix-free by _diffusion (the forward residual, and with the scalar
gamma = 1 the Omega' residual check in singular and the boundary load
-K g of solve_linearized): per axis one face-flux product and one
difference of it.  A scalar gamma skips the face average:
(gamma + gamma)/2 is gamma, and the scalar branch equals the node-array
branch bit for bit.  No sparse matrix but the forward Jacobian is
assembled.  The source term exists only for manufactured-solution
studies.
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
    """A solve's values at every time level: the scalar field on all
    Omega-closure nodes, or what a keep of solve_forward kept of it."""

    values: np.ndarray  # (nt+1, *grid.shape), or (nt+1, *kept shape)
    grid: Grid
    newton: dict | None = None  # solver counts, set by solve_forward


class _TimeLevels:
    """Data given at every time level, values[m] at grid.times[m]."""

    def check_compatible(self):
        """The data vanish at t = 0, to 1e-12 of max(1, their peak)."""
        values = self.values
        scale = max(1.0, np.abs(values).max())
        if np.abs(values[0]).max() > 1e-12 * scale:
            raise PDEError("boundary data must vanish at t=0")


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
        """Write lam + the data of level m onto the 2 dim faces of the node
        array out; its interior nodes are left as they are."""
        level = self.values[m]
        for a in range(self.grid.dim):
            for side in (0, 1):
                face = self.grid.face_node_selector(a, side)
                np.add(lam, level[face], out=out[face])


@dataclass
class PatchField(_TimeLevels):
    """Data profile(t) * face(x) on the patch face at every time level,
    zero off S: the probes and the dictionary.

    profile holds the values at grid.times, (nt+1,), and face is a
    face_shape array whose values off S are dropped.  Only the two factors
    are stored; values, (nt+1, *face_shape), is their product, formed on
    each read and zero off S, and dirichlet_level forms one level of it.
    A factor of another shape raises PDEError.
    """

    profile: np.ndarray
    face: np.ndarray
    grid: Grid

    def __post_init__(self):
        support = self.grid.patch_support_mask()
        self.profile = np.asarray(self.profile, dtype=float)
        if self.profile.shape != (self.grid.nt + 1,):
            raise PDEError(f"patch profile needs shape {(self.grid.nt + 1,)}, "
                           f"not {self.profile.shape}")
        if np.shape(self.face) != support.shape:
            raise PDEError(f"patch face needs shape {support.shape}, not {np.shape(self.face)}")
        self.face = np.where(support, self.face, 0.0)
        self._off = ~support

    @property
    def values(self) -> np.ndarray:
        """profile times face, +0.0 off S: face is zero there, but a
        negative level times 0.0 is -0.0, so those nodes are zeroed."""
        out = np.multiply.outer(self.profile, self.face)
        out[:, self._off] = 0.0
        return out

    def dirichlet_level(self, m: int, lam: float, out: np.ndarray):
        """Write lam + profile[m] * face onto the patch face of the node
        array out, with no history on all of dOmega formed; off S that is
        lam + (+-0.0), lam + values[m] for every lam but -0.0.  The data
        vanish on the rest of dOmega, whose nodes of out must hold lam
        already (solve_forward's iterate does from its start); those and
        the interior nodes are left as they are."""
        grid = self.grid
        face = grid.face_node_selector(grid.patch_axis, grid.patch_side)
        np.add(lam, self.profile[m] * self.face, out=out[face])


def interior_mask(grid: Grid):
    m = np.ones(grid.shape, dtype=bool)
    for a in range(grid.dim):
        m[grid.face_node_selector(a, 0)] = False
        m[grid.face_node_selector(a, 1)] = False
    return m


def probe_boundary_field(grid: Grid, profile, spatial: np.ndarray) -> PatchField:
    """Patch datum profile(t) * spatial(x) on S, profile given by its
    values at grid.times.

    spatial is a full node array (e.g. H - v_tau); it must vanish on
    dOmega \\ S up to 1e-7 relative to its peak, or the probe construction
    leaked outside the patch and we refuse to continue.
    """
    bmask = ~interior_mask(grid)
    face = grid.face_node_selector(grid.patch_axis, grid.patch_side)
    support = grid.patch_support_mask()
    off_patch = bmask.copy()
    off_patch[face] &= ~support
    peak = np.abs(spatial[bmask]).max()
    leak = np.abs(spatial[off_patch]).max()
    if peak > 0.0 and leak > 1e-7 * peak:
        raise PDEError(f"probe support leaks off the patch: {leak:.3e} vs peak {peak:.3e}")
    return PatchField(profile, spatial[face], grid)


# ---------------------------------------------------------------------------
# spatial operators


def _flat_strides(shape):
    return [int(np.prod(shape[a + 1:])) for a in range(len(shape))]


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


def _faces(n: int):
    """Per face of a node box (its last n axes; leading axes are a batch):
    its axis, the index of its nodes next to interior nodes (the face's
    edges excluded), and the index of the plane of interior-box nodes they
    neighbour."""
    for ax in range(n):
        for end in (0, -1):
            yield (ax, (Ellipsis,) + tuple(end if e == ax else slice(1, -1) for e in range(n)),
                   (Ellipsis,) + tuple(end if e == ax else slice(None) for e in range(n)))


def dirichlet_load(u: np.ndarray, A: np.ndarray, h: float) -> np.ndarray:
    """The load of the boundary values of the node box u (its last
    A.shape[0] axes; leading axes are a batch) on its interior nodes: on
    the interior plane next to each face, A_aa / h^2 times the values on
    that face (_faces).  It is the unit-gamma stencil of the boundary
    values alone, so -div(A grad v) = 0 inside is K_int v = this load.
    Constant diagonal A."""
    n = A.shape[0]
    rhs = np.zeros(u[(Ellipsis,) + (slice(1, -1),) * n].shape)
    for ax, node, plane in _faces(n):
        rhs[plane] += (A[ax, ax] / h ** 2) * u[node]
    return rhs


def dirichlet_solve(u: np.ndarray, A: np.ndarray, h: float, box=None,
                    load=None) -> np.ndarray:
    """Overwrite the interior of the node box u (its last A.shape[0] axes;
    leading axes are a batch) with the solution of -div(A grad v) = 0 whose
    Dirichlet data are the boundary values of u, by one forward and one
    inverse DST-I.  Constant diagonal A; box is the box's (sine_basis,
    box_spectrum), built here when not given; load is dirichlet_load of u,
    formed here when not given.  Returns u."""
    n = A.shape[0]
    if box is None:
        lengths = [m - 1 for m in u.shape[-n:]]
        box = (sine_basis(lengths), box_spectrum(np.diagonal(A), h, lengths))
    basis, eig = box
    if load is None:
        load = dirichlet_load(u, A, h)
    u[(Ellipsis,) + (slice(1, -1),) * n] = dst1(dst1(load, basis) / eig, basis)
    return u


def _along(axis: int, sl: slice):
    """Index tuple applying sl to one axis and keeping the axes before it."""
    return (slice(None),) * axis + (sl,)


def _diffusion(A: np.ndarray, h: float, gamma, u: np.ndarray):
    """div(gamma A grad u) at the interior nodes of the node array u
    (interior-box array out): per axis a face flux, its difference, and
    the diagonal of A.  gamma is a node array like u, averaged onto the
    faces, or a scalar (a float or 0-d array: a coefficient constant in
    space).  The array branch forms the flux (gamma_i + gamma_{i+1})
    (u_{i+1} - u_i) and scales its difference by 0.5 A_aa / h^2; the
    scalar branch forms (u_{i+1} - u_i) gamma and scales by A_aa / h^2.
    For a constant gamma the two are equal bit for bit: gamma + gamma is
    2 gamma, and scaling by 2 or 1/2 is exact.  The last A.shape[0] axes
    are space; leading axes are a batch."""
    dim = A.shape[0]
    lead = u.ndim - dim
    scalar = np.ndim(gamma) == 0
    out = None
    for a in range(dim):
        box = (Ellipsis,) + tuple(slice(None) if c == a else slice(1, -1)
                                  for c in range(dim))
        ua = u[box]
        hi, lo = _along(lead + a, slice(1, None)), _along(lead + a, slice(None, -1))
        flux = ua[hi] - ua[lo]
        if scalar:
            flux *= gamma
            scale = A[a, a] / h ** 2
        else:
            ga = gamma[box]
            flux *= ga[hi] + ga[lo]
            scale = 0.5 * A[a, a] / h ** 2
        step = flux[hi] - flux[lo]
        step *= scale
        if out is None:
            out = step
        else:
            out += step
    return out


def _forward_jacobian(grid: Grid, A: np.ndarray, law, t: float, u: np.ndarray,
                      u_prev: np.ndarray, dt: float):
    """Analytic Jacobian of the implicit-Euler residual wrt interior u."""
    shape = grid.shape
    flat_int = np.flatnonzero(interior_mask(grid).ravel())
    red = -np.ones(int(np.prod(shape)), dtype=np.int64)  # node -> interior row
    red[flat_int] = np.arange(flat_int.size)
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
                  source=None, newton_cap: int = NEWTON_CAP, keep=None):
    """Implicit-Euler / chord-Newton solve of the quasilinear problem.

    g is one datum, a BoundaryField on all of dOmega or a PatchField on S,
    and the result is its SpaceTimeField; PDEError is raised if it fails.
    g may also be a list of data, advanced together in one loop; then the
    result is a list holding, per datum, its SpaceTimeField or the
    PDEError that stopped it alone, and the other data continue.  Each
    datum keeps its own chord (see the module docstring): data on the
    frozen chord share one DST-I pair per iteration, and a datum whose
    chord stalls factorizes and solves its own Jacobian.  source, if
    given, is an array (nt+1, *shape) added to the right side of every
    datum (manufactured-solution studies only).
    Newton divergence is reported as the boundary amplitude lying outside
    the operational smallness radius of the background state.  Each
    field's `newton` records time steps, iterations, factorizations, the
    largest final residual and the residual stencils its datum applied:
    one per iteration when gamma does not vary in s, whose first residual
    of a level is built from the stencil of the level before (see the
    module docstring), and one more per level otherwise.

    Each converged level is handed to keep(t_m, levels), levels the
    (B', *grid.shape) stack of the B' data still advancing at t_m, and
    each datum's values are the (nt+1, ...) array of what keep returned
    for it, level by level.  By default keep returns the levels, and the
    values are the field's history; a keep that reduces each level (the
    patch flux of dnmap.level_flux) solves without forming any history.
    """
    data = g if isinstance(g, list) else [g]
    B, dim, dt, times = len(data), grid.dim, grid.dt, grid.times
    errors = [None] * B
    for b, datum in enumerate(data):
        try:
            datum.check_compatible()
        except PDEError as exc:
            errors[b] = exc
    inner = (slice(1, -1),) * dim
    stack_inner = (slice(None),) + inner
    eig, basis, [gam], [rho] = _frozen_setup([law], A, grid, lam)

    keep = (lambda t, levels: levels) if keep is None else keep
    cur = np.full((B,) + grid.shape, float(lam))  # the level being solved
    prev = np.empty_like(cur)  # and the one before it
    kept = keep(times[0], cur)
    out = [np.empty((grid.nt + 1,) + kept.shape[1:]) for _ in range(B)]
    for b in range(B):
        out[b][0] = kept[b]
    lus = [None] * B  # None while on the frozen chord
    iterations, factorizations, stencils = [0] * B, [0] * B, [0] * B
    worst = [0.0] * B
    if not law.gamma.varies_in_s:
        # per datum, the stencil of its last residual as scale * the unit-gamma
        # stencil, and that scale: the constant initial state's stencil is zero
        stencil = np.zeros((B,) + tuple(n - 2 for n in grid.shape))
        scale = np.ones((B,) + (1,) * dim)
        faces = [(A.A[a, a] / grid.h ** 2, node, plane) for a, node, plane in _faces(dim)]
    for m in range(1, grid.nt + 1):
        t = times[m]
        todo = [b for b in range(B) if errors[b] is None]
        np.copyto(prev, cur)
        for b in todo:  # boundary nodes only: the interior starts from prev
            data[b].dirichlet_level(m, lam, cur[b])
        rho_dt, gam_t = rho[m] / dt, gam[m]
        # a coefficient that does not vary in s enters the residual as its
        # value at this level, one scalar-t evaluation: the value the
        # broadcast evaluation repeats at every node (gam and rho above are
        # a vectorized evaluation, whose sin may differ by an ulp)
        gam_m = None if law.gamma.varies_in_s else law.gamma(t, lam)
        rho_m = None if law.rho.varies_in_s else law.rho(t, lam)
        last = [None] * B
        for it in range(newton_cap):
            if not todo:
                break
            # while every datum iterates, c is a view of cur; else a copy
            sel = slice(None) if len(todo) == B else todo
            c, p = cur[sel], prev[sel]
            if it == 0 and gam_m is not None:
                # the level's first residual: c - p vanishes inside, so it is
                # -gamma_m times the unit stencil of the converged level m-1
                # plus the change of c on each face, next to that face
                res = stencil if len(todo) == B else stencil[todo]
                res /= scale[sel]
                for weight, node, plane in faces:
                    res[plane] += weight * (c[node] - p[node])
                res *= -gam_m
                scale[sel] = -gam_m
                if len(todo) < B:
                    stencil[todo] = res
                if source is not None:
                    res = res - source[m][inner]  # never into the kept stencil
            else:
                res = None  # drop the last residual, which may alias the stencil
                if gam_m is not None and len(todo) == B:
                    stencil = None  # every row is replaced below
                # the stencil first: the one kept then takes the place of
                # the one just dropped, and the heap does not grow
                step = _diffusion(A.A, grid.h, law.gamma(t, c) if gam_m is None else gam_m, c)
                res = c[stack_inner] - p[stack_inner]
                res *= law.rho(t, c[stack_inner]) if rho_m is None else rho_m
                res /= dt
                res -= step
                if gam_m is not None:
                    if len(todo) == B:
                        stencil = step
                    else:
                        stencil[todo] = step
                    scale[sel] = gam_m
                del step
                for b in todo:
                    stencils[b] += 1
                if source is not None:
                    res -= source[m][inner]
            # the max-norm propagates NaN and +-inf: one pass tests both
            norms = np.abs(res.reshape(len(todo), -1)).max(axis=1)
            finite = np.isfinite(norms)
            chord, solved, going = [], [], []
            for j, b in enumerate(todo):
                if not finite[j]:
                    errors[b] = PDEError("outside operational smallness radius "
                                         f"(non-finite residual at t={t:g})")
                    continue
                if norms[j] <= NEWTON_TOL:
                    worst[b] = max(worst[b], float(norms[j]))
                    continue
                if last[b] is not None and norms[j] > CHORD_RATE * last[b]:
                    # splu through the module attribute: a rebinding is what runs
                    splu = sys.modules[__name__].splu
                    lus[b] = splu(_forward_jacobian(grid, A.A, law, t, c[j], p[j], dt))
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
        done = [b for b in range(B) if errors[b] is None]
        if done:
            kept = keep(t, cur if len(done) == B else cur[done])
            for j, b in enumerate(done):
                out[b][m] = kept[j]
    fields = [SpaceTimeField(values=out[b], grid=grid,
                             newton={"steps": grid.nt, "iterations": iterations[b],
                                     "factorizations": factorizations[b],
                                     "max_residual": worst[b], "stencils": stencils[b]})
              if errors[b] is None else errors[b] for b in range(B)]
    if isinstance(g, list):
        return fields
    if errors[0] is not None:
        raise errors[0]
    return fields[0]


def _frozen_setup(laws, A: MatrixField, grid: Grid, lam: float):
    """The DST-I spectrum of K on the interior box (box_spectrum), the
    box's sine_basis, and the frozen gamma(t_m, lam) and rho(t_m, lam) of
    each law over grid.times, (len(laws), nt+1), one evaluation each."""
    lengths = (grid.n_cells,) * grid.dim
    eig = box_spectrum(np.diagonal(A.A), grid.h, lengths)
    return (eig, sine_basis(lengths), np.array([law.gamma(grid.times, lam) for law in laws]),
            np.array([law.rho(grid.times, lam) for law in laws]))


def _frozen_step(eig, basis, rho_over_dt: float, gam: float, rhs: np.ndarray):
    """Solve (rho/dt I + gamma K_int) x = rhs on the interior box by DST-I;
    leading axes of rhs beyond eig's are a batch."""
    return dst1(dst1(rhs, basis) / (rho_over_dt + gam * eig), basis)


def solve_linearized(law, A: MatrixField, grid: Grid, lam: float,
                     g: BoundaryField) -> SpaceTimeField:
    """Linear solve with coefficients frozen at the background s = lambda."""
    g.check_compatible()
    eig, basis, [gam], [rho] = _frozen_setup([law], A, grid, lam)
    inner = (slice(1, -1),) * grid.dim
    dt = grid.dt
    w = g.values.copy()
    w[0] = 0.0  # g(0) vanishes only to check_compatible's tolerance
    for m in range(1, grid.nt + 1):
        # the boundary load -K g_m by the matrix-free stencil, g_m zero inside
        rhs = (rho[m] / dt) * w[m - 1][inner] \
            + gam[m] * _diffusion(A.A, grid.h, 1.0, g.values[m])
        w[m][inner] = _frozen_step(eig, basis, rho[m] / dt, gam[m], rhs)
    return SpaceTimeField(values=w, grid=grid)


# ---------------------------------------------------------------------------
# manufactured solutions


def mms_problem(grid: Grid, law, A: MatrixField, lam: float, exact, exact_dt,
                exact_grad, exact_d2):
    """Source + boundary data making `exact` solve the continuous problem.

    exact(t, X) -> field; exact_dt likewise; exact_grad(t, X) -> list of
    first partials d_a u; exact_d2(t, X) -> list of second partials
    d_a^2 u (A is diagonal, so no mixed partial enters).
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
        d2 = exact_d2(t, coords)
        gam = law.gamma(t, u)
        gam_s = law.gamma.ds(t, u)
        div = np.zeros(grid.shape)
        for a in range(grid.dim):
            div += A.A[a, a] * (gam_s * gradu[a] * gradu[a] + gam * d2[a])
        src[m] = law.rho(t, u) * ut - div
    return BoundaryField(values=gvals, grid=grid), src, ex
