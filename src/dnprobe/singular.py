"""Singular basis fields and calibrated time cutoffs for boundary probes.

For a constant elliptic matrix A, diagonal by construction (make_matrix),
the field

    H(x, y) = (A^{-1}(x-y) . (x-y))^{(2-n)/2}        (n >= 3)
    H(x, y) = -1/2 * ln(A^{-1}(x-y) . (x-y))          (n = 2)

solves -div(A grad H) = 0 away from y; for A = Id it reduces to the bare
|x-y|^{2-n} (resp. -ln|x-y|).  No normalizing constant is applied: every
reconstruction formula divides a pairing of data built from H by an
energy of H, both quadratic in H, so constants cancel; test 10 of the
acceptance suite checks it by scaling H.

A probe couples H centered at an exterior point y_tau with a corrector v
that matches H on the outer boundary dOmega', making the boundary datum
vanish off the patch S, and with an L2-normalized time bump phi_tau that
concentrates at t0 as tau -> 0.

Omega' is two boxes, the unit box and the extrusion slab over the patch,
glued along the patch-face nodes Gamma.  The corrector is solved by
substructuring (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8,
1971; Bjorstad & Widlund, SIAM J. Numer. Anal. 23, 1986): each box is
eliminated by the DST-I solver of pde, and the Gamma x Gamma Schur
complement, dense and closed-form in the tangential sine bases, is built
from its per-axis factors and checked positive definite by numpy's
Cholesky factor.  A corrector solve takes a stack of traces: the probes of
a tau sweep solve the correctors their data read, of H for gamma probes
and of its n first derivatives (not of H) for rho probes, as one stack,
with batched box solves and one linear solve of the Schur complement for
the interface; a member's corrector does not depend on the others in its
stack, bit for bit.  Each member's residual is checked by the
matrix-free stencil of pde, against the norm of the stencil of its
boundary data alone, which the Gamma rows and the first box solves'
loads already form.

grad_H_energy is the one energy quadrature on the grid.  The oracles the
tau-scaling experiments are tested against (fine and tan-substituted
quadratures of the norms of H) and the concentration defect of a cutoff
live with the tests, in tests/reference.py.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Grid, trapezoid_weights
from .material import MatrixField
from .pde import (_diffusion, _lazy_splu, box_spectrum, dirichlet_load, dirichlet_solve,
                  sine_basis, sine_rows)

# nothing here factorizes: perfbench/spans.py SPLU_MODULES is the only
# reader of singular.splu
__getattr__ = _lazy_splu(globals())


class SingularError(ValueError):
    pass


# ---------------------------------------------------------------------------
# fundamental solution


def _quadratic_form(x, y, A: MatrixField):
    """(w, q) for d = x - y: w = A^{-1} d and q = w . d, by one division per
    axis, A being diagonal by construction (make_matrix)."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    w = d / np.diagonal(A.A)
    return w, (w * d).sum(axis=-1)


def fundamental_H(x, y, A: MatrixField):
    """Evaluate H(x, y); x may be an array of points (..., n).

    A is diagonal by construction (make_matrix) and constant (the
    variable-coefficient parametrix is out of scope); x must stay away
    from y.
    """
    n = A.dim
    _, q = _quadratic_form(x, y, A)
    if np.any(q <= 0.0):
        raise SingularError("fundamental solution evaluated at its pole")
    if n >= 3:
        return q ** ((2.0 - n) / 2.0)
    return -0.5 * np.log(q)


def fundamental_grad_H(x, y, A: MatrixField):
    """Analytic gradient of H(., y) at points x (..., n) -> (..., n)."""
    n = A.dim
    w, q = _quadratic_form(x, y, A)  # w = A^{-1}(x - y)
    if np.any(q <= 0.0):
        raise SingularError("gradient evaluated at the pole")
    if n >= 3:
        return (2.0 - n) * q[..., None] ** (-n / 2.0) * w
    return -w / q[..., None]


# ---------------------------------------------------------------------------
# corrector solves on Omega'


def _diag_patch_first(grid: Grid, A: MatrixField) -> np.ndarray:
    return np.diagonal(A.A)[[grid.patch_axis, *grid.tangential_axes]]


def _omega_prime_operator(grid: Grid, A: MatrixField):
    """The Omega' corrector operator for constant diagonal A.

    Gamma is the patch-face nodes with tangential index in [patch_lo,
    patch_hi]; the box part is the (N-1)^n interior of Omega and the slab
    part is normal planes 1..pad-1 over the tangential indices lo+1..hi-1.
    Eliminating both gives the Schur complement on Gamma

        S = (2 tr A / h^2) I - T - (a_dd / h^2)^2 (Q_B g_B Q_B^T + Q_S g_S Q_S^T),

    T the tangential stencil couplings inside Gamma, Q_B and Q_S the
    tangential sine bases of the box and of the slab on Gamma, and
    g(kappa) = sum_k phi_k(1)^2 / (a_dd lambda_k + mu_kappa) the value that
    a unit mode kappa on Gamma takes on the node plane next to Gamma inside
    each box (phi_k, lambda_k its normal sine modes and eigenvalues, mu_kappa
    the tangential ones).  S is built as a (*Gamma, *Gamma) tensor: the
    stencil part by node index, and each box's Q g Q^T by contracting g
    with the per-axis sine rows one axis at a time, so no Kronecker product
    is formed.  A failed Cholesky factorization of S, the positive-definite
    check, raises SingularError.  Returns S as a (|Gamma|, |Gamma|) matrix,
    which solve_corrector factors and solves; per box its sine_basis and
    box_spectrum, the DST-I solves' set-up; the Omega' interior mask,
    raveled over the interior box, on which the residual check applies the
    matrix-free stencil K = -div(A grad .); and the dOmega' node indices
    with their coordinates, where a corrector's trace is sampled.  The
    Cholesky factor is not kept for the solve: numpy has no triangular
    solve, and tests/test_layout.py confines scipy to the Newton fallback
    of pde, so solve_corrector factors S again by np.linalg.solve.
    """
    h, N, pad = grid.h, grid.n_cells, grid.pad
    a = _diag_patch_first(grid, A)
    nodes = [np.arange(lo, hi + 1) for lo, hi in zip(grid.patch_lo, grid.patch_hi)]
    shape = tuple(j.size for j in nodes)
    k = len(shape)
    # S over (*Gamma, *Gamma); flat is its (|Gamma|, |Gamma|) matrix view,
    # in which the stencil part goes in by node index
    S = np.zeros(shape + shape)
    flat = S.reshape(math.prod(shape), -1)
    at = np.arange(len(flat)).reshape(shape)
    flat[at, at] = 2.0 * a.sum() / h ** 2
    for e in range(k):
        along = np.moveaxis(at, e, 0)
        flat[along[:-1], along[1:]] = flat[along[1:], along[:-1]] = -a[e + 1] / h ** 2
    # per box: tangential sine rows on Gamma, normal cells, tangential cells
    box = ([sine_rows(j, N) for j in nodes], N, [N] * k)
    slab = ([sine_rows(j - j[0], j.size - 1) for j in nodes], pad,
            [j.size - 1 for j in nodes])
    for rows, L, lengths in (box, slab):
        g = np.tensordot(sine_rows([1], L)[0] ** 2,
                         1.0 / box_spectrum(a, h, [L] + lengths), axes=1)
        # Q g Q^T, Q the Kronecker product of the rows, one axis at a time:
        # the trailing mode axis by its scaled rows, then each leading one
        # by its row products, which appends that axis' (node, node') pair
        *lead, last = rows
        g = (g[..., None, :] * last) @ last.T
        for R in lead:
            g = np.tensordot(g, R[:, None] * R, axes=(0, 2))
        g = np.moveaxis(g, (0, 1), (-2, -1))  # pairs in axis order
        S -= (a[0] / h ** 2) ** 2 * g.transpose(*range(0, 2 * k, 2), *range(1, 2 * k, 2))
    try:
        np.linalg.cholesky(flat)
    except np.linalg.LinAlgError:
        raise SingularError("Omega' Schur complement is not positive definite") from None
    interior = grid.omega_prime_interior_mask()
    boundary = grid.omega_prime_mask() & ~interior
    bidx = np.nonzero(boundary)
    return {"schur": flat,
            "boxes": tuple((sine_basis([L] + lengths), box_spectrum(a, h, [L] + lengths))
                           for _, L, lengths in (box, slab)),
            "interior": interior[(slice(1, -1),) * grid.dim].ravel(),
            "boundary": boundary, "bidx": bidx,
            "coords": np.stack([grid.extended_axis_nodes(e)[bidx[e]]
                                for e in range(grid.dim)], axis=-1)}


def _omega_prime_residual(op, A: MatrixField, h: float, full: np.ndarray) -> np.ndarray:
    """-div(A grad full) at the Omega' interior nodes: the stencil K applied
    matrix-free (pde._diffusion with gamma = 1); leading axes of full
    beyond the grid's are a batch."""
    r = _diffusion(A.A, h, 1.0, full)
    return -r.reshape(r.shape[:r.ndim - A.dim] + (-1,)).compress(op["interior"], axis=-1)


def _patch_first(grid: Grid, full: np.ndarray) -> np.ndarray:
    """View of a stack of Omega'-box arrays, (K, *box), with the patch axis
    after the stack axis and the extrusion at its low end: index pad is the
    patch face, the slab lies below it and the unit box above."""
    v = np.moveaxis(full, 1 + grid.patch_axis, 1)
    return v if grid.patch_side == 0 else v[:, ::-1]


def solve_corrector(grid: Grid, boundary_trace, A: MatrixField, op=None):
    """Solve -div(A grad v) = 0 on Omega' with Dirichlet data on dOmega'.

    boundary_trace is a callable on physical coordinates, an array of
    points (npts, n); it returns (npts,) values, or (K, npts) for K traces
    solved as one stack.  Returns {"field": v, "load_norm": |b|} with v
    over the Omega' bounding box (zero outside the domain), (K, *box) for
    a stack, and |b| per member.  A solve is two batched box solves with
    v = 0 on Gamma, one interface solve (one np.linalg.solve of the Schur
    complement for the whole stack's loads) and two batched box solves
    with Gamma filled in.  The non-finite check and the residual check
    apply to each member of the stack.  The residual check bounds the
    stencil K v on the Omega' interior by 1e-8 max(1, |b|), b = -K of the
    boundary data alone, whose rows are the Gamma rows of the interface
    load while v is still zero inside and each box's Dirichlet load
    (pde.dirichlet_load) in its first solve: |b|^2 sums their squares, and
    no stencil is applied to the boundary data.
    """
    op = _omega_prime_operator(grid, A) if op is None else op
    bvals = np.asarray(boundary_trace(op["coords"]), dtype=float)
    if not np.all(np.isfinite(bvals)):
        raise SingularError("corrector trace is not finite on dOmega'")
    stack = bvals.reshape(-1, bvals.shape[-1])
    full = np.zeros((len(stack),) + op["boundary"].shape)
    full[(slice(None),) + op["bidx"]] = stack

    h, pad = grid.h, grid.pad
    a = _diag_patch_first(grid, A)
    A_n = np.diag(a)
    v = _patch_first(grid, full)
    tang = tuple(slice(lo, hi + 1) for lo, hi in zip(grid.patch_lo, grid.patch_hi))
    parts = (v[:, pad:], v[(slice(None), slice(0, pad + 1)) + tang])  # unit box, slab
    face = (slice(None), pad) + tang

    def interface_load():
        """The stencil rows of Gamma applied to v with v = 0 on Gamma, one
        row per member."""
        load = (a[0] / h ** 2) * (v[(slice(None), pad + 1) + tang]
                                  + v[(slice(None), pad - 1) + tang])
        for e, (lo, hi) in enumerate(zip(grid.patch_lo, grid.patch_hi), start=1):
            for sgn in (-1, 1):
                near = list(face)
                near[1 + e] = slice(lo + sgn, hi + 1 + sgn)
                load += (a[e] / h ** 2) * v[tuple(near)]
        return load.reshape(len(stack), -1)

    # |b|^2 per member, b the stencil of the boundary data alone on the
    # Omega' interior, the scale of the residual check: the rows of Gamma
    # while v is still zero inside, then the rows of each box, the
    # Dirichlet load of its first solve, each reduced once solved
    b2 = np.square(interface_load()).sum(axis=1)
    for part, box in zip(parts, op["boxes"]):
        load = dirichlet_load(part, A_n, h)
        dirichlet_solve(part, A_n, h, box, load)
        b2 += np.square(load, out=load).reshape(len(stack), -1).sum(axis=1)
        del load
    v[face] = np.linalg.solve(op["schur"], interface_load().T).T.reshape(v[face].shape)
    for part, box in zip(parts, op["boxes"]):
        dirichlet_solve(part, A_n, h, box)

    b = np.sqrt(b2)
    for member, b_norm in zip(full, b):  # one member at a time: no stack-sized temporaries
        if np.linalg.norm(_omega_prime_residual(op, A, h, member)) > 1e-8 * max(1.0, b_norm):
            raise SingularError("corrector linear solve did not converge")
    return {"field": full.reshape(bvals.shape[:-1] + full.shape[1:]),
            "load_norm": b.reshape(bvals.shape[:-1])}


# ---------------------------------------------------------------------------
# time cutoffs

# skew of each bump shape: raw(s) = (1 + skew s) exp(-1 / (1 - s^2)) on |s| < 1
BUMP_SKEW = {"symmetric": 0.0, "skewed": 0.8}

# The bump vanishes with all its derivatives at s = +-1, so the trapezoid
# rule on this s-lattice is exact to rounding for its L2 constant, its
# running integral and its moments against smooth functions.
_S_NODES = 8193


def _raw_bump(s, shape: str):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = (1.0 + BUMP_SKEW[shape] * s[inside]) * np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out if out.ndim else float(out)


def _s_lattice():
    """Nodes and trapezoid weights of the fixed s-lattice on [-1, 1]."""
    s = np.linspace(-1.0, 1.0, _S_NODES)
    return s, trapezoid_weights(s.shape, 2.0 / (_S_NODES - 1))


def _l2_constant(shape: str) -> float:
    s, w = _s_lattice()
    return 1.0 / math.sqrt(float((w * _raw_bump(s, shape) ** 2).sum()))


# the L2 constant of each bump shape, one float per shape, formed at import
_BUMP_NORM = {shape: _l2_constant(shape) for shape in BUMP_SKEW}


def _bump_normalization(shape: str) -> float:
    if shape not in _BUMP_NORM:
        raise SingularError(f"unknown bump shape {shape!r}")
    return _BUMP_NORM[shape]


def a_tau_value(tau: float, kind: str, r: float = 0.25, a_rule: str = None) -> float:
    """Cutoff scale a_tau: |ln tau|^{1/16} for gamma probes, tau^{-r} for rho.

    The gamma default follows the calibration used in the stability
    analysis; it is deliberately weak, so experiments may force the power
    rule via a_rule="power".  The power rule needs r > 0: otherwise the
    window 1/a_tau does not shrink as tau falls.
    """
    rule = a_rule or ("log" if kind == "gamma" else "power")
    if rule == "log":
        if not (0.0 < tau < 1.0):
            raise SingularError(f"a_tau_log fails: the log rule needs tau in (0, 1), tau={tau}")
        return abs(math.log(tau)) ** (1.0 / 16.0)
    if rule == "power":
        if not r > 0.0:
            raise SingularError(f"a_tau_power fails: the power rule needs r > 0, r = {r:g}")
        return tau ** (-r)
    raise SingularError(f"unknown a_tau rule {rule!r}")


def _smoothstep(u):
    """C^2 quintic ramp: 0 at u<=0, 1 at u>=1."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2)


@dataclass(frozen=True)
class CutoffSet:
    """Time cutoffs of one probe, as a value: phi_tau(t) = sqrt(a_tau)
    phi(a_tau (t - t0)) with phi = norm * raw bump, its running integral
    Phi_tau, and the plateau cutoff chi (identically 1 for gamma probes)."""

    kind: str
    shape: str
    t0: float
    tau: float
    r: float
    a_tau: float
    norm: float            # L2 constant of the raw bump
    half: float = 0.0      # rho plateau half-width
    ramp: float = 0.0      # rho plateau ramp width

    def _phi(self, s):
        return self.norm * np.asarray(_raw_bump(s, self.shape))

    def phi_tau(self, t):
        u = self.a_tau * (np.asarray(t, dtype=float) - self.t0)
        return math.sqrt(self.a_tau) * self._phi(u)

    def Phi_tau(self, t):
        s, _ = _s_lattice()
        vals = self._phi(s)
        cum = np.concatenate(([0.0], np.cumsum(np.diff(s) * (vals[1:] + vals[:-1]) / 2.0)))
        u = self.a_tau * (np.asarray(t, dtype=float) - self.t0)
        return np.interp(u, s, cum) / math.sqrt(self.a_tau)

    def chi(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "gamma":
            return np.ones_like(t)
        up = _smoothstep((t - (self.t0 - self.half - self.ramp)) / self.ramp)
        down = _smoothstep(((self.t0 + self.half + self.ramp) - t) / self.ramp)
        return np.minimum(up, down)


def make_cutoffs(t0: float, tau: float, kind: str, grid: Grid, r: float = 0.25,
                 tau0: float = None, shape: str = "symmetric",
                 a_rule: str = None) -> CutoffSet:
    """Build the calibrated cutoff family for one probe."""
    if kind not in ("gamma", "rho"):
        raise SingularError(f"unknown probe kind {kind!r}")
    T = grid.T
    if not (0.0 < t0 < T):
        raise SingularError(f"t0_interior fails: t0={t0} is not an interior time")
    a = a_tau_value(tau, kind, r=r, a_rule=a_rule)
    if 1.0 / a >= min(t0, T - t0):
        raise SingularError(
            f"cutoff_support fails: width 1/a_tau = {1.0 / a:.4g} "
            f">= min(t0, T - t0) = {min(t0, T - t0):.4g}")
    half = ramp = 0.0
    if kind == "rho":
        if tau0 is None:
            raise SingularError("rho cutoffs need the admissibility ceiling tau0")
        if not (tau < tau0):
            raise SingularError("rho_tau0 fails: rho cutoffs need tau < tau0")
        half = min(tau0 ** r, 0.6 * min(t0, T - t0))
        if tau ** r > half:
            raise SingularError("plateau_cover fails: cutoff plateau cannot cover supp(phi_tau)")
        ramp = half / 2.0  # supp(chi) = t0 +- 1.5 half stays inside (0, T)
    return CutoffSet(kind=kind, shape=shape, t0=t0, tau=tau, r=r, a_tau=a,
                     norm=_bump_normalization(shape), half=half, ramp=ramp)


# ---------------------------------------------------------------------------
# singular basis on the grid


@dataclass
class SingularBasis:
    """Grid evaluations of a probe's singular fields: H, kept for its
    energy, and the members its data read, each a field minus its
    corrector: H - v for a gamma probe, d_j H - v_j for each axis j of a
    rho probe."""

    A: MatrixField
    H_omega: np.ndarray  # H(., y_tau) on closure-of-Omega nodes
    members: list        # field minus corrector on Omega nodes, one per datum


def build_basis(grid: Grid, geoms, A: MatrixField, kind: str = "gamma") -> list:
    """Evaluate the singular fields of the probes at geoms and solve their
    correctors; one SingularBasis per geometry.

    The kind sets only what the corrector stack solves: per gamma probe
    H, per rho probe its n first derivatives (not H).  The stack is one
    solve_corrector call on the fields' traces on dOmega'; each member is
    the field on the grid minus its corrector.  H, kept for its energy, is
    a gamma probe's own field and is evaluated on the grid once more for a
    rho probe.  The setting is the caller's to check
    (reconstruct.check_probes)."""
    ys = [np.asarray(geom.y_tau) for geom in geoms]
    coords = np.stack(grid.node_coords(), axis=-1)

    def fields(x, y):
        """What a probe's data read at points x, along a leading axis."""
        if kind == "rho":
            return np.moveaxis(fundamental_grad_H(x, y, A), -1, 0)
        return fundamental_H(x, y, A)[None]

    def trace(x):
        """Every probe's fields at points x, as one stack."""
        return np.concatenate([fields(x, y) for y in ys])

    v = solve_corrector(grid, trace, A)["field"][(slice(None),) + grid.omega_slice()]
    bases = []
    for y, vy in zip(ys, np.split(v, len(ys))):
        read = fields(coords, y)
        H = read[0] if kind == "gamma" else fundamental_H(coords, y, A)
        bases.append(SingularBasis(A=A, H_omega=H, members=list(read - vy)))
    return bases


# ---------------------------------------------------------------------------
# energies


def grad_H_energy(basis: SingularBasis, grid: Grid) -> float:
    """Trapezoid quadrature of int_Omega A grad H . grad H dx.

    Gradients by centered differences of the sampled H (one-sided at the
    box edges), matching the convention of the pairing computations.
    """
    H, A = basis.H_omega, basis.A.A
    grads = np.gradient(H, grid.h, edge_order=2)
    W = trapezoid_weights(H.shape, grid.h)
    total = 0.0
    for d in range(grid.dim):
        total += A[d, d] * float((grads[d] * grads[d] * W).sum())
    return total
