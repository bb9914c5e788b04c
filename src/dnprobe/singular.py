"""Singular basis fields and calibrated time cutoffs for boundary probes.

For a constant elliptic matrix A the field

    H(x, y) = (A^{-1}(x-y) . (x-y))^{(2-n)/2}        (n >= 3)
    H(x, y) = -1/2 * ln(A^{-1}(x-y) . (x-y))          (n = 2)

solves -div(A grad H) = 0 away from y; for A = Id it reduces to the bare
|x-y|^{2-n} (resp. -ln|x-y|).  No normalizing constant is applied: every
reconstruction formula divides by an energy computed with the same
convention, so constants cancel (and a convention knob exists to prove it).

A probe couples H centered at an exterior point y_tau with a corrector v
that matches H on the outer boundary dOmega', making the boundary datum
vanish off the patch S, and with an L2-normalized time bump phi_tau that
concentrates at t0 as tau -> 0.

Omega' is two boxes, the unit box and the extrusion slab over the patch,
glued along the patch-face nodes Gamma.  The corrector is solved by
substructuring (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8,
1971; Bjorstad & Widlund, SIAM J. Numer. Anal. 23, 1986): each box is
eliminated by the DST-I solver of pde, and the Gamma x Gamma Schur
complement, dense and closed-form in the tangential sine bases, is checked
positive definite by numpy's Cholesky factor and inverted once.  Each
corrector's residual is checked by the matrix-free stencil of pde.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .geometry import Grid, ProbeGeometry, trapezoid_weights
from .material import MatrixField
from .pde import (_diffusion, _lazy_splu, box_spectrum, dirichlet_solve, sine_basis,
                  sine_rows)

# nothing here factorizes: perfbench/spans.py SPLU_MODULES is the only
# reader of singular.splu
__getattr__ = _lazy_splu(globals())


class SingularError(ValueError):
    pass


# ---------------------------------------------------------------------------
# fundamental solution


def _quadratic_form(x, y, A: MatrixField):
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    Ainv = np.linalg.inv(A.A)
    return np.einsum("...i,ij,...j->...", d, Ainv, d)


def fundamental_H(x, y, A: MatrixField, conv: float = 1.0):
    """Evaluate H(x, y); x may be an array of points (..., n).

    Only constant A is supported (the variable-coefficient parametrix is
    out of scope); x must stay away from y.
    """
    n = A.dim
    q = _quadratic_form(x, y, A)
    if np.any(q <= 0.0):
        raise SingularError("fundamental solution evaluated at its pole")
    if n >= 3:
        return conv * q ** ((2.0 - n) / 2.0)
    return conv * (-0.5) * np.log(q)


def fundamental_grad_H(x, y, A: MatrixField, conv: float = 1.0):
    """Analytic gradient of H(., y) at points x (..., n) -> (..., n)."""
    n = A.dim
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    Ainv = np.linalg.inv(A.A)
    q = np.einsum("...i,ij,...j->...", d, Ainv, d)
    if np.any(q <= 0.0):
        raise SingularError("gradient evaluated at the pole")
    w = d @ Ainv.T  # A^{-1}(x - y)
    if n >= 3:
        return conv * (2.0 - n) * q[..., None] ** (-n / 2.0) * w
    return conv * (-w) / q[..., None]


def fundamental_dj_H(x, y, A: MatrixField, j: int, conv: float = 1.0):
    return fundamental_grad_H(x, y, A, conv)[..., j]


# ---------------------------------------------------------------------------
# corrector solves on Omega'


def _patch_first_diagonal(grid: Grid, A: MatrixField) -> np.ndarray:
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
    the tangential ones).  S is checked positive definite by its Cholesky
    factorization and inverted once, so each interface solve is one matvec.
    Returns that inverse, the sine_basis of each box for its DST-I solves,
    and the Omega' interior mask on which the residual check applies the
    matrix-free stencil K = -div(A grad .).
    """
    if not A.is_diagonal:
        raise SingularError("correctors support constant diagonal A only")
    h, N, pad = grid.h, grid.n_cells, grid.pad
    a = _patch_first_diagonal(grid, A)
    nodes = [np.arange(lo, hi + 1) for lo, hi in zip(grid.patch_lo, grid.patch_hi)]
    eyes = [np.eye(j.size) for j in nodes]
    S = (2.0 * a.sum() / h ** 2) * reduce(np.kron, eyes)
    for e, j in enumerate(nodes):
        shift = np.eye(j.size, k=1) + np.eye(j.size, k=-1)
        S -= (a[e + 1] / h ** 2) * reduce(np.kron, eyes[:e] + [shift] + eyes[e + 1:])
    # per box: tangential sine rows on Gamma, normal cells, tangential cells
    box = ([sine_rows(j, N) for j in nodes], N, [N] * len(nodes))
    slab = ([sine_rows(j - j[0], j.size - 1) for j in nodes], pad,
            [j.size - 1 for j in nodes])
    for rows, L, lengths in (box, slab):
        g = np.tensordot(sine_rows([1], L)[0] ** 2,
                         1.0 / box_spectrum(a, h, [L] + lengths), axes=1)
        Q = reduce(np.kron, rows)
        S -= (a[0] / h ** 2) ** 2 * (Q * g.ravel()) @ Q.T
    np.linalg.cholesky(S)  # raises LinAlgError unless S is SPD
    interior = grid.omega_prime_interior_mask()
    return {"schur": np.linalg.inv(S),
            "bases": tuple(sine_basis([L] + lengths) for _, L, lengths in (box, slab)),
            "interior": interior[(slice(1, -1),) * grid.dim],
            "boundary": grid.omega_prime_mask() & ~interior}


def _omega_prime_residual(op, A: MatrixField, h: float, full: np.ndarray) -> np.ndarray:
    """-div(A grad full) at the Omega' interior nodes: the stencil K applied
    matrix-free (pde._diffusion with gamma = 1)."""
    return -_diffusion(A.A, h, np.broadcast_to(1.0, full.shape), full)[op["interior"]]


def _patch_first(grid: Grid, full: np.ndarray) -> np.ndarray:
    """View of an Omega'-box array with the patch axis first and the
    extrusion at its low end: index pad is the patch face, the slab lies
    below it and the unit box above."""
    v = np.moveaxis(full, grid.patch_axis, 0)
    return v if grid.patch_side == 0 else v[::-1]


def solve_corrector(grid: Grid, boundary_trace, A: MatrixField, op=None):
    """Solve -div(A grad v) = 0 on Omega' with Dirichlet data on dOmega'.

    boundary_trace is a callable on physical coordinates (arrays of points
    accepted).  Returns {"field": v} with v over the Omega' bounding box
    (zero outside the domain).  Each solve is two box solves with v = 0 on
    Gamma, one interface solve and two box solves with Gamma filled in.
    """
    op = _omega_prime_operator(grid, A) if op is None else op
    bidx = np.nonzero(op["boundary"])
    coords = np.stack([grid.extended_axis_nodes(a)[bidx[a]] for a in range(grid.dim)], axis=-1)
    bvals = np.asarray(boundary_trace(coords), dtype=float)
    if not np.all(np.isfinite(bvals)):
        raise SingularError("corrector trace is not finite on dOmega'")
    full = np.zeros(op["boundary"].shape)
    full[bidx] = bvals
    rhs = -_omega_prime_residual(op, A, grid.h, full)

    h, pad = grid.h, grid.pad
    a = _patch_first_diagonal(grid, A)
    A_n = np.diag(a)
    v = _patch_first(grid, full)
    tang = tuple(slice(lo, hi + 1) for lo, hi in zip(grid.patch_lo, grid.patch_hi))
    parts = (v[pad:], v[(slice(0, pad + 1),) + tang])  # unit box, slab
    for part, basis in zip(parts, op["bases"]):
        dirichlet_solve(part, A_n, h, basis)
    # the stencil rows of Gamma with v = 0 on Gamma give the interface load
    load = (a[0] / h ** 2) * (v[(pad + 1,) + tang] + v[(pad - 1,) + tang])
    for e, (lo, hi) in enumerate(zip(grid.patch_lo, grid.patch_hi), start=1):
        for sgn in (-1, 1):
            near = list((pad,) + tang)
            near[e] = slice(lo + sgn, hi + 1 + sgn)
            load += (a[e] / h ** 2) * v[tuple(near)]
    v[(pad,) + tang] = (op["schur"] @ load.ravel()).reshape(load.shape)
    for part, basis in zip(parts, op["bases"]):
        dirichlet_solve(part, A_n, h, basis)

    resid = _omega_prime_residual(op, A, h, full)
    if np.linalg.norm(resid) > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        raise SingularError("corrector linear solve did not converge")
    return {"field": full}


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


def _bump_normalization(shape: str) -> float:
    if shape not in BUMP_SKEW:
        raise SingularError(f"unknown bump shape {shape!r}")
    s, w = _s_lattice()
    return 1.0 / math.sqrt(float((w * _raw_bump(s, shape) ** 2).sum()))


def base_bump(shape: str = "symmetric"):
    """Smooth compactly supported bump on [-1, 1] with unit L2 norm."""
    c = _bump_normalization(shape)
    return lambda s: c * np.asarray(_raw_bump(s, shape))


def a_tau_value(tau: float, kind: str, r: float = 0.25, a_rule: str = None) -> float:
    """Cutoff scale a_tau: |ln tau|^{1/16} for gamma probes, tau^{-r} for rho.

    The gamma default follows the calibration used in the stability
    analysis; it is deliberately weak, so experiments may force the power
    rule via a_rule="power".
    """
    rule = a_rule or ("log" if kind == "gamma" else "power")
    if rule == "log":
        if not (0.0 < tau < 1.0):
            raise SingularError(f"a_tau_log fails: the log rule needs tau in (0, 1), tau={tau}")
        return abs(math.log(tau)) ** (1.0 / 16.0)
    if rule == "power":
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

    def moment(self, f):
        """integral of phi_tau^2 * f over (0, T), by the trapezoid rule in
        s = a_tau (t - t0); f must accept an array of times."""
        s, w = _s_lattice()
        return float((w * self._phi(s) ** 2 * f(self.t0 + s / self.a_tau)).sum())


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


def mollifier_gap(cut: CutoffSet, f) -> float:
    """|integral of phi_tau^2 f - f(t0)|, the concentration defect."""
    return abs(cut.moment(f) - f(cut.t0))


# ---------------------------------------------------------------------------
# singular basis on the grid


@dataclass
class SingularBasis:
    """Grid evaluations of H (and, for rho probes, its first derivatives)
    together with the matching correctors on Omega'."""

    geom: ProbeGeometry
    A: MatrixField
    conv: float
    kind: str
    H_omega: np.ndarray          # H(., y_tau) on closure-of-Omega nodes
    v_omega: np.ndarray          # corrector restricted to Omega nodes
    djH_omega: list = None       # d_j H on Omega nodes, j = 0..n-1 (rho kind)
    vj_omega: list = None


def build_basis(grid: Grid, geom: ProbeGeometry, A: MatrixField,
                conv: float = 1.0, kind: str = "gamma", op=None) -> SingularBasis:
    """Evaluate the singular fields for one probe and solve its correctors."""
    if kind == "rho":
        if grid.dim < 3:
            raise SingularError("rho probes need n >= 3")
        if not A.is_identity:
            raise SingularError("rho probes are restricted to A = Id")
    y = np.asarray(geom.y_tau)
    coords = np.stack(grid.node_coords(), axis=-1)
    H = fundamental_H(coords, y, A, conv=conv)
    op = _omega_prime_operator(grid, A) if op is None else op
    vres = solve_corrector(grid, lambda x: fundamental_H(x, y, A, conv=conv), A, op=op)
    v_omega = vres["field"][grid.omega_slice()]

    djH, vj = None, None
    if kind == "rho":
        djH, vj = [], []
        for j in range(grid.dim):
            djH.append(fundamental_dj_H(coords, y, A, j, conv=conv))
            res = solve_corrector(
                grid, lambda x, jj=j: fundamental_dj_H(x, y, A, jj, conv=conv), A, op=op)
            vj.append(res["field"][grid.omega_slice()])
    return SingularBasis(geom=geom, A=A, conv=conv, kind=kind, H_omega=H,
                         v_omega=v_omega, djH_omega=djH, vj_omega=vj)


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
        for e in range(grid.dim):
            if A[d, e] != 0.0:
                total += A[d, e] * float((grads[d] * grads[e] * W).sum())
    return total


def grad_h_energy_fine(y, A: MatrixField, dim: int, N: int, conv: float = 1.0,
                       chunk: int = 64) -> float:
    """Fine-resolution energy quadrature, streamed in slabs along axis 0.

    Used as the independent oracle for the tau-scaling experiments, where
    N is far beyond what a PDE grid needs.
    """
    h = 1.0 / N
    ax = np.linspace(0.0, 1.0, N + 1)
    w1 = trapezoid_weights((N + 1,), 1.0)
    Wt = trapezoid_weights((N + 1,) * (dim - 1), 1.0)  # tangential, unit spacing
    total = 0.0
    tang = np.meshgrid(*([ax] * (dim - 1)), indexing="ij")
    for start in range(0, N + 1, chunk):
        stop = min(N + 1, start + chunk)
        lo = max(0, start - 1)
        hi = min(N + 1, stop + 1)
        pts = np.empty((hi - lo,) + tang[0].shape + (dim,))
        pts[..., 0] = ax[lo:hi].reshape((-1,) + (1,) * (dim - 1))
        for a in range(1, dim):
            pts[..., a] = tang[a - 1]
        G = fundamental_grad_H(pts, y, A, conv=conv)
        quad = np.einsum("...i,ij,...j->...", G, A.A, G)
        sel = slice(start - lo, start - lo + (stop - start))
        block = quad[sel] * Wt
        total += float((block.sum(axis=tuple(range(1, dim)))
                        * w1[start:stop]).sum()) * h ** dim
    return total


def h_norms_oracle(tau: float, dim: int, n_nodes: int = 192) -> dict:
    """High-accuracy ||H||^2, ||grad H||^2 over the unit box, A = Id.

    The pole sits at distance tau outside the center of one face.  Each
    axis is tan-substituted around the pole so the quadrature resolution
    tracks tau; accuracy is then uniform down to very small tau, far past
    what a PDE grid can afford.  Returns {"l2_H_sq", "energy"}.
    """
    if tau <= 0.0:
        raise SingularError("tau must be positive")
    # normal axis: distance a in (tau, 1 + tau); tangential: s in (-1/2, 1/2)
    def mapped(lo, hi):
        t_lo, t_hi = math.atan(lo / tau), math.atan(hi / tau)
        th = np.linspace(t_lo, t_hi, n_nodes)
        w = trapezoid_weights(th.shape, th[1] - th[0])
        x = tau * np.tan(th)
        jac = tau / np.cos(th) ** 2
        return x, w * jac

    a, wa = mapped(tau, 1.0 + tau)
    s, ws = mapped(-0.5, 0.5)
    if dim == 3:
        r2 = (a[:, None, None] ** 2 + s[None, :, None] ** 2 + s[None, None, :] ** 2)
        W = wa[:, None, None] * ws[None, :, None] * ws[None, None, :]
        l2 = float((r2 ** -1 * W).sum())          # H = r^{-1}, H^2 = r^{-2}
        en = float((r2 ** -2 * W).sum())          # |grad H|^2 = r^{-4}
        return {"l2_H_sq": l2, "energy": en}
    r2 = a[:, None] ** 2 + s[None, :] ** 2
    W = wa[:, None] * ws[None, :]
    l2 = float((0.25 * np.log(r2) ** 2 * W).sum())  # H = -ln r
    en = float((r2 ** -1 * W).sum())                # |grad H|^2 = r^{-2}
    return {"l2_H_sq": l2, "energy": en}


def l2_norms_H(y, A: MatrixField, dim: int, N: int, conv: float = 1.0):
    """(||H||_L2(Omega), ||grad H||_L2(Omega)) by fine trapezoid quadrature."""
    h = 1.0 / N
    ax = np.linspace(0.0, 1.0, N + 1)
    pts = np.stack(np.meshgrid(*([ax] * dim), indexing="ij"), axis=-1)
    H = fundamental_H(pts, y, A, conv=conv)
    G = fundamental_grad_H(pts, y, A, conv=conv)
    W = trapezoid_weights(H.shape, h)
    return (math.sqrt(float((H ** 2 * W).sum())),
            math.sqrt(float(((G ** 2).sum(axis=-1) * W).sum())))
