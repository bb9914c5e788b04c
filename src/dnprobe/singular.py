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
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .geometry import Grid, ProbeGeometry, trapezoid_weights
from .material import MatrixField


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


def _omega_prime_operator(grid: Grid, A: MatrixField):
    """Factorized 2n+1-point Laplacian -div(A grad .) on interior(Omega')."""
    if not A.is_diagonal:
        raise SingularError("correctors support constant diagonal A only")
    mask = grid.omega_prime_mask()
    interior = grid.omega_prime_interior_mask()
    boundary = mask & ~interior
    shape = mask.shape
    size = int(np.prod(shape))
    flat_int = np.flatnonzero(interior.ravel())
    red = -np.ones(size, dtype=np.int64)
    red[flat_int] = np.arange(flat_int.size)

    strides = [int(np.prod(shape[a + 1:])) for a in range(grid.dim)]
    h2 = grid.h ** 2
    diag_a = np.diagonal(A.A)

    rows, cols, vals = [], [], []
    nloc = np.arange(flat_int.size)
    rows.append(nloc)
    cols.append(nloc)
    vals.append(np.full(flat_int.size, 2.0 * diag_a.sum() / h2))
    # (neighbor flat index, weight) pairs; boundary neighbors handled via rhs
    nbr_info = []
    for a in range(grid.dim):
        for sgn in (-1, 1):
            nb = flat_int + sgn * strides[a]
            nbr_info.append((nb, -diag_a[a] / h2))
            is_int = red[nb] >= 0
            rows.append(nloc[is_int])
            cols.append(red[nb[is_int]])
            vals.append(np.full(is_int.sum(), -diag_a[a] / h2))
    M = coo_matrix((np.concatenate(vals),
                    (np.concatenate(rows), np.concatenate(cols))),
                   shape=(flat_int.size, flat_int.size)).tocsc()
    return {
        "lu": splu(M),
        "matrix": M,
        "mask": mask,
        "interior": interior,
        "boundary": boundary,
        "flat_int": flat_int,
        "red": red,
        "nbr_info": nbr_info,
    }


def _boundary_coords(grid: Grid, boundary_mask):
    axes = [grid.extended_axis_nodes(a) for a in range(grid.dim)]
    idx = np.nonzero(boundary_mask)
    return np.stack([axes[a][idx[a]] for a in range(grid.dim)], axis=-1), idx


def solve_corrector(grid: Grid, boundary_trace, A: MatrixField, op=None):
    """Solve -div(A grad v) = 0 on Omega' with Dirichlet data on dOmega'.

    boundary_trace is a callable on physical coordinates (arrays of points
    accepted).  Returns the field over the Omega' bounding box (zero
    outside the domain) together with the boundary mask, wrapped as a dict.
    """
    op = _omega_prime_operator(grid, A) if op is None else op
    coords, bidx = _boundary_coords(grid, op["boundary"])
    bvals = np.asarray(boundary_trace(coords), dtype=float)
    if not np.all(np.isfinite(bvals)):
        raise SingularError("corrector trace is not finite on dOmega'")
    full = np.zeros(op["mask"].shape)
    full[bidx] = bvals
    flat = full.ravel()

    rhs = np.zeros(op["flat_int"].size)
    for nb, wgt in op["nbr_info"]:
        is_bnd = op["red"][nb] < 0
        rhs[is_bnd] -= wgt * flat[nb[is_bnd]]
    sol = op["lu"].solve(rhs)
    resid = op["matrix"] @ sol - rhs
    if np.linalg.norm(resid) > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        raise SingularError("corrector linear solve did not converge")
    full.ravel()[op["flat_int"]] = sol
    return {"field": full, "mask": op["mask"], "boundary": op["boundary"],
            "interior": op["interior"]}


# ---------------------------------------------------------------------------
# time cutoffs


_BUMP_SHAPES = ("symmetric", "skewed")


@lru_cache(maxsize=None)
def _bump_normalization(shape: str) -> float:
    raw = _raw_bump(shape)
    val, _ = integrate.quad(lambda s: raw(s) ** 2, -1.0, 1.0,
                            epsabs=1e-12, epsrel=1e-12)
    return 1.0 / math.sqrt(val)


def _raw_bump(shape: str):
    if shape == "symmetric":
        def raw(s):
            s = np.asarray(s, dtype=float)
            out = np.zeros_like(s)
            inside = np.abs(s) < 1.0
            out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
            return out if out.ndim else float(out)
    elif shape == "skewed":
        def raw(s):
            s = np.asarray(s, dtype=float)
            out = np.zeros_like(s)
            inside = np.abs(s) < 1.0
            out[inside] = (1.0 + 0.8 * s[inside]) * np.exp(-1.0 / (1.0 - s[inside] ** 2))
            return out if out.ndim else float(out)
    else:
        raise SingularError(f"unknown bump shape {shape!r}")
    return raw


def base_bump(shape: str = "symmetric"):
    """Smooth compactly supported bump on [-1, 1] with unit L2 norm."""
    raw = _raw_bump(shape)
    c = _bump_normalization(shape)
    return lambda s: c * np.asarray(raw(s))


@lru_cache(maxsize=None)
def _bump_cumulative(shape: str):
    """Cumulative integral of the normalized bump on a fine lattice."""
    phi = base_bump(shape)
    s = np.linspace(-1.0, 1.0, 8193)
    vals = phi(s)
    cum = integrate.cumulative_trapezoid(vals, s, initial=0.0)
    return s, cum


def a_tau_value(tau: float, kind: str, r: float = 0.25, a_rule: str = None) -> float:
    """Cutoff scale a_tau: |ln tau|^{1/16} for gamma probes, tau^{-r} for rho.

    The gamma default follows the calibration used in the stability
    analysis; it is deliberately weak, so experiments may force the power
    rule via a_rule="power".
    """
    rule = a_rule or ("log" if kind == "gamma" else "power")
    if rule == "log":
        if not (0.0 < tau < 1.0):
            raise SingularError("log scale rule needs tau in (0, 1)")
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
    """Time cutoffs of one probe, as callables plus time-grid samples."""

    kind: str
    shape: str
    t0: float
    tau: float
    r: float
    a_tau: float
    phi: object          # base bump on [-1, 1]
    phi_tau: object      # scaled bump, callable on t
    Phi_tau: object      # running integral of phi_tau
    chi: object          # plateau cutoff (identically 1 for gamma probes)
    times: np.ndarray

    def moment(self, f):
        """integral of phi_tau^2 * f over (0, T) by adaptive quadrature."""
        lo = self.t0 - 1.0 / self.a_tau
        hi = self.t0 + 1.0 / self.a_tau
        val, _ = integrate.quad(lambda t: self.phi_tau(t) ** 2 * f(t), lo, hi,
                                epsabs=1e-11, epsrel=1e-11, limit=200)
        return val


def make_cutoffs(t0: float, tau: float, kind: str, grid: Grid, r: float = 0.25,
                 tau0: float = None, shape: str = "symmetric",
                 a_rule: str = None) -> CutoffSet:
    """Build the calibrated cutoff family for one probe."""
    if kind not in ("gamma", "rho"):
        raise SingularError(f"unknown probe kind {kind!r}")
    T = grid.T
    if not (0.0 < t0 < T):
        raise SingularError("t0 must be an interior time")
    a = a_tau_value(tau, kind, r=r, a_rule=a_rule)
    if 1.0 / a >= min(t0, T - t0):
        raise SingularError(
            f"cutoff support overflows (0, T): width 1/a_tau = {1.0 / a:.4g} "
            f">= min(t0, T - t0) = {min(t0, T - t0):.4g}")

    phi = base_bump(shape)
    sqrt_a = math.sqrt(a)

    def phi_tau(t):
        return sqrt_a * phi(a * (np.asarray(t, dtype=float) - t0))

    s_grid, cum = _bump_cumulative(shape)

    def Phi_tau(t):
        u = a * (np.asarray(t, dtype=float) - t0)
        return np.interp(u, s_grid, cum) / sqrt_a

    if kind == "gamma":
        chi = lambda t: np.ones_like(np.asarray(t, dtype=float))
    else:
        if tau0 is None:
            raise SingularError("rho cutoffs need the admissibility ceiling tau0")
        if not (tau < tau0):
            raise SingularError("rho cutoffs need tau < tau0")
        half = min(tau0 ** r, 0.6 * min(t0, T - t0))
        if tau ** r > half:
            raise SingularError("cutoff plateau cannot cover supp(phi_tau)")
        ramp = half / 2.0
        if half + ramp >= min(t0, T - t0):
            raise SingularError("plateau cutoff support overflows (0, T)")

        def chi(t):
            t = np.asarray(t, dtype=float)
            up = _smoothstep((t - (t0 - half - ramp)) / ramp)
            down = _smoothstep(((t0 + half + ramp) - t) / ramp)
            return np.minimum(up, down)

    return CutoffSet(kind=kind, shape=shape, t0=t0, tau=tau, r=r, a_tau=a,
                     phi=phi, phi_tau=phi_tau, Phi_tau=Phi_tau, chi=chi,
                     times=grid.times)


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
    return grad_h_energy_field(basis.H_omega, grid, basis.A)


def grad_h_energy_field(H: np.ndarray, grid: Grid, A: MatrixField) -> float:
    grads = np.gradient(H, grid.h, edge_order=2)
    W = trapezoid_weights(H.shape, grid.h)
    total = 0.0
    for d in range(grid.dim):
        for e in range(grid.dim):
            if A.A[d, e] != 0.0:
                total += A.A[d, e] * float((grads[d] * grads[e] * W).sum())
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
