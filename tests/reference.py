"""Reference computations the tests check the package against.

No subcommand or demo calls any of these; each is an independent route to
a quantity the pipeline computes another way, or an oracle for one:

- full-field boundary data (boundary_field_from_callable, and
  boundary_from_face for a face array) and the sparse
  stiffness K = -div(A grad .) (stiffness, constant_stiffness), against
  which the matrix-free stencil of pde._diffusion is tested;
- the backward adjoint solve (solve_adjoint), the discrete adjoint of
  pde.solve_linearized, for the adjoint relation and the interior form of
  the DN-difference pairing, and the terminal-time check of its data
  (check_vanishes_at_end);
- the one-sided conormal (_face_conormal), the harmonic lifting
  (lift_terminal_zero) and the weak (interior-identity) pairing
  (weak_pairing), against surface_pairing of the patch flux;
- (Lambda^1 - Lambda^2) g by two full-field frozen solves
  (lambda_difference_flux), against dnmap.patch_linear_flux;
- a PatchField's values formed on S only, by boolean indexing into
  zeros (values_on_support), and the patch fluxes of an entry stacked over all
  its data from them (patch_linear_flux_stacked): the bytes the product a
  PatchField forms on each read, its dirichlet_level and the per-datum
  fluxes of dnmap.patch_linear_flux must equal;
- the random dictionary drawn from numpy.random.default_rng
  (bump_dictionary_numpy), against random_bump_dictionary and its
  package PCG64 stream;
- the boundary norms of data on all of dOmega, walked around the closed
  curve or summed over every boundary node (l2_sigma; boundary_half,
  boundary_dual), against BoundaryNorm of a face array;
- the Omega' Schur complement built from dense Kronecker products
  (schur_complement_dense), against _omega_prime_operator's assembly;
- the norm of the boundary data's stencil on the Omega' interior
  (corrector_load_norm), against the norm solve_corrector forms from the
  loads of its box solves;
- H and grad H through the general quadratic form, an explicit inverse of
  A and einsum (fundamental_H_general, fundamental_grad_H_general),
  against the diagonal-A evaluation of fundamental_H and
  fundamental_grad_H;
- the unit-L2 time bump (base_bump), the moment of a cutoff against a
  function of time (moment) and its concentration defect (mollifier_gap);
- fine and tan-substituted quadratures of the singular field's norms
  (grad_h_energy_fine, h_norms_oracle, l2_norms_H), the oracles of the
  tau-scaling experiments.

Tests import them from here (``from reference import ...``), as they
import helpers of sibling test modules.
"""

import math
from functools import reduce

import numpy as np
from numpy.fft import fft, rfft
from numpy.random import default_rng

from dnprobe.dnmap import (BoundaryNorm, _closed_curve_samples, _FluxStencil,
                           _planes_by_convolution, _planes_by_steps, _recurrence_rows,
                           linear_flux)
from dnprobe.geometry import Grid, trapezoid_weights
from dnprobe.material import MaterialLaw, MatrixField
from dnprobe.pde import (BoundaryField, PatchField, PDEError, SpaceTimeField, _flat_strides,
                         _frozen_setup, _frozen_step, box_spectrum, dirichlet_solve, dst1,
                         interior_mask, sine_rows, solve_linearized)
from dnprobe.singular import (CutoffSet, SingularError, _bump_normalization,
                              _diag_patch_first, _omega_prime_residual, _raw_bump, _s_lattice,
                              fundamental_grad_H, fundamental_H)


# ---------------------------------------------------------------------------
# pde: full-field data, sparse stiffness, the adjoint solve


def boundary_field_from_callable(grid: Grid, fn) -> BoundaryField:
    """Sample fn(t, X) (X a stack of coordinate arrays) on boundary nodes."""
    coords = np.stack(grid.node_coords(), axis=-1)
    bmask = ~interior_mask(grid)
    vals = np.zeros((grid.nt + 1,) + grid.shape)
    for m, t in enumerate(grid.times):
        full = np.asarray(fn(t, coords), dtype=float)
        vals[m][bmask] = full[bmask]
    return BoundaryField(values=vals, grid=grid)


def boundary_from_face(values: np.ndarray, grid: Grid) -> BoundaryField:
    """A (nt+1, *face_shape) face array as Dirichlet data on all of
    dOmega, zero off the patch face."""
    face = (slice(None),) + grid.face_node_selector(grid.patch_axis, grid.patch_side)
    vals = np.zeros((grid.nt + 1,) + grid.shape)
    vals[face] = values
    return BoundaryField(values=vals, grid=grid)


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


def constant_stiffness(grid: Grid, A: np.ndarray):
    """Rows of K = -div(A grad .) for interior nodes, columns over all nodes."""
    return stiffness(interior_mask(grid), A, grid.h)


def check_vanishes_at_end(field: BoundaryField):
    """Adjoint data vanish at t = T, to 1e-12 of max(1, their peak): the
    terminal-time counterpart of BoundaryField.check_compatible."""
    scale = max(1.0, np.abs(field.values).max())
    if np.abs(field.values[-1]).max() > 1e-12 * scale:
        raise PDEError("adjoint boundary data must vanish at t=T")


def solve_adjoint(law, A: MatrixField, grid: Grid, lam: float,
                  gbar: BoundaryField) -> SpaceTimeField:
    """Backward solve of -d_t(rho_lam wbar) - gamma_lam div(A grad wbar) = 0.

    Terminal state is zero; gbar must vanish at t = T.  It is the discrete
    adjoint of solve_linearized: for W = solve_linearized(g), g(0) = 0,
    sum_m gamma(t_m) (K g_m) . wbar_m = sum_m gamma(t_m) W_m . (K gbar_m)
    over interior nodes and m = 1..nt-1, to rounding.
    """
    check_vanishes_at_end(gbar)
    eig, basis, [gam], [rho] = _frozen_setup([law], A, grid, lam)
    K, _ = constant_stiffness(grid, A.A)
    inner = (slice(1, -1),) * grid.dim
    dt = grid.dt
    w = gbar.values.copy()
    w[-1] = 0.0  # likewise gbar(T)
    for m in range(grid.nt - 1, -1, -1):
        rhs = (rho[m + 1] / dt) * w[m + 1][inner] \
            - gam[m] * (K @ gbar.values[m].ravel()).reshape(eig.shape)
        w[m][inner] = _frozen_step(eig, basis, rho[m] / dt, gam[m], rhs)
    return SpaceTimeField(values=w, grid=grid)


# ---------------------------------------------------------------------------
# dnmap: conormal, weak pairing, full-field DN difference


def _face_conormal(field: np.ndarray, grid: Grid, A: MatrixField) -> np.ndarray:
    """A grad(field) . nu on the patch face."""
    return _FluxStencil(grid, A).conormal(field)


def lift_terminal_zero(h: BoundaryField, grid: Grid, A: MatrixField) -> np.ndarray:
    """E_T h: slice-wise A-harmonic extension into Omega (diagonal A), all
    time levels in one DST-I box solve; zero at t=T inherited from h."""
    check_vanishes_at_end(h)
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
            grad_term += A.A[a, a] * gw[a] * gE[a]
        integrand = (-drho[m] * w.values[m] * E[m]
                     - rho[m] * w.values[m] * dE[m]
                     + gam[m] * grad_term)
        total += wt[m] * float((integrand * W).sum())
    return total


def lambda_difference_flux(law_pair, A: MatrixField, grid: Grid, lam: float,
                           g: BoundaryField) -> np.ndarray:
    """(Lambda^1 - Lambda^2) g on S by two full-field frozen solves."""
    law1, law2 = law_pair
    w1 = solve_linearized(law1, A, grid, lam, g)
    w2 = solve_linearized(law2, A, grid, lam, g)
    return linear_flux(w1, law1, A, grid, lam) - linear_flux(w2, law2, A, grid, lam)


def values_on_support(datum: PatchField) -> np.ndarray:
    """The (nt+1, *face_shape) values of a PatchField formed on S only:
    zeros, then profile times face on the support by boolean indexing."""
    support = datum.grid.patch_support_mask()
    values = np.zeros((datum.grid.nt + 1,) + support.shape)
    values[:, support] = datum.profile[:, None] * datum.face[support][None, :]
    return values


def patch_linear_flux_stacked(laws, A: MatrixField, grid: Grid, lam: float,
                              data: list) -> list:
    """dnmap.patch_linear_flux with each entry formed at once: the
    (len(data), nt+1, *face_shape) stack of its data's fluxes, from the
    stack of their values_on_support, by the same mode-space rows."""
    d, side = grid.patch_axis, grid.patch_side
    src, row_of = _recurrence_rows(data, grid.dim - 1)
    entries = [entry if isinstance(entry, tuple) else (entry,) for entry in laws]
    distinct = list(dict.fromkeys(law for entry in entries for law in entry))
    eig, basis, gam, rho = _frozen_setup(distinct, A, grid, lam)
    basis = [basis[e] for e in grid.tangential_axes]
    N, h, a_dd = grid.n_cells, grid.h, A.A[d, d]
    inner = (Ellipsis,) + (slice(1, -1),) * (grid.dim - 1)
    eig = np.moveaxis(eig, d, 0)
    k = np.arange(1, N)
    p0, p1 = (1, 2) if side == 0 else (N - 1, N - 2)
    col = (2.0 * np.sin(np.pi * k * p0 / N)).reshape((-1,) + (1,) * (grid.dim - 1))
    row = (4.0 * np.sin(np.pi * k * p0 / N) - np.sin(np.pi * k * p1 / N)) / N
    r, w = rho / grid.dt, gam * a_dd / h ** 2
    constant_in_t = np.all((gam[:, 1:] == gam[:, 1:2]) & (rho[:, 1:] == rho[:, 1:2]), axis=1)
    rows = [None] * len(distinct)
    for face_row, on in ((_planes_by_convolution, constant_in_t),
                         (_planes_by_steps, ~constant_in_t)):
        if on.any():
            for i, near in zip(np.flatnonzero(on), face_row(src, eig, col, row, r[on],
                                                             gam[on], w[on])):
                rows[i] = near
    modes = dst1(np.stack([g.face[inner] for g in data]), basis)
    gam = gam.reshape(gam.shape + (1,) * (grid.dim - 1))
    out = []
    for entry in entries:
        terms = [(s * gam[i], rows[i]) for s, i in zip((1.0, -1.0), map(distinct.index, entry))]
        flux = np.stack([values_on_support(g) for g in data])
        flux[:, 0] = 0.0
        flux *= -3.0 * sum(c for c, _ in terms)
        for o, j, m in zip(flux, row_of, modes):
            o[inner] += dst1(sum(c * near[j] for c, near in terms) * m, basis)
        flux *= -a_dd / (2.0 * h)
        flux[:, :, ~grid.patch_support_mask()] = 0.0
        out.append(flux)
    return out


def bump_dictionary_numpy(grid: Grid, count: int, seed: int) -> list:
    """dnmap.random_bump_dictionary with its draws from
    numpy.random.default_rng(seed), the generator the package's own PCG64
    stream reproduces."""
    rng = default_rng(seed)
    smask = grid.patch_support_mask()
    tang = np.meshgrid(*([grid.axis_nodes()] * (grid.dim - 1)), indexing="ij")
    lo = np.array(grid.patch_lo) * grid.h
    hi = np.array(grid.patch_hi) * grid.h
    window = np.ones_like(tang[0])
    for k in range(grid.dim - 1):
        window = window * np.sin(np.pi * np.clip((tang[k] - lo[k]) / (hi[k] - lo[k]), 0, 1))
    out = []
    for _ in range(count):
        c = lo + rng.uniform(0.25, 0.75, size=grid.dim - 1) * (hi - lo)
        wdt = rng.uniform(0.1, 0.3) * (hi - lo).min()
        r2 = sum((tang[k] - c[k]) ** 2 for k in range(grid.dim - 1))
        space = np.exp(-r2 / (2 * wdt ** 2)) * window
        space[~smask] = 0.0
        prof = np.sin(np.pi * rng.integers(1, 4) * grid.times / grid.T) ** 2
        prof[0] = prof[-1] = 0.0
        out.append(PatchField(prof, space, grid))
    return out


def l2_sigma(values: np.ndarray, grid: Grid) -> float:
    """L2(Sigma) of boundary-node values, (nt+1, ...) with every node after
    the time axis on dOmega."""
    # each boundary node carries a face-area weight; corner/edge nodes are
    # shared between faces, a second-order detail ignored by this stand-in
    wt = trapezoid_weights(grid.times.shape, grid.dt)
    per_level = (values ** 2).reshape(grid.nt + 1, -1).sum(axis=1) * grid.h ** (grid.dim - 1)
    return math.sqrt(float((per_level * wt).sum()))


def _boundary_norm(norm: BoundaryNorm, field: BoundaryField, weigh) -> float:
    """BoundaryNorm._norm of data on all of dOmega: in 2D the walk of the
    boundary nodes around the closed curve, in 3D the L2 sum over every
    boundary node (l2_sigma)."""
    grid = norm.grid
    if grid.dim != 2:
        return l2_sigma(field.values[:, ~interior_mask(grid)], grid)
    half = rfft(_closed_curve_samples(field.values, grid)[:-1], axis=0)
    p = np.abs(fft(half, axis=1)) ** 2 * norm.scale
    return math.sqrt(float(weigh(p, norm.weights).sum()))


def boundary_half(norm: BoundaryNorm, field: BoundaryField) -> float:
    """norm.half of data on all of dOmega."""
    return _boundary_norm(norm, field, lambda p, w: w * p)


def boundary_dual(norm: BoundaryNorm, field: BoundaryField) -> float:
    """norm.dual of data on all of dOmega."""
    return _boundary_norm(norm, field, lambda p, w: p / w)


# ---------------------------------------------------------------------------
# singular: dense Schur complement, boundary load norm, general quadratic
# form, bump, concentration defect, norm oracles


def schur_complement_dense(grid: Grid, A: MatrixField) -> np.ndarray:
    """The (|Gamma|, |Gamma|) Omega' Schur complement of
    singular._omega_prime_operator, assembled from dense Kronecker products
    of the per-axis identities, shifts and tangential sine rows."""
    h, N, pad = grid.h, grid.n_cells, grid.pad
    a = _diag_patch_first(grid, A)
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
    return S


def corrector_load_norm(grid: Grid, boundary_trace, A: MatrixField, op) -> np.ndarray:
    """|b| per member of a stack of corrector traces (shaped as the trace's
    leading axes), b the stencil -div(A grad .) of the boundary data alone
    (the trace on dOmega', zero elsewhere) on the Omega' interior, by the
    matrix-free residual of the corrector's check
    (singular._omega_prime_residual) applied to the boundary-only stack."""
    bvals = np.asarray(boundary_trace(op["coords"]), dtype=float)
    stack = bvals.reshape(-1, bvals.shape[-1])
    full = np.zeros((len(stack),) + op["boundary"].shape)
    full[(slice(None),) + op["bidx"]] = stack
    b = _omega_prime_residual(op, A, grid.h, full)
    return np.linalg.norm(b, axis=-1).reshape(bvals.shape[:-1])


def _general_quadratic_form(x, y, A: MatrixField):
    """(A^{-1} d, A^{-1} d . d) for d = x - y, by the explicit inverse."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    Ainv = np.linalg.inv(A.A)
    return d @ Ainv.T, np.einsum("...i,ij,...j->...", d, Ainv, d)


def fundamental_H_general(x, y, A: MatrixField):
    """H(x, y) through the general quadratic form (A^{-1}(x-y) . (x-y))."""
    _, q = _general_quadratic_form(x, y, A)
    if A.dim >= 3:
        return q ** ((2.0 - A.dim) / 2.0)
    return -0.5 * np.log(q)


def fundamental_grad_H_general(x, y, A: MatrixField):
    """grad H(., y) at x through the general quadratic form."""
    n = A.dim
    w, q = _general_quadratic_form(x, y, A)
    if n >= 3:
        return (2.0 - n) * q[..., None] ** (-n / 2.0) * w
    return -w / q[..., None]


def base_bump(shape: str = "symmetric"):
    """Smooth compactly supported bump on [-1, 1] with unit L2 norm."""
    c = _bump_normalization(shape)
    return lambda s: c * np.asarray(_raw_bump(s, shape))


def moment(cut: CutoffSet, f) -> float:
    """integral of phi_tau^2 * f over (0, T), by the trapezoid rule in
    s = a_tau (t - t0); f must accept an array of times."""
    s, w = _s_lattice()
    return float((w * cut._phi(s) ** 2 * f(cut.t0 + s / cut.a_tau)).sum())


def mollifier_gap(cut: CutoffSet, f) -> float:
    """|integral of phi_tau^2 f - f(t0)|, the concentration defect."""
    return abs(moment(cut, f) - f(cut.t0))


def grad_h_energy_fine(y, A: MatrixField, dim: int, N: int, chunk: int = 64) -> float:
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
        G = fundamental_grad_H(pts, y, A)
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


def l2_norms_H(y, A: MatrixField, dim: int, N: int):
    """(||H||_L2(Omega), ||grad H||_L2(Omega)) by fine trapezoid quadrature."""
    h = 1.0 / N
    ax = np.linspace(0.0, 1.0, N + 1)
    pts = np.stack(np.meshgrid(*([ax] * dim), indexing="ij"), axis=-1)
    H = fundamental_H(pts, y, A)
    G = fundamental_grad_H(pts, y, A)
    W = trapezoid_weights(H.shape, h)
    return (math.sqrt(float((H ** 2 * W).sum())),
            math.sqrt(float(((G ** 2).sum(axis=-1) * W).sum())))
