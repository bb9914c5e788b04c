import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.sparse.linalg import spsolve

from dnprobe.geometry import FACE_NAMES, build_grid, exterior_point
from dnprobe.material import make_matrix
from dnprobe.pde import stiffness
from dnprobe.singular import (SingularError, _omega_prime_operator, _omega_prime_residual,
                              a_tau_value, base_bump, build_basis, fundamental_H,
                              fundamental_dj_H, fundamental_grad_H, grad_H_energy,
                              h_norms_oracle, make_cutoffs, mollifier_gap,
                              solve_corrector)

A2 = make_matrix(np.eye(2))
A3 = make_matrix(np.eye(3))


# --- fundamental solution ---------------------------------------------------


def test_h_3d_reference_values():
    # |x - y| = 1 -> H = 1, |x - y| = 2 -> H = 0.5
    assert fundamental_H([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], A3) == pytest.approx(1.0)
    assert fundamental_H([2.0, 0.0, 0.0], [0.0, 0.0, 0.0], A3) == pytest.approx(0.5)


def test_h_2d_reference_value():
    # log kernel vanishes on the unit circle
    assert fundamental_H([1.0, 0.0], [0.0, 0.0], A2) == pytest.approx(0.0)
    assert fundamental_H([0.0, math.e], [0.0, 0.0], A2) == pytest.approx(-1.0)


def test_h_conv_scaling():
    x, y = [0.3, 0.2, 0.9], [0.0, -0.1, 0.0]
    assert fundamental_H(x, y, A3, conv=10.0) == pytest.approx(
        10.0 * fundamental_H(x, y, A3))


def test_h_pole_rejected():
    with pytest.raises(SingularError):
        fundamental_H([0.5, 0.5], [0.5, 0.5], A2)


def test_grad_h_matches_finite_differences():
    y = np.array([-0.2, 0.1, 0.0])
    x = np.array([0.4, 0.5, 0.3])
    Aan = make_matrix(np.diag([2.0, 1.0, 0.5]))
    g = fundamental_grad_H(x, y, Aan)
    eps = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = eps
        fd = (fundamental_H(x + e, y, Aan) - fundamental_H(x - e, y, Aan)) / (2 * eps)
        assert g[j] == pytest.approx(fd, rel=1e-6)
        assert fundamental_dj_H(x, y, Aan, j) == pytest.approx(g[j])


def _directional_laplacian(f, x, A, h=1e-4):
    # div(A grad f) for diagonal A by centered second differences
    tot = 0.0
    for j in range(len(x)):
        e = np.zeros(len(x))
        e[j] = h
        tot += A.A[j, j] * (f(x + e) - 2 * f(x) + f(x - e)) / h ** 2
    return tot


@pytest.mark.parametrize("diag", [[1.0, 1.0], [2.0, 0.5]])
def test_h_is_a_harmonic_2d(diag):
    # the A^{-1} quadratic form makes H an exact solution of div(A grad H)=0
    A = make_matrix(np.diag(diag))
    y = np.array([-0.3, 0.4])
    f = lambda x: fundamental_H(x, y, A)
    for x in ([0.2, 0.7], [0.9, 0.1], [0.5, 0.5]):
        assert abs(_directional_laplacian(f, np.array(x), A)) < 1e-5


def test_h_is_a_harmonic_3d_anisotropic():
    A = make_matrix(np.diag([1.5, 1.0, 0.7]))
    y = np.array([-0.2, 0.5, 0.5])
    f = lambda x: fundamental_H(x, y, A)
    assert abs(_directional_laplacian(f, np.array([0.4, 0.3, 0.6]), A)) < 1e-4


# --- corrector --------------------------------------------------------------


def test_corrector_reproduces_constants():
    g = build_grid(2, 1 / 16, 1 / 16, 1.0, pad=6)
    res = solve_corrector(g, lambda x: 3.0 + 0.0 * x[..., 0], A2)
    mask = g.omega_prime_mask()
    assert np.allclose(res["field"][mask], 3.0, atol=1e-10)


def test_corrector_reproduces_affine():
    g = build_grid(2, 1 / 16, 1 / 16, 1.0, pad=6)
    trace = lambda x: 0.7 * x[..., 0] - 1.2 * x[..., 1] + 0.3
    res = solve_corrector(g, trace, A2)
    mask = g.omega_prime_mask()
    coords = np.stack([ax[idx] for ax, idx in
                       zip([g.extended_axis_nodes(a) for a in range(2)],
                           np.indices(mask.shape))], axis=-1)
    assert np.allclose(res["field"][mask], trace(coords)[mask], atol=1e-9)


def test_corrector_matches_h_when_pole_is_deep():
    # with the pole far outside Omega', H is smooth there and the discrete
    # corrector must approximate it to second order
    errs = []
    for nh in (8, 16, 32):
        g = build_grid(2, 1 / nh, 1 / nh, 1.0, pad=max(4, nh // 4))
        y = np.array([-2.0, 0.5])
        res = solve_corrector(g, lambda x: fundamental_H(x, y, A2), A2)
        sl = g.omega_slice()
        coords = np.stack(g.node_coords(), axis=-1)
        errs.append(np.abs(res["field"][sl] - fundamental_H(coords, y, A2)).max())
    assert errs[2] < errs[0]
    order = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert order > 1.5


def test_corrector_rejects_nonfinite_trace():
    g = build_grid(2, 1 / 8, 1 / 8, 1.0, pad=4)
    with pytest.raises(SingularError):
        solve_corrector(g, lambda x: np.full(x.shape[:-1], np.nan), A2)


@st.composite
def _omega_prime_cases(draw):
    """A grid with any face and side, a node-aligned sub-face patch, pad >= 4,
    a random diagonal A and a seed for random Dirichlet data."""
    dim = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(4, 12 if dim == 2 else 8))
    face = draw(st.sampled_from([f for f, (axis, _) in FACE_NAMES.items() if axis < dim]))
    interval = []
    for _ in range(dim - 1):
        lo = draw(st.integers(1, N - 3))
        hi = draw(st.integers(lo + 2, N - 1))
        interval.append((lo / N, hi / N))
    grid = build_grid(dim, 1 / N, 1.0, 1.0, patch_face=face, patch_interval=interval,
                      pad=draw(st.integers(4, 9)))
    A = make_matrix(np.diag(draw(st.lists(st.floats(0.2, 5.0), min_size=dim, max_size=dim))))
    return grid, A, draw(st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None)
@given(case=_omega_prime_cases())
def test_corrector_matches_sparse_direct_solve_property(case):
    # the two-box interface solve against a sparse direct solve of the
    # assembled Omega' stencil, on rough random Dirichlet data
    g, A, seed = case
    rng = np.random.default_rng(seed)
    v = solve_corrector(g, lambda x: rng.standard_normal(x.shape[:-1]), A)["field"]
    interior = g.omega_prime_interior_mask()
    K, flat_int = stiffness(interior, A.A, g.h)
    trace = np.where(g.omega_prime_mask() & ~interior, v, 0.0)
    ref = spsolve(K[:, flat_int].tocsc(), -(K @ trace.ravel()))
    assert np.abs(v.ravel()[flat_int] - ref).max() <= 1e-12 * np.abs(v).max()
    assert not v[~g.omega_prime_mask()].any()


@settings(max_examples=40, deadline=None)
@given(case=_omega_prime_cases())
def test_omega_prime_residual_matches_the_assembled_stiffness_property(case):
    # the matrix-free stencil of the residual check against K of stiffness()
    # on the Omega' interior mask, on rough random node values
    g, A, seed = case
    op = _omega_prime_operator(g, A)
    full = np.random.default_rng(seed).standard_normal(op["boundary"].shape)
    K, _ = stiffness(g.omega_prime_interior_mask(), A.A, g.h)
    ref = K @ full.ravel()
    got = _omega_prime_residual(op, A, g.h, full)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("dim", [2, 3])
def test_corrupted_interface_fails_the_residual_check(dim):
    # an interface solve that is off by 1e-6 relative must not pass: the
    # residual check is what catches it
    g = build_grid(dim, 1 / 8, 1 / 8, 1.0, pad=4)
    A = make_matrix(np.diag([1.0, 0.6, 1.4][:dim]))
    y = np.r_[-2.0, [0.5] * (dim - 1)]
    trace = lambda x: fundamental_H(x, y, A)
    op = _omega_prime_operator(g, A)
    solve_corrector(g, trace, A, op=op)
    bad = dict(op, schur=op["schur"] * (1.0 + 1e-6))
    with pytest.raises(SingularError, match="^corrector linear solve did not converge$"):
        solve_corrector(g, trace, A, op=bad)


# --- cutoffs ----------------------------------------------------------------


def test_bump_is_l2_normalized():
    for shape in ("symmetric", "skewed"):
        phi = base_bump(shape)
        val, _ = integrate.quad(lambda s: phi(s) ** 2, -1, 1, epsabs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert phi(1.0) == 0.0 and phi(-1.0) == 0.0
        assert phi(2.5) == 0.0


def test_a_tau_reference_values():
    assert a_tau_value(math.exp(-1.0), "gamma") == pytest.approx(1.0)
    assert a_tau_value(1.0 / 16.0, "rho", r=0.25) == pytest.approx(2.0)
    assert a_tau_value(0.01, "gamma", r=0.5, a_rule="power") == pytest.approx(10.0)


def test_a_tau_rejects_bad_rule():
    with pytest.raises(SingularError):
        a_tau_value(0.1, "gamma", a_rule="cubic")


def test_phi_tau_is_l2_normalized_in_time():
    g = build_grid(2, 1 / 16, 1 / 256, 1.0)
    cut = make_cutoffs(0.5, 0.05, "gamma", g, a_rule="power", r=0.5)
    val, _ = integrate.quad(lambda t: cut.phi_tau(t) ** 2,
                            cut.t0 - 1 / cut.a_tau, cut.t0 + 1 / cut.a_tau,
                            epsabs=1e-12)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_gamma_cutoffs_have_trivial_plateau():
    g = build_grid(2, 1 / 16, 1 / 16, 1.0)
    cut = make_cutoffs(0.5, 0.05, "gamma", g, a_rule="power", r=0.5)
    t = np.linspace(0, 1, 50)
    assert np.all(cut.chi(t) == 1.0)


def test_cutoff_support_overflow_rejected():
    g = build_grid(2, 1 / 16, 1 / 16, 1.0)
    # near-critical tau on the weak log rule: support wider than (0, T)
    with pytest.raises(SingularError):
        make_cutoffs(0.5, 0.6, "gamma", g)


def test_rho_cutoffs_need_tau0():
    g = build_grid(3, 1 / 8, 1 / 16, 2.5)
    with pytest.raises(SingularError):
        make_cutoffs(1.25, 0.05, "rho", g)


def test_rho_product_rule_identity():
    # the rho probe's time profile chi * Phi_tau differentiates to phi_tau
    # wherever the plateau cutoff chi is 1
    g = build_grid(3, 1 / 8, 1 / 16, 2.5)
    cut = make_cutoffs(1.25, 0.05, "rho", g, tau0=0.2)
    t = np.linspace(0.3, 2.2, 1201)
    eps = 1e-6
    plateau = (cut.chi(t - eps) == 1.0) & (cut.chi(t + eps) == 1.0)
    # the plateau covers supp(phi_tau) and reaches past it on both sides
    assert plateau.sum() > 100
    assert np.all(cut.phi_tau(t[~plateau]) == 0.0)
    prod = lambda x: cut.chi(x) * cut.Phi_tau(x)
    lhs = (prod(t + eps) - prod(t - eps)) / (2 * eps)
    assert np.abs(lhs - cut.phi_tau(t))[plateau].max() < 1e-3


def test_rho_tail_fields_vanish_at_endpoints():
    g = build_grid(3, 1 / 8, 1 / 16, 2.5)
    cut = make_cutoffs(1.25, 0.05, "rho", g, tau0=0.2)
    assert cut.chi(0.0) == 0.0 and cut.chi(2.5) == 0.0
    # plateau covers the bump support
    assert cut.chi(cut.t0) == pytest.approx(1.0)
    assert cut.chi(cut.t0 + cut.tau ** cut.r) == pytest.approx(1.0)


def test_mollifier_gap_concentrates():
    g = build_grid(2, 1 / 16, 1 / 1024, 1.0)
    f = lambda t: 2.0 + np.sin(2 * np.pi * t)
    gaps = [mollifier_gap(make_cutoffs(0.3, tau, "gamma", g,
                                       a_rule="power", r=0.5), f)
            for tau in (0.02, 0.01, 0.005)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_cutoffs_are_equal_hashable_values():
    g = build_grid(3, 1 / 8, 1 / 16, 2.5)
    for kind, tau0 in (("gamma", None), ("rho", 0.2)):
        a = make_cutoffs(1.25, 0.05, kind, g, tau0=tau0, shape="skewed")
        b = make_cutoffs(1.25, 0.05, kind, g, tau0=tau0, shape="skewed")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    assert make_cutoffs(1.25, 0.05, "gamma", g) != make_cutoffs(1.25, 0.04, "gamma", g)


@pytest.mark.parametrize("shape", ["symmetric", "skewed"])
@pytest.mark.parametrize("kind", ["gamma", "rho"])
def test_moment_matches_adaptive_quadrature(kind, shape):
    g = build_grid(3, 1 / 8, 1 / 16, 2.5)
    for f in (lambda t: 2.0 + np.sin(2 * np.pi * t), np.exp):
        for tau in (0.05, 0.01):
            cut = make_cutoffs(1.25, tau, kind, g, tau0=0.2, shape=shape,
                               a_rule="power", r=0.5)
            oracle, _ = integrate.quad(lambda t: cut.phi_tau(t) ** 2 * f(t),
                                       cut.t0 - 1 / cut.a_tau, cut.t0 + 1 / cut.a_tau,
                                       epsabs=1e-13, epsrel=1e-13, limit=200)
            assert cut.moment(f) == pytest.approx(oracle, rel=0, abs=1e-12)


# --- basis + energies -------------------------------------------------------


def _basis(grid, tau, A, kind="gamma"):
    x0 = [0.5] * grid.dim
    x0[grid.patch_axis] = grid.patch_face_value()
    geom = exterior_point(grid, tuple(x0), tau, t0=0.5)
    return build_basis(grid, geom, A, kind=kind)


def test_probe_trace_vanishes_off_patch():
    g = build_grid(2, 1 / 32, 1 / 32, 1.0, patch_interval=[(0.25, 0.75)], pad=10)
    basis = _basis(g, 0.1, A2)
    diff = basis.H_omega - basis.v_omega
    # every boundary node of the unit box outside the open patch is exact 0
    bmask = np.zeros(g.shape, dtype=bool)
    for a in range(2):
        bmask[(slice(None),) * a + (0,)] = True
        bmask[(slice(None),) * a + (-1,)] = True
    patch = np.zeros(g.shape, dtype=bool)
    patch[0, g.patch_lo[0]:g.patch_hi[0] + 1] = True
    assert np.abs(diff[bmask & ~patch]).max() < 1e-9
    # and the probe is not trivial on the patch
    assert np.abs(diff[patch]).max() > 1e-3


def test_rho_basis_requires_3d_identity():
    g2 = build_grid(2, 1 / 16, 1 / 16, 1.0)
    with pytest.raises(SingularError):
        _basis(g2, 0.15, A2, kind="rho")
    g3 = build_grid(3, 1 / 8, 1 / 8, 1.0, pad=6)
    with pytest.raises(SingularError):
        _basis(g3, 0.3, make_matrix(np.diag([2.0, 1.0, 1.0])), kind="rho")


def test_rho_basis_carries_derivative_fields():
    g = build_grid(3, 1 / 8, 1 / 8, 1.0, pad=6)
    basis = _basis(g, 0.3, A3, kind="rho")
    assert len(basis.djH_omega) == 3 and len(basis.vj_omega) == 3
    for j in range(3):
        assert basis.djH_omega[j].shape == g.shape


def test_h_norms_oracle_matches_grid_quadrature():
    # moderate tau, coarse brute-force check of the tan-substituted oracle
    from dnprobe.singular import grad_h_energy_fine, l2_norms_H
    tau = 0.25
    y = np.array([-tau, 0.5, 0.5])  # the oracle pins the pole at a face center
    ora = h_norms_oracle(tau, 3)
    l2, _ = l2_norms_H(y, A3, 3, 96)
    en = grad_h_energy_fine(y, A3, 3, 96)
    assert ora["l2_H_sq"] == pytest.approx(l2 ** 2, rel=0.02)
    assert ora["energy"] == pytest.approx(en, rel=0.05)


def test_grid_energy_tracks_oracle():
    g = build_grid(2, 1 / 32, 1 / 32, 1.0, pad=16)
    basis = _basis(g, 0.2, A2)
    en = grad_H_energy(basis, g)
    ora = h_norms_oracle(0.2, 2)["energy"]
    assert en == pytest.approx(ora, rel=0.05)
