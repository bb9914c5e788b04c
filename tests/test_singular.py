import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.sparse.linalg import spsolve

import dnprobe.singular as singular
from dnprobe.geometry import FACE_NAMES, build_grid, exterior_point
from dnprobe.material import MatrixField, make_matrix
from dnprobe.reconstruct import ProbeSpec, check_probes
from dnprobe.singular import (SingularError, _omega_prime_operator, _omega_prime_residual,
                              a_tau_value, build_basis, fundamental_H,
                              fundamental_grad_H, grad_H_energy, make_cutoffs,
                              solve_corrector)
from reference import (base_bump, corrector_load_norm, fundamental_grad_H_general,
                       fundamental_H_general, grad_h_energy_fine, h_norms_oracle, l2_norms_H,
                       mollifier_gap, moment, schur_complement_dense, stiffness)

A2 = make_matrix(np.eye(2))
A3 = make_matrix(np.eye(3))


def fundamental_dj_H(x, y, A: MatrixField, j: int):
    return fundamental_grad_H(x, y, A)[..., j]


# --- fundamental solution ---------------------------------------------------


def test_h_3d_reference_values():
    # |x - y| = 1 -> H = 1, |x - y| = 2 -> H = 0.5
    assert fundamental_H([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], A3) == pytest.approx(1.0)
    assert fundamental_H([2.0, 0.0, 0.0], [0.0, 0.0, 0.0], A3) == pytest.approx(0.5)


def test_h_2d_reference_value():
    # log kernel vanishes on the unit circle
    assert fundamental_H([1.0, 0.0], [0.0, 0.0], A2) == pytest.approx(0.0)
    assert fundamental_H([0.0, math.e], [0.0, 0.0], A2) == pytest.approx(-1.0)


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


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3]), diag=st.lists(st.floats(0.2, 5.0), min_size=3, max_size=3),
       pole=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       dist=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 16))
def test_h_and_grad_h_match_the_general_quadratic_form_property(dim, diag, pole, dist, seed):
    # the diagonal-A evaluation against A^{-1} by an explicit inverse and the
    # quadratic form by einsum, relative to the peak over points in the box
    A = make_matrix(np.diag(diag[:dim]))
    y = np.array(pole[:dim])
    y[0] = -dist  # outside the unit box, across its left face
    x = np.random.default_rng(seed).random((40, dim))
    for got, ref in ((fundamental_H(x, y, A), fundamental_H_general(x, y, A)),
                     (fundamental_grad_H(x, y, A), fundamental_grad_H_general(x, y, A))):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


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


@settings(max_examples=40, deadline=None)
@given(case=_omega_prime_cases())
@example(case=(build_grid(3, 1 / 8, 1.0, 1.0, patch_interval=[(0.25, 0.75), (0.125, 0.5)],
                          pad=5), make_matrix(np.diag([1.0, 0.6, 1.4])), 0))
def test_schur_complement_matches_the_dense_kronecker_assembly_property(case):
    # S assembled by index and by per-axis contractions against S from
    # dense Kronecker products; every drawn patch is narrower than the face,
    # so the slab's tangential sine basis differs from the box's
    g, A, _ = case
    S = _omega_prime_operator(g, A)["schur"]
    ref = schur_complement_dense(g, A)
    assert S.shape == ref.shape
    assert np.abs(S - ref).max() <= 1e-13 * np.abs(ref).max()


@settings(max_examples=40, deadline=None)
@given(case=_omega_prime_cases(), members=st.integers(1, 3))
@example(case=(build_grid(3, 1 / 8, 1.0, 1.0, patch_interval=[(0.25, 0.75), (0.125, 0.5)],
                          pad=5), make_matrix(np.diag([1.0, 0.6, 1.4])), 0), members=2)
@example(case=(build_grid(2, 1 / 8, 1.0, 1.0, patch_interval=[(0.375, 0.625)], pad=4),
               make_matrix(np.diag([2.0, 0.5])), 1), members=1)
def test_load_norm_is_the_boundary_stencil_norm_property(case, members):
    # the scale of the residual check, |b| from the Gamma rows and the box
    # loads, against the stencil of the boundary-only stack on the Omega'
    # interior, on rough random data of 1..3 members
    g, A, seed = case
    op = _omega_prime_operator(g, A)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((members, len(op["coords"])))
    trace = lambda x: data[0] if members == 1 else data
    got = solve_corrector(g, trace, A, op=op)["load_norm"]
    ref = corrector_load_norm(g, trace, A, op)
    assert got.shape == ref.shape == (() if members == 1 else (members,))
    assert np.abs(got - ref).max() <= 1e-13 * ref.max()


@pytest.mark.parametrize("dim", [2, 3])
def test_corrupted_interface_fails_the_residual_check(dim):
    # an interface solve that is off by 1e-6 relative must not pass: the
    # residual check is what catches it.  The operator stores S itself, so
    # scaling it scales the interface solution by 1 / (1 + 1e-6)
    g = build_grid(dim, 1 / 8, 1 / 8, 1.0, pad=4)
    A = make_matrix(np.diag([1.0, 0.6, 1.4][:dim]))
    y = np.r_[-2.0, [0.5] * (dim - 1)]
    trace = lambda x: fundamental_H(x, y, A)
    op = _omega_prime_operator(g, A)
    solve_corrector(g, trace, A, op=op)
    bad = dict(op, schur=op["schur"] * (1.0 + 1e-6))
    with pytest.raises(SingularError, match="^corrector linear solve did not converge$"):
        solve_corrector(g, trace, A, op=bad)
    # a stack with a zero member, which the corrupted solve still gets right
    stacked = lambda x: np.stack([0.0 * x[..., 0], trace(x)])
    solve_corrector(g, stacked, A, op=op)
    with pytest.raises(SingularError, match="^corrector linear solve did not converge$"):
        solve_corrector(g, stacked, A, op=bad)


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_corrector_equals_the_one_trace_solves(dim):
    # K traces in one call give the K one-trace solves, member by member
    g = build_grid(dim, 1 / 8, 1 / 8, 1.0, pad=4)
    A = make_matrix(np.diag([1.0, 0.6, 1.4][:dim]))
    y = np.r_[-2.0, [0.5] * (dim - 1)]
    traces = [lambda x: fundamental_H(x, y, A), lambda x: np.sin(3.0 * x.sum(axis=-1))]
    traces += [lambda x, j=j: fundamental_dj_H(x, y, A, j) for j in range(dim)]
    op = _omega_prime_operator(g, A)
    stacked = solve_corrector(g, lambda x: np.stack([t(x) for t in traces]), A, op=op)["field"]
    assert stacked.shape == (len(traces),) + op["boundary"].shape
    for trace, v in zip(traces, stacked):
        one = solve_corrector(g, trace, A, op=op)["field"]
        assert one.shape == op["boundary"].shape
        assert np.abs(v - one).max() <= 1e-14 * np.abs(one).max()


@pytest.mark.parametrize("grid, taus", [
    (build_grid(3, 1 / 16, 1 / 16, 2.5, pad=8), [0.2, 0.175, 0.15, 0.125]),
    (build_grid(3, 1 / 16, 1 / 16, 1.0, patch_face="right",
                patch_interval=[(0.125, 0.875), (0.25, 0.875)], pad=10), [0.2, 0.15]),
], ids=["rho3d", "right-face-patch"])
def test_derivative_correctors_do_not_depend_on_the_h_members(grid, taus):
    # the derivative members of a sweep's stack [H, d1 H, d2 H, d3 H per
    # probe] equal those of [d1 H, d2 H, d3 H per probe] bit for bit, so a
    # rho probe need not solve the corrector of H
    x0 = [0.5] * 3
    x0[grid.patch_axis] = grid.patch_face_value()
    ys = [exterior_point(grid, tuple(x0), tau).y_tau for tau in taus]
    op = _omega_prime_operator(grid, A3)

    def members(x, with_h):
        out = []
        for y in ys:
            out += [fundamental_H(x, y, A3)] if with_h else []
            out += list(np.moveaxis(fundamental_grad_H(x, y, A3), -1, 0))
        return np.stack(out)

    full = solve_corrector(grid, lambda x: members(x, True), A3, op=op)
    derivs = solve_corrector(grid, lambda x: members(x, False), A3, op=op)
    keep = [k for k in range(4 * len(ys)) if k % 4]
    assert np.array_equal(full["field"][keep], derivs["field"])
    assert np.array_equal(full["load_norm"][keep], derivs["load_norm"])


def test_stacked_corrector_rejects_one_nonfinite_member():
    g = build_grid(2, 1 / 8, 1 / 8, 1.0, pad=4)

    def trace(x):
        vals = np.stack([x[..., 0], x[..., 1], 1.0 + 0.0 * x[..., 0]])
        vals[1, 3] = np.nan
        return vals

    with pytest.raises(SingularError, match="not finite"):
        solve_corrector(g, trace, A2)


# --- cutoffs ----------------------------------------------------------------


def test_bump_is_l2_normalized():
    for shape in ("symmetric", "skewed"):
        phi = base_bump(shape)
        val, _ = integrate.quad(lambda s: phi(s) ** 2, -1, 1, epsabs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert phi(1.0) == 0.0 and phi(-1.0) == 0.0
        assert phi(2.5) == 0.0


def test_bump_constant_is_the_lattice_quadrature_and_refuses_unknown_shapes():
    # the constant formed at import is, bit for bit, the trapezoid rule on
    # the s-lattice; an unknown shape is refused by name
    g = build_grid(2, 1 / 16, 1 / 16, 1.0)
    s, w = singular._s_lattice()
    for shape in singular.BUMP_SKEW:
        quad = 1.0 / math.sqrt(float((w * singular._raw_bump(s, shape) ** 2).sum()))
        assert make_cutoffs(0.5, 0.2, "gamma", g, r=0.5, shape=shape, a_rule="power").norm == quad
    with pytest.raises(SingularError, match="unknown bump shape 'flat'"):
        make_cutoffs(0.5, 0.2, "gamma", g, r=0.5, shape="flat", a_rule="power")


def test_a_tau_reference_values():
    assert a_tau_value(math.exp(-1.0), "gamma") == pytest.approx(1.0)
    assert a_tau_value(1.0 / 16.0, "rho", r=0.25) == pytest.approx(2.0)
    assert a_tau_value(0.01, "gamma", r=0.5, a_rule="power") == pytest.approx(10.0)


def test_a_tau_rejects_bad_rule():
    with pytest.raises(SingularError):
        a_tau_value(0.1, "gamma", a_rule="cubic")


@pytest.mark.parametrize("kind, a_rule", [("gamma", "power"), ("rho", None)])
@pytest.mark.parametrize("r", [0.0, -0.1])
def test_a_tau_power_needs_positive_r(kind, a_rule, r):
    # a_tau = tau^-r with r <= 0: the window 1/a_tau does not shrink as tau
    # falls, or it widens
    with pytest.raises(SingularError, match=f"a_tau_power fails: .* r > 0, r = {r:g}$"):
        a_tau_value(0.1, kind, r=r, a_rule=a_rule)


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
            assert moment(cut, f) == pytest.approx(oracle, rel=0, abs=1e-12)


# --- basis + energies -------------------------------------------------------


def _basis(grid, tau, A, kind="gamma"):
    x0 = [0.5] * grid.dim
    x0[grid.patch_axis] = grid.patch_face_value()
    geom = exterior_point(grid, tuple(x0), tau)
    return build_basis(grid, [geom], A, kind=kind)[0]


def test_probe_trace_vanishes_off_patch():
    g = build_grid(2, 1 / 32, 1 / 32, 1.0, patch_interval=[(0.25, 0.75)], pad=10)
    basis = _basis(g, 0.1, A2)
    [diff] = basis.members  # H - v
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


def test_rho_basis_requires_3d_identity(monkeypatch):
    # each check by its name where rho probes are checked, before any
    # corrector solve
    solved = []
    monkeypatch.setattr(singular, "solve_corrector", lambda *args: solved.append(args))
    g2 = build_grid(2, 1 / 16, 1 / 16, 1.0)
    with pytest.raises(SingularError, match="rho_dim"):
        check_probes(g2, A2, [ProbeSpec(x0=(0.0, 0.5), t0=0.5, tau=0.15, kind="rho")], [],
                     lam=0.0)
    g3 = build_grid(3, 1 / 8, 1 / 8, 1.0, pad=6)
    with pytest.raises(SingularError, match="rho_identity_A"):
        check_probes(g3, make_matrix(np.diag([2.0, 1.0, 1.0])),
                     [ProbeSpec(x0=(0.0, 0.5, 0.5), t0=0.5, tau=0.3, kind="rho")], [], lam=0.0)
    assert solved == []


def test_rho_basis_carries_derivative_fields():
    g = build_grid(3, 1 / 8, 1 / 8, 1.0, pad=6)
    basis = _basis(g, 0.3, A3, kind="rho")
    assert len(basis.members) == 3  # the data read d_j H - v_j only
    for j in range(3):
        assert basis.members[j].shape == g.shape


def test_h_norms_oracle_matches_grid_quadrature():
    # moderate tau, coarse brute-force check of the tan-substituted oracle
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
