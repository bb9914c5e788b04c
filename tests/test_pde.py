import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.fft import dstn, idstn
from scipy.sparse import identity
from scipy.sparse.linalg import splu, spsolve

from dnprobe import pde
from dnprobe.dnmap import level_flux, nonlinear_flux
from dnprobe.geometry import build_grid
from dnprobe.material import Coefficient, make_law, make_matrix, perturb_law
from dnprobe.pde import (BoundaryField, PatchField, PDEError, box_spectrum,
                         dirichlet_solve, dst1, interior_mask, mms_problem,
                         probe_boundary_field, sine_basis, solve_forward,
                         solve_linearized)
from reference import (boundary_field_from_callable, boundary_from_face, check_vanishes_at_end,
                       constant_stiffness, lambda_difference_flux, solve_adjoint, stiffness,
                       values_on_support)
from test_material import _library_laws

A2 = make_matrix(np.eye(2))

# each example solves a reference (full-field, or one datum at a time), so
# a failure is reported as found: shrinking it would take minutes and
# hundreds of MiB
_NO_SHRINK = [p for p in Phase if p is not Phase.shrink]


def _datum(t, x):
    return np.sin(np.pi * t) * np.sin(np.pi * x[..., 1]) * np.exp(-x[..., 0])


def _on_face(grid, fn):
    """fn(X) sampled on the patch face, zero off S."""
    face = grid.face_node_selector(grid.patch_axis, grid.patch_side)
    return fn(np.stack(grid.node_coords(), axis=-1)[face]) * grid.patch_support_mask()


def test_boundary_field_rejects_interior_values():
    g = build_grid(2, 1 / 8, 1 / 8, 1.0)
    vals = np.zeros((g.nt + 1,) + g.shape)
    vals[2, 3, 3] = 1.0  # interior node
    with pytest.raises(PDEError):
        BoundaryField(values=vals, grid=g)


def test_compatibility_guard():
    g = build_grid(2, 1 / 8, 1 / 8, 1.0)
    gb = boundary_field_from_callable(g, lambda t, x: 1.0 + 0.0 * x[..., 0])
    with pytest.raises(PDEError, match="t=0"):
        gb.check_compatible()
    with pytest.raises(PDEError, match="t=T"):
        check_vanishes_at_end(gb)
    gb2 = boundary_field_from_callable(g, _datum)
    gb2.check_compatible()  # sin(pi t) vanishes at t=0
    check_vanishes_at_end(gb2)  # and at t=T


def test_probe_boundary_field_leak_guard():
    g = build_grid(2, 1 / 16, 1 / 16, 1.0, patch_interval=[(0.25, 0.75)])
    spatial = np.zeros(g.shape)
    spatial[0, :] = 1.0  # supported on the whole left face, leaks off S
    with pytest.raises(PDEError):
        probe_boundary_field(g, np.sin(np.pi * g.times), spatial)


def test_probe_boundary_field_ok_on_patch():
    g = build_grid(2, 1 / 16, 1 / 16, 1.0, patch_interval=[(0.25, 0.75)])
    spatial = np.zeros(g.shape)
    spatial[0, g.patch_lo[0] + 1:g.patch_hi[0]] = 1.0
    gb = probe_boundary_field(g, np.sin(np.pi * g.times), spatial)
    assert gb.values.shape == (g.nt + 1, g.n_cells + 1)
    assert np.array_equal(gb.values, np.sin(np.pi * g.times)[:, None] * spatial[0])
    full = boundary_from_face(gb.values, g).values
    assert np.array_equal(full[:, 0], gb.values)
    assert not full[:, 1:].any()


@pytest.mark.parametrize("dim", [2, 3])
def test_patch_field_is_its_profile_times_its_face(dim):
    # the one form of patch data: a factor of another shape is refused,
    # face values off S are dropped, and values is the product of the two
    g = build_grid(dim, 1 / 8, 1 / 8, 1.0, patch_interval=[(0.25, 0.75)] * (dim - 1))
    support = g.patch_support_mask()
    rng = np.random.default_rng(dim)
    profile = np.sin(2.0 * np.pi * g.times)  # of both signs
    face = rng.standard_normal(support.shape)  # nonzero off S too
    datum = PatchField(profile, face, g)
    assert np.array_equal(datum.face, np.where(support, face, 0.0))
    assert datum.values.shape == (g.nt + 1,) + support.shape
    assert not datum.values[:, ~support].any()
    assert datum.values[:, support].tobytes() == \
        np.multiply.outer(profile, face[support]).tobytes()
    for bad_profile, bad_face, what in ((profile[1:], face, "profile"),
                                        (np.outer(profile, face), face, "profile"),
                                        (profile, face[1:], "face"),
                                        (profile, np.zeros(g.shape), "face")):
        with pytest.raises(PDEError, match=f"patch {what} needs shape"):
            PatchField(bad_profile, bad_face, g)


def test_patch_field_rejects_values_off_s():
    # S is node-closed: face values on its end nodes are kept, and a value
    # one node off S, however small, never reaches the datum's values
    g = build_grid(2, 1 / 8, 1 / 8, 1.0, patch_interval=[(0.25, 0.75)])
    lo, hi = g.patch_lo[0], g.patch_hi[0]
    face = np.zeros(g.n_cells + 1)
    face[lo:hi + 1] = 1.0
    profile = np.zeros(g.nt + 1)
    profile[3] = 1.0
    on_s = PatchField(profile, face, g)
    assert np.array_equal(on_s.face, face)
    face[lo - 1] = face[hi + 1] = 1e-300
    datum = PatchField(profile, face, g)
    assert datum.values.tobytes() == on_s.values.tobytes()
    assert datum.face[lo - 1] == 0.0 and datum.face[hi + 1] == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_patch_field_holds_no_product(dim):
    # a datum keeps its two factors: numpy reports its buffers to
    # tracemalloc, and making one leaves less than one (nt+1, *face_shape)
    # array alive, nor does any attribute of it have that shape
    g = build_grid(dim, 1 / 8, 1 / 16, 2.0)
    support = g.patch_support_mask()
    profile = np.sin(np.pi * g.times)
    face = np.random.default_rng(dim).standard_normal(support.shape)
    product = (g.nt + 1,) + support.shape
    tracemalloc.start()
    try:
        datum = PatchField(profile, face, g)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < math.prod(product) * 8
    assert all(np.shape(v) != product for v in vars(datum).values())
    assert datum.values.shape == product


_LEVEL = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2.0, 2.0))


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), lam=st.sampled_from([0.0, 0.3, -0.7]))
def test_dirichlet_level_writes_lam_plus_the_values_bytes_property(dim, data, lam):
    # lam + profile[m] * face on the patch face, byte for byte
    # np.add(lam, values[m]) of the values formed on S only: +0.0 off S,
    # and the signed zeros of a profile level of either sign times an
    # exact zero of the face on S
    g = build_grid(dim, 1 / 8, 1 / 8, 1.0)
    support = g.patch_support_mask()
    profile = np.array(data.draw(st.lists(_LEVEL, min_size=g.nt + 1, max_size=g.nt + 1)))
    face = np.array(data.draw(st.lists(_LEVEL, min_size=support.size,
                                       max_size=support.size))).reshape(support.shape)
    face[g.patch_lo] = 0.0
    on_face = g.face_node_selector(g.patch_axis, g.patch_side)
    for sign in (1.0, -1.0):
        datum = PatchField(sign * profile, face, g)
        old = values_on_support(datum)
        for m in range(g.nt + 1):
            out = np.full(g.shape, lam)
            datum.dirichlet_level(m, lam, out)
            assert out[on_face].tobytes() == np.add(lam, old[m]).tobytes()
        assert datum.values.tobytes() == old.tobytes()


def test_forward_constant_data_is_steady():
    # zero boundary datum keeps the solution at the background for all time
    g = build_grid(2, 1 / 8, 1 / 8, 1.0)
    law = make_law(gamma=("poly_s", {"c0": 1.0, "c2": 1.0}),
                   rho=("poly_s", {"c0": 2.0, "c1": 0.5}))
    gb = boundary_field_from_callable(g, lambda t, x: 0.0 * x[..., 0])
    u = solve_forward(law, A2, g, 0.7, gb)
    assert np.abs(u.values - 0.7).max() < 1e-12


def test_forward_reduces_to_linear_for_constant_coefficients():
    g = build_grid(2, 1 / 8, 1 / 16, 1.0)
    law = make_law(gamma=("constant", {"c0": 2.0}), rho=("constant", {"c0": 1.5}))
    gb = boundary_field_from_callable(g, _datum)
    u = solve_forward(law, A2, g, 0.0, gb)
    w = solve_linearized(law, A2, g, 0.0, gb)
    assert np.abs(u.values - w.values).max() < 1e-9


def test_linearized_superposition():
    g = build_grid(2, 1 / 8, 1 / 16, 1.0)
    law = make_law(gamma=("trig_t", {"c0": 2.0, "c1": 0.5}),
                   rho=("trig_t", {"c0": 1.5, "c1": 0.3, "phase": 0.7}))
    g1 = boundary_field_from_callable(g, _datum)
    g2 = boundary_field_from_callable(
        g, lambda t, x: np.sin(2 * np.pi * t) * x[..., 1] * (1 - x[..., 1]))
    gs = BoundaryField(values=2.0 * g1.values + 3.0 * g2.values, grid=g)
    w1 = solve_linearized(law, A2, g, 0.2, g1)
    w2 = solve_linearized(law, A2, g, 0.2, g2)
    ws = solve_linearized(law, A2, g, 0.2, gs)
    assert np.abs(ws.values - 2 * w1.values - 3 * w2.values).max() < 1e-11


def test_linearized_independent_of_boundary_scale():
    # the frozen-coefficient solve is exactly linear, unlike the forward one
    g = build_grid(2, 1 / 8, 1 / 8, 1.0)
    law = make_law(gamma=("poly_s", {"c0": 1.0, "c2": 1.0}))
    gb = boundary_field_from_callable(g, _datum)
    small = BoundaryField(values=1e-6 * gb.values, grid=g)
    w = solve_linearized(law, A2, g, 0.5, gb)
    ws = solve_linearized(law, A2, g, 0.5, small)
    assert np.abs(ws.values - 1e-6 * w.values).max() < 1e-18


def test_adjoint_is_time_reversed_forward_for_constant_coefficients():
    g = build_grid(2, 1 / 8, 1 / 16, 1.0)
    law = make_law(gamma=("constant", {"c0": 1.3}), rho=("constant", {"c0": 0.9}))
    gb = boundary_field_from_callable(g, _datum)
    w = solve_linearized(law, A2, g, 0.0, gb)
    rev = BoundaryField(values=gb.values[::-1].copy(), grid=g)
    wbar = solve_adjoint(law, A2, g, 0.0, rev)
    assert np.abs(wbar.values - w.values[::-1]).max() < 1e-11


def test_adjoint_requires_terminal_zero():
    g = build_grid(2, 1 / 8, 1 / 8, 1.0)
    gb = boundary_field_from_callable(g, lambda t, x: t * x[..., 1] * 0 + t)
    with pytest.raises(PDEError):
        solve_adjoint(make_law(), A2, g, 0.0, gb)


def test_newton_divergence_reported():
    # gamma = 0.05 + s^2 loses ellipticity under a large excursion from the
    # background and the Newton loop must fail loudly, not return garbage
    g = build_grid(2, 1 / 8, 1 / 8, 1.0)
    law = make_law(gamma=("poly_s", {"c0": 0.05, "c2": 1.0}), m_floor=1e-4)
    gb = boundary_field_from_callable(
        g, lambda t, x: 50.0 * np.sin(np.pi * t) * np.sin(np.pi * x[..., 1]))
    with pytest.raises(PDEError, match="smallness radius"):
        solve_forward(law, A2, g, 0.0, gb, newton_cap=12)


def _mms_linear_time(grid, law, A, lam):
    # exact field linear in t: implicit Euler is exact in time, so the
    # remaining error is purely spatial
    exact = lambda t, x: lam + 0.2 * t * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    exact_dt = lambda t, x: 0.2 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    exact_grad = lambda t, x: [
        0.2 * t * np.pi * np.cos(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
        0.2 * t * np.pi * np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])]

    def exact_d2(t, x):
        pp = 0.2 * t * np.pi ** 2
        return [-pp * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])] * 2

    return mms_problem(grid, law, A, lam, exact, exact_dt, exact_grad, exact_d2)


def test_mms_spatial_order_two():
    law = make_law(gamma=("poly_s", {"c0": 1.0, "c1": 0.3}),
                   rho=("affine_t", {"c0": 1.0, "c1": 0.2}))
    errs = []
    for nh in (8, 16, 32):
        g = build_grid(2, 1 / nh, 1 / 16, 1.0)
        gb, src, ex = _mms_linear_time(g, law, A2, 0.1)
        u = solve_forward(law, A2, g, 0.1, gb, source=src)
        errs.append(np.abs(u.values - ex).max())
    order = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert order > 1.9


def test_mms_temporal_order_one():
    # affine-in-x exact field: spatial stencils are exact, pure O(dt) left
    law = make_law(gamma=("poly_s", {"c0": 1.0, "c1": 0.3}),
                   rho=("poly_s", {"c0": 1.0, "c1": 0.2}))
    exact = lambda t, x: np.sin(0.9 * t) * (x[..., 0] + x[..., 1])
    exact_dt = lambda t, x: 0.9 * np.cos(0.9 * t) * (x[..., 0] + x[..., 1])
    exact_grad = lambda t, x: [np.sin(0.9 * t) + 0.0 * x[..., 0],
                               np.sin(0.9 * t) + 0.0 * x[..., 0]]
    exact_d2 = lambda t, x: [0.0 * x[..., 0]] * 2
    errs = []
    for nt in (8, 16, 32):
        g = build_grid(2, 1 / 8, 1 / nt, 1.0)
        gb, src, ex = mms_problem(g, law, A2, 0.0, exact, exact_dt,
                                  exact_grad, exact_d2)
        u = solve_forward(law, A2, g, 0.0, gb, source=src)
        errs.append(np.abs(u.values - ex).max())
    order = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert 0.9 < order < 1.1


def test_mms_anisotropic_matrix():
    A = make_matrix(np.diag([2.0, 1.0]))
    law = make_law()
    errs = []
    for nh in (8, 16):
        g = build_grid(2, 1 / nh, 1 / 16, 1.0)
        gb, src, ex = _mms_linear_time(g, law, A, 0.0)
        u = solve_forward(law, A, g, 0.0, gb, source=src)
        errs.append(np.abs(u.values - ex).max())
    assert errs[1] < errs[0] / 3.0


# --- frozen-coefficient core against a sparse reference ----------------------


def _reference_frozen(law, A, grid, lam, g, backward=False):
    """Implicit Euler by sparse direct solves of rho/dt I + gamma K_int."""
    K, flat_int = constant_stiffness(grid, A.A)
    K_int = K[:, flat_int]
    I = identity(flat_int.size, format="csc")
    gam = lambda t: float(law.gamma(t, lam))
    rho = lambda t: float(law.rho(t, lam))
    dt = grid.dt
    w = np.zeros_like(g.values)
    steps = range(grid.nt - 1, -1, -1) if backward else range(1, grid.nt + 1)
    for m in steps:
        t = grid.times[m]
        # the adjoint steps d_t(rho w) backward, so rho is taken at t_{m+1}
        prev, t_rho = (m + 1, grid.times[m + 1]) if backward else (m - 1, t)
        rhs = (rho(t_rho) / dt) * w[prev].ravel()[flat_int] \
            - gam(t) * (K @ g.values[m].ravel())
        w[m] = g.values[m]
        w[m].ravel()[flat_int] = spsolve((rho(t) / dt * I + gam(t) * K_int).tocsc(), rhs)
    return w


_TRIG_LAW = make_law(gamma=("trig_t", {"c0": 2.0, "c1": 0.5, "freq": 1.5}),
                     rho=("trig_t", {"c0": 1.5, "c1": 0.4, "phase": 0.7}))


@pytest.mark.parametrize("dim, A, nh", [(2, np.diag([2.0, 0.5]), 16), (3, np.eye(3), 8)])
def test_frozen_solves_match_sparse_reference(dim, A, nh):
    A = make_matrix(A)
    g = build_grid(dim, 1 / nh, 1 / 16, 1.0)
    gb = boundary_field_from_callable(
        g, lambda t, x: _datum(t, x) * (1.0 + x[..., -1] ** 2))
    w = solve_linearized(_TRIG_LAW, A, g, 0.3, gb)
    ref = _reference_frozen(_TRIG_LAW, A, g, 0.3, gb)
    assert np.abs(w.values - ref).max() <= 1e-12 * np.abs(ref).max()
    wbar = solve_adjoint(_TRIG_LAW, A, g, 0.3, gb)
    ref = _reference_frozen(_TRIG_LAW, A, g, 0.3, gb, backward=True)
    assert np.abs(wbar.values - ref).max() <= 1e-12 * np.abs(ref).max()


# --- DST-I by sine matrices -------------------------------------------------

# The package transforms the trailing 1 (2D patch faces), 2 (2D boxes, 3D
# patch faces) or 3 (3D boxes) axes, behind up to three batch axes.
_dst_cases = st.tuples(
    st.lists(st.integers(2, 17), min_size=1, max_size=3),  # cells L per axis
    st.lists(st.integers(1, 3), max_size=3),               # batch shape
    st.booleans(),                                         # strided view input
    st.integers(0, 2 ** 16))


@settings(max_examples=80, deadline=None)
@given(case=_dst_cases)
def test_dst1_matches_scipy_dst_property(case):
    # the orthonormal DST-I of scipy.fft is the oracle; scipy's
    # unnormalized pair is the orthonormal one scaled by prod sqrt(2L)
    lengths, batch, strided, seed = case
    shape = tuple(batch) + tuple(L - 1 for L in lengths)
    x = np.random.default_rng(seed).standard_normal(shape[:-1] + (shape[-1] + 2,))
    x = x[..., 1:-1] if strided else np.ascontiguousarray(x[..., 1:-1])
    axes = tuple(range(-len(lengths), 0))
    basis = sine_basis(lengths)
    y = dst1(x, basis)
    tol = 1e-13 * np.abs(x).max()
    assert y.shape == x.shape
    assert np.abs(y - dstn(x, type=1, axes=axes, norm="ortho")).max() <= tol
    assert np.abs(y - idstn(x, type=1, axes=axes, norm="ortho")).max() <= tol
    assert np.abs(dst1(y, basis) - x).max() <= tol
    scale = math.prod(math.sqrt(2.0 * L) for L in lengths)
    assert np.abs(scale * y - dstn(x, type=1, axes=axes)).max() <= tol * scale
    assert np.abs(y / scale - idstn(x, type=1, axes=axes)).max() <= tol / scale


def _box_interior(shape):
    m = np.zeros(shape, dtype=bool)
    m[(slice(1, -1),) * len(shape)] = True
    return m


@settings(max_examples=30, deadline=None)
@given(lengths=st.lists(st.integers(2, 9), min_size=2, max_size=3),
       diag=st.lists(st.floats(0.2, 5.0), min_size=3, max_size=3),
       coef=st.tuples(st.floats(0.5, 40.0), st.floats(0.1, 3.0)),
       seed=st.integers(0, 2 ** 16))
def test_box_solves_match_sparse_reference_property(lengths, diag, coef, seed):
    # dirichlet_solve and the frozen step on a box of unequal sides, with a
    # batch axis, against sparse direct solves of the assembled stencil
    n, h = len(lengths), 0.125
    a = np.array(diag[:n])
    shape = tuple(L + 1 for L in lengths)
    interior = _box_interior(shape)
    K, flat_int = stiffness(interior, np.diag(a), h)
    K_int = K[:, flat_int].tocsc()
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((2,) + shape)
    inner = (slice(None),) + (slice(1, -1),) * n
    u[inner] = 0.0
    trace = u.copy()
    dirichlet_solve(u, np.diag(a), h)
    rhs = rng.standard_normal((3,) + tuple(L - 1 for L in lengths))
    r, gam = coef
    step = pde._frozen_step(box_spectrum(a, h, lengths), sine_basis(lengths), r, gam, rhs)
    M = (r * identity(K_int.shape[0], format="csc") + gam * K_int).tocsc()
    for b in range(2):
        ref = spsolve(K_int, -(K @ trace[b].ravel()))
        assert np.abs(u[b][inner[1:]].ravel() - ref).max() <= 1e-12 * np.abs(trace).max()
        assert np.array_equal(u[b][~interior], trace[b][~interior])
    for b in range(3):
        ref = spsolve(M, rhs[b].ravel())
        assert np.abs(step[b].ravel() - ref).max() <= 1e-12 * np.abs(ref).max()


# --- identities of the frozen map (h = 1/8) ----------------------------------

_trig = st.fixed_dictionaries({"c0": st.floats(1.0, 3.0), "c1": st.floats(-0.5, 0.5),
                               "freq": st.floats(0.0, 2.0), "phase": st.floats(0.0, 6.3)})
_laws = st.builds(lambda gp, rp: make_law(gamma=("trig_t", gp), rho=("trig_t", rp)),
                  _trig, _trig)
_GRID8 = build_grid(2, 1 / 8, 1 / 8, 1.0)


@settings(max_examples=60, deadline=None)
@given(gamma=_library_laws, rho=_library_laws, profile=_library_laws,
       eps=st.sampled_from([0.0, 0.37]), target=st.sampled_from(["gamma", "rho"]),
       lam=st.floats(-1.0, 1.0), nt=st.sampled_from([8, 40]), T=st.sampled_from([1.0, 2.5]))
def test_frozen_coefficients_equal_the_per_level_evaluation(gamma, rho, profile, eps,
                                                            target, lam, nt, T):
    # one law evaluation over grid.times gives the scalar values of each level
    law = perturb_law(make_law(gamma=gamma, rho=rho), eps, target, profile)
    g = build_grid(2, 1 / 8, T / nt, T)
    _, _, [gam], [rh] = pde._frozen_setup([law], A2, g, lam)
    for frozen, coef in ((gam, law.gamma), (rh, law.rho)):
        assert frozen.shape == g.times.shape
        assert np.array_equal(frozen, [float(coef(t, lam)) for t in g.times])


_ADJOINT_CASES = {
    "2d-aniso": (build_grid(2, 1 / 8, 1 / 8, 1.0), make_matrix(np.diag([2.0, 0.5]))),
    "3d-aniso": (build_grid(3, 1 / 6, 1 / 8, 1.0), make_matrix(np.diag([1.0, 0.6, 1.4]))),
}


@pytest.mark.parametrize("case", sorted(_ADJOINT_CASES))
@settings(max_examples=20, deadline=None)
@given(law=_laws, lam=st.floats(-1.0, 1.0), seed=st.integers(0, 2 ** 16))
def test_discrete_adjoint_relation_property(case, law, lam, seed):
    # W = solve_linearized(g), V = solve_adjoint(gbar), g(0) = 0, gbar(T) = 0.
    # Summation by parts of the implicit-Euler steps (rho(t_m) on both levels
    # forward; rho(t_m), rho(t_{m+1}) backward) leaves
    #   sum_m gamma_m (K_IB g_m) . V_m = sum_m gamma_m W_m . (K_IB gbar_m),
    # m = 1..nt-1, for rough random data on all of dOmega.
    g, A = _ADJOINT_CASES[case]
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((2, g.nt + 1) + g.shape)
    data[(slice(None), slice(None)) + (slice(1, -1),) * g.dim] = 0.0
    data[0, 0] = data[1, -1] = 0.0
    gb, gbar = (BoundaryField(values=v, grid=g) for v in data)
    W = solve_linearized(law, A, g, lam, gb).values
    V = solve_adjoint(law, A, g, lam, gbar).values
    K, flat_int = constant_stiffness(g, A.A)
    lhs = rhs = scale = 0.0
    for m in range(1, g.nt):
        gam = float(law.gamma(g.times[m], lam))
        Kg, Kgbar = K @ gb.values[m].ravel(), K @ gbar.values[m].ravel()
        V_m, W_m = V[m].ravel()[flat_int], W[m].ravel()[flat_int]
        lhs += gam * (Kg @ V_m)
        rhs += gam * (W_m @ Kgbar)
        scale += gam * (np.abs(Kg) @ np.abs(V_m))
    assert abs(lhs - rhs) <= 1e-11 * scale


@settings(max_examples=25, deadline=None)
@given(law=_laws, lam=st.floats(-1.0, 1.0), alpha=st.floats(-3.0, 3.0),
       beta=st.floats(-3.0, 3.0))
def test_frozen_superposition_property(law, lam, alpha, beta):
    g = _GRID8
    g1 = boundary_field_from_callable(g, _datum)
    g2 = boundary_field_from_callable(
        g, lambda t, x: np.sin(2 * np.pi * t) * x[..., 1] * (1 - x[..., 0]))
    gs = BoundaryField(values=alpha * g1.values + beta * g2.values, grid=g)
    w1 = solve_linearized(law, A2, g, lam, g1)
    w2 = solve_linearized(law, A2, g, lam, g2)
    ws = solve_linearized(law, A2, g, lam, gs)
    assert np.abs(ws.values - alpha * w1.values - beta * w2.values).max() < 1e-11


@settings(max_examples=25, deadline=None)
@given(law=_laws, lam=st.floats(-1.0, 1.0))
def test_equal_laws_give_zero_difference_flux_property(law, lam):
    gb = boundary_field_from_callable(_GRID8, _datum)
    fl = lambda_difference_flux((law, law), A2, _GRID8, lam, gb)
    assert not fl.any()


# --- chord Newton against full Newton ----------------------------------------


def _roll_diffusion(grid, A, gamma_vals, u):
    """div(gamma A grad u) on the full node array by periodic shifts; the
    values at interior nodes are the stencil's, the rest wrap around."""
    h = grid.h
    out = np.zeros_like(u)
    for a in range(grid.dim):
        up, dn = np.roll(u, -1, axis=a), np.roll(u, 1, axis=a)
        gup, gdn = np.roll(gamma_vals, -1, axis=a), np.roll(gamma_vals, 1, axis=a)
        out += A[a, a] * (0.5 * (gamma_vals + gup) * (up - u)
                          - 0.5 * (gdn + gamma_vals) * (u - dn)) / h ** 2
    return out


def _reference_newton(law, A, grid, lam, g):
    """Implicit Euler with a fresh Jacobian and a sparse solve per iteration,
    the residual by _roll_diffusion.  Returns the solution and the Newton
    iterations."""
    imask = interior_mask(grid)
    flat_int = np.flatnonzero(imask.ravel())
    red = -np.ones(imask.size, dtype=np.int64)
    red[flat_int] = np.arange(flat_int.size)
    u = np.empty((grid.nt + 1,) + grid.shape)
    u[0] = lam
    iterations = 0
    for m in range(1, grid.nt + 1):
        t = grid.times[m]
        cur = u[m - 1].copy()
        cur[~imask] = lam + g.values[m][~imask]
        for _ in range(pde.NEWTON_CAP):
            res = (law.rho(t, cur) * (cur - u[m - 1]) / grid.dt
                   - _roll_diffusion(grid, A.A, law.gamma(t, cur), cur))
            res = res.ravel()[flat_int]
            norm = np.abs(res).max()
            if norm <= pde.NEWTON_TOL:
                break
            J = pde._forward_jacobian(grid, A.A, law, t, cur, u[m - 1], grid.dt)
            cur.ravel()[flat_int] -= splu(J).solve(res)
            iterations += 1
        u[m] = cur
    return u, iterations


_NEWTON_LAWS = {
    "poly_s": make_law(gamma=("poly_s", {"c0": 1.0, "c1": 0.5, "c2": 0.5}),
                       rho=("poly_s", {"c0": 1.5, "c1": 0.3})),
    "trig_t": _TRIG_LAW,
}


@pytest.mark.parametrize("name", sorted(_NEWTON_LAWS))
def test_chord_newton_matches_full_newton(name):
    law = _NEWTON_LAWS[name]
    g = build_grid(2, 1 / 16, 1 / 16, 1.0)
    gb = boundary_field_from_callable(g, lambda t, x: 0.8 * _datum(t, x))
    u = solve_forward(law, A2, g, 0.3, gb)
    ref, _ = _reference_newton(law, A2, g, 0.3, gb)
    assert np.abs(u.values - ref).max() <= 1e-10
    assert u.newton["steps"] == g.nt
    assert u.newton["max_residual"] <= pde.NEWTON_TOL


def _counted_splu(monkeypatch):
    """Replace pde.splu by a proxy; returns its factorization/solve counts."""
    counts = {"factor": 0, "solve": 0}
    real = pde.splu

    class CountedLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            counts["solve"] += 1
            return self.lu.solve(rhs)

    def counted(J):
        counts["factor"] += 1
        return CountedLU(real(J))

    monkeypatch.setattr(pde, "splu", counted)
    return counts


def test_constant_law_factorizes_nothing(monkeypatch):
    # for a u-independent law and diagonal A the frozen operator at t_m is
    # the Jacobian, so the DST chord step is the Newton step
    counts = _counted_splu(monkeypatch)
    law = make_law(gamma=("constant", {"c0": 2.0}), rho=("constant", {"c0": 1.5}))
    g = build_grid(2, 1 / 16, 1 / 16, 1.0)
    gb = boundary_field_from_callable(g, _datum)
    _, iterations = _reference_newton(law, A2, g, 0.0, gb)
    for _ in range(2):
        u = solve_forward(law, A2, g, 0.0, gb)
        assert counts == {"factor": 0, "solve": 0}
        assert u.newton["factorizations"] == 0
        assert u.newton["iterations"] == iterations


def test_stalled_frozen_chord_falls_back_to_the_jacobian(monkeypatch):
    # large data take a u-dependent law far from lambda: the frozen step
    # stops contracting and the analytic Jacobian is factorized
    counts = _counted_splu(monkeypatch)
    law = _NEWTON_LAWS["poly_s"]
    g = build_grid(2, 1 / 16, 1 / 16, 1.0)
    gb = boundary_field_from_callable(g, lambda t, x: 2.0 * _datum(t, x))
    u = solve_forward(law, A2, g, 0.3, gb)
    ref, _ = _reference_newton(law, A2, g, 0.3, gb)
    assert u.newton["factorizations"] >= 1
    assert counts["factor"] == u.newton["factorizations"] and counts["solve"] > 0
    assert np.abs(u.values - ref).max() <= 1e-10


_RESIDUAL_CASES = {
    "2d-diag": (build_grid(2, 1 / 8, 1 / 8, 1.0), np.diag([2.0, 0.5])),
    "3d-diag": (build_grid(3, 1 / 6, 1 / 8, 1.0), np.diag([1.0, 0.6, 1.4])),
}


@pytest.mark.parametrize("case", sorted(_RESIDUAL_CASES))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_slice_diffusion_matches_roll_reference(case, seed):
    grid, A = _RESIDUAL_CASES[case]
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.shape)
    gam = 1.0 + rng.random(grid.shape)
    ref = _roll_diffusion(grid, A, gam, u)[(slice(1, -1),) * grid.dim]
    out = pde._diffusion(A, grid.h, gam, u)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("case", sorted(_RESIDUAL_CASES))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_stencil_boundary_load_is_the_sparse_one(case, seed):
    # solve_linearized's load: the unit-gamma stencil on data that vanish
    # inside is -K g of the sparse stiffness, to rounding
    grid, A = _RESIDUAL_CASES[case]
    g = np.random.default_rng(seed).standard_normal(grid.shape) * ~interior_mask(grid)
    out = pde._diffusion(A, grid.h, 1.0, g)
    K, _ = constant_stiffness(grid, A)
    ref = -(K @ g.ravel()).reshape(out.shape)
    assert np.abs(out - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("case", sorted(_RESIDUAL_CASES))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16), patch_only=st.booleans())
def test_stencil_after_a_boundary_change_property(case, seed, patch_only):
    # a forward level's first residual: once the boundary values change, the
    # unit-gamma stencil is the old one plus A_aa / h^2 times the change on
    # the interior plane next to each face (the periodic-shift stencil of
    # the change, which vanishes inside); a change on the edges and corners
    # of the faces does not enter.  That correction is dirichlet_load of
    # the change
    grid, A = _RESIDUAL_CASES[case]
    rng = np.random.default_rng(seed)
    old = rng.standard_normal(grid.shape)
    where = ~interior_mask(grid)
    if patch_only:
        where = np.zeros(grid.shape, dtype=bool)
        where[grid.face_node_selector(grid.patch_axis, grid.patch_side)] = True
    change = rng.standard_normal(grid.shape) * where
    got = pde._diffusion(A, grid.h, 1.0, old + change)
    inner = (slice(1, -1),) * grid.dim
    correction = _roll_diffusion(grid, A, np.ones(grid.shape), change)[inner]
    ref = pde._diffusion(A, grid.h, 1.0, old) + correction
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(got).max()
    assert np.abs(pde.dirichlet_load(change, A, grid.h) - correction).max() \
        <= 1e-15 * np.abs(correction).max()


_t_law = st.one_of(
    st.builds(lambda c0: ("constant", {"c0": c0}), st.floats(0.5, 3.0)),
    st.builds(lambda c0, c1: ("affine_t", {"c0": c0, "c1": c1}),
              st.floats(1.0, 3.0), st.floats(-0.5, 0.5)),
    st.builds(lambda p: ("trig_t", p), _trig))
_LINEARITY_CASES = {
    "2d": (build_grid(2, 1 / 8, 1 / 8, 1.0), make_matrix(np.diag([2.0, 0.5]))),
    "3d": (build_grid(3, 1 / 6, 1 / 8, 1.0), make_matrix(np.diag([1.0, 0.6, 1.4]))),
}


@pytest.mark.parametrize("case", sorted(_LINEARITY_CASES))
@settings(max_examples=20, deadline=None)
@given(gamma=_t_law, rho=_t_law, lam=st.floats(-1.0, 1.0))
def test_forward_is_linear_for_u_independent_laws_property(case, gamma, rho, lam):
    # a law that does not depend on u makes the forward problem linear: its
    # solution minus lambda is the frozen solve, reached with no factorization
    grid, A = _LINEARITY_CASES[case]
    law = make_law(gamma=gamma, rho=rho)
    gb = boundary_field_from_callable(
        grid, lambda t, x: _datum(t, x) * (1.0 + x[..., -1] ** 2))
    u = solve_forward(law, A, grid, lam, gb)
    w = solve_linearized(law, A, grid, lam, gb).values
    assert np.abs(u.values - lam - w).max() <= 1e-12 * np.abs(w).max()
    assert u.newton["factorizations"] == 0


# --- a stack of data in one forward loop -------------------------------------

_s_law = st.one_of(
    st.builds(lambda c0, c1, c2: ("poly_s", {"c0": c0, "c1": c1, "c2": c2}),
              st.floats(1.0, 2.0), st.floats(-0.2, 0.2), st.floats(0.0, 0.5)),
    st.builds(lambda c0, c1, s0, w: ("gauss_s", {"c0": c0, "c1": c1, "s0": s0, "w": w}),
              st.floats(1.0, 2.0), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
              st.floats(0.3, 1.0)))


def _stack_data(grid, amplitudes, on_patch):
    """amplitude * a smooth datum, on all of dOmega or restricted to S."""
    full = boundary_field_from_callable(
        grid, lambda t, x: _datum(t, x) * (1.0 + x[..., -1] ** 2)).values
    patch = _on_face(grid, lambda x: _datum(0.5, x) * (1.0 + x[..., -1] ** 2))
    return [PatchField(np.sin(np.pi * grid.times), a * patch, grid) if p
            else BoundaryField(values=a * full, grid=grid)
            for a, p in zip(amplitudes, on_patch)]


def _assert_streamed_flux_is_the_history_flux(law, A, grid, lam, data, stacked, **kw):
    # the same stack, keeping each level's flux only: nonlinear_flux of the
    # collected history bit for bit, the same Newton record or PDEError
    streamed = solve_forward(law, A, grid, lam, data, keep=level_flux(law, A, grid), **kw)
    assert len(streamed) == len(stacked)
    for got, flux in zip(stacked, streamed):
        if isinstance(got, PDEError):
            assert isinstance(flux, PDEError) and str(flux) == str(got)
            continue
        assert flux.newton == got.newton
        assert np.array_equal(flux.values, nonlinear_flux(got, law, A, grid))


def _assert_stack_matches_single_solves(law, A, grid, lam, data):
    stacked = solve_forward(law, A, grid, lam, data)
    assert len(stacked) == len(data)
    for datum, got in zip(data, stacked):
        try:
            ref = solve_forward(law, A, grid, lam, datum)
        except PDEError as exc:
            assert isinstance(got, PDEError) and str(got) == str(exc)
            continue
        assert got.newton == ref.newton
        assert np.abs(got.values - ref.values).max() <= 1e-12 * np.abs(ref.values).max()
    _assert_streamed_flux_is_the_history_flux(law, A, grid, lam, data, stacked)
    return stacked


@pytest.mark.parametrize("case", sorted(_RESIDUAL_CASES))
@settings(max_examples=15, deadline=None, phases=_NO_SHRINK)
@given(gamma=st.one_of(_t_law, _s_law), rho=st.one_of(_t_law, _s_law),
       lam=st.floats(-0.5, 0.5),
       data=st.lists(st.tuples(st.floats(0.05, 1.5), st.booleans()), min_size=1,
                     max_size=4))
def test_stacked_forward_equals_single_solves_property(case, gamma, rho, lam, data):
    # one loop over a stack of data: each datum gets the field and the Newton
    # record of its own solve, whatever chord the others are on, and keeping
    # each level's flux only gives the flux of that field
    grid, A = _RESIDUAL_CASES[case]
    A = make_matrix(A)
    amplitudes, on_patch = zip(*data)
    _assert_stack_matches_single_solves(make_law(gamma=gamma, rho=rho), A, grid, lam,
                                        _stack_data(grid, amplitudes, on_patch))


def test_stack_mixes_frozen_and_jacobian_chords():
    # small data stay on the frozen DST chord, large data stall into the
    # Jacobian fallback; both kinds advance in the same stack
    g = build_grid(2, 1 / 16, 1 / 16, 1.0)
    data = _stack_data(g, [0.05, 2.0, 0.1, 2.5], [False, True, True, False])
    stacked = _assert_stack_matches_single_solves(_NEWTON_LAWS["poly_s"], A2, g, 0.3, data)
    assert [u.newton["factorizations"] > 0 for u in stacked] == [False, True, False, True]


def test_stack_isolates_a_failing_datum():
    # the large datum hits the Newton cap; the small one finishes unchanged,
    # also when only each level's flux is kept
    g = build_grid(2, 1 / 8, 1 / 8, 1.0)
    law = make_law(gamma=("poly_s", {"c0": 0.05, "c2": 1.0}), m_floor=1e-4)
    big, small = (boundary_field_from_callable(
        g, lambda t, x, a=a: a * np.sin(np.pi * t) * np.sin(np.pi * x[..., 1]))
        for a in (50.0, 0.1))
    got = solve_forward(law, A2, g, 0.0, [big, small], newton_cap=12)
    with pytest.raises(PDEError) as exc:
        solve_forward(law, A2, g, 0.0, big, newton_cap=12)
    assert isinstance(got[0], PDEError) and str(got[0]) == str(exc.value)
    ref = solve_forward(law, A2, g, 0.0, small, newton_cap=12)
    assert got[1].newton == ref.newton
    assert np.array_equal(got[1].values, ref.values)
    _assert_streamed_flux_is_the_history_flux(law, A2, g, 0.0, [big, small], got,
                                              newton_cap=12)


@pytest.mark.parametrize("case", sorted(_RESIDUAL_CASES))
@settings(max_examples=10, deadline=None, phases=_NO_SHRINK)
@given(gamma=_t_law, rho=st.one_of(_t_law, _s_law), lam=st.floats(-0.5, 0.5),
       data=st.lists(st.tuples(st.floats(0.05, 2.5), st.booleans()), min_size=2,
                     max_size=4))
@example(gamma=("affine_t", {"c0": 1.0, "c1": 0.5}),
         rho=("poly_s", {"c0": 1.0, "c1": 0.2, "c2": 0.5}), lam=0.3,
         data=[(0.05, True), (1.5, False), (2.5, True), (0.5, False)])
def test_reused_first_residuals_match_full_newton_property(case, gamma, rho, lam, data):
    # a gamma constant in space: each level's first residual is built from
    # the stencil of the level before, every later one is applied in full,
    # and the chord may stall into the Jacobian after a reused residual (the
    # example factorizes for its two largest data, in 2D and 3D)
    grid, A = _RESIDUAL_CASES[case]
    A = make_matrix(A)
    law = make_law(gamma=gamma, rho=rho)
    amplitudes, on_patch = zip(*data)
    stack = _stack_data(grid, amplitudes, on_patch)
    for datum, u in zip(stack, solve_forward(law, A, grid, lam, stack)):
        full = boundary_from_face(datum.values, grid) if isinstance(datum, PatchField) else datum
        ref, iterations = _reference_newton(law, A, grid, lam, full)
        assert np.abs(u.values - ref).max() <= 1e-10
        assert u.newton["max_residual"] <= pde.NEWTON_TOL
        assert u.newton["stencils"] == u.newton["iterations"]
        if not law.rho.varies_in_s:  # linear: the chord step is the Newton step
            assert u.newton["iterations"] == iterations


# --- what the chord loop keeps of each level ---------------------------------

@pytest.mark.parametrize("case", sorted(_RESIDUAL_CASES))
@settings(max_examples=30, deadline=None, phases=_NO_SHRINK)
@given(gam=st.floats(1e-3, 1e3), batch=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_scalar_gamma_diffusion_equals_the_node_array_property(case, gam, batch, seed):
    # (gamma + gamma) d times 0.5 a/h^2 is d gamma times a/h^2 bit for bit:
    # scaling by 2 or 1/2 is exact; the leading axis is a batch
    grid, A = _RESIDUAL_CASES[case]
    u = np.random.default_rng(seed).standard_normal((batch,) + grid.shape)
    ref = pde._diffusion(A, grid.h, np.full(u.shape, gam), u)
    assert np.array_equal(pde._diffusion(A, grid.h, gam, u), ref)
    assert np.array_equal(pde._diffusion(A, grid.h, np.asarray(gam), u), ref)


def _level_data(grid):
    """A BoundaryField and a PatchField, each nonzero on its boundary nodes."""
    full = boundary_field_from_callable(
        grid, lambda t, x: _datum(t, x) * (1.0 + x[..., -1] ** 2) + t * x[..., 0])
    return full, PatchField(np.sin(np.pi * grid.times),
                            _on_face(grid, lambda x: _datum(0.5, x) * (1.0 + x[..., -1] ** 2)),
                            grid)


@pytest.mark.parametrize("dim", [2, 3])
def test_dirichlet_levels_write_boundary_nodes_only(dim):
    grid = build_grid(dim, 1 / 6, 1 / 6, 1.0)
    imask = interior_mask(grid)
    m, lam = 3, 0.4
    for datum in _level_data(grid):
        out = np.random.default_rng(dim).standard_normal(grid.shape)
        before = out.copy()
        datum.dirichlet_level(m, lam, out)
        assert np.array_equal(out[imask], before[imask])
        written = lam + datum.values[m]
        if isinstance(datum, PatchField):
            # the patch face alone: the other boundary nodes keep what out held
            face = grid.face_node_selector(grid.patch_axis, grid.patch_side)
            assert np.array_equal(out[face], written)
            rest = ~imask
            rest[face] = False
            assert np.array_equal(out[rest], before[rest])
        else:
            assert np.array_equal(out[~imask], written[~imask])


def test_each_level_starts_from_the_previous_interior(monkeypatch):
    # the first residual of level m reads the data of level m on dOmega and
    # the converged level m-1 inside, for every datum of a stack
    grid = build_grid(2, 1 / 8, 1 / 8, 1.0)
    law = _NEWTON_LAWS["poly_s"]
    lam = 0.3
    data = list(_level_data(grid))
    levels, firsts = [], []
    real = pde._diffusion

    def spy(A, h, gamma, u):
        if len(firsts) < len(levels):  # the first residual after a kept level
            firsts.append(u.copy())
        return real(A, h, gamma, u)

    def keep(t, stack):
        levels.append(stack.copy())
        return stack

    monkeypatch.setattr(pde, "_diffusion", spy)
    solve_forward(law, A2, grid, lam, data, keep=keep)
    imask = interior_mask(grid)
    assert len(firsts) == len(levels) - 1 == grid.nt
    for m in range(1, grid.nt + 1):
        first = firsts[m - 1]
        for b, datum in enumerate(data):
            full = boundary_from_face(datum.values, grid) if isinstance(datum, PatchField) \
                else datum
            assert np.array_equal(first[b][imask], levels[m - 1][b][imask])
            assert np.array_equal(first[b][~imask], lam + full.values[m][~imask])


def _assert_non_finite_level_stops_its_datum(law, good, bad):
    """The level of the datum good that carries the NaN or inf bad stops
    that datum with the error naming t; inside a stack the other data
    finish as if alone."""
    grid = good.grid
    m = 3
    if isinstance(good, PatchField):  # bad times the face: the whole level
        profile = good.profile.copy()
        profile[m] = bad
        datum = PatchField(profile, good.face, grid)
    else:
        vals = good.values.copy()
        vals[m][np.unravel_index(np.argmax(np.abs(vals[m])), vals[m].shape)] = bad
        datum = BoundaryField(values=vals, grid=grid)
    msg = f"non-finite residual at t={grid.times[m]:g})"
    # inf - inf and 0 * inf warn on the way; the loop's own check is tested
    with np.errstate(invalid="ignore"), pytest.raises(PDEError, match=re.escape(msg)):
        solve_forward(law, A2, grid, 0.1, datum)
    with np.errstate(invalid="ignore"):
        got = solve_forward(law, A2, grid, 0.1, [good, datum, good])
    assert isinstance(got[1], PDEError) and msg in str(got[1])
    ref = solve_forward(law, A2, grid, 0.1, good)
    for u in (got[0], got[2]):
        assert u.newton == ref.newton
        assert np.array_equal(u.values, ref.values)
    return ref


@pytest.mark.parametrize("kind", ["boundary", "patch"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_datum_level_is_reported_at_its_time(kind, bad):
    law = make_law(gamma=("poly_s", {"c0": 1.0, "c1": 0.2}), rho=("constant", {"c0": 1.5}))
    full, patch = _level_data(build_grid(2, 1 / 8, 1 / 8, 1.0))
    _assert_non_finite_level_stops_its_datum(law, full if kind == "boundary" else patch, bad)


@pytest.mark.parametrize("kind", ["boundary", "patch"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_datum_level_stops_a_reused_first_residual(kind, bad):
    # a gamma constant in space builds a level's first residual from the
    # stencil of the level before and the change on the faces, which
    # carries the NaN or inf.  The other data ramp up, hold still until
    # some levels converge at their first residual, and ramp down: each
    # keeps its own stencil when the stack has shrunk to them
    law = make_law(gamma=("trig_t", {"c0": 2.0, "c1": 0.5, "freq": 1.5}),
                   rho=("constant", {"c0": 1.5}))
    grid = build_grid(2, 1 / 8, 1 / 8, 6.0)
    hold = lambda t: np.clip(t, 0.0, 0.5) - np.clip(t - 5.0, 0.0, 0.5)
    full = boundary_field_from_callable(
        grid, lambda t, x: hold(t) * np.sin(np.pi * x[..., 1]) * np.exp(-x[..., 0]))
    patch = PatchField(hold(grid.times), _on_face(grid, lambda x: np.sin(np.pi * x[..., 1])),
                       grid)
    ref = _assert_non_finite_level_stops_its_datum(law, full if kind == "boundary" else patch,
                                                   bad)
    # a linear problem takes one iteration per level that changes: the
    # others converge at their first residual
    assert ref.newton["stencils"] == ref.newton["iterations"] < grid.nt - 10


def _counted_evaluations(monkeypatch, law):
    """Count law.gamma(...) and law.rho(...) calls by wrapping
    Coefficient.__call__; gamma and rho must differ as values."""
    assert law.gamma != law.rho
    counts = {"gamma": 0, "rho": 0}
    real = Coefficient.__call__

    def counted(self, t, s):
        for name in counts:
            if self == getattr(law, name):
                counts[name] += 1
        return real(self, t, s)

    monkeypatch.setattr(Coefficient, "__call__", counted)
    return counts


@pytest.mark.parametrize("gamma,rho", [
    (("constant", {"c0": 2.0}), ("trig_t", {"c0": 1.5, "c1": 0.3})),
    (("affine_t", {"c0": 1.0, "c1": 0.5}), ("constant", {"c0": 0.8})),
    (("poly_s", {"c0": 1.0, "c1": 0.3}), ("trig_t", {"c0": 1.5, "c1": 0.3})),
    (("constant", {"c0": 2.0}), ("gauss_s", {"c0": 1.0, "c1": 0.2, "w": 0.7})),
    (("poly_s", {"c0": 1.0, "c2": 0.5}), ("gauss_s", {"c0": 1.0, "c1": 0.2, "w": 0.7})),
])
def test_forward_evaluates_each_coefficient_once_per_level_or_iteration(monkeypatch,
                                                                        gamma, rho):
    # once over grid.times for the frozen chord; then a coefficient that
    # does not vary in s once per level, and one that does once per
    # residual stencil.  Per level, a gamma that varies in s takes a stencil
    # for the first residual and one after each iteration; a gamma that
    # does not builds the first residual from the last stencil of the level
    # before, so its data take one stencil per iteration
    law = make_law(gamma=gamma, rho=rho)
    grid = build_grid(2, 1 / 8, 1 / 8, 1.0)
    gb = boundary_field_from_callable(grid, lambda t, x: 0.3 * _datum(t, x))
    counts = _counted_evaluations(monkeypatch, law)
    u = solve_forward(law, A2, grid, 0.2, gb)
    assert u.newton["factorizations"] == 0
    iterations = u.newton["iterations"]
    assert iterations >= grid.nt  # so once per stencil is not once per level
    stencils = iterations + (grid.nt if law.gamma.varies_in_s else 0)
    assert u.newton["stencils"] == stencils
    for name in counts:
        varies = getattr(law, name).varies_in_s
        assert counts[name] == 1 + (stencils if varies else grid.nt)
