import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import identity
from scipy.sparse.linalg import spsolve

from dnprobe.dnmap import lambda_difference_flux, lift_terminal_zero
from dnprobe.geometry import build_grid
from dnprobe.material import make_law, make_matrix
from dnprobe.pde import (BoundaryField, PDEError, boundary_field_from_callable,
                         constant_stiffness, interior_mask, mms_problem,
                         probe_boundary_field, solve_adjoint, solve_forward,
                         solve_linearized)

A2 = make_matrix(np.eye(2))


def _datum(t, x):
    return np.sin(np.pi * t) * np.sin(np.pi * x[..., 1]) * np.exp(-x[..., 0])


def test_boundary_field_rejects_interior_values():
    g = build_grid(2, 1 / 8, 1 / 8, 1.0)
    vals = np.zeros((g.nt + 1,) + g.shape)
    vals[2, 3, 3] = 1.0  # interior node
    with pytest.raises(PDEError):
        BoundaryField(values=vals, grid=g)


def test_compatibility_guard():
    g = build_grid(2, 1 / 8, 1 / 8, 1.0)
    gb = boundary_field_from_callable(g, lambda t, x: 1.0 + 0.0 * x[..., 0])
    with pytest.raises(PDEError):
        gb.check_compatible("start")
    gb2 = boundary_field_from_callable(g, _datum)
    gb2.check_compatible("start")  # sin(pi t) vanishes at t=0
    gb2.check_compatible("end")


def test_probe_boundary_field_leak_guard():
    g = build_grid(2, 1 / 16, 1 / 16, 1.0, patch_interval=[(0.25, 0.75)])
    spatial = np.zeros(g.shape)
    spatial[0, :] = 1.0  # supported on the whole left face, leaks off S
    with pytest.raises(PDEError):
        probe_boundary_field(g, lambda t: np.sin(np.pi * t), spatial)


def test_probe_boundary_field_ok_on_patch():
    g = build_grid(2, 1 / 16, 1 / 16, 1.0, patch_interval=[(0.25, 0.75)])
    spatial = np.zeros(g.shape)
    spatial[0, g.patch_lo[0] + 1:g.patch_hi[0]] = 1.0
    gb = probe_boundary_field(g, lambda t: np.sin(np.pi * t), spatial)
    assert gb.support == "S"
    assert gb.values[:, interior_mask(g)].max() == 0.0


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

    def exact_hess(t, x):
        s0, s1 = np.sin(np.pi * x[..., 0]), np.sin(np.pi * x[..., 1])
        c0, c1 = np.cos(np.pi * x[..., 0]), np.cos(np.pi * x[..., 1])
        pp = 0.2 * t * np.pi ** 2
        return [[-pp * s0 * s1, pp * c0 * c1], [pp * c0 * c1, -pp * s0 * s1]]

    return mms_problem(grid, law, A, lam, exact, exact_dt, exact_grad, exact_hess)


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
    exact_hess = lambda t, x: [[0.0 * x[..., 0]] * 2] * 2
    errs = []
    for nt in (8, 16, 32):
        g = build_grid(2, 1 / 8, 1 / nt, 1.0)
        gb, src, ex = mms_problem(g, law, A2, 0.0, exact, exact_dt,
                                  exact_grad, exact_hess)
        u = solve_forward(law, A2, g, 0.0, gb, source=src)
        errs.append(np.abs(u.values - ex).max())
    order = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert 0.9 < order < 1.1


def test_mms_anisotropic_matrix():
    A = make_matrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
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


def test_frozen_operators_reject_off_diagonal_matrix():
    A = make_matrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
    g = build_grid(2, 1 / 8, 1 / 8, 1.0)
    gb = boundary_field_from_callable(g, _datum)
    for solve in (solve_linearized, solve_adjoint):
        with pytest.raises(PDEError, match="diagonal"):
            solve(make_law(), A, g, 0.0, gb)
    with pytest.raises(PDEError, match="diagonal"):
        lift_terminal_zero(gb, g, A)


# --- identities of the frozen map (h = 1/8) ----------------------------------

_trig = st.fixed_dictionaries({"c0": st.floats(1.0, 3.0), "c1": st.floats(-0.5, 0.5),
                               "freq": st.floats(0.0, 2.0), "phase": st.floats(0.0, 6.3)})
_laws = st.builds(lambda gp, rp: make_law(gamma=("trig_t", gp), rho=("trig_t", rp)),
                  _trig, _trig)
_GRID8 = build_grid(2, 1 / 8, 1 / 8, 1.0)


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
    assert not fl.values.any()
