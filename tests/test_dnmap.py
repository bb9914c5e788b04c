import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnprobe.dnmap import (DNMapError, eta_surrogate, flux_l2_st,
                           lambda_difference_flux, lift_terminal_zero,
                           linear_flux, linearization_check, make_norm,
                           nonlinear_flux, random_bump_dictionary,
                           surface_pairing, weak_pairing)
from dnprobe.geometry import build_grid
from dnprobe.material import make_law, make_matrix
from dnprobe.pde import (BoundaryField, SpaceTimeField,
                         boundary_field_from_callable, solve_forward,
                         solve_linearized)

A2 = make_matrix(np.eye(2))


def _datum(t, x):
    return np.sin(np.pi * t) * np.sin(np.pi * x[..., 1]) * np.exp(-x[..., 0])


def _grid(nh=16, nt=16, T=1.0):
    return build_grid(2, 1 / nh, T / nt, T)


# --- flux extraction --------------------------------------------------------


def test_flux_exact_on_affine_field():
    # u = 2 - 3x on the left face: A grad u . nu = (-3)(-1) = 3, times gamma
    g = _grid()
    law = make_law(gamma=("constant", {"c0": 1.5}))
    coords = np.stack(g.node_coords(), axis=-1)
    vals = np.broadcast_to(2.0 - 3.0 * coords[..., 0],
                           (g.nt + 1,) + g.shape).copy()
    u = SpaceTimeField(values=vals, grid=g)
    fl = nonlinear_flux(u, law, A2, g)
    smask = g.patch_support_mask()
    assert np.allclose(fl.values[:, smask], 1.5 * 3.0, atol=1e-12)
    assert np.all(fl.values[:, ~smask] == 0.0)


def test_flux_anisotropic_conormal():
    # u = x + 2y, A = [[2, 0.5], [0.5, 1]], left face: A grad u . (-e_x)
    # = -(2*1 + 0.5*2) = -3
    g = _grid()
    A = make_matrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
    coords = np.stack(g.node_coords(), axis=-1)
    vals = np.broadcast_to(coords[..., 0] + 2.0 * coords[..., 1],
                           (g.nt + 1,) + g.shape).copy()
    u = SpaceTimeField(values=vals, grid=g)
    fl = nonlinear_flux(u, make_law(), A, g)
    smask = g.patch_support_mask()
    inner = smask.copy()
    inner[0] = inner[-1] = False  # skip rim nodes of the tangential stencil
    assert np.allclose(fl.values[:, inner], -3.0, atol=1e-10)


def test_linear_flux_uses_background_coefficient():
    g = _grid()
    law = make_law(gamma=("poly_s", {"c0": 1.0, "c1": 2.0}))
    coords = np.stack(g.node_coords(), axis=-1)
    vals = np.broadcast_to(coords[..., 0], (g.nt + 1,) + g.shape).copy()
    w = SpaceTimeField(values=vals, grid=g)
    fl = linear_flux(w, law, A2, g, lam=0.5)
    smask = g.patch_support_mask()
    # gamma(t, 0.5) = 2, du/dnu = -1 on the left face
    assert np.allclose(fl.values[:, smask], -2.0, atol=1e-12)


def test_surface_pairing_matches_closed_form():
    # flux = 1 on the whole face, h = sin(pi t) * 1: integral = (2/pi) * |S|
    g = build_grid(2, 1 / 16, 1 / 512, 1.0)
    smask = g.patch_support_mask()
    vals = np.ones((g.nt + 1,) + smask.shape)
    vals[:, ~smask] = 0.0
    from dnprobe.dnmap import FluxRecord
    fl = FluxRecord(values=vals, grid=g)
    hb = boundary_field_from_callable(
        g, lambda t, x: math.sin(math.pi * t) + 0.0 * x[..., 0])
    got = surface_pairing(fl, hb, g)
    # sharp indicator: each patch node carries weight h in the face rule
    exact = (2.0 / math.pi) * smask.sum() * g.h
    assert got == pytest.approx(exact, rel=1e-3)


# --- weak pairing and lifting -----------------------------------------------


def test_lifting_is_exact_on_affine_traces():
    g = _grid()
    hb = boundary_field_from_callable(
        g, lambda t, x: (1 - t) * (x[..., 0] - 2 * x[..., 1] + 0.5))
    E = lift_terminal_zero(hb, g, A2)
    coords = np.stack(g.node_coords(), axis=-1)
    for m, t in enumerate(g.times):
        exact = (1 - t) * (coords[..., 0] - 2 * coords[..., 1] + 0.5)
        assert np.abs(E[m] - exact).max() < 1e-10
    assert np.abs(E[-1]).max() == 0.0  # terminal slice inherited as zero


def test_lifting_requires_terminal_zero():
    g = _grid()
    hb = boundary_field_from_callable(g, lambda t, x: 1.0 + 0.0 * x[..., 0])
    from dnprobe.pde import PDEError
    with pytest.raises(PDEError):
        lift_terminal_zero(hb, g, A2)


def test_weak_pairing_matches_surface_pairing():
    # for smooth data the interior identity and the direct flux quadrature
    # must agree to discretization accuracy
    g = build_grid(2, 1 / 64, 1 / 64, 1.0)
    law = make_law(gamma=("trig_t", {"c0": 2.0, "c1": 0.3}),
                   rho=("trig_t", {"c0": 1.0, "c1": 0.2, "phase": 0.4}))
    # both data live on the patch so the flux quadrature sees all of <Lg, h>
    gb, hb = random_bump_dictionary(g, count=2, seed=2)
    w = solve_linearized(law, A2, g, 0.0, gb)
    strong = surface_pairing(linear_flux(w, law, A2, g, 0.0), hb, g)
    weak = weak_pairing(w, hb, law, A2, g, 0.0)
    assert weak == pytest.approx(strong, rel=0.05)


# --- boundary norms ---------------------------------------------------------


def test_norm_kinds():
    g2 = _grid()
    assert make_norm(g2).flag == "spectral-half"
    g3 = build_grid(3, 1 / 8, 1 / 8, 1.0)
    assert make_norm(g3).flag == "L2"
    with pytest.raises(DNMapError):
        make_norm(g3, kind="spectral")
    with pytest.raises(DNMapError):
        make_norm(g2, kind="sobolev")


@given(c=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       mode=st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_norm_homogeneity_and_positivity(c, mode):
    g = _grid()
    nrm = make_norm(g)
    hb = boundary_field_from_callable(
        g, lambda t, x: np.sin(np.pi * mode * t) * np.sin(np.pi * x[..., 1]))
    base = nrm.half(hb)
    assert base > 0.0
    scaled = BoundaryField(values=c * hb.values, grid=g)
    assert nrm.half(scaled) == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)
    assert nrm.dual(scaled) == pytest.approx(abs(c) * nrm.dual(hb), rel=1e-12,
                                             abs=1e-12)


def test_norm_triangle_inequality():
    g = _grid()
    nrm = make_norm(g)
    h1 = boundary_field_from_callable(
        g, lambda t, x: np.sin(np.pi * t) * np.sin(np.pi * x[..., 1]))
    h2 = boundary_field_from_callable(
        g, lambda t, x: np.sin(2 * np.pi * t) * np.cos(np.pi * x[..., 1]))
    hs = BoundaryField(values=h1.values + h2.values, grid=g)
    assert nrm.half(hs) <= nrm.half(h1) + nrm.half(h2) + 1e-12


def test_dual_bounds_the_l2_pairing():
    # |<f, g>_L2(curve x time)| <= dual(f) * half(g) is the defining duality
    g = _grid()
    nrm = make_norm(g)
    rng = np.random.default_rng(1)
    fields = random_bump_dictionary(g, count=4, seed=5)
    f, q = fields[0], fields[1]
    from dnprobe.dnmap import _closed_curve_samples
    sf = _closed_curve_samples(f.values, g)[:-1]
    sq = _closed_curve_samples(q.values, g)[:-1]
    ds = 4.0 / sf.shape[1]
    inner = float((sf * sq).sum()) * g.dt * ds
    assert abs(inner) <= nrm.dual(f) * nrm.half(q) + 1e-12


def test_rougher_data_has_larger_half_norm():
    g = _grid(32, 32)
    nrm = make_norm(g)
    smooth = boundary_field_from_callable(
        g, lambda t, x: np.sin(np.pi * t) * np.sin(np.pi * x[..., 1]))
    rough = boundary_field_from_callable(
        g, lambda t, x: np.sin(np.pi * t) * np.sin(7 * np.pi * x[..., 1]))
    # equal L2 mass up to the window, but the oscillatory trace costs more
    assert nrm.half(rough) > 1.5 * nrm.half(smooth)


# --- linearization check and eta surrogate ----------------------------------


def test_linearization_check_linear_law_is_exact():
    g = _grid()
    law = make_law(gamma=("constant", {"c0": 2.0}), rho=("constant", {"c0": 1.0}))
    gb = boundary_field_from_callable(g, _datum)
    rows = linearization_check(law, A2, g, 0.0, gb, [4, 8, 16])
    for row in rows:
        assert row["ok"]
        assert row["d_k"] < 1e-9


def test_linearization_check_quadratic_decay():
    g = _grid()
    law = make_law(gamma=("poly_s", {"c0": 1.0, "c2": 1.0}))
    gb = boundary_field_from_callable(g, _datum)
    rows = linearization_check(law, A2, g, 0.5, gb, [4, 8, 16])
    d = [r["d_k"] for r in rows]
    assert d[0] > d[1] > d[2] > 0.0
    assert d[2] / d[1] == pytest.approx(0.5, abs=0.12)


def test_difference_flux_vanishes_for_equal_laws():
    g = _grid()
    law = make_law(gamma=("trig_t", {"c0": 2.0, "c1": 0.3}))
    gb = boundary_field_from_callable(g, _datum)
    fl = lambda_difference_flux((law, law), A2, g, 0.0, gb)
    assert flux_l2_st(fl, g) < 1e-13


def test_dictionary_is_deterministic_and_supported():
    g = build_grid(2, 1 / 16, 1 / 16, 1.0, patch_interval=[(0.25, 0.75)])
    d1 = random_bump_dictionary(g, count=3, seed=7)
    d2 = random_bump_dictionary(g, count=3, seed=7)
    for a, b in zip(d1, d2):
        assert np.array_equal(a.values, b.values)
        assert a.support == "S"
        assert np.abs(a.values[0]).max() == 0.0  # compatible at t=0


def test_eta_surrogate_scales_with_contrast():
    g = _grid(8, 8)
    base = make_law(gamma=("constant", {"c0": 2.0}))
    d = random_bump_dictionary(g, count=4, seed=0)
    etas = []
    for eps in (0.05, 0.1, 0.2):
        other = make_law(gamma=("constant", {"c0": 2.0 + eps}))
        etas.append(eta_surrogate((base, other), A2, g, 0.0, d))
    assert etas[0] < etas[1] < etas[2]
    # the frozen map is linear in the coefficient difference here
    assert etas[2] / etas[1] == pytest.approx(2.0, rel=0.1)
    assert eta_surrogate((base, base), A2, g, 0.0, d) == 0.0


def test_eta_surrogate_monotone_in_dictionary():
    g = _grid(8, 8)
    base = make_law(gamma=("constant", {"c0": 2.0}))
    other = make_law(gamma=("trig_t", {"c0": 2.0, "c1": 0.2}))
    d = random_bump_dictionary(g, count=6, seed=3)
    small = eta_surrogate((base, other), A2, g, 0.0, d[:2])
    full = eta_surrogate((base, other), A2, g, 0.0, d)
    assert full >= small


def test_eta_surrogate_empty_dictionary():
    g = _grid(8, 8)
    with pytest.raises(DNMapError):
        eta_surrogate((make_law(), make_law()), A2, g, 0.0, [])
