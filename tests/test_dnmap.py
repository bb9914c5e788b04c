import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from dnprobe import dnmap, pde, singular
from dnprobe.dnmap import (DNMapError, eta_surrogate, flux_l2_st,
                           lambda_difference_flux, lift_terminal_zero,
                           linear_flux, linearization_check, make_norm,
                           nonlinear_flux, patch_linear_flux,
                           random_bump_dictionary, surface_pairing,
                           weak_pairing)
from dnprobe.geometry import build_grid
from dnprobe.material import coefficient, make_law, make_matrix
from dnprobe.pde import (BoundaryField, PatchField, SpaceTimeField,
                         boundary_field_from_callable, constant_stiffness,
                         solve_forward, solve_linearized)
from dnprobe.reconstruct import ProbeSpec, recover_rho_point
from test_pde import _laws

A2 = make_matrix(np.eye(2))


def _datum(t, x):
    return np.sin(np.pi * t) * np.sin(np.pi * x[..., 1]) * np.exp(-x[..., 0])


def _grid(nh=16, nt=16, T=1.0):
    return build_grid(2, 1 / nh, T / nt, T)


def _on_patch(g, fn):
    """fn(t, X) sampled on the patch face as patch data, zero off S."""
    face = (slice(None),) + g.face_node_selector(g.patch_axis, g.patch_side)
    vals = boundary_field_from_callable(g, fn).values[face] * g.patch_support_mask()
    return PatchField(values=vals, grid=g)


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


_FLUX_CASES = {
    "2d-left-cross": (2, "left", [[2.0, 0.5], [0.5, 1.0]]),
    "2d-top-diag": (2, "top", [[1.5, 0.0], [0.0, 0.7]]),
    "3d-back-cross": (3, "back", [[1.0, 0.0, 0.2], [0.0, 1.2, -0.3], [0.2, -0.3, 0.9]]),
    "3d-bottom-diag": (3, "bottom", [[1.0, 0.0, 0.0], [0.0, 0.6, 0.0], [0.0, 0.0, 1.4]]),
}


@pytest.mark.parametrize("case", sorted(_FLUX_CASES))
def test_flux_over_the_history_equals_level_by_level(case):
    # one evaluation over the (nt+1, *shape) history, with t broadcast into
    # the law, against the face formula applied level by level
    dim, face, A = _FLUX_CASES[case]
    A = make_matrix(np.array(A))
    g = build_grid(dim, 1 / 8, 1 / 8, 1.0, patch_face=face)
    # gamma depends on both t and s
    gamma = coefficient("poly_s", {"c0": 1.0, "c1": 0.5, "c2": 0.5}) \
        + coefficient("trig_t", {"c1": 0.3, "freq": 0.7})
    law = replace(make_law(), gamma=gamma)
    u = SpaceTimeField(values=np.random.default_rng(3).standard_normal((g.nt + 1,) + g.shape),
                       grid=g)
    face_sel = g.face_node_selector(g.patch_axis, g.patch_side)
    smask = g.patch_support_mask()
    fluxes = (nonlinear_flux(u, law, A, g).values, linear_flux(u, law, A, g, 0.3).values)
    for m, t in enumerate(g.times):
        con = dnmap._face_conormal(u.values[m], g, A)
        for got, gam in zip(fluxes, (law.gamma(t, u.values[m][face_sel]), law.gamma(t, 0.3))):
            ref = np.where(smask, gam * con, 0.0)
            assert np.abs(got[m] - ref).max() <= 1e-14 * np.abs(ref).max()


def test_surface_pairing_matches_closed_form():
    # flux = 1 on the whole face, h = sin(pi t) * 1: integral = (2/pi) * |S|
    g = build_grid(2, 1 / 16, 1 / 512, 1.0)
    smask = g.patch_support_mask()
    vals = np.ones((g.nt + 1,) + smask.shape)
    vals[:, ~smask] = 0.0
    fl = PatchField(values=vals, grid=g)
    hb = _on_patch(g, lambda t, x: math.sin(math.pi * t) + 0.0 * x[..., 0])
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


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), N=st.integers(4, 10),
       diag=st.lists(st.floats(0.2, 5.0), min_size=3, max_size=3),
       seed=st.integers(0, 2 ** 16))
def test_lifting_matches_sparse_direct_solve_property(dim, N, diag, seed):
    # each level of rough random boundary data against a sparse direct solve
    # of the box stencil; the last level is the terminal zero
    g = build_grid(dim, 1 / N, 0.5, 1.0)
    A = make_matrix(np.diag(diag[:dim]))
    levels = np.random.default_rng(seed).standard_normal((g.nt + 1,) + g.shape)
    levels[-1] = 0.0
    levels[(slice(None),) + (slice(1, -1),) * dim] = 0.0
    E = lift_terminal_zero(BoundaryField(values=levels, grid=g), g, A)
    K, flat_int = constant_stiffness(g, A.A)
    M = K[:, flat_int].tocsc()
    for trace, lifted in zip(levels, E):
        assert np.array_equal(np.delete(lifted.ravel(), flat_int),
                              np.delete(trace.ravel(), flat_int))
        ref = spsolve(M, -(K @ trace.ravel()))
        assert np.abs(lifted.ravel()[flat_int] - ref).max() <= 1e-12 * np.abs(trace).max()


def test_probes_and_lifting_factorize_nothing(monkeypatch):
    # the Omega' corrector and the lifting are DST solves; only the Newton
    # Jacobian of solve_forward is factorized
    calls = []

    def counted(real):
        return lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)

    for mod in (pde, singular, dnmap):
        monkeypatch.setattr(mod, "splu", counted(mod.splu))
    g3 = build_grid(3, 1 / 8, 2.5 / 24, 2.5, pad=6)
    law = make_law(rho=("trig_t", {"c0": 2.0, "c1": 0.3, "freq": 0.4}))
    probe = ProbeSpec(x0=(0.0, 0.5, 0.5), t0=1.25, tau=0.3, kind="rho", r=0.25)
    recover_rho_point((law, make_law()), g3, 0.0, probe)
    g = _grid()
    lift_terminal_zero(boundary_field_from_callable(
        g, lambda t, x: (1 - t) * x[..., 0] * x[..., 1]), g, A2)
    assert calls == []
    # a u-dependent law driven far from lambda stalls the frozen chord step
    law = make_law(gamma=("poly_s", {"c0": 1.0, "c1": 0.5, "c2": 0.5}))
    u = solve_forward(law, A2, g, 0.0, boundary_field_from_callable(
        g, lambda t, x: 2.0 * t * x[..., 0]))
    assert len(calls) == u.newton["factorizations"] >= 1  # the one factorizing solver


def test_weak_pairing_matches_surface_pairing():
    # for smooth data the interior identity and the direct flux quadrature
    # must agree to discretization accuracy
    g = build_grid(2, 1 / 64, 1 / 64, 1.0)
    law = make_law(gamma=("trig_t", {"c0": 2.0, "c1": 0.3}),
                   rho=("trig_t", {"c0": 1.0, "c1": 0.2, "phase": 0.4}))
    # both data live on the patch so the flux quadrature sees all of <Lg, h>
    gb, hb = random_bump_dictionary(g, count=2, seed=2)
    w = solve_linearized(law, A2, g, 0.0, gb.boundary())
    strong = surface_pairing(linear_flux(w, law, A2, g, 0.0), hb, g)
    weak = weak_pairing(w, hb.boundary(), law, A2, g, 0.0)
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
    sf = _closed_curve_samples(f.boundary().values, g)[:-1]
    sq = _closed_curve_samples(q.boundary().values, g)[:-1]
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
    gb = _on_patch(g, _datum)
    rows = linearization_check(law, A2, g, 0.0, gb, [4, 8, 16])
    for row in rows:
        assert row["ok"]
        assert row["d_k"] < 1e-9


def test_linearization_check_quadratic_decay():
    g = _grid()
    law = make_law(gamma=("poly_s", {"c0": 1.0, "c2": 1.0}))
    gb = _on_patch(g, _datum)
    rows = linearization_check(law, A2, g, 0.5, gb, [4, 8, 16])
    d = [r["d_k"] for r in rows]
    assert d[0] > d[1] > d[2] > 0.0
    assert d[2] / d[1] == pytest.approx(0.5, abs=0.12)


def test_linearization_check_flags_a_diverging_row_and_keeps_the_rest():
    # gamma = 0.2 + s^2 driven by the full datum (k = 1) hits the Newton cap;
    # g/4 and g/16 advance in the same stack and match their own solves
    g = _grid()
    law = make_law(gamma=("poly_s", {"c0": 0.2, "c2": 1.0}), m_floor=1e-4)
    gb = _on_patch(g, lambda t, x: 20.0 * _datum(t, x))
    rows = linearization_check(law, A2, g, 0.0, gb, [1, 4, 16])
    assert rows[0]["ok"] is False and rows[0]["newton"] is None
    assert rows[0]["why"] == ("outside operational smallness radius "
                              "(Newton cap 25 hit at t=0.25)")
    lam_flux = patch_linear_flux(law, A2, g, 0.0, [gb])[0]
    for row in rows[1:]:
        k = row["k"]
        u = solve_forward(law, A2, g, 0.0, PatchField(values=gb.values / k, grid=g))
        diff = k * nonlinear_flux(u, law, A2, g).values - lam_flux
        assert row["ok"] and row["newton"] == u.newton
        assert row["d_k"] == flux_l2_st(PatchField(values=diff, grid=g), g)


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
        assert a.values.shape == (g.nt + 1,) + g.patch_support_mask().shape
        assert np.array_equal(a.values, b.values)
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


# --- the patch path against the full-field reference -------------------------

_PATCH_CASES = {
    "2d-left": (build_grid(2, 1 / 16, 1 / 16, 1.0, patch_face="left"),
                make_matrix(np.diag([2.0, 0.5]))),
    "2d-right": (build_grid(2, 1 / 16, 1 / 16, 1.0, patch_face="right"),
                 make_matrix(np.diag([2.0, 0.5]))),
    "3d-h8": (build_grid(3, 1 / 8, 1 / 8, 1.0), make_matrix(np.eye(3))),
}


@pytest.mark.parametrize("case", sorted(_PATCH_CASES))
@settings(max_examples=15, deadline=None)
@given(law1=_laws, law2=_laws, lam=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_patch_flux_matches_full_field_property(case, law1, law2, lam, seed):
    g, A = _PATCH_CASES[case]
    data = random_bump_dictionary(g, count=3, seed=seed)
    f1 = patch_linear_flux(law1, A, g, lam, data)
    f2 = patch_linear_flux(law2, A, g, lam, data)
    scale = max(np.abs(f1).max(), np.abs(f2).max())
    for datum, diff in zip(data, f1 - f2):
        ref = lambda_difference_flux((law1, law2), A, g, lam, datum.boundary()).values
        assert np.abs(diff - ref).max() <= 1e-11 * scale

