import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from dnprobe import dnmap, pde, reconstruct, singular
from dnprobe.dnmap import (BoundaryNorm, DNMapError, eta_surrogate, flux_l2_st,
                           linear_flux, linearization_check, nonlinear_flux, norm_flag,
                           patch_linear_flux, random_bump_dictionary, surface_pairing)
from dnprobe.geometry import build_grid, trapezoid_weights
from dnprobe.material import Coefficient, coefficient, make_law, make_matrix
from dnprobe.pde import (BoundaryField, PatchField, SpaceTimeField,
                         solve_forward, solve_linearized)
from dnprobe.reconstruct import ProbeSpec, recover_rho_point
from reference import (_face_conormal, boundary_dual, boundary_field_from_callable,
                       boundary_from_face, boundary_half, bump_dictionary_numpy,
                       constant_stiffness, lambda_difference_flux, lift_terminal_zero,
                       patch_linear_flux_stacked, solve_adjoint, weak_pairing)
from test_pde import _NO_SHRINK, _laws

A2 = make_matrix(np.eye(2))


def _datum(t, x):
    return np.sin(np.pi * t) * np.sin(np.pi * x[..., 1]) * np.exp(-x[..., 0])


def _grid(nh=16, nt=16, T=1.0):
    return build_grid(2, 1 / nh, T / nt, T)


def _on_patch(g, fn):
    """fn(t, X) sampled on the patch face as a face array, zero off S."""
    face = (slice(None),) + g.face_node_selector(g.patch_axis, g.patch_side)
    return boundary_field_from_callable(g, fn).values[face] * g.patch_support_mask()


def _datum_on_patch(g, amplitude=1.0):
    """amplitude * _datum, which is separable, as the patch datum
    PatchField(sin(pi t), face)."""
    face = _on_patch(g, lambda t, x: amplitude * _datum(0.5, x))[0]
    return PatchField(np.sin(np.pi * g.times), face, g)


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
    assert np.allclose(fl[:, smask], 1.5 * 3.0, atol=1e-12)
    assert np.all(fl[:, ~smask] == 0.0)


def test_flux_anisotropic_conormal():
    # u = x + 2y, A = diag(2, 1), left face: A grad u . (-e_x) = -(2*1) = -2;
    # the tangential slope 2 does not enter
    g = _grid()
    A = make_matrix(np.diag([2.0, 1.0]))
    coords = np.stack(g.node_coords(), axis=-1)
    vals = np.broadcast_to(coords[..., 0] + 2.0 * coords[..., 1],
                           (g.nt + 1,) + g.shape).copy()
    u = SpaceTimeField(values=vals, grid=g)
    fl = nonlinear_flux(u, make_law(), A, g)
    smask = g.patch_support_mask()
    assert np.allclose(fl[:, smask], -2.0, atol=1e-10)
    assert np.all(fl[:, ~smask] == 0.0)


def test_linear_flux_uses_background_coefficient():
    g = _grid()
    law = make_law(gamma=("poly_s", {"c0": 1.0, "c1": 2.0}))
    coords = np.stack(g.node_coords(), axis=-1)
    vals = np.broadcast_to(coords[..., 0], (g.nt + 1,) + g.shape).copy()
    w = SpaceTimeField(values=vals, grid=g)
    fl = linear_flux(w, law, A2, g, lam=0.5)
    smask = g.patch_support_mask()
    # gamma(t, 0.5) = 2, du/dnu = -1 on the left face
    assert np.allclose(fl[:, smask], -2.0, atol=1e-12)


_FLUX_CASES = {
    "2d-left-diag": (2, "left", [[2.0, 0.0], [0.0, 1.0]]),
    "2d-top-diag": (2, "top", [[1.5, 0.0], [0.0, 0.7]]),
    "3d-back-diag": (3, "back", [[1.0, 0.0, 0.0], [0.0, 1.2, 0.0], [0.0, 0.0, 0.9]]),
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
    fluxes = (nonlinear_flux(u, law, A, g), linear_flux(u, law, A, g, 0.3))
    for m, t in enumerate(g.times):
        con = _face_conormal(u.values[m], g, A)
        for got, gam in zip(fluxes, (law.gamma(t, u.values[m][face_sel]), law.gamma(t, 0.3))):
            ref = np.where(smask, gam * con, 0.0)
            assert np.abs(got[m] - ref).max() <= 1e-14 * np.abs(ref).max()


def test_surface_pairing_matches_closed_form():
    # flux = 1 on the whole face, h = sin(pi t) * 1: integral = (2/pi) * |S|
    g = build_grid(2, 1 / 16, 1 / 512, 1.0)
    smask = g.patch_support_mask()
    vals = np.ones((g.nt + 1,) + smask.shape)
    vals[:, ~smask] = 0.0
    hb = _on_patch(g, lambda t, x: math.sin(math.pi * t) + 0.0 * x[..., 0])
    got = surface_pairing(vals, hb, g)
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
    recover_rho_point((law, make_law()), make_matrix(np.eye(3)), g3, 0.0, probe)
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
    w = solve_linearized(law, A2, g, 0.0, boundary_from_face(gb.values, g))
    strong = surface_pairing(linear_flux(w, law, A2, g, 0.0), hb.values, g)
    weak = weak_pairing(w, boundary_from_face(hb.values, g), law, A2, g, 0.0)
    assert weak == pytest.approx(strong, rel=0.05)


# --- boundary norms ---------------------------------------------------------


def test_norm_kinds():
    # the grid's dimension chooses the norm, and norm_flag names it: the
    # 3D norm is flux_l2_st, the 2D spectral one is not
    for g, flag in ((_FACES_2D[0], "spectral-half"), (_FACES_3D[0], "L2")):
        datum = _face_data(g, 0)[-1]
        assert norm_flag(g.dim) == flag
        assert (BoundaryNorm(g).half(datum) == flux_l2_st(datum, g)) == (flag == "L2")


@given(c=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       mode=st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_norm_homogeneity_and_positivity(c, mode):
    g = _grid()
    nrm = BoundaryNorm(g)
    hb = boundary_field_from_callable(
        g, lambda t, x: np.sin(np.pi * mode * t) * np.sin(np.pi * x[..., 1]))
    base = boundary_half(nrm, hb)
    assert base > 0.0
    scaled = BoundaryField(values=c * hb.values, grid=g)
    assert boundary_half(nrm, scaled) == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)
    assert boundary_dual(nrm, scaled) == pytest.approx(abs(c) * boundary_dual(nrm, hb),
                                                       rel=1e-12, abs=1e-12)


def test_norm_triangle_inequality():
    g = _grid()
    nrm = BoundaryNorm(g)
    h1 = boundary_field_from_callable(
        g, lambda t, x: np.sin(np.pi * t) * np.sin(np.pi * x[..., 1]))
    h2 = boundary_field_from_callable(
        g, lambda t, x: np.sin(2 * np.pi * t) * np.cos(np.pi * x[..., 1]))
    hs = BoundaryField(values=h1.values + h2.values, grid=g)
    assert boundary_half(nrm, hs) <= boundary_half(nrm, h1) + boundary_half(nrm, h2) + 1e-12


def test_dual_bounds_the_l2_pairing():
    # |<f, g>_L2(curve x time)| <= dual(f) * half(g) is the defining duality
    g = _grid()
    nrm = BoundaryNorm(g)
    rng = np.random.default_rng(1)
    fields = random_bump_dictionary(g, count=4, seed=5)
    f, q = fields[0], fields[1]
    from dnprobe.dnmap import _closed_curve_samples
    sf = _closed_curve_samples(boundary_from_face(f.values, g).values, g)[:-1]
    sq = _closed_curve_samples(boundary_from_face(q.values, g).values, g)[:-1]
    ds = 4.0 / sf.shape[1]
    inner = float((sf * sq).sum()) * g.dt * ds
    assert abs(inner) <= nrm.dual(f.values) * nrm.half(q.values) + 1e-12


def test_rougher_data_has_larger_half_norm():
    g = _grid(32, 32)
    nrm = BoundaryNorm(g)
    smooth = boundary_field_from_callable(
        g, lambda t, x: np.sin(np.pi * t) * np.sin(np.pi * x[..., 1]))
    rough = boundary_field_from_callable(
        g, lambda t, x: np.sin(np.pi * t) * np.sin(7 * np.pi * x[..., 1]))
    # equal L2 mass up to the window, but the oscillatory trace costs more
    assert boundary_half(nrm, rough) > 1.5 * boundary_half(nrm, smooth)


_FACES_2D = [build_grid(2, 1 / 16, 1 / 16, 1.0, patch_face=f)
             for f in ("left", "right", "bottom", "top")] \
    + [build_grid(2, 1 / 16, 1 / 8, 1.0, patch_face="top", patch_interval=[(0.25, 0.625)])]
_FACES_3D = [build_grid(3, 1 / 8, 1 / 8, 1.0, patch_face=f)
             for f in ("left", "right", "bottom", "top", "front", "back")]


def _face_data(g, seed):
    """The face arrays of two dictionary data and of one rough datum on S,
    nonzero at t = T."""
    rough = np.random.default_rng(seed).standard_normal((g.nt + 1,) + g.patch_support_mask().shape)
    rough[:, ~g.patch_support_mask()] = 0.0
    return [datum.values for datum in random_bump_dictionary(g, count=2, seed=seed)] + [rough]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_face_norms_equal_the_norms_of_the_boundary_field(seed):
    # face arrays are measured as they are; the walk around dOmega of the
    # same data on all of dOmega is the reference
    for g in _FACES_2D:
        nrm = BoundaryNorm(g)
        for datum in _face_data(g, seed):
            full = boundary_from_face(datum, g)
            assert nrm.half(datum) == boundary_half(nrm, full)
            assert nrm.dual(datum) == boundary_dual(nrm, full)
    for g in _FACES_3D:
        nrm = BoundaryNorm(g)
        for datum in _face_data(g, seed):
            full = boundary_from_face(datum, g)
            for face, ref in ((nrm.half(datum), boundary_half(nrm, full)),
                              (nrm.dual(datum), boundary_dual(nrm, full))):
                assert abs(face - ref) <= 1e-15 * ref


def _fft2_norms(g, field: BoundaryField):
    """(half, dual) by the full complex fft2 over the (nt, 4N) closed-curve
    samples: the definition the half-spectrum sums must reproduce."""
    from dnprobe.dnmap import _closed_curve_samples
    samples = _closed_curve_samples(field.values, g)[:-1]
    n_t, n_s = samples.shape
    xi_s = 2.0 * math.pi * np.abs(np.fft.fftfreq(n_s, d=4.0 / n_s))
    xi_t = 2.0 * math.pi * np.abs(np.fft.fftfreq(n_t, d=g.T / n_t))
    w = (1.0 + xi_s)[None, :] + (1.0 + xi_t)[:, None]
    p = np.abs(np.fft.fft2(samples)) ** 2 * (g.dt * (4.0 / n_s) / (n_t * n_s))
    return math.sqrt(float((w * p).sum())), math.sqrt(float((p / w).sum()))


@pytest.mark.parametrize("nt", [16, 15])
def test_half_spectrum_norms_match_the_full_fft2(nt):
    # even nt has a Nyquist row that counts once, odd nt has none; face
    # arrays, the same data on all of dOmega, and data on all of dOmega
    for g in (_grid(16, nt), build_grid(2, 1 / 16, 1 / nt, 1.0, patch_face="top",
                                        patch_interval=[(0.25, 0.625)])):
        nrm = BoundaryNorm(g)
        rng = np.random.default_rng(nt)
        everywhere = BoundaryField(
            values=rng.standard_normal((nt + 1,) + g.shape) * ~pde.interior_mask(g), grid=g)
        for datum in _face_data(g, nt) + [everywhere]:
            full = datum if isinstance(datum, BoundaryField) else boundary_from_face(datum, g)
            half, dual = _fft2_norms(g, full)
            norms = [(boundary_half(nrm, full), boundary_dual(nrm, full))]
            if not isinstance(datum, BoundaryField):
                norms.append((nrm.half(datum), nrm.dual(datum)))
            for got_half, got_dual in norms:
                assert abs(got_half - half) <= 1e-14 * half
                assert abs(got_dual - dual) <= 1e-14 * dual


# --- linearization check and eta surrogate ----------------------------------


def test_linearization_check_linear_law_is_exact():
    g = _grid()
    law = make_law(gamma=("constant", {"c0": 2.0}), rho=("constant", {"c0": 1.0}))
    gb = _datum_on_patch(g)
    rows = linearization_check(law, A2, g, 0.0, gb, [4, 8, 16])
    for row in rows:
        assert row["ok"]
        assert row["d_k"] < 1e-9


def test_linearization_check_quadratic_decay():
    g = _grid()
    law = make_law(gamma=("poly_s", {"c0": 1.0, "c2": 1.0}))
    gb = _datum_on_patch(g)
    rows = linearization_check(law, A2, g, 0.5, gb, [4, 8, 16])
    d = [r["d_k"] for r in rows]
    assert d[0] > d[1] > d[2] > 0.0
    assert d[2] / d[1] == pytest.approx(0.5, abs=0.12)


def test_linearization_check_flags_a_diverging_row_and_keeps_the_rest():
    # gamma = 0.2 + s^2 driven by the full datum (k = 1) hits the Newton cap;
    # g/4 and g/16 advance in the same stack and match their own solves
    g = _grid()
    law = make_law(gamma=("poly_s", {"c0": 0.2, "c2": 1.0}), m_floor=1e-4)
    gb = _datum_on_patch(g, 20.0)
    rows = linearization_check(law, A2, g, 0.0, gb, [1, 4, 16])
    assert rows[0]["ok"] is False and rows[0]["newton"] is None
    assert rows[0]["why"] == ("outside operational smallness radius "
                              "(Newton cap 25 hit at t=0.25)")
    [[lam_flux]] = patch_linear_flux([law], A2, g, 0.0, [gb])
    for row in rows[1:]:
        k = row["k"]
        u = solve_forward(law, A2, g, 0.0, PatchField(gb.profile, gb.face / k, g))
        diff = k * nonlinear_flux(u, law, A2, g) - lam_flux
        assert row["ok"] and row["newton"] == u.newton
        assert row["d_k"] == flux_l2_st(diff, g)


def test_linearization_check_forms_no_history():
    # the four k-scaled data keep each level's flux only: numpy reports its
    # buffers to tracemalloc, and the traced peak stays below the bytes of
    # their four (nt+1, *shape) histories
    g = _grid(nt=64)
    gb = _datum_on_patch(g)
    law = make_law(gamma=("constant", {"c0": 1.02}))
    ks = [4, 8, 16, 32]
    tracemalloc.start()
    try:
        rows = linearization_check(law, A2, g, 0.0, gb, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r["ok"] for r in rows)
    assert peak < len(ks) * (g.nt + 1) * (g.n_cells + 1) ** 2 * 8


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


@given(seed=st.integers(0, 2 ** 128), dim=st.sampled_from([2, 3]), count=st.integers(1, 16))
@example(seed=2 ** 33 + 1, dim=3, count=16)
@example(seed=10 ** 25, dim=2, count=16)
@example(seed=2 ** 128, dim=3, count=16)
@settings(max_examples=60, deadline=None)
def test_dictionary_stream_is_numpys_default_rng(seed, dim, count):
    # the draws of random_bump_dictionary, in its order: dim - 1 uniforms
    # on (0.25, 0.75), one on (0.1, 0.3), then one integer in [1, 4), per
    # datum; a seed of several 32-bit words included
    ours, theirs = dnmap._PCG64(seed), np.random.default_rng(seed)
    for _ in range(count):
        a, b = ours.uniform(0.25, 0.75, size=dim - 1), theirs.uniform(0.25, 0.75, size=dim - 1)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert ours.uniform(0.1, 0.3) == theirs.uniform(0.1, 0.3)
        assert ours.integers(1, 4) == theirs.integers(1, 4)


@pytest.mark.parametrize("dim", [2, 3])
def test_dictionary_is_numpys_bit_for_bit(dim):
    # a datum's values are formed from its profile and face
    g = build_grid(dim, 1 / 16, 1 / 16, 1.0)
    factors = lambda data: [(d.profile.tobytes(), d.face.tobytes()) for d in data]
    for seed in range(32):
        for count in range(1, 17):
            assert factors(random_bump_dictionary(g, count=count, seed=seed)) == \
                factors(bump_dictionary_numpy(g, count, seed)), (seed, count)


def _eta(pair, A, g, dictionary):
    """eta_surrogate of a law pair on a dictionary, from one frozen call."""
    norm = BoundaryNorm(g)
    [diff] = patch_linear_flux([pair], A, g, 0.0, dictionary)
    return eta_surrogate(diff, [norm.half(datum.values) for datum in dictionary], norm)


def test_eta_surrogate_scales_with_contrast():
    g = _grid(8, 8)
    base = make_law(gamma=("constant", {"c0": 2.0}))
    d = random_bump_dictionary(g, count=4, seed=0)
    etas = []
    for eps in (0.05, 0.1, 0.2):
        other = make_law(gamma=("constant", {"c0": 2.0 + eps}))
        etas.append(_eta((base, other), A2, g, d))
    assert etas[0] < etas[1] < etas[2]
    # the frozen map is linear in the coefficient difference here
    assert etas[2] / etas[1] == pytest.approx(2.0, rel=0.1)
    assert _eta((base, base), A2, g, d) == 0.0


def test_eta_surrogate_monotone_in_dictionary():
    g = _grid(8, 8)
    base = make_law(gamma=("constant", {"c0": 2.0}))
    other = make_law(gamma=("trig_t", {"c0": 2.0, "c1": 0.2}))
    d = random_bump_dictionary(g, count=6, seed=3)
    small = _eta((base, other), A2, g, d[:2])
    full = _eta((base, other), A2, g, d)
    assert full >= small


def test_eta_surrogate_empty_dictionary():
    g = _grid(8, 8)
    with pytest.raises(DNMapError):
        eta_surrogate(np.zeros((0, g.nt + 1, g.n_cells + 1)), [], BoundaryNorm(g))


# --- the patch path against the full-field reference -------------------------

_PATCH_CASES = {
    "2d-left": (build_grid(2, 1 / 16, 1 / 16, 1.0, patch_face="left"),
                make_matrix(np.diag([2.0, 0.5]))),
    "2d-right": (build_grid(2, 1 / 16, 1 / 16, 1.0, patch_face="right"),
                 make_matrix(np.diag([2.0, 0.5]))),
    "3d-h8": (build_grid(3, 1 / 8, 1 / 8, 1.0), make_matrix(np.eye(3))),
}


def _stacked(entries):
    """Each entry of patch_linear_flux, one flux per datum, as one
    (len(data), nt+1, *face_shape) array."""
    return [np.stack(list(entry)) for entry in entries]


def _assert_patch_flux_matches_full_field(case, law1, law2, lam, seed):
    g, A = _PATCH_CASES[case]
    data = random_bump_dictionary(g, count=3, seed=seed)
    f1, f2 = _stacked(patch_linear_flux([law1, law2], A, g, lam, data))
    scale = max(np.abs(f1).max(), np.abs(f2).max())
    for datum, diff in zip(data, f1 - f2):
        ref = lambda_difference_flux((law1, law2), A, g, lam,
                                     boundary_from_face(datum.values, g))
        assert np.abs(diff - ref).max() <= 1e-11 * scale



@pytest.mark.parametrize("case", sorted(_PATCH_CASES))
@settings(max_examples=15, deadline=None, phases=_NO_SHRINK)
@given(law1=_laws, law2=_laws, lam=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_patch_flux_matches_full_field_property(case, law1, law2, lam, seed):
    _assert_patch_flux_matches_full_field(case, law1, law2, lam, seed)


def _interior_form(law_pair, A, g, lam, datum, test):
    """int_Q (gamma1 - gamma2)(t, lam) A grad w . grad v + (rho1 - rho2)(t, lam)
    d_t w v, w = solve_linearized(law1, datum), v = solve_adjoint(law2, test),
    and the same integral of the integrand's absolute value.  Space: centered
    gradients and the trapezoid rule.  Time: the backward difference of w and
    the sum over levels m = 1..nt, the form in which the implicit-Euler steps
    of w and v satisfy the identity exactly."""
    law1, law2 = law_pair
    w = solve_linearized(law1, A, g, lam, boundary_from_face(datum.values, g)).values
    v = solve_adjoint(law2, A, g, lam, boundary_from_face(test.values, g)).values
    dgam = law1.gamma(g.times, lam) - law2.gamma(g.times, lam)
    drho = law1.rho(g.times, lam) - law2.rho(g.times, lam)
    W = trapezoid_weights(g.shape, g.h)
    total = scale = 0.0
    for m in range(1, g.nt + 1):
        gw, gv = np.gradient(w[m], g.h, edge_order=2), np.gradient(v[m], g.h, edge_order=2)
        grad = sum(A.A[a, a] * gw[a] * gv[a] for a in range(g.dim))
        f = (dgam[m] * g.dt * grad + drho[m] * (w[m] - w[m - 1]) * v[m]) * W
        total += float(f.sum())
        scale += float(np.abs(f).sum())
    return total, scale


def _trig_law(freq):
    """A law of _laws whose gamma has frequency freq: at 4.76e-262 and
    1e-15, two laws whose conductivities are a few ulps apart."""
    c = {"c0": 2.1883895591900187, "c1": -0.4837528768732866}
    return make_law(gamma=("trig_t", dict(c, freq=freq)), rho=("trig_t", dict(c, freq=1e-15)))


@pytest.mark.parametrize("case", ["2d-left", "2d-right"])
@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
@given(law1=_laws, law2=_laws, lam=st.floats(-1.0, 1.0), seed=st.integers(0, 2 ** 16))
@example(law1=_trig_law(4.76e-262), law2=_trig_law(1e-15), lam=-1.401298464324817e-45,
         seed=7071)
def test_dn_difference_pairing_has_the_interior_form_property(case, law1, law2, lam, seed):
    # <(Lambda^1 - Lambda^2) g, h> = int_Q (gamma1 - gamma2) A grad w1 . grad v
    #                                      + (rho1 - rho2) d_t w1 v,
    # w1 the frozen solution of law1 with data g, v the adjoint solution of
    # law2 with data h, h(T) = 0.  The error is spatial (the one-sided face
    # flux, the gradient quadrature): refining dt alone barely moves it,
    # halving h cuts it 2-5x.  Measured at h = dt = 1/16, A = diag(2, 0.5)
    # (a_dd = 2), 300 random examples per face: at most 0.18 (h + dt) scale;
    # with a_dd = 0.5 the same grid reaches 3.3 (h + dt) scale.  For laws
    # a few ulps apart both sides are rounding, and the gap is bounded by
    # a few eps of <|Lambda^1 g| + |Lambda^2 g|, |h|> instead: on the
    # pinned example it is 0.60 of eps times that pairing.
    g, A = _PATCH_CASES[case]
    datum, test = random_bump_dictionary(g, count=2, seed=seed)
    [diff], [f1], [f2] = patch_linear_flux([(law1, law2), law1, law2], A, g, lam, [datum])
    lhs = surface_pairing(diff, test.values, g)
    rhs, scale = _interior_form((law1, law2), A, g, lam, datum, test)
    rounding = 4.0 * np.finfo(float).eps * surface_pairing(
        np.abs(f1) + np.abs(f2), np.abs(test.values), g)
    assert abs(lhs - rhs) <= 0.5 * (g.h + g.dt) * scale + rounding


# coefficient specs whose value does not depend on t, so a law built from
# them takes the convolution path of patch_linear_flux
_c0 = st.floats(1.0, 3.0)
_small = st.floats(-0.3, 0.3)
_constant_in_t = st.one_of(
    st.builds(lambda c0: ("constant", {"c0": c0}), _c0),
    st.builds(lambda c0, c1, c2: ("poly_s", {"c0": c0, "c1": c1, "c2": c2}),
              _c0, _small, _small),
    st.builds(lambda c0, c1, s0, w: ("gauss_s", {"c0": c0, "c1": c1, "s0": s0, "w": w}),
              _c0, _small, st.floats(-1.0, 1.0), st.floats(0.3, 2.0)),
    st.builds(lambda c0, freq, phase: ("trig_t", {"c0": c0, "c1": 0.0, "freq": freq,
                                                  "phase": phase}),
              _c0, st.floats(0.0, 2.0), st.floats(0.0, 6.3)))
_laws_constant_in_t = st.builds(lambda gp, rp: make_law(gamma=gp, rho=rp),
                                _constant_in_t, _constant_in_t)


def _is_constant_in_t(law, case, lam):
    g, A = _PATCH_CASES[case]
    _, _, [gam], [rho] = pde._frozen_setup([law], A, g, lam)
    return np.all(gam[1:] == gam[1]) and np.all(rho[1:] == rho[1])


@pytest.mark.parametrize("case", sorted(_PATCH_CASES))
@settings(max_examples=10, deadline=None, phases=_NO_SHRINK)
@given(law1=_laws_constant_in_t, law2=st.one_of(_laws_constant_in_t, _laws),
       swap=st.booleans(), lam=st.floats(-1.0, 1.0), seed=st.integers(0, 2 ** 16))
def test_patch_flux_of_laws_constant_in_t_matches_full_field_property(case, law1, law2,
                                                                      swap, lam, seed):
    # both laws constant in t, or one constant and one varying, in either order
    assert _is_constant_in_t(law1, case, lam)
    if swap:
        law1, law2 = law2, law1
    _assert_patch_flux_matches_full_field(case, law1, law2, lam, seed)


_CONSTANT_LAW = make_law(gamma=("poly_s", {"c0": 1.5, "c1": 0.3}),
                         rho=("trig_t", {"c0": 2.0, "c1": 0.0, "freq": 0.7}))
_VARYING_LAW = make_law(gamma=("trig_t", {"c0": 1.5, "c1": 0.2}),
                        rho=("affine_t", {"c1": 0.3}))
_OTHER_CONSTANT_LAW = make_law(gamma=("constant", {"c0": 2.5}), rho=("constant", {"c0": 0.8}))


_AGREE_CASES = dict(_PATCH_CASES, **{"2d-h64": (build_grid(2, 1 / 64, 1 / 64, 1.0), A2)})


@pytest.mark.parametrize("case", sorted(_AGREE_CASES))
def test_convolution_and_steps_agree_on_constant_coefficients(monkeypatch, case):
    # the two plane helpers, handed the same constant coefficient arrays by
    # one patch_linear_flux call, agree to rounding
    g, A = _AGREE_CASES[case]
    convolved, stepped = dnmap._planes_by_convolution, dnmap._planes_by_steps
    gaps = []

    def both(*args):
        near, ref = convolved(*args), stepped(*args)
        # one face row per law and profile row, over the tangential modes
        src, eig, r = args[0], args[1], args[4]
        assert near.shape == ref.shape == r.shape[:1] + src.shape[:2] + eig.shape[1:]
        gaps.append(np.abs(near - ref).max() / np.abs(ref).max())
        return near

    monkeypatch.setattr(dnmap, "_planes_by_convolution", both)
    data = random_bump_dictionary(g, count=3, seed=7)
    patch_linear_flux([_CONSTANT_LAW, _OTHER_CONSTANT_LAW], A, g, 0.4, data)
    assert len(gaps) == 1 and gaps[0] <= 1e-13
    patch_linear_flux([_VARYING_LAW], A, g, 0.4, data)  # stepped, not convolved
    assert len(gaps) == 1


def _two_plane_reference(g, src, eig, col, r, gam, w):
    """P_0 and P_1, the two node planes next to the face in tangential
    modes, (L, B, nt+1, *tang) for the L laws of r, gam and w, by implicit
    Euler law by law and level by level through the two inverse-DST rows
    sin(pi k p / N) / N of the planes p."""
    N, k = g.n_cells, np.arange(1, g.n_cells)
    planes = (1, 2) if g.patch_side == 0 else (N - 1, N - 2)
    rows = np.sin(np.pi * np.outer(planes, k) / N) / N
    B, nt = src.shape[0], src.shape[1] - 1
    P = np.zeros((len(r), B, nt + 1, 2) + eig.shape[1:])
    for i in range(len(r)):
        state = np.zeros((B,) + eig.shape)
        for m in range(1, nt + 1):
            state = ((r[i, m] * state + w[i, m] * src[:, m, None] * col)
                     / (r[i, m] + gam[i, m] * eig))
            P[i, :, m] = (rows @ state.reshape(B, N - 1, -1)).reshape(P[i, :, m].shape)
    return P[:, :, :, 0], P[:, :, :, 1]


@pytest.mark.parametrize("case", sorted(_PATCH_CASES))
def test_face_row_is_four_p0_minus_p1(monkeypatch, case):
    # both plane helpers, on the arguments patch_linear_flux hands them,
    # return 4 P_0 - P_1 of the two-plane recursion
    g, A = _PATCH_CASES[case]
    steps, convolved = dnmap._planes_by_steps, dnmap._planes_by_convolution
    seen = []

    def recorded(real):
        def helper(*args):
            seen.append(args)
            return real(*args)
        return helper

    monkeypatch.setattr(dnmap, "_planes_by_steps", recorded(steps))
    monkeypatch.setattr(dnmap, "_planes_by_convolution", recorded(convolved))
    data = random_bump_dictionary(g, count=3, seed=11)
    # one call: the two constant laws convolved, the varying one stepped
    patch_linear_flux([_CONSTANT_LAW, _VARYING_LAW, _OTHER_CONSTANT_LAW], A, g, 0.4, data)
    constant, varying = seen
    for helper, args in ((steps, constant), (convolved, constant), (steps, varying)):
        src, eig, col, row, r, gam, w = args
        P0, P1 = _two_plane_reference(g, src, eig, col, r, gam, w)
        ref = 4.0 * P0 - P1
        got = helper(*args)
        assert src.shape[2:] == (1,) * (g.dim - 1)  # not formed over the modes
        assert got.shape == ref.shape == r.shape[:1] + src.shape[:2] + eig.shape[1:]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("case", sorted(_PATCH_CASES))
def test_one_call_on_mixed_laws_equals_single_law_calls(monkeypatch, case):
    # laws constant and varying in t in one call, on data with shared
    # profiles and a singleton: law by law, the flux of a call on that law
    # alone, and a pair of laws, formed in mode space, the difference of
    # their fluxes to rounding of the larger
    g, A = _PATCH_CASES[case]
    laws = [_VARYING_LAW, _CONSTANT_LAW, make_law(),
            make_law(gamma=("trig_t", {"c0": 1.2, "c1": 0.3}),
                     rho=("trig_t", {"c0": 1.0, "c1": 0.2, "freq": 0.4}))]
    d = random_bump_dictionary(g, count=4, seed=11)
    data = d + [PatchField(d[0].profile, 0.5 * d[0].face, g)]
    keys = [datum.profile.tobytes() for datum in data]
    assert any(keys.count(k) > 1 for k in keys) and any(keys.count(k) == 1 for k in keys)
    rows = _count_rows(monkeypatch)
    pairs = [(laws[2], laws[0]), (laws[1], laws[3])]
    fluxes = _stacked(patch_linear_flux(laws + pairs, A, g, 0.3, data))
    expected = len(set(keys))
    assert rows == [("_planes_by_convolution", expected), ("_planes_by_steps", expected)]
    for got, (a, b) in zip(fluxes[4:], ((2, 0), (1, 3))):
        scale = max(np.abs(fluxes[a]).max(), np.abs(fluxes[b]).max())
        assert np.abs(got - (fluxes[a] - fluxes[b])).max() <= 1e-13 * scale
    for law, got in zip(laws, fluxes):
        [ref] = _stacked(patch_linear_flux([law], A, g, 0.3, data))
        assert got.shape == (len(data), g.nt + 1) + g.patch_support_mask().shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_patch_flux_evaluates_each_law_once_per_call(monkeypatch):
    # gamma and rho over all time levels in one evaluation each, however
    # many steps the frozen solve takes, stepped or convolved
    calls, real = [], Coefficient._eval

    def counted(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(Coefficient, "_eval", counted)
    for law in (_VARYING_LAW, _CONSTANT_LAW):
        counts = []
        for nt in (8, 16):
            g = build_grid(2, 1 / 16, 1 / nt, 1.0)
            data = random_bump_dictionary(g, count=2, seed=1)
            calls.clear()
            patch_linear_flux([law], A2, g, 0.0, data)
            counts.append(len(calls))
        assert counts[0] == counts[1]


# --- data that keep their factors share their frozen solve --------------------


def _dictionary_as_one_product(grid, count, seed):
    """random_bump_dictionary's values formed as one broadcast product of
    the time arch and the windowed bump, with no factors kept: the values
    the factored data must equal byte for byte."""
    rng = np.random.default_rng(seed)
    smask = grid.patch_support_mask()
    ax = grid.axis_nodes()
    tang = np.meshgrid(*([ax] * (grid.dim - 1)), indexing="ij")
    lo, hi = np.array(grid.patch_lo) * grid.h, np.array(grid.patch_hi) * grid.h
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
        out.append(prof.reshape((-1,) + (1,) * (grid.dim - 1)) * space[None])
    return out


@pytest.mark.parametrize("case", sorted(_PATCH_CASES))
def test_factored_data_values_are_the_products_byte_for_byte(case):
    g, _ = _PATCH_CASES[case]
    support = g.patch_support_mask()
    d = random_bump_dictionary(g, count=6, seed=4)
    for datum, ref in zip(d, _dictionary_as_one_product(g, 6, 4)):
        assert datum.values.tobytes() == ref.tobytes()
        assert datum.profile.shape == (g.nt + 1,) and datum.face.shape == support.shape
    # a probe datum, with a spatial field that leaks off S within the guard
    rng = np.random.default_rng(9)
    face = g.face_node_selector(g.patch_axis, g.patch_side)
    spatial = np.zeros(g.shape)
    spatial[face] = rng.standard_normal(support.shape) * np.where(support, 1.0, 1e-9)
    profile = rng.standard_normal(g.nt + 1)
    profile[0] = 0.0
    datum = pde.probe_boundary_field(g, profile, spatial)
    ref = np.zeros((g.nt + 1,) + support.shape)
    ref[:, support] = profile[:, None] * spatial[face][support][None, :]
    assert datum.values.tobytes() == ref.tobytes()
    assert not datum.face[~support].any()  # what leaks off S is dropped


def test_data_without_factors_are_refused_before_any_solve(monkeypatch):
    # patch data are only ever formed from both factors: values alone, or a
    # missing factor, are refused where the datum is built, and no plane
    # helper runs
    g, A = _PATCH_CASES["2d-left"]
    d = random_bump_dictionary(g, count=2, seed=5)
    rows = _count_rows(monkeypatch)
    with pytest.raises(TypeError):
        PatchField(values=d[1].values, grid=g)
    for profile, face, what in ((d[1].profile, None, "face"), (None, d[1].face, "profile")):
        with pytest.raises(pde.PDEError, match=f"patch {what} needs shape"):
            PatchField(profile, face, g)
    [flux] = _stacked(patch_linear_flux([_CONSTANT_LAW], A, g, 0.0, [d[0]]))
    assert rows == [("_planes_by_convolution", 1)]
    assert flux.shape == (1, g.nt + 1) + g.patch_support_mask().shape


@pytest.mark.parametrize("case", sorted(_PATCH_CASES))
def test_per_datum_fluxes_are_the_stacked_entries_byte_for_byte(case):
    # single laws and pairs, constant and varying in t, on dictionary data
    # and a datum of both signs with an exact zero on S: each datum's flux,
    # formed when it is reached, is its row of the entry stacked at once
    g, A = _PATCH_CASES[case]
    rng = np.random.default_rng(3)
    profile = rng.standard_normal(g.nt + 1)
    profile[0] = 0.0
    face = rng.standard_normal(g.patch_support_mask().shape)
    face[g.patch_lo] = 0.0
    data = random_bump_dictionary(g, count=4, seed=2) + [PatchField(profile, face, g)]
    other = make_law(gamma=("trig_t", {"c0": 1.2, "c1": 0.3}),
                     rho=("trig_t", {"c0": 1.0, "c1": 0.2, "freq": 0.4}))
    laws = [_CONSTANT_LAW, _VARYING_LAW, (_CONSTANT_LAW, _OTHER_CONSTANT_LAW),
            (_VARYING_LAW, other), (_OTHER_CONSTANT_LAW, _VARYING_LAW)]
    for entry, ref in zip(patch_linear_flux(laws, A, g, 0.3, data),
                          patch_linear_flux_stacked(laws, A, g, 0.3, data), strict=True):
        fluxes = list(entry)
        assert len(fluxes) == len(data)
        for got, row in zip(fluxes, ref):
            assert got.shape == row.shape and got.tobytes() == row.tobytes()


def test_an_entry_holds_one_datum_flux_at_a_time():
    # iterating one entry and dropping each datum's flux: numpy reports its
    # buffers to tracemalloc, and the traced peak with 16 data exceeds that
    # with 4 by less than one datum's flux
    g, A = build_grid(3, 1 / 8, 1 / 16, 2.0), make_matrix(np.eye(3))
    faces = np.random.default_rng(0).standard_normal((16,) + g.patch_support_mask().shape)
    profile = np.sin(np.pi * g.times / g.T) ** 2  # one row for all data
    data = [PatchField(profile, face, g) for face in faces]

    def peak(data):
        tracemalloc.start()
        try:
            [entry] = patch_linear_flux([(_VARYING_LAW, _CONSTANT_LAW)], A, g, 0.0, data)
            for flux in entry:
                assert flux.shape == (g.nt + 1,) + faces[0].shape
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(data) - peak(data[:4]) < (g.nt + 1) * faces[0].size * 8


def _count_rows(mp):
    """Record the rows (source rows) each plane helper receives."""
    rows = []

    def counted(name, real):
        def helper(src, *args):
            rows.append((name, src.shape[0]))
            return real(src, *args)
        return helper

    for name in ("_planes_by_steps", "_planes_by_convolution"):
        mp.setattr(dnmap, name, counted(name, getattr(dnmap, name)))
    return rows


@pytest.mark.parametrize("case", sorted(_PATCH_CASES))
@settings(max_examples=8, deadline=None, phases=_NO_SHRINK)
@given(groups=st.lists(st.integers(0, 3), min_size=1, max_size=6),
       lam=st.floats(-1.0, 1.0), seed=st.integers(0, 2 ** 16))
def test_shared_profiles_give_the_flux_of_their_values_property(case, groups, lam, seed):
    # data of one profile (equal values, not the same array) share one
    # recurrence row, in any order; datum by datum the difference flux of a
    # pair, convolved or stepped, is that of two full-field frozen solves
    g, A = _PATCH_CASES[case]
    rng = np.random.default_rng(seed)
    support = g.patch_support_mask()
    profiles = rng.standard_normal((4, g.nt + 1))
    profiles[:, 0] = 0.0
    data = [PatchField(profiles[i].copy(), rng.standard_normal(support.shape), g)
            for i in groups]
    data = [data[b] for b in rng.permutation(len(data))]
    R = len(set(groups))
    for law, helpers in ((_CONSTANT_LAW, ["_planes_by_convolution"]),
                         (_VARYING_LAW, ["_planes_by_convolution", "_planes_by_steps"])):
        pair = (law, _OTHER_CONSTANT_LAW)
        with pytest.MonkeyPatch.context() as mp:
            rows = _count_rows(mp)
            [got] = patch_linear_flux([pair], A, g, lam, data)
        assert rows == [(helper, R) for helper in helpers]
        for datum, diff in zip(data, got):
            ref = lambda_difference_flux(pair, A, g, lam, boundary_from_face(datum.values, g))
            assert np.abs(diff - ref).max() <= 1e-11 * np.abs(ref).max()


def test_probes_and_dictionary_solve_one_row_per_shared_profile(monkeypatch):
    # on the benchmark grids: the 16-datum dictionary one row per distinct
    # mode k, a 4-tau rho sweep one row per probe (its 3 data share chi
    # Phi_tau), a 5-tau gamma sweep one row per probe (nothing to share)
    rows = _count_rows(monkeypatch)
    g3 = build_grid(3, 1 / 16, 0.0625, 2.5, pad=8)
    A3 = make_matrix(np.eye(3))
    d = random_bump_dictionary(g3, count=16, seed=0)
    modes = {datum.profile.tobytes() for datum in d}
    assert len(modes) == 3
    patch_linear_flux([_VARYING_LAW, _CONSTANT_LAW], A3, g3, 0.0, d)
    assert rows == [("_planes_by_convolution", 3), ("_planes_by_steps", 3)]
    rows.clear()
    varying_rho = make_law(rho=("trig_t", {"c0": 1.0, "c1": 0.2, "freq": 0.2}))
    rho_probes = [ProbeSpec(x0=(0.0, 0.5, 0.5), t0=1.25, tau=tau, kind="rho", r=0.25)
                  for tau in (0.2, 0.175, 0.15, 0.125)]
    pair = (varying_rho, make_law())
    reconstruct.point_recovery(reconstruct.check_probes(g3, A3, rho_probes, [pair], lam=0.0))[0]
    assert rows == [("_planes_by_convolution", 4), ("_planes_by_steps", 4)]
    rows.clear()
    g2 = build_grid(2, 1 / 64, 1 / 64, 1.0, pad=52)
    gamma_probes = [ProbeSpec(x0=(0.0, 0.5), t0=0.5, tau=tau, kind="gamma", a_rule="power",
                              r=0.5) for tau in (0.2, 0.15, 0.1, 0.07, 0.05)]
    pair = (make_law(gamma=("constant", {"c0": 1.02})), make_law())
    reconstruct.point_recovery(reconstruct.check_probes(g2, A2, gamma_probes, [pair], lam=0.0))[0]
    assert rows == [("_planes_by_convolution", 5)]  # both laws in one call
