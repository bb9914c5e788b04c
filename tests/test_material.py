import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnprobe.material import (MaterialError, check_admissible,
                              check_interior_max, coefficient, make_law,
                              make_matrix, perturb_law)


def test_matrix_identity_flags():
    A = make_matrix(np.eye(3))
    assert A.is_identity and A.is_diagonal
    assert A.ellipticity_c == pytest.approx(1.0)


def test_matrix_anisotropic():
    A = make_matrix(np.diag([2.0, 0.5]))
    assert A.is_diagonal and not A.is_identity
    assert A.ellipticity_c == pytest.approx(0.5)


def test_matrix_rejects_asymmetric():
    with pytest.raises(MaterialError):
        make_matrix([[1.0, 0.3], [0.0, 1.0]])


def test_matrix_rejects_indefinite():
    with pytest.raises(MaterialError):
        make_matrix([[1.0, 2.0], [2.0, 1.0]])


def test_unknown_law_name():
    with pytest.raises(MaterialError):
        make_law(gamma=("mystery", {}))


def test_unused_params_rejected():
    with pytest.raises(MaterialError):
        make_law(gamma=("constant", {"c0": 1.0, "junk": 2.0}))


def test_equal_specs_give_equal_hashable_laws():
    spec = dict(gamma=("trig_t", {"c0": 2.0, "c1": 0.5}),
                rho=("poly_s", {"c1": 0.3}), m_floor=0.1, kappa_cap=4.0)
    law1, law2 = make_law(**spec), make_law(**spec)
    assert law1 == law2 and hash(law1) == hash(law2)
    assert law1 != make_law(**dict(spec, rho=("poly_s", {"c1": 0.4})))
    # omitted parameters take their defaults
    assert make_law(gamma=("constant", {})) == make_law()


def _fd(f, t, s, which, eps=1e-6):
    if which == "t":
        return (f(t + eps, s) - f(t - eps, s)) / (2 * eps)
    return (f(t, s + eps) - f(t, s - eps)) / (2 * eps)


@pytest.mark.parametrize("spec", [
    ("constant", {"c0": 2.0}),
    ("affine_t", {"c0": 1.0, "c1": 0.5}),
    ("trig_t", {"c0": 2.0, "c1": 0.5, "freq": 1.5, "phase": 0.3}),
    ("gauss_s", {"c0": 1.0, "c1": 0.5, "s0": 0.2, "w": 0.7}),
    ("poly_s", {"c0": 1.0, "c1": 0.3, "c2": 0.1}),
])
def test_exact_derivatives_match_finite_differences(spec):
    law = make_law(gamma=spec, rho=spec)
    for t in (0.1, 0.5, 0.9):
        for s in (-0.4, 0.0, 0.7):
            for c in (law.gamma, law.rho):
                assert c.dt(t, s) == pytest.approx(_fd(c, t, s, "t"), abs=1e-7)
                assert c.ds(t, s) == pytest.approx(_fd(c, t, s, "s"), abs=1e-7)


def test_trig_law_values():
    law = make_law(gamma=("trig_t", {"c0": 2.0, "c1": 0.5}))
    assert law.gamma(0.0, 0.0) == pytest.approx(2.0)
    assert law.gamma(0.25, 3.0) == pytest.approx(2.5)


@given(eps=st.floats(min_value=1e-4, max_value=0.5),
       t=st.floats(min_value=0.0, max_value=1.0),
       s=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_perturb_gamma_shifts_only_gamma(eps, t, s):
    base = make_law(gamma=("poly_s", {"c0": 2.0, "c1": 0.1}),
                    rho=("affine_t", {"c0": 1.0, "c1": 0.2}))
    pert = perturb_law(base, eps, "gamma", ("constant", {"c0": 1.0}))
    assert pert.gamma(t, s) == pytest.approx(base.gamma(t, s) + eps)
    assert pert.rho(t, s) == base.rho(t, s)
    assert pert.gamma.ds(t, s) == pytest.approx(base.gamma.ds(t, s))


def test_perturb_rho_with_time_profile():
    base = make_law()
    pert = perturb_law(base, 0.1, "rho", ("trig_t", {"c0": 0.0, "c1": 1.0}))
    assert pert.rho(0.25, 0.0) == pytest.approx(1.0 + 0.1)
    assert pert.rho.dt(0.0, 0.0) == pytest.approx(0.1 * 2 * np.pi)
    assert pert.gamma(0.3, 0.4) == base.gamma(0.3, 0.4)


@pytest.mark.parametrize("target", ["gamma", "rho"])
def test_perturbed_coefficient_is_base_plus_eps_profile(target):
    base = make_law(gamma=("gauss_s", {"c0": 2.0, "c1": 0.3, "s0": 0.1, "w": 0.6}),
                    rho=("trig_t", {"c0": 1.5, "c1": 0.2, "freq": 0.7}))
    profile = ("trig_t", {"c0": 0.1, "c1": 1.0, "freq": 0.4, "phase": 0.2})
    eps = 0.037
    pert = perturb_law(base, eps, target, profile)
    prof = coefficient(*profile)
    t, s = np.meshgrid(np.linspace(0, 1, 7), np.linspace(-1, 1, 9), indexing="ij")
    b, p = getattr(base, target), getattr(pert, target)
    assert np.array_equal(p(t, s), b(t, s) + eps * prof(t, s))
    assert np.array_equal(p.dt(t, s), b.dt(t, s) + eps * prof.dt(t, s))
    assert np.array_equal(p.ds(t, s), b.ds(t, s) + eps * prof.ds(t, s))
    other = "rho" if target == "gamma" else "gamma"
    assert getattr(pert, other) == getattr(base, other)


def test_perturb_unknown_target():
    with pytest.raises(MaterialError):
        perturb_law(make_law(), 0.1, "sigma")


def test_admissible_positive_law():
    law = make_law(gamma=("trig_t", {"c0": 2.0, "c1": 0.5}),
                   rho=("constant", {"c0": 1.5}), m_floor=0.1)
    rep = check_admissible(law)
    assert rep.passed and bool(rep)


def test_admissible_detects_floor_violation():
    # gamma dips to 0.5 - 0.6 < 0 on part of the period
    law = make_law(gamma=("trig_t", {"c0": 0.5, "c1": 0.6}), m_floor=0.01)
    rep = check_admissible(law)
    assert not rep.passed
    ok, worst, point = rep.checks["gamma_floor"]
    assert not ok and worst < 0.0


def test_admissible_kappa_cap():
    law = make_law(rho=("trig_t", {"c0": 2.0, "c1": 0.5}), kappa_cap=1.0)
    rep = check_admissible(law, check_kappa=True)
    assert not rep.checks["rho_dt_cap"][0]  # sup d_t rho = pi > 1
    loose = make_law(rho=("trig_t", {"c0": 2.0, "c1": 0.5}), kappa_cap=4.0)
    assert check_admissible(loose, check_kappa=True).checks["rho_dt_cap"][0]


def test_interior_max_interior_peak():
    law1 = make_law(rho=("trig_t", {"c0": 2.0, "c1": 0.5}))
    law2 = make_law(rho=("constant", {"c0": 2.0}))
    rep = check_interior_max((law1, law2), 0.0, np.linspace(0, 1, 401))
    assert rep.interior and not rep.degenerate_zero
    assert rep.t_max == pytest.approx(0.25, abs=0.01)
    assert rep.value == pytest.approx(0.5, abs=1e-4)


def test_interior_max_boundary_peak_flagged():
    law1 = make_law(rho=("affine_t", {"c0": 1.0, "c1": 0.5}))
    law2 = make_law(rho=("constant", {"c0": 1.0}))
    rep = check_interior_max((law1, law2), 0.0, np.linspace(0, 1, 101))
    assert not rep.interior
    assert rep.t_max == pytest.approx(1.0)


def test_interior_max_degenerate_zero():
    law = make_law()
    rep = check_interior_max((law, law), 0.3, np.linspace(0, 1, 101))
    assert rep.degenerate_zero and rep.interior
