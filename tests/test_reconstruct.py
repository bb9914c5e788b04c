from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import dnprobe.dnmap as dnmap
import dnprobe.reconstruct as reconstruct
import dnprobe.singular as singular
from dnprobe.geometry import build_grid
from dnprobe.material import make_law, make_matrix, perturb_law
from dnprobe.reconstruct import (ProbeSpec, ReconstructError,
                                 ReconstructionReport, check_probes, recover_gamma_point,
                                 recover_rho_point, stability_experiment,
                                 sweep_taus, tau_sweep)
from dnprobe.singular import SingularError

A2 = make_matrix(np.eye(2))
A3 = make_matrix(np.eye(3))


def _stability(family, A, grid, probe, **kwargs):
    """stability_experiment at the probe checked with the family's pairs."""
    checked = check_probes(grid, A, [probe], [pair for eps, pair in family if eps], lam=0.0)
    return stability_experiment(checked, family, **kwargs)


def _gamma_probe(grid, tau, t0=0.5):
    x0 = [0.5] * grid.dim
    x0[grid.patch_axis] = grid.patch_face_value()
    return ProbeSpec(x0=tuple(x0), t0=t0, tau=tau, kind="gamma",
                     a_rule="power", r=0.5)


def test_report_validates_tau_order():
    with pytest.raises(ReconstructError):
        ReconstructionReport(tau_sequence=[0.1, 0.2], raw_estimates=[1.0, 1.0],
                             extrapolated_value=1.0)


def test_report_rejects_nonfinite():
    with pytest.raises(ReconstructError):
        ReconstructionReport(tau_sequence=[0.2, 0.1],
                             raw_estimates=[1.0, float("nan")],
                             extrapolated_value=1.0)


def test_recover_gamma_requires_gamma_probe():
    g = build_grid(2, 1 / 16, 1 / 16, 1.0, pad=10)
    law = make_law()
    probe = ProbeSpec(x0=(0.0, 0.5), t0=0.5, tau=0.15, kind="rho")
    with pytest.raises(ReconstructError):
        recover_gamma_point((law, law), A2, g, 0.0, probe)


def test_recover_gamma_equal_laws_is_zero():
    g = build_grid(2, 1 / 16, 1 / 16, 1.0, pad=10)
    law = make_law(gamma=("trig_t", {"c0": 2.0, "c1": 0.3}))
    got = recover_gamma_point((law, law), A2, g, 0.0, _gamma_probe(g, 0.15))
    assert abs(got) < 1e-12


def test_recover_gamma_constant_contrast():
    # constant-in-time contrast: the probe must land near gamma1 - gamma2
    g = build_grid(2, 1 / 32, 1 / 32, 1.0, pad=26)
    law1 = make_law(gamma=("constant", {"c0": 1.02}))
    law2 = make_law(gamma=("constant", {"c0": 1.0}))
    got = recover_gamma_point((law1, law2), A2, g, 0.0, _gamma_probe(g, 0.0625))
    assert got == pytest.approx(0.02, rel=0.30)
    assert got > 0.0  # sign of the contrast is never lost


def test_recover_gamma_sign_flip():
    g = build_grid(2, 1 / 16, 1 / 16, 1.0, pad=10)
    law1 = make_law(gamma=("constant", {"c0": 1.0}))
    law2 = make_law(gamma=("constant", {"c0": 1.05}))
    got = recover_gamma_point((law1, law2), A2, g, 0.0, _gamma_probe(g, 0.15))
    assert got < 0.0


def test_recover_rho_dimension_guard(monkeypatch):
    # rho probes need n >= 3 and A = Id: a library caller gets each check by
    # its name, the one the CLI gives, before any corrector solve
    solved = []
    monkeypatch.setattr(singular, "solve_corrector", lambda *args: solved.append(args))
    law = make_law()
    g = build_grid(2, 1 / 16, 1 / 16, 1.0, pad=10)
    probe = ProbeSpec(x0=(0.0, 0.5), t0=0.5, tau=0.15, kind="rho")
    with pytest.raises(SingularError, match="rho_dim"):
        recover_rho_point((law, law), A2, g, 0.0, probe)
    g3 = build_grid(3, 1 / 8, 2.5 / 24, 2.5, pad=6)
    probe3 = ProbeSpec(x0=(0.0, 0.5, 0.5), t0=1.25, tau=0.3, kind="rho", r=0.25)
    with pytest.raises(SingularError, match="rho_identity_A"):
        recover_rho_point((law, law), make_matrix(np.diag([2.0, 1.0, 1.0])), g3, 0.0, probe3)
    assert solved == []


def test_rho_recovery_rejects_unequal_conductivities_before_its_frozen_solves(monkeypatch):
    # the rho estimate reads gamma1 - gamma2 on supp chi as a rho difference:
    # a library caller gets the error the CLI gives on its probe plan
    # (reconstruct.check_probes), and no frozen solve runs; equal
    # conductivities still recover
    g3 = build_grid(3, 1 / 8, 2.5 / 24, 2.5, pad=6)
    probe = ProbeSpec(x0=(0.0, 0.5, 0.5), t0=1.25, tau=0.3, kind="rho", r=0.25)
    real, solved = reconstruct.patch_linear_flux, []

    def counted(laws, *args):
        solved.append(list(laws))
        return real(laws, *args)

    monkeypatch.setattr(reconstruct, "patch_linear_flux", counted)
    base = make_law()
    with pytest.raises(ReconstructError, match="rho_equal_gamma"):
        recover_rho_point((make_law(gamma=("constant", {"c0": 1.05})), base), A3, g3, 0.0,
                          probe)
    with pytest.raises(ReconstructError, match="rho_equal_gamma"):
        pair = (make_law(gamma=("trig_t", {"c0": 1.0, "c1": 0.01})), base)
        check_probes(g3, make_matrix(np.eye(3)), [probe, replace(probe, tau=0.25)], [pair],
                     lam=0.0)
    assert solved == []
    rho1 = make_law(rho=("constant", {"c0": 1.2}))
    assert recover_rho_point((rho1, base), A3, g3, 0.0, probe) > 0.0
    assert solved == [[(rho1, base)]]  # one call, on the pair


def test_rho_recovery_rejects_a_difference_without_an_interior_maximum(monkeypatch):
    # rho1 - rho2 = 0.2 t peaks only at t = T, where no rho probe reads it:
    # a library caller gets the error the CLI gives, on every pair, before
    # any solve; equal rho laws, a zero difference, pass
    solved = _refuse_solves(monkeypatch)
    g3 = build_grid(3, 1 / 8, 2.5 / 24, 2.5, pad=6)
    probe = ProbeSpec(x0=(0.0, 0.5, 0.5), t0=1.25, tau=0.3, kind="rho", r=0.25)
    base = make_law()
    pair = (make_law(rho=("affine_t", {"c0": 1.0, "c1": 0.2})), base)
    with pytest.raises(ReconstructError, match="interior_max fails"):
        recover_rho_point(pair, A3, g3, 0.0, probe)
    with pytest.raises(ReconstructError, match="interior_max fails"):
        check_probes(g3, A3, [probe], [(base, base), pair], lam=0.0)
    assert check_probes(g3, A3, [probe], [(base, base)], lam=0.0).pairs == ((base, base),)
    assert solved == []


def test_probe_data_live_on_the_patch_face():
    g2 = build_grid(2, 1 / 16, 1 / 16, 1.0, pad=10)
    checked = check_probes(g2, A2, [_gamma_probe(g2, 0.15)], [], lam=0.0)
    [([(gb, _)], _)] = reconstruct.probe_data(checked)
    assert gb.values.shape == (g2.nt + 1,) + g2.patch_support_mask().shape
    g3 = build_grid(3, 1 / 8, 2.5 / 24, 2.5, pad=6)
    probe = ProbeSpec(x0=(0.0, 0.5, 0.5), t0=1.25, tau=0.3, kind="rho", r=0.25)
    [(fam, _)] = reconstruct.probe_data(check_probes(g3, A3, [probe], [], lam=0.0))
    assert len(fam) == 3
    for datum in (d for pair in fam for d in pair):
        assert datum.values.shape == (g3.nt + 1,) + g3.patch_support_mask().shape


def test_recover_rho_equal_laws_is_zero():
    g = build_grid(3, 1 / 8, 2.5 / 24, 2.5, pad=6)
    law = make_law(rho=("trig_t", {"c0": 2.0, "c1": 0.3, "freq": 0.4}))
    probe = ProbeSpec(x0=(0.0, 0.5, 0.5), t0=1.25, tau=0.3, kind="rho", r=0.25)
    got = recover_rho_point((law, law), A3, g, 0.0, probe)
    assert abs(got) < 1e-12


def test_tau_sweep_extrapolates_power_decay():
    # synthetic estimates e(tau) = 0.7 + 0.3 tau^1.5 recover e_inf and the rate
    taus = [0.4, 0.2, 0.1, 0.05]
    rep = tau_sweep(taus, [0.7 + 0.3 * tau ** 1.5 for tau in taus], reference=0.7)
    assert rep.extrapolated_value == pytest.approx(0.7, abs=1e-10)
    assert rep.fitted_rate == pytest.approx(1.5, abs=0.01)


def test_tau_sweep_skips_non_power_trend():
    # non-monotone, no power fit
    rep = tau_sweep([0.4, 0.2, 0.1], [1.0, 2.0, 1.5])
    assert "skipped" in rep.notes
    assert rep.extrapolated_value == pytest.approx(1.5)


def test_tau_sweep_needs_two_points():
    with pytest.raises(ReconstructError, match="tau_sweep fails"):
        tau_sweep([0.1], [1.0])
    with pytest.raises(ReconstructError, match="tau_sweep fails"):
        tau_sweep([0.1, 0.1], [1.0, 1.0])


def test_tau_sweep_fits_decreasing_taus_one_estimate_each():
    with pytest.raises(ReconstructError, match="strictly decreasing"):
        tau_sweep([0.05, 0.2, 0.1], [1.05, 1.2, 1.1])
    with pytest.raises(ReconstructError, match="one estimate per tau"):
        tau_sweep([0.2, 0.1, 0.05], [1.2, 1.1])


def test_sweep_taus_orders_input():
    # the distinct taus, decreasing: the order a sweep's probes are built in
    assert sweep_taus([0.05, 0.2, 0.1, 0.2]) == [0.2, 0.1, 0.05]
    assert sweep_taus(["0.1", 0.3]) == [0.3, 0.1]


def test_stability_gamma_linear_slope():
    g = build_grid(2, 1 / 16, 1 / 16, 1.0, pad=10)
    base = make_law(gamma=("constant", {"c0": 2.0}))
    family = [(eps, (perturb_law(base, eps, "gamma"), base))
              for eps in (0.01, 0.02, 0.04)]
    probe = _gamma_probe(g, 0.15)
    table = _stability(family, A2, g, probe, dict_size=4, dict_seed=3)
    assert all(r.ok for r in table.rows)
    for r, (_, pair) in zip(table.rows, family):
        one = recover_gamma_point(pair, A2, g, 0.0, probe)
        assert abs(r.recovered - one) <= 1e-12 * abs(one)
    assert table.fitted_slope == pytest.approx(1.0, abs=0.05)
    etas = [r.eta for r in table.rows]
    assert etas == sorted(etas)  # eta grows with the perturbation size


# a gamma probe on the coarse stability grids below
_COARSE_PROBE = ProbeSpec(x0=(0.0, 0.5), t0=0.5, tau=0.25, kind="gamma",
                          a_rule="power", r=0.75)


def test_stability_solves_the_reference_dictionary_once(monkeypatch):
    # one frozen call on every eps's pair, so the reference law is solved
    # once, on the dictionary and the probe datum together
    g = build_grid(2, 1 / 8, 1 / 8, 1.0, pad=6)
    base = make_law(gamma=("constant", {"c0": 2.0}))
    family = [(eps, (perturb_law(base, eps, "gamma"), base))
              for eps in (0.01, 0.02, 0.04)]
    real, solved = dnmap.patch_linear_flux, []

    def counted(laws, A, grid, lam, data):
        solved.append((list(laws), len(data)))
        return real(laws, A, grid, lam, data)

    monkeypatch.setattr(dnmap, "patch_linear_flux", counted)
    monkeypatch.setattr(reconstruct, "patch_linear_flux", counted)
    table = _stability(family, A2, g, _COARSE_PROBE, dict_size=4)
    assert all(r.ok and r.eta > 0.0 for r in table.rows)
    assert solved == [([pair for _, pair in family], 4 + 1)]


def test_stability_measures_the_dictionary_once(monkeypatch):
    g = build_grid(2, 1 / 8, 1 / 8, 1.0, pad=6)
    base = make_law(gamma=("constant", {"c0": 2.0}))
    family = [(eps, (perturb_law(base, eps, "gamma"), base))
              for eps in (0.01, 0.02, 0.04)]
    real, measured = dnmap.BoundaryNorm.half, []

    def counted(self, field):
        measured.append(1)
        return real(self, field)

    reference = _stability(family, A2, g, _COARSE_PROBE, dict_size=4)
    monkeypatch.setattr(dnmap.BoundaryNorm, "half", counted)
    table = _stability(family, A2, g, _COARSE_PROBE, dict_size=4)
    assert len(measured) == 4  # once per datum, not once per datum and eps
    assert [r.eta for r in table.rows] == [r.eta for r in reference.rows]
    monkeypatch.undo()
    d = dnmap.random_bump_dictionary(g, 4)
    norm = dnmap.BoundaryNorm(g)
    [diff] = dnmap.patch_linear_flux([family[0][1]], A2, g, 0.0, d)
    eta = dnmap.eta_surrogate(diff, [norm.half(datum.values) for datum in d], norm)
    assert eta == table.rows[0].eta


def test_stability_zero_row_excluded():
    g = build_grid(2, 1 / 8, 1 / 8, 1.0, pad=6)
    base = make_law(gamma=("constant", {"c0": 2.0}))
    family = [(0.0, (base, base)),
              (0.02, (perturb_law(base, 0.02, "gamma"), base)),
              (0.04, (perturb_law(base, 0.04, "gamma"), base))]
    table = _stability(family, A2, g, _COARSE_PROBE, dict_size=2)
    assert table.rows[0].why.startswith("zero row")
    assert table.fitted_slope is not None


def test_stability_rho_holder_bound():
    # sup|rho1-rho2| is linear in eps while eta^{1/9} is concave, so the
    # one-sided bound calibrated at the largest eps must hold on all rows
    g = build_grid(3, 1 / 8, 2.5 / 24, 2.5, pad=6)
    A3 = make_matrix(np.eye(3))
    base = make_law(rho=("trig_t", {"c0": 2.0, "c1": 0.3, "freq": 0.4}))
    family = [(eps, (perturb_law(base, eps, "rho",
                                 ("trig_t", {"c0": 0.0, "c1": 1.0, "freq": 0.2})),
                     base))
              for eps in (0.1, 0.2)]
    probe = ProbeSpec(x0=(0.0, 0.5, 0.5), t0=1.25, tau=0.3, kind="rho")
    table = _stability(family, A3, g, probe, dict_size=2)
    assert all(r.ok for r in table.rows)
    assert table.holder_ok
    assert table.holder_constant > 0.0
    assert dnmap.norm_flag(g.dim) == "L2"
    assert table.target == "rho"  # the probe's kind


def test_stability_rho_probe_on_two_dimensions_raises_rho_dim():
    # a hypothesis failure of the probe raises by name; it fails no rows
    g = build_grid(2, 1 / 8, 2.5 / 24, 2.5, pad=6)
    base = make_law(rho=("trig_t", {"c0": 2.0, "c1": 0.3, "freq": 0.4}))
    family = [(eps, (perturb_law(base, eps, "rho",
                                 ("trig_t", {"c0": 0.0, "c1": 1.0, "freq": 0.2})),
                     base))
              for eps in (0.1, 0.2)]
    probe = ProbeSpec(x0=(0.0, 0.5), t0=1.25, tau=0.3, kind="rho")
    with pytest.raises(SingularError, match="rho_dim fails"):
        _stability(family, A2, g, probe, dict_size=2)


@pytest.mark.parametrize("eps_list", [(-0.01, -0.02, -0.04), (0.0, -0.02, 0.04), (0.0,), ()])
def test_stability_needs_a_nonzero_eps_and_none_below_0(eps_list):
    g = build_grid(2, 1 / 8, 1 / 8, 1.0, pad=6)
    base = make_law(gamma=("constant", {"c0": 2.0}))
    family = [(eps, (perturb_law(base, eps, "gamma"), base)) for eps in eps_list]
    with pytest.raises(ReconstructError, match="eps_sweep fails"):
        _stability(family, A2, g, _COARSE_PROBE, dict_size=2)


def _refuse_solves(monkeypatch):
    """A list that records any corrector or frozen solve, which runs none."""
    solved = []
    monkeypatch.setattr(singular, "solve_corrector", lambda *args: solved.append(args))
    monkeypatch.setattr(reconstruct, "patch_linear_flux", lambda *args: solved.append(args))
    return solved


def test_checked_probes_refuse_a_pair_or_family_they_were_not_checked_with(monkeypatch):
    # by name, before any solve: the checks ran on the pairs the value holds
    solved = _refuse_solves(monkeypatch)
    g = build_grid(2, 1 / 8, 1 / 8, 1.0, pad=6)
    base = make_law(gamma=("constant", {"c0": 2.0}))
    family = [(eps, (perturb_law(base, eps, "gamma"), base)) for eps in (0.01, 0.02)]
    checked = check_probes(g, A2, [_COARSE_PROBE], [family[0][1]], lam=0.0)
    with pytest.raises(ReconstructError, match="checked_pairs fails"):
        reconstruct.point_recovery(checked, family[1][1])
    with pytest.raises(ReconstructError, match="checked_pairs fails"):
        stability_experiment(checked, family, dict_size=2)
    assert solved == []


@pytest.mark.parametrize("target", ["gamma", "rho"])
def test_stability_with_a_perturbation_zero_at_lambda_raises_eps_perturbation(
        monkeypatch, target):
    # s vanishes at lambda = 0 and nowhere else: every eps reads the same
    # target difference, zero for equal base laws and the base contrast
    # otherwise; the family is refused by name before any solve
    solved = _refuse_solves(monkeypatch)
    if target == "gamma":
        g, A, probe = build_grid(2, 1 / 8, 1 / 8, 1.0, pad=6), A2, _COARSE_PROBE
    else:
        g, A = build_grid(3, 1 / 8, 2.5 / 24, 2.5, pad=6), A3
        probe = ProbeSpec(x0=(0.0, 0.5, 0.5), t0=1.25, tau=0.3, kind="rho")
    profile = ("poly_s", {"c0": 0.0, "c1": 1.0})
    for c0 in (1.0, 1.05):
        base = make_law(**{target: ("constant", {"c0": 1.0})})
        family = [(eps, (perturb_law(make_law(**{target: ("constant", {"c0": c0})}), eps,
                                     target, profile), base))
                  for eps in (0.1, 0.2)]
        with pytest.raises(ReconstructError, match="eps_perturbation fails"):
            _stability(family, A, g, probe, dict_size=2)
    assert solved == []


@settings(max_examples=200, deadline=None)
@given(t3=st.floats(0.02, 0.2), q1=st.floats(1.1, 2.5), q2=st.floats(1.1, 2.5),
       p=st.floats(0.25, 3.0), c=st.floats(0.01, 10.0), sign=st.sampled_from([-1, 1]),
       e_inf=st.floats(-1.0, 1.0))
def test_fit_extrapolation_matches_brentq_property(t3, q1, q2, p, c, sign, e_inf):
    # three points of e(tau) = e_inf + c tau^p: the bisection finds the
    # rate brentq finds, and both recover the generating law
    taus = [t3 * q2 * q1, t3 * q2, t3]
    est = [e_inf + sign * c * t ** p for t in taus]
    d12, d23 = est[0] - est[1], est[1] - est[2]
    target = d12 / d23
    assume(target > 1.0)

    def gap(q):
        return (taus[0] ** q - taus[1] ** q) / (taus[1] ** q - taus[2] ** q) - target

    assume(gap(1e-3) * gap(8.0) < 0.0)
    p_ref = brentq(gap, 1e-3, 8.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    e_ref = est[2] - d23 * taus[2] ** p_ref / (taus[1] ** p_ref - taus[2] ** p_ref)
    e_fit, p_fit = reconstruct._fit_extrapolation(taus, est)
    assert p_fit == pytest.approx(p_ref, rel=1e-12)
    assert e_fit == pytest.approx(e_ref, rel=1e-12, abs=1e-12 * c)
    assert p_fit == pytest.approx(p, rel=1e-6)
    assert e_fit == pytest.approx(e_inf, abs=1e-6 * c)


def test_fit_extrapolation_without_a_sign_change_is_skipped():
    # d12 / d23 = 1000 needs a rate above the bracket [1e-3, 8]
    assert reconstruct._fit_extrapolation([0.2, 0.1, 0.05], [1.0, 0.001, 0.0]) == (None, None)
