"""End-to-end acceptance experiments for the probing laboratory.

Each test runs one headline experiment at desk scale and prints a single
PASS/FAIL summary line with the measured quantities before asserting.
These are slower than the unit tests but each stays well inside its
stated runtime budget.
"""

import math
import time

import numpy as np
import pytest

import dnprobe.singular as singular
from dnprobe.dnmap import (linear_flux, linearization_check, norm_flag,
                           random_bump_dictionary, surface_pairing)
from dnprobe.geometry import build_grid
from dnprobe.material import (check_interior_max, make_law, make_matrix,
                              perturb_law)
from dnprobe.pde import mms_problem, solve_forward, solve_linearized
from dnprobe.reconstruct import (ProbeSpec, check_probes, point_recovery, probe_data,
                                 recover_gamma_point,
                                 stability_experiment, tau_sweep)
from dnprobe.singular import make_cutoffs
from reference import (boundary_from_face, h_norms_oracle, lift_terminal_zero, mollifier_gap,
                       weak_pairing)

A2 = make_matrix(np.eye(2))
A3 = make_matrix(np.eye(3))
SOLVER_TOL = 1e-10


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _mms_fields_2d(lam=0.1):
    """(spatial-probe, temporal-probe) manufactured fields with derivatives."""
    def sp(t, x):
        return lam + 0.2 * t * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    def sp_dt(t, x):
        return 0.2 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])

    def sp_grad(t, x):
        return [0.2 * t * np.pi * np.cos(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
                0.2 * t * np.pi * np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])]

    def sp_d2(t, x):
        pp = 0.2 * t * np.pi ** 2
        return [-pp * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])] * 2

    def tm(t, x):
        return np.sin(0.9 * t) * (x[..., 0] + x[..., 1])

    def tm_dt(t, x):
        return 0.9 * np.cos(0.9 * t) * (x[..., 0] + x[..., 1])

    def tm_grad(t, x):
        return [np.sin(0.9 * t) + 0.0 * x[..., 0]] * 2

    def tm_d2(t, x):
        return [0.0 * x[..., 0]] * 2

    return (sp, sp_dt, sp_grad, sp_d2), (tm, tm_dt, tm_grad, tm_d2)


def test_01_solver_convergence_orders():
    # manufactured solutions: a time-linear field isolates the spatial
    # error (implicit Euler is exact on it) and a space-affine field
    # isolates the temporal error (the stencils are exact on it)
    (sp, sp_dt, sp_grad, sp_d2), (tm, tm_dt, tm_grad, tm_d2) = _mms_fields_2d()
    laws = [make_law(label="unit"),
            make_law(gamma=("poly_s", {"c0": 1.0, "c2": 1.0}), label="quadratic")]
    ok = True
    details = []
    for law in laws:
        start = time.time()
        errs = []
        for nh in (16, 32):
            g = build_grid(2, 1 / nh, 1 / 16, 1.0)
            gb, src, ex = mms_problem(g, law, A2, 0.1, sp, sp_dt, sp_grad, sp_d2)
            u = solve_forward(law, A2, g, 0.1, gb, source=src)
            errs.append(np.abs(u.values - ex).max())
        p_space = math.log2(errs[0] / errs[1])
        errs = []
        for nt in (16, 32):
            g = build_grid(2, 1 / 8, 1 / nt, 1.0)
            gb, src, ex = mms_problem(g, law, A2, 0.0, tm, tm_dt, tm_grad, tm_d2)
            u = solve_forward(law, A2, g, 0.0, gb, source=src)
            errs.append(np.abs(u.values - ex).max())
        p_time = math.log2(errs[0] / errs[1])
        dt_run = time.time() - start
        ok = ok and p_space >= 1.9 and p_time >= 0.9 and dt_run < 60.0
        details.append(f"{law.label}: space {p_space:.2f}, time {p_time:.2f}, {dt_run:.1f}s")
    _line("solver convergence orders", ok, "; ".join(details))
    assert ok


def test_02_frechet_derivative_decay():
    # gamma = 1 + s^2 at background 0.5: halving the datum should roughly
    # halve the linearization defect; constant laws should be exact
    g = build_grid(2, 1 / 32, 1 / 32, 1.0, pad=16)
    probe = ProbeSpec(x0=(0.0, 0.5), t0=0.5, tau=0.15, kind="gamma",
                      a_rule="power", r=0.5)
    [([(gb, _)], _)] = probe_data(check_probes(g, A2, [probe], [], lam=0.5))
    law = make_law(gamma=("poly_s", {"c0": 1.0, "c2": 1.0}))
    rows = linearization_check(law, A2, g, 0.5, gb, [4, 8, 16, 32])
    d = {r["k"]: r["d_k"] for r in rows}
    ratios = {k: d[2 * k] / d[k] for k in (4, 8, 16)}
    lin_rows = linearization_check(make_law(), A2, g, 0.5, gb, [4, 8, 16, 32])
    lin_max = max(r["d_k"] for r in lin_rows)
    ok = (all(0.4 <= v <= 0.6 for v in ratios.values())
          and lin_max <= 10.0 * SOLVER_TOL)
    _line("Frechet derivative decay", ok,
          f"ratios {[f'{ratios[k]:.3f}' for k in (4, 8, 16)]}, "
          f"linear-law defect {lin_max:.2e}")
    assert ok


def test_03_singular_basis_norm_scaling():
    # n=3 pole-distance scaling of ||H|| and ||grad H||, plus the n=2
    # logarithmic growth of the gradient mass
    taus = [0.02 * 2 ** (-k / 2) for k in range(4)]
    res = [h_norms_oracle(t, 3) for t in taus]
    lt = np.log(taus)
    sl_H = float(np.polyfit(lt, 0.5 * np.log([r["l2_H_sq"] for r in res]), 1)[0])
    sl_G = float(np.polyfit(lt, 0.5 * np.log([r["energy"] for r in res]), 1)[0])
    ok_H = abs(sl_H - 0.5) <= 0.05
    ok_G = abs(sl_G - (-0.5)) <= 0.05
    t2 = [0.05 / 2 ** k for k in range(5)]
    e2 = [h_norms_oracle(t, 2)["energy"] for t in t2]
    inc = np.diff(e2)
    sublinear = float(np.polyfit(np.log(1.0 / np.asarray(t2)), np.log(e2), 1)[0])
    ok_2d = bool(np.all(inc > 0)) and sublinear < 0.5
    ok = ok_H and ok_G and ok_2d
    _line("singular basis norm scaling", ok,
          f"n=3 ||H|| slope {sl_H:.3f} (target 0.5), ||gradH|| slope {sl_G:.3f} "
          f"(target -0.5), n=2 log growth monotone={bool(np.all(inc > 0))} "
          f"power-exponent {sublinear:.3f}")
    assert ok_G and ok_2d
    # the ||H|| decay is not reproducible on this domain: the volume
    # integral of H^2 stays bounded as tau -> 0, so the norm saturates
    assert ok_H, (
        f"||H|| slope {sl_H:.3f} vs target 0.5: the measured norm saturates "
        "because int_Omega |x - y|^-2 dx converges; kept as an honest failure")


def test_04_gradient_energy_lower_bound_rate():
    # energy ~ tau^{2-n} in n=3 over the admissible window [8h, delta/2]
    h, delta = 1.0 / 1024, 0.04
    taus = list(np.geomspace(8 * h, delta / 2, 5))
    en = [h_norms_oracle(t, 3)["energy"] for t in taus]
    slope = float(np.polyfit(np.log(taus), np.log(en), 1)[0])
    ok = abs(slope - (-1.0)) <= 0.1
    _line("gradient energy scaling", ok,
          f"slope {slope:.3f} (target -1), window [{taus[0]:.4g}, {taus[-1]:.4g}]")
    assert ok


def test_05_mollifier_concentration_rate():
    # first-order concentration of the time mollifier on f = 2 + sin(2 pi t);
    # the skewed bump has a nonzero first moment, exposing the O(1/a) term
    g = build_grid(2, 1 / 16, 1 / 16, 1.0)
    f = lambda t: 2.0 + np.sin(2 * np.pi * t)
    gaps, inv_a = [], []
    for tau in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        cut = make_cutoffs(0.5, tau, "gamma", g, shape="skewed",
                           a_rule="power", r=0.5)
        gaps.append(mollifier_gap(cut, f))
        inv_a.append(1.0 / cut.a_tau)
    slope = float(np.polyfit(np.log(inv_a), np.log(gaps), 1)[0])
    ok = abs(slope - 1.0) <= 0.1
    _line("mollifier concentration rate", ok, f"slope {slope:.4f} (target 1)")
    assert ok


def test_06_gamma_recovery_constant_contrast():
    # 2D, h=1/64, gamma contrast 0.02: pointwise recovery from the probe
    # pairing, with rate fit and an identical-pair control
    start = time.time()
    g = build_grid(2, 1 / 64, 1 / 64, 1.0, pad=52)
    law1 = make_law(gamma=("constant", {"c0": 1.02}))
    law2 = make_law(gamma=("constant", {"c0": 1.0}))
    probe = lambda tau: ProbeSpec(x0=(0.0, 0.5), t0=0.5, tau=tau,
                                  kind="gamma", a_rule="power", r=0.5)
    taus = [0.2, 0.15, 0.1, 0.07, 0.05]
    checked = check_probes(g, A2, list(map(probe, taus)), [(law1, law2)], lam=0.0)
    rep = tau_sweep(taus, point_recovery(checked)[0], reference=0.02)
    finest_err = abs(rep.raw_estimates[-1] - 0.02) / 0.02
    control = abs(recover_gamma_point((law2, law2), A2, g, 0.0, probe(0.05)))
    elapsed = time.time() - start
    ok = (finest_err <= 0.20 and rep.fitted_rate >= 0.3
          and control <= 10.0 * SOLVER_TOL and elapsed < 600.0)
    _line("gamma recovery (constant contrast)", ok,
          f"finest-tau error {100 * finest_err:.1f}% (cap 20%), "
          f"rate {rep.fitted_rate:.2f} (floor 0.3), control {control:.2e}, "
          f"{elapsed:.1f}s")
    assert ok


def test_07_lipschitz_stability_slope():
    # sup|gamma1-gamma2| vs the dictionary operator-norm surrogate is
    # log-log linear with slope 1 for a linear (frozen) map
    g = build_grid(2, 1 / 32, 1 / 32, 1.0, pad=16)
    base = make_law(gamma=("constant", {"c0": 2.0}))
    family = [(eps, (perturb_law(base, eps, "gamma"), base))
              for eps in (0.01, 0.02, 0.04)]
    probe = ProbeSpec(x0=(0.0, 0.5), t0=0.5, tau=0.125, kind="gamma",
                      a_rule="power", r=0.5)
    checked = check_probes(g, A2, [probe], [pair for _, pair in family], lam=0.0)
    table = stability_experiment(checked, family, dict_seed=3, dict_size=8)
    slope = table.fitted_slope
    ok = all(r.ok for r in table.rows) and 0.8 <= slope <= 1.2
    _line("Lipschitz stability slope", ok,
          f"fitted slope {slope:.4f} (window [0.8, 1.2]), norm {norm_flag(g.dim)}")
    assert ok


def test_08_rho_recovery_and_holder_bound():
    # 3D 17^3 grid over (0, 2.5); rho difference eps*sin(0.4 pi t) peaks at
    # the probed time t0=1.25 (interior maximum); recovery reported as
    # reference value plus estimated difference
    start = time.time()
    g = build_grid(3, 1 / 16, 2.5 / 40, 2.5, pad=8)
    base = make_law(rho=("constant", {"c0": 1.0}))
    prof = ("trig_t", {"c0": 0.0, "c1": 1.0, "freq": 0.2})
    eps = 0.2
    law1 = perturb_law(base, eps, "rho", prof)
    imax = check_interior_max((law1, base), 0.0, np.linspace(0.0, 2.5, 401))
    assert imax.interior and law1.rho(imax.t_max, 0.0) != base.rho(imax.t_max, 0.0)
    probe = lambda tau: ProbeSpec(x0=(0.0, 0.5, 0.5), t0=1.25, tau=tau,
                                  kind="rho", r=0.25)
    taus = [0.2, 0.175, 0.15, 0.125]
    checked = check_probes(g, A3, list(map(probe, taus)), [(law1, base)], lam=0.0)
    rep = tau_sweep(taus, point_recovery(checked)[0], reference=eps)
    value = base.rho(1.25, 0.0) + rep.raw_estimates[-1]
    ref = float(law1.rho(1.25, 0.0))
    value_err = abs(value - ref) / abs(ref)
    family = [(e, (perturb_law(base, e, "rho", prof), base)) for e in (0.1, 0.2)]
    checked = check_probes(g, A3, [probe(0.125)], [pair for _, pair in family], lam=0.0)
    table = stability_experiment(checked, family, dict_seed=0, dict_size=16)
    elapsed = time.time() - start
    ok = (value_err <= 0.30 and table.holder_ok
          and all(r.ok for r in table.rows) and elapsed < 1800.0)
    _line("rho recovery and Holder bound", ok,
          f"value error {100 * value_err:.1f}% (cap 30%), "
          f"Holder bound holds on all rows: {table.holder_ok} "
          f"(C={table.holder_constant:.3f}), {elapsed:.1f}s")
    assert ok


def test_09_weak_strong_pairing_agreement():
    g = build_grid(2, 1 / 64, 1 / 64, 1.0)
    law = make_law(gamma=("trig_t", {"c0": 2.0, "c1": 0.3}),
                   rho=("trig_t", {"c0": 1.0, "c1": 0.2, "phase": 0.4}))
    gb, hb = random_bump_dictionary(g, count=2, seed=2)
    w = solve_linearized(law, A2, g, 0.0, boundary_from_face(gb.values, g))
    strong = surface_pairing(linear_flux(w, law, A2, g, 0.0), hb.values, g)
    hb = boundary_from_face(hb.values, g)
    weak = weak_pairing(w, hb, law, A2, g, 0.0)
    rel = abs(weak - strong) / abs(strong)
    # lifting contracts: boundary trace reproduced exactly, zero at t=T
    E = lift_terminal_zero(hb, g, A2)
    from dnprobe.pde import interior_mask
    bmask = ~interior_mask(g)
    trace_err = np.abs(E[:, bmask] - hb.values[:, bmask]).max()
    term_err = np.abs(E[-1]).max()
    ok = rel <= 0.05 and trace_err == 0.0 and term_err == 0.0

    _line("weak/strong pairing agreement", ok,
          f"relative gap {100 * rel:.2f}% (cap 5%), trace defect {trace_err}, "
          f"terminal defect {term_err}")
    assert ok


def test_10_convention_invariance(monkeypatch):
    # recovered values are ratios of pairings to energies, so rescaling the
    # fundamental-solution constant must cancel to rounding: H and its
    # gradient are scaled by 10 where the probe builds them
    g = build_grid(2, 1 / 32, 1 / 32, 1.0, pad=16)
    law1 = make_law(gamma=("constant", {"c0": 1.05}))
    law2 = make_law(gamma=("constant", {"c0": 1.0}))
    probe = ProbeSpec(x0=(0.0, 0.5), t0=0.5, tau=0.125, kind="gamma",
                      a_rule="power", r=0.5)
    vals = [recover_gamma_point((law1, law2), A2, g, 0.0, probe)]
    for name in ("fundamental_H", "fundamental_grad_H"):
        monkeypatch.setattr(singular, name,
                            lambda *args, H=getattr(singular, name): 10.0 * H(*args))
    vals.append(recover_gamma_point((law1, law2), A2, g, 0.0, probe))
    rel = abs(vals[1] - vals[0]) / abs(vals[0])
    ok = rel <= 1e-10
    _line("convention invariance", ok,
          f"relative change under 10x constant: {rel:.2e} (cap 1e-10)")
    assert ok
