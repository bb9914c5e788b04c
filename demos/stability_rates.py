"""Measure how coefficient differences scale with DN-map differences.

For a family of perturbations of increasing size eps we compute the
operator-norm surrogate eta (the largest normalized flux response over a
random probe dictionary) and compare it with the true sup-difference of
the coefficient.  A log-log slope near 1 is the Lipschitz regime for the
conductivity; for the heat capacity we check the weaker one-sided bound
diff <= C * eta^{1/9}.

Run:  python3 demos/stability_rates.py
"""

import numpy as np

from dnprobe.dnmap import norm_flag
from dnprobe.geometry import build_grid
from dnprobe.material import make_law, make_matrix, perturb_law
from dnprobe.reconstruct import ProbeSpec, check_probes, stability_experiment

# --- conductivity: Lipschitz slope -----------------------------------------

grid = build_grid(2, 1 / 32, 1 / 32, 1.0, pad=16)
A = make_matrix(np.eye(2))
base = make_law(gamma=("constant", {"c0": 2.0}))
family = [(eps, (perturb_law(base, eps, "gamma"), base))
          for eps in (0.01, 0.02, 0.04)]
probe = ProbeSpec(x0=(0.0, 0.5), t0=0.5, tau=0.125, kind="gamma",
                  a_rule="power", r=0.5)
checked = check_probes(grid, A, [probe], [pair for _, pair in family], lam=0.0)
table = stability_experiment(checked, family, dict_seed=3, dict_size=8)

print("conductivity target (norm:", norm_flag(grid.dim) + ")")
print(f"{'eps':>6}  {'eta':>12}  {'sup diff':>10}  {'recovered':>10}")
for r in table.rows:
    print(f"{r.eps:6.3f}  {r.eta:12.6e}  {r.true_diff:10.4f}  {r.recovered:10.4f}")
print(f"log-log slope of diff vs eta: {table.fitted_slope:.4f}\n")

# --- heat capacity: one-sided Holder bound ----------------------------------

grid3 = build_grid(3, 1 / 16, 2.5 / 40, 2.5, pad=8)
A3 = make_matrix(np.eye(3))
base3 = make_law(rho=("constant", {"c0": 1.0}))
prof = ("trig_t", {"c0": 0.0, "c1": 1.0, "freq": 0.2})  # peaks at t = 1.25
family3 = [(eps, (perturb_law(base3, eps, "rho", prof), base3))
           for eps in (0.1, 0.2)]
probe3 = ProbeSpec(x0=(0.0, 0.5, 0.5), t0=1.25, tau=0.125, kind="rho", r=0.25)
checked3 = check_probes(grid3, A3, [probe3], [pair for _, pair in family3], lam=0.0)
table3 = stability_experiment(checked3, family3, dict_seed=0, dict_size=16)

print("heat-capacity target (norm:", norm_flag(grid3.dim) + ")")
for r in table3.rows:
    print(f"eps={r.eps:.2f}  eta={r.eta:.4e}  sup diff={r.true_diff:.4f}  "
          f"C*eta^(1/9)={table3.holder_constant * r.eta ** (1 / 9):.4f}")
print(f"one-sided Holder bound holds on every row: {table3.holder_ok}")
