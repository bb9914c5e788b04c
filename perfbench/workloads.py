"""Workload definitions: generated configs and the subcommands of one pass.

Each workload is a list of (metric stem, subcommand, config name) steps
run in order in one fresh interpreter.  Configs are rendered from the
values below plus the run seed, so the same seed gives the same inputs.
"""

import os

# The stability dictionaries whose eta values were recorded at the seed
# commit (reference.json).  The run seed selects one of them.
DICT_SEEDS = 32

# demos/gamma.ini: 2D, h = dt = 1/64, T = 1, pad 52, gamma 1.02 against 1.
_GAMMA2D = """\
[grid]
dim = 2
h = 0.015625
dt = 0.015625
t_final = 1.0
pad = 52

[material]
gamma1 = constant:c0=1.02
gamma2 = constant:c0=1
lambda = 0.0

[probe]
t0 = 0.5
kind = gamma
a_rule = power
r = 0.5

[sweep]
tau_list = 0.2,0.15,0.1,0.07,0.05
eps_list = 0.01,0.02,0.04
k_list = 4,8,16,32

[norms]
dict_seed = {dict_seed}
dict_size = 8

[output]
dir = {out_dir}
prefix = {prefix}

[run]
seed = {seed}
"""

# The CLI form of acceptance test_08: 3D, h = 1/16, dt = 2.5/40, T = 2.5.
# probe-rho compares a time-varying rho against constant 1; stability
# perturbs constant 1 by eps * sin(0.4 pi t).
_RHO3D = """\
[grid]
dim = 3
h = 0.0625
dt = 0.0625
t_final = 2.5
pad = 8

[material]
rho1 = {rho1}
rho2 = constant:c0=1
lambda = 0.0
perturb_target = rho
perturb_profile = trig_t:c0=0:c1=1:freq=0.2

[probe]
t0 = 1.25
kind = rho
r = 0.25

[sweep]
tau_list = 0.2,0.175,0.15,0.125
eps_list = 0.1,0.2

[norms]
dict_seed = {dict_seed}
dict_size = 16

[output]
dir = {out_dir}
prefix = {prefix}

[run]
seed = {seed}
"""

WORKLOADS = {
    # Newton forward solves do ~95% of the work; the frozen solve runs once
    "gamma2d-newton": {
        "configs": {"gamma": (_GAMMA2D, {})},
        "steps": [("forward", "forward", "gamma"),
                  ("linearize_check", "linearize-check", "gamma")],
    },
    # constant-coefficient frozen solves reuse a few factorizations over
    # thousands of LU solves; no Newton; spectral boundary norm
    "gamma2d-probe": {
        "configs": {"gamma": (_GAMMA2D, {})},
        "steps": [("probe", "probe-gamma", "gamma"),
                  ("stability", "stability", "gamma")],
    },
    # time-varying rho misses the factorization cache at every level; 3D
    # fill-in, four correctors per probe, L2 boundary norm
    "rho3d-probe": {
        "configs": {"probe": (_RHO3D, {"rho1": "trig_t:c0=1:c1=0.2:freq=0.2"}),
                    "stab": (_RHO3D, {"rho1": "constant:c0=1"})},
        "steps": [("probe", "probe-rho", "probe"),
                  ("stability", "stability", "stab")],
    },
}


def dict_seed(seed: int) -> int:
    return seed % DICT_SEEDS


def write_configs(workload: str, seed: int, cfg_dir: str, out_dir: str) -> dict:
    """Render the workload's configs into cfg_dir; returns {name: path}."""
    paths = {}
    for name, (template, extra) in WORKLOADS[workload]["configs"].items():
        text = template.format(dict_seed=dict_seed(seed), seed=seed,
                               out_dir=out_dir, prefix=name, **extra)
        paths[name] = os.path.join(cfg_dir, f"{name}.ini")
        with open(paths[name], "w") as fh:
            fh.write(text)
    return paths


def pass_commands(workload: str, cfg_paths: dict) -> list:
    """[(metric stem, argv for dnprobe.cli.main)] for one pass."""
    return [(stem, [cmd, "-c", cfg_paths[cfg]])
            for stem, cmd, cfg in WORKLOADS[workload]["steps"]]
