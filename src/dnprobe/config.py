"""Experiment configuration: INI-style file, fully validated, hashable.

One config file drives every CLI subcommand.  The option set is closed:
unknown sections or keys are rejected by name, so a typo cannot silently
fall back to a default.  The resolved configuration is hashed (sha256 of
the canonical key=value dump) and the hash is embedded in every output
file a run produces.
"""

import configparser
import hashlib
import math

import numpy as np

from .geometry import build_grid
from .material import (check_admissible, check_interior_max, make_law,
                       make_matrix, perturb_law)


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "grid": {"dim", "h", "dt", "t_final", "patch_face", "patch_interval", "pad"},
    "material": {"a_diag", "lambda", "gamma1", "rho1", "gamma2", "rho2",
                 "m_floor", "kappa_cap", "perturb_target", "perturb_profile"},
    "probe": {"x0", "t0", "kind", "r", "a_rule", "shape", "conv"},
    "norms": {"kind", "dict_seed", "dict_size"},
    "sweep": {"tau_list", "eps_list", "k_list"},
    "output": {"dir", "prefix"},
    "run": {"seed"},
}

_DEFAULTS = {
    "grid": {"dim": "2", "h": "0.03125", "dt": "0.03125", "t_final": "1.0",
             "patch_face": "left", "patch_interval": "", "pad": "8"},
    "material": {"a_diag": "", "lambda": "0.0",
                 "gamma1": "constant:c0=1", "rho1": "constant:c0=1",
                 "gamma2": "constant:c0=1", "rho2": "constant:c0=1",
                 "m_floor": "0.001", "kappa_cap": "",
                 "perturb_target": "gamma", "perturb_profile": "constant:c0=1"},
    "probe": {"x0": "", "t0": "0.5", "kind": "gamma", "r": "0.25",
              "a_rule": "", "shape": "symmetric", "conv": "1.0"},
    "norms": {"kind": "auto", "dict_seed": "0", "dict_size": "16"},
    "sweep": {"tau_list": "0.2,0.1,0.05", "eps_list": "0.01,0.02,0.04",
              "k_list": "4,8,16,32"},
    "output": {"dir": ".", "prefix": "run"},
    "run": {"seed": "0"},
}


def _parse_law_spec(spec: str):
    """'name:k=v:k=v' -> (name, {k: float})."""
    parts = spec.split(":")
    name = parts[0].strip()
    params = {}
    for p in parts[1:]:
        if "=" not in p:
            raise ConfigError(f"malformed law parameter {p!r} in {spec!r}")
        k, v = p.split("=", 1)
        v = v.strip()
        try:
            params[k.strip()] = math.pi / 2 if v == "pi/2" else \
                math.pi if v == "pi" else float(v)
        except ValueError:
            raise ConfigError(f"non-numeric law parameter {p!r}") from None
    return name, params


def _floats(text: str):
    return [float(x) for x in text.split(",") if x.strip()]


def _ints(text: str):
    return [int(x) for x in text.split(",") if x.strip()]


class ExperimentConfig:
    """Resolved, validated experiment options plus derived objects."""

    def __init__(self, raw: dict):
        self.raw = raw
        g = raw["grid"]
        interval = None
        if g["patch_interval"]:
            interval = []
            for pair in g["patch_interval"].split(","):
                lo, hi = pair.split(":")
                interval.append((float(lo), float(hi)))
        self.grid = build_grid(int(g["dim"]), float(g["h"]), float(g["dt"]),
                               float(g["t_final"]), patch_face=g["patch_face"],
                               patch_interval=interval, pad=int(g["pad"]))

        m = raw["material"]
        diag = _floats(m["a_diag"]) if m["a_diag"] else [1.0] * self.grid.dim
        if len(diag) != self.grid.dim:
            raise ConfigError("a_diag length does not match dim")
        self.A = make_matrix(np.diag(diag))
        self.lam = float(m["lambda"])
        kcap = float(m["kappa_cap"]) if m["kappa_cap"] else None
        self.law1 = make_law(gamma=_parse_law_spec(m["gamma1"]),
                             rho=_parse_law_spec(m["rho1"]),
                             m_floor=float(m["m_floor"]), kappa_cap=kcap, label="law1")
        self.law2 = make_law(gamma=_parse_law_spec(m["gamma2"]),
                             rho=_parse_law_spec(m["rho2"]),
                             m_floor=float(m["m_floor"]), kappa_cap=kcap, label="law2")
        self.perturb_target = m["perturb_target"]
        if self.perturb_target not in ("gamma", "rho"):
            raise ConfigError(f"unknown perturb_target {self.perturb_target!r}")
        self.perturb_profile = _parse_law_spec(m["perturb_profile"])

        p = raw["probe"]
        if p["x0"]:
            self.x0 = tuple(_floats(p["x0"]))
        else:
            x0 = [0.5] * self.grid.dim
            x0[self.grid.patch_axis] = self.grid.patch_face_value()
            self.x0 = tuple(x0)
        self.t0 = float(p["t0"])
        self.probe_kind = p["kind"]
        self.probe_r = float(p["r"])
        self.a_rule = p["a_rule"] or None
        self.bump_shape = p["shape"]
        self.conv = float(p["conv"])

        n = raw["norms"]
        self.norm_kind = None if n["kind"] == "auto" else n["kind"]
        self.dict_seed = int(n["dict_seed"])
        self.dict_size = int(n["dict_size"])

        s = raw["sweep"]
        self.tau_list = _floats(s["tau_list"])
        self.eps_list = _floats(s["eps_list"])
        self.k_list = _ints(s["k_list"])

        self.out_dir = raw["output"]["dir"]
        self.prefix = raw["output"]["prefix"]
        self.seed = int(raw["run"]["seed"])

        # every law a subcommand can solve with must respect the floors,
        # and the d_t rho cap when one is set
        family = [pair for _, pair in self.law_family()]
        for law in [self.law1, self.law2] + [pair[0] for pair in family]:
            rep = check_admissible(law, s_range=(self.lam - 1.0, self.lam + 1.0),
                                   T=self.grid.T, check_kappa=law.kappa_cap is not None)
            for name, (ok, margin, (t, s)) in rep.checks.items():
                if not ok:
                    raise ConfigError(f"{law.label} is not admissible: {name} fails "
                                      f"by {-margin:.3g} at (t, s) = ({t:.3g}, {s:.3g})")
        # a rho difference the experiments probe must peak inside (0, T)
        rho_pairs = family if self.perturb_target == "rho" else []
        if self.probe_kind == "rho":
            rho_pairs = [(self.law1, self.law2)] + rho_pairs
        for pair in rho_pairs:
            rep = check_interior_max(pair, self.lam, self.grid.times)
            if not rep.interior:
                raise ConfigError(f"{pair[0].label} vs {pair[1].label}: interior_max "
                                  f"fails: |rho1 - rho2| peaks only at t = {rep.t_max:.3g}")

    def check_command(self, command: str):
        """Reject what a subcommand's probes cannot do, before any solve.

        Rho probes need n >= 3 and A = Id (probe-rho, and stability with
        perturb_target = rho); a tau sweep needs two distinct taus.
        """
        rho = command == "probe-rho" or (command == "stability"
                                         and self.perturb_target == "rho")
        if rho and self.grid.dim < 3:
            raise ConfigError(f"rho_dim fails: rho probes need n >= 3, dim = {self.grid.dim}")
        if rho and not self.A.is_identity:
            raise ConfigError(f"rho_identity_A fails: rho probes need A = Id, "
                              f"a_diag = {self.raw['material']['a_diag']}")
        if command in ("probe-gamma", "probe-rho") and len(set(self.tau_list)) < 2:
            raise ConfigError(f"tau_sweep fails: a tau sweep needs at least two "
                              f"distinct values, tau_list = {self.raw['sweep']['tau_list']}")

    def law_family(self):
        """eps-indexed pairs (perturbed law1-side, law2) for stability runs."""
        return [(eps, (perturb_law(self.law1, eps, self.perturb_target,
                                   self.perturb_profile), self.law2))
                for eps in self.eps_list]

    @property
    def hash(self) -> str:
        blob = "\n".join(f"{s}.{k}={self.raw[s][k]}"
                         for s in sorted(self.raw) for k in sorted(self.raw[s]))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config(path: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    raw = {s: dict(d) for s, d in _DEFAULTS.items()}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, val in cp[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            raw[section][key] = val
    return ExperimentConfig(raw)
