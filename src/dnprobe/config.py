"""Experiment configuration: INI-style file, fully validated, hashable.

One config file drives every CLI subcommand.  The option set is closed:
the keys of _DEFAULTS are the ones each section accepts, and unknown
sections or keys are rejected by name, so a typo cannot silently fall
back to a default.  The checks here are on values: each parses, is finite
and lies in its set, and every law a subcommand can solve with is
admissible.  What the probes of a subcommand need, such as a rho
difference that peaks inside (0, T), is checked on its probe plan (cli)
by reconstruct.check_probes.  No key chooses the boundary norm: the
grid's dimension does (dnmap.BoundaryNorm).  The resolved configuration is
hashed and the hash is embedded in every output file a run produces: the
CRC-32 and the Adler-32 (zlib) of the canonical key=value dump, 8 hex
digits each.  The hash names a config in output metadata and is compared
for equality only; it guards no security property, so no cryptographic
hash (and no OpenSSL) is loaded for it.
"""

import configparser
import math
import zlib

import numpy as np

from .geometry import build_grid
from .material import check_admissible, make_law, make_matrix, perturb_law
from .singular import BUMP_SKEW


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "grid": {"dim": "2", "h": "0.03125", "dt": "0.03125", "t_final": "1.0",
             "patch_face": "left", "patch_interval": "", "pad": "8"},
    "material": {"a_diag": "", "lambda": "0.0",
                 "gamma1": "constant:c0=1", "rho1": "constant:c0=1",
                 "gamma2": "constant:c0=1", "rho2": "constant:c0=1",
                 "m_floor": "0.001", "kappa_cap": "",
                 "perturb_target": "gamma", "perturb_profile": "constant:c0=1"},
    "probe": {"x0": "", "t0": "0.5", "kind": "gamma", "r": "0.25",
              "a_rule": "", "shape": "symmetric"},
    "norms": {"dict_seed": "0", "dict_size": "16"},
    "sweep": {"tau_list": "0.2,0.1,0.05", "eps_list": "0.01,0.02,0.04",
              "k_list": "4,8,16,32"},
    "output": {"dir": ".", "prefix": "run"},
    "run": {"seed": "0"},
}


# keys whose value comes from a closed set
_CHOICES = {
    ("material", "perturb_target"): ("gamma", "rho"),
    ("probe", "kind"): ("gamma", "rho"),
    ("probe", "a_rule"): ("", "log", "power"),
    ("probe", "shape"): tuple(BUMP_SKEW),
}


def _parse_law_spec(material: dict, key: str):
    """[material] key = 'name:k=v:k=v' -> (name, {k: float})."""
    spec = material[key]
    where = f"[material] {key} = {spec!r}"
    parts = spec.split(":")
    name = parts[0].strip()
    params = {}
    for p in parts[1:]:
        if "=" not in p:
            raise ConfigError(f"malformed law parameter {p!r} in {where}")
        k, v = p.split("=", 1)
        v = v.strip()
        try:
            x = math.pi / 2 if v == "pi/2" else math.pi if v == "pi" else float(v)
        except ValueError:
            raise ConfigError(f"non-numeric law parameter {p!r} in {where}") from None
        if not math.isfinite(x):
            raise ConfigError(f"non-finite law parameter {p!r} in {where}")
        params[k.strip()] = x
    return name, params


def _floats(text: str):
    return [float(x) for x in text.split(",") if x.strip()]


def _ints(text: str):
    return [int(x) for x in text.split(",") if x.strip()]


def _intervals(text: str):
    """'lo:hi,lo:hi' -> [(lo, hi), ...]; '' -> None."""
    pairs = (pair.split(":") for pair in text.split(","))
    return [(float(lo), float(hi)) for lo, hi in pairs] if text else None


def _non_finite(value) -> bool:
    """Whether a parsed value (a number, None, or a list of numbers or of
    pairs) holds a NaN or an infinity."""
    if isinstance(value, float):
        return not math.isfinite(value)
    return isinstance(value, (list, tuple)) and any(map(_non_finite, value))


class ExperimentConfig:
    """Resolved, validated experiment options plus derived objects."""

    def __init__(self, raw: dict):
        self.raw = raw
        for (section, key), choices in _CHOICES.items():
            if raw[section][key] not in choices:
                raise ConfigError(f"[{section}] {key} = {raw[section][key]!r} is not "
                                  f"one of {', '.join(map(repr, choices))}")

        def parse(section, key, conv):
            try:
                value = conv(raw[section][key])
            except ValueError:
                raise ConfigError(f"malformed value for [{section}] {key}: "
                                  f"{raw[section][key]!r}") from None
            if _non_finite(value):
                raise ConfigError(f"[{section}] {key} = {raw[section][key]!r} is not finite")
            return value

        self.grid = build_grid(parse("grid", "dim", int), parse("grid", "h", float),
                               parse("grid", "dt", float), parse("grid", "t_final", float),
                               patch_face=raw["grid"]["patch_face"],
                               patch_interval=parse("grid", "patch_interval", _intervals),
                               pad=parse("grid", "pad", int))

        m = raw["material"]
        diag = parse("material", "a_diag", _floats) or [1.0] * self.grid.dim
        if len(diag) != self.grid.dim:
            raise ConfigError("a_diag length does not match dim")
        self.A = make_matrix(np.diag(diag))
        self.lam = parse("material", "lambda", float)
        kcap = parse("material", "kappa_cap", lambda v: float(v) if v else None)
        m_floor = parse("material", "m_floor", float)
        if m_floor <= 0.0:
            raise ConfigError(f"[material] m_floor = {m['m_floor']} must be positive")
        self.law1 = make_law(gamma=_parse_law_spec(m, "gamma1"),
                             rho=_parse_law_spec(m, "rho1"),
                             m_floor=m_floor, kappa_cap=kcap, label="law1")
        self.law2 = make_law(gamma=_parse_law_spec(m, "gamma2"),
                             rho=_parse_law_spec(m, "rho2"),
                             m_floor=m_floor, kappa_cap=kcap, label="law2")
        self.perturb_target = m["perturb_target"]
        self.perturb_profile = _parse_law_spec(m, "perturb_profile")

        p = raw["probe"]
        x0 = parse("probe", "x0", _floats)
        if not x0:
            x0 = [0.5] * self.grid.dim
            x0[self.grid.patch_axis] = self.grid.patch_face_value()
        self.x0 = tuple(x0)
        self.t0 = parse("probe", "t0", float)
        self.probe_kind = p["kind"]
        self.probe_r = parse("probe", "r", float)
        self.a_rule = p["a_rule"] or None
        self.bump_shape = p["shape"]

        self.dict_seed = parse("norms", "dict_seed", int)
        if self.dict_seed < 0:
            raise ConfigError(f"[norms] dict_seed = {self.dict_seed} must be at least 0")
        self.dict_size = parse("norms", "dict_size", int)
        if self.dict_size < 1:
            raise ConfigError(f"[norms] dict_size = {self.dict_size} must be at least 1")

        self.tau_list = parse("sweep", "tau_list", _floats)
        self.eps_list = parse("sweep", "eps_list", _floats)
        self.k_list = parse("sweep", "k_list", _ints)
        if min(self.k_list, default=1) < 1:
            raise ConfigError(f"[sweep] k_list = {raw['sweep']['k_list']!r} needs every k >= 1")

        self.out_dir = raw["output"]["dir"]
        self.prefix = raw["output"]["prefix"]
        self.seed = parse("run", "seed", int)

        # eps-indexed pairs (perturbed law1-side, law2) for stability runs,
        # built once: the check below, the CLI plan and the table read them
        self.law_family = [(eps, (perturb_law(self.law1, eps, self.perturb_target,
                                              self.perturb_profile), self.law2))
                           for eps in self.eps_list]

        # every law a subcommand can solve with must respect the floors
        # and the d_t rho cap
        for law in [self.law1, self.law2] + [pair[0] for _, pair in self.law_family]:
            checks = check_admissible(law, s_range=(self.lam - 1.0, self.lam + 1.0),
                                      T=self.grid.T)
            for name, (ok, margin, (t, s)) in checks.items():
                if not ok:
                    raise ConfigError(f"{law.label} is not admissible: {name} fails "
                                      f"by {-margin:.3g} at (t, s) = ({t:.3g}, {s:.3g})")

    @property
    def hash(self) -> str:
        blob = "\n".join(f"{s}.{k}={self.raw[s][k]}"
                         for s in sorted(self.raw) for k in sorted(self.raw[s])).encode()
        return f"{zlib.crc32(blob):08x}{zlib.adler32(blob):08x}"


def load_config(path: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        items = {section: dict(cp[section]) for section in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file: {exc}") from None
    raw = {s: dict(d) for s, d in _DEFAULTS.items()}
    for section, values in items.items():
        if section not in _DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, val in values.items():
            if key not in _DEFAULTS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            raw[section][key] = val
    return ExperimentConfig(raw)
