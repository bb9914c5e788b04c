"""Coefficient laws gamma(t, s) and rho(t, s) and their admissibility checks.

Laws come from a small closed-form library (selected by name + parameters)
so that partial derivatives are exact and experiment configs stay
reproducible.  A law is a value: laws built from the same spec compare
equal and hash alike.  Admissibility -- positivity floors, the
time-derivative cap used by the rho experiment, and the interior-maximum
condition on the difference rho^1 - rho^2 -- is checked by dense
sampling, not proved.
"""

import math
from dataclasses import dataclass, replace

import numpy as np


class MaterialError(ValueError):
    pass


@dataclass(frozen=True)
class MatrixField:
    """Constant symmetric elliptic coefficient matrix A."""

    A: np.ndarray
    ellipticity_c: float

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return bool(np.all(self.A == np.diag(np.diagonal(self.A))))

    @property
    def is_identity(self) -> bool:
        return bool(np.allclose(self.A, np.eye(self.dim), atol=0.0))


def make_matrix(A) -> MatrixField:
    """Validate squareness, symmetry and ellipticity, and wrap A."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise MaterialError("A must be a square matrix")
    if not np.allclose(A, A.T, atol=1e-14):
        raise MaterialError("A must be symmetric")
    c = float(np.linalg.eigvalsh(A).min())
    if c <= 0.0:
        raise MaterialError(f"A is not elliptic (min eigenvalue {c})")
    return MatrixField(A=A, ellipticity_c=c)


# ---------------------------------------------------------------------------
# law library


def _zero(t, s, *params):
    return np.zeros_like(t)


# name -> (parameter defaults, value, d/dt, d/ds).  Every map takes
# (t, s, *params) with t and s float arrays of one common shape.
_LIBRARY = {
    # c0
    "constant": ({"c0": 1.0},
                 lambda t, s, c0: np.full_like(t, c0),
                 _zero, _zero),
    # c0 + c1*t
    "affine_t": ({"c0": 1.0, "c1": 0.0},
                 lambda t, s, c0, c1: c0 + c1 * t,
                 lambda t, s, c0, c1: np.full_like(t, c1),
                 _zero),
    # c0 + c1*sin(2*pi*freq*t + phase)
    "trig_t": ({"c0": 1.0, "c1": 0.0, "freq": 1.0, "phase": 0.0},
               lambda t, s, c0, c1, freq, phase:
                   c0 + c1 * np.sin(2.0 * math.pi * freq * t + phase),
               lambda t, s, c0, c1, freq, phase:
                   c1 * (2.0 * math.pi * freq) * np.cos(2.0 * math.pi * freq * t + phase),
               _zero),
    # c0 + c1*exp(-((s-s0)/w)^2)
    "gauss_s": ({"c0": 1.0, "c1": 0.0, "s0": 0.0, "w": 1.0},
                lambda t, s, c0, c1, s0, w: c0 + c1 * np.exp(-(((s - s0) / w) ** 2)),
                _zero,
                lambda t, s, c0, c1, s0, w:
                    c1 * np.exp(-(((s - s0) / w) ** 2)) * (-2.0 * (s - s0) / w ** 2)),
    # c0 + c1*s + c2*s^2
    "poly_s": ({"c0": 1.0, "c1": 0.0, "c2": 0.0},
               lambda t, s, c0, c1, c2: c0 + c1 * s + c2 * s ** 2,
               _zero,
               lambda t, s, c0, c1, c2: c1 + 2.0 * c2 * s),
}


@dataclass(frozen=True)
class Coefficient:
    """Scalar coefficient map (t, s) -> value: a weighted sum of formulas.

    terms holds (weight, name, params) with params the formula's
    ((key, value), ...) in library order.  Coefficients add, scale by a
    float, compare by value and hash, so laws built from the same spec are
    interchangeable.  Evaluation broadcasts t against s.
    """

    terms: tuple

    def _eval(self, which: int, t, s):
        t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
        if t.shape != s.shape:
            t, s = np.broadcast_arrays(t, s)
        out = None
        for weight, name, params in self.terms:
            term = _LIBRARY[name][which](t, s, *(v for _, v in params))
            if weight != 1.0:
                term = weight * term
            out = term if out is None else out + term
        return out

    def __call__(self, t, s):
        return self._eval(1, t, s)

    def dt(self, t, s):
        return self._eval(2, t, s)

    def ds(self, t, s):
        return self._eval(3, t, s)

    def __add__(self, other: "Coefficient") -> "Coefficient":
        return Coefficient(self.terms + other.terms)

    def __rmul__(self, eps: float) -> "Coefficient":
        return Coefficient(tuple((eps * w, name, params) for w, name, params in self.terms))


def coefficient(name: str, params: dict) -> Coefficient:
    """Library formula `name` with the given parameters (others default)."""
    try:
        defaults = _LIBRARY[name][0]
    except KeyError:
        raise MaterialError(f"unknown coefficient law {name!r}") from None
    unused = set(params) - set(defaults)
    if unused:
        raise MaterialError(f"unused parameters for law {name!r}: {sorted(unused)}")
    values = tuple((k, float(params.get(k, d))) for k, d in defaults.items())
    return Coefficient(((1.0, name, values),))


@dataclass(frozen=True)
class MaterialLaw:
    """Coefficient pair (gamma, rho) with exact partial derivatives.

    m_floor is the positivity floor both coefficients must respect;
    kappa_cap caps sup_t d_t rho(t, s) when the rho experiment is enabled.
    """

    gamma: Coefficient
    rho: Coefficient
    m_floor: float
    kappa_cap: float
    label: str


def make_law(gamma=("constant", {"c0": 1.0}), rho=("constant", {"c0": 1.0}),
             m_floor=1e-3, kappa_cap=None, label="") -> MaterialLaw:
    """Assemble a MaterialLaw from library entries (name, params)."""
    return MaterialLaw(gamma=coefficient(*gamma), rho=coefficient(*rho),
                       m_floor=float(m_floor),
                       kappa_cap=math.inf if kappa_cap is None else float(kappa_cap),
                       label=label or f"gamma={gamma[0]},rho={rho[0]}")


def perturb_law(base: MaterialLaw, eps: float, target: str = "gamma",
                profile=("constant", {"c0": 1.0})) -> MaterialLaw:
    """Law with gamma (or rho) shifted by eps times a library profile."""
    if target not in ("gamma", "rho"):
        raise MaterialError(f"unknown perturbation target {target!r}")
    shifted = getattr(base, target) + eps * coefficient(*profile)
    return replace(base, **{target: shifted},
                   label=f"{base.label}+{eps}*{target}-perturbation")


# ---------------------------------------------------------------------------
# admissibility


@dataclass
class AdmissibilityReport:
    passed: bool
    checks: dict  # name -> (ok, worst_value, worst_point)

    def __bool__(self):
        return self.passed


def check_admissible(law: MaterialLaw, s_range=(-1.0, 1.0), t_grid=None,
                     T=1.0, samples=256, check_kappa=False) -> AdmissibilityReport:
    """Sample the positivity floors (and optionally the d_t rho cap).

    Never raises; the report records the worst sample per predicate.
    """
    t = np.linspace(0.0, T, samples) if t_grid is None else np.asarray(t_grid, float)
    s = np.linspace(s_range[0], s_range[1], samples)
    tt, ss = np.meshgrid(t, s, indexing="ij")
    checks = {}

    def record(name, margin):
        k = np.unravel_index(np.argmin(margin), margin.shape)
        checks[name] = (bool(margin[k] >= 0.0), float(margin[k]),
                        (float(tt[k]), float(ss[k])))

    record("gamma_floor", law.gamma(tt, ss) - law.m_floor)
    record("rho_floor", law.rho(tt, ss) - law.m_floor)
    if check_kappa:
        record("rho_dt_cap", law.kappa_cap - law.rho.dt(tt, ss))
    return AdmissibilityReport(passed=all(ok for ok, _, _ in checks.values()),
                               checks=checks)


@dataclass
class InteriorMaxReport:
    t_max: float
    value: float
    interior: bool
    degenerate_zero: bool


def check_interior_max(law_pair, lam: float, t_grid) -> InteriorMaxReport:
    """Locate max_t |rho1 - rho2|(t, lam) and flag boundary maximizers.

    A maximum attained only at t in {0, T} violates the interior-maximum
    requirement of the rho experiment; an identically-zero difference is
    reported as degenerate.
    """
    law1, law2 = law_pair
    t = np.asarray(t_grid, dtype=float)
    d = np.abs(law1.rho(t, lam) - law2.rho(t, lam))
    peak = d.max()
    if peak <= 1e-15:
        return InteriorMaxReport(t_max=float(t[len(t) // 2]), value=0.0,
                                 interior=True, degenerate_zero=True)
    hits = np.flatnonzero(d >= peak * (1.0 - 1e-12))
    interior_hits = hits[(hits > 0) & (hits < len(t) - 1)]
    if interior_hits.size == 0:
        k = hits[0]
        return InteriorMaxReport(t_max=float(t[k]), value=float(peak),
                                 interior=False, degenerate_zero=False)
    k = interior_hits[0]
    return InteriorMaxReport(t_max=float(t[k]), value=float(peak),
                             interior=True, degenerate_zero=False)
