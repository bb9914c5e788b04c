"""Tracing from outside the package: spans around dnprobe's public calls.

install() replaces each traced function at every module attribute that
binds it (``from .pde import solve_linearized`` copies the name into
dnmap, reconstruct and cli), and replaces ``splu`` in the modules that
factorize with a proxy that counts factorizations and ``.solve`` calls.
Counts and times go to the span that encloses the call, so a Newton
factorization (inside pde.forward) stays apart from a frozen-solve one
(inside pde.frozen).  Spans live in memory until export().

A span's self time is its duration minus the durations of its direct
children.  Tracing assumes one thread (DNPROBE_WORKERS=1).
"""

import functools
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> functions it wraps, as (module, attribute path)
LAYERS = {
    "config.load": [("dnprobe.config", "load_config")],
    "pde.forward": [("dnprobe.pde", "solve_forward")],
    "pde.frozen": [("dnprobe.pde", "solve_linearized")],
    "singular.operator": [("dnprobe.singular", "_omega_prime_operator")],
    "singular.corrector": [("dnprobe.singular", "solve_corrector")],
    "singular.basis": [("dnprobe.singular", "build_basis")],
    "singular.energy": [("dnprobe.singular", "grad_H_energy")],
    "dnmap.flux": [("dnprobe.dnmap", "nonlinear_flux"),
                   ("dnprobe.dnmap", "linear_flux")],
    "dnmap.pairing": [("dnprobe.dnmap", "surface_pairing")],
    "dnmap.norm": [("dnprobe.dnmap", "BoundaryNorm.half"),
                   ("dnprobe.dnmap", "BoundaryNorm.dual"),
                   ("dnprobe.dnmap", "flux_l2_st")],
    "dnmap.dictionary": [("dnprobe.dnmap", "random_bump_dictionary")],
    "dnmap.eta": [("dnprobe.dnmap", "eta_surrogate")],
    "reconstruct.point": [("dnprobe.reconstruct", "recover_gamma_point"),
                          ("dnprobe.reconstruct", "recover_rho_point")],
}

# modules whose ``splu`` is replaced by the counting proxy
SPLU_MODULES = ("dnprobe.pde", "dnprobe.singular", "dnprobe.dnmap")

ROOT_PREFIX = "cmd."   # child.py opens one root span per subcommand


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self.stack = []
        self.counters = defaultdict(float)

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def add(self, key, value):
        """Add to a counter of the innermost open span."""
        owner = self.spans[self.stack[-1]][0] if self.stack else "none"
        self.counters[f"{owner}/{key}"] += value

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


class _CountedLU:
    """SuperLU stand-in that counts and times ``solve``."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._lu.solve(*args, **kwargs)
        self._tracer.add("lu_solves", 1)
        self._tracer.add("lu_solve_s", time.perf_counter() - t0)
        return out

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _counted_splu(splu, tracer):
    @functools.wraps(splu)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        lu = splu(*args, **kwargs)
        tracer.add("factorizations", 1)
        tracer.add("factor_s", time.perf_counter() - t0)
        return _CountedLU(lu, tracer)
    return wrapper


def _spanned(fn, name, tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _counted_write(atomic_write, tracer):
    @functools.wraps(atomic_write)
    def wrapper(path, writer):
        with tracer.span("cli.write"):
            atomic_write(path, writer)
            tracer.add("bytes_written", os.path.getsize(path))
    return wrapper


def _rebind(orig, replacement):
    """Replace orig at every attribute of a loaded dnprobe module bound to it."""
    for modname, mod in list(sys.modules.items()):
        if modname != "dnprobe" and not modname.startswith("dnprobe."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap every traced call of the already imported dnprobe modules."""
    for name, targets in LAYERS.items():
        for modname, path in targets:
            owner = sys.modules[modname]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                setattr(owner, attr, _spanned(getattr(owner, attr), name, tracer))
            else:
                orig = getattr(owner, attr)
                _rebind(orig, _spanned(orig, name, tracer))
    for modname in SPLU_MODULES:
        mod = sys.modules[modname]
        mod.splu = _counted_splu(mod.splu, tracer)
    cli = sys.modules["dnprobe.cli"]
    cli._atomic_write = _counted_write(cli._atomic_write, tracer)


def layer_metrics(export: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    spans, counters = export["spans"], export["counters"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    self_s, calls, durations = defaultdict(float), defaultdict(int), defaultdict(list)
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] += end - start - child_s[i]
        calls[name] += 1
        durations[name].append(end - start)
    c = lambda owner, key: counters.get(f"{owner}/{key}", 0.0)
    frozen_f, frozen_n = c("pde.frozen", "factorizations"), c("pde.frozen", "lu_solves")
    points = durations["reconstruct.point"]
    return {
        "pde.forward_calls": calls["pde.forward"],
        "pde.forward_s": self_s["pde.forward"],
        "pde.newton_factorizations": c("pde.forward", "factorizations"),
        "pde.newton_factor_s": c("pde.forward", "factor_s"),
        "pde.newton_lu_solves": c("pde.forward", "lu_solves"),
        "pde.frozen_calls": calls["pde.frozen"],
        "pde.frozen_s": self_s["pde.frozen"],
        "pde.frozen_factorizations": frozen_f,
        "pde.frozen_factor_s": c("pde.frozen", "factor_s"),
        "pde.frozen_lu_solves": frozen_n,
        "pde.frozen_lu_solve_s": c("pde.frozen", "lu_solve_s"),
        "pde.frozen_factor_reuse": 1.0 - frozen_f / frozen_n if frozen_n else 0.0,
        "singular.operator_s": self_s["singular.operator"],
        "singular.corrector_calls": calls["singular.corrector"],
        "singular.corrector_s": self_s["singular.corrector"],
        "singular.basis_s": self_s["singular.basis"],
        "singular.energy_s": self_s["singular.energy"],
        "dnmap.flux_s": self_s["dnmap.flux"],
        "dnmap.pairing_s": self_s["dnmap.pairing"],
        "dnmap.norm_s": self_s["dnmap.norm"],
        "dnmap.dictionary_s": self_s["dnmap.dictionary"],
        "dnmap.eta_s": self_s["dnmap.eta"],
        "reconstruct.point_calls": len(points),
        "reconstruct.point_s": statistics.median(points) if points else 0.0,
        "config.load_s": self_s["config.load"],
        "cli.write_s": self_s["cli.write"],
        "cli.bytes_written": c("cli.write", "bytes_written"),
        "trace.unattributed_s": sum(s for name, s in self_s.items()
                                    if name.startswith(ROOT_PREFIX)),
    }
