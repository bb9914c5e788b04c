"""Correctness gate: parse every output strictly, apply the acceptance caps
and compare the numbers with the values recorded at the seed commit.

extract() reads what one subcommand wrote and returns its numbers;
check() returns the reasons that invocation failed (empty when it passed).
record.py writes extract() results to reference.json.
"""

import csv
import json
import math
import os

# acceptance caps (tests/test_acceptance.py, test_02 and test_06 to test_08)
GAMMA_DIFF = 0.02          # gamma1 - gamma2 at (t0, lambda)
GAMMA_ERR_CAP = 0.20
GAMMA_RATE_FLOOR = 0.3
SLOPE_WINDOW = (0.8, 1.2)
RHO_VALUE = 1.2            # rho1(t0 = 1.25, lambda) = 1 + 0.2 sin(pi / 2)
RHO_ERR_CAP = 0.30
DEFECT_CAP = 1e-9          # linear-law linearization defect

# drift from the seed commit: d_k is rounding-level, so absolute
REL_TOL = 1e-8
D_K_ABS_TOL = 1e-10
FLUX_REL_TOL = 1e-6        # the flux inherits the Newton tolerance

CSV_COLUMNS = {
    "forward": ["face_node_id", "t", "flux"],
    "linearize-check": ["k", "d_k", "ok", "note"],
    "probe-gamma": ["target", "t0", "lambda", "tau", "estimate"],
    "probe-rho": ["target", "t0", "lambda", "tau", "estimate"],
    "stability": ["eps", "eta", "true_diff", "recovered", "ok", "note"],
}


class CheckError(ValueError):
    pass


def output_files(cmd: str, prefix: str) -> tuple:
    """(csv name, json name or None) a subcommand writes."""
    return {
        "forward": (f"{prefix}_flux.csv", None),
        "linearize-check": (f"{prefix}_linearize.csv", None),
        "probe-gamma": (f"{prefix}_gamma_sweep.csv", f"{prefix}_gamma_report.json"),
        "probe-rho": (f"{prefix}_rho_sweep.csv", f"{prefix}_rho_report.json"),
        "stability": (f"{prefix}_stability.csv", f"{prefix}_stability_report.json"),
    }[cmd]


def read_csv(path: str, columns: list) -> list:
    """Rows of a '# key=value' header + CSV table; raises CheckError."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, sep, _ = lines[i][2:].partition("=")
        if not lines[i].startswith("# ") or not sep or not key:
            raise CheckError(f"{path}: bad header line {lines[i]!r}")
        i += 1
    table = list(csv.reader(lines[i:]))
    if not table or table[0] != columns:
        raise CheckError(f"{path}: expected columns {columns}")
    if len(table) < 2 or any(len(r) != len(columns) for r in table[1:]):
        raise CheckError(f"{path}: empty table or ragged row")
    return [dict(zip(columns, r)) for r in table[1:]]


def _reject_constant(name):
    raise CheckError(f"non-standard JSON constant {name}")


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _floats(rows, key):
    out = [float(r[key]) for r in rows]
    if not all(math.isfinite(v) for v in out):
        raise CheckError(f"non-finite {key}")
    return out


def _same(a, b, rel):
    return len(a) == len(b) and all(abs(x - y) <= rel * max(abs(y), 1e-300)
                                    for x, y in zip(a, b))


def extract(cmd: str, out_dir: str, prefix: str) -> dict:
    """The numbers one subcommand wrote; raises CheckError on bad format."""
    csv_name, json_name = output_files(cmd, prefix)
    rows = read_csv(os.path.join(out_dir, csv_name), CSV_COLUMNS[cmd])
    report = read_json(os.path.join(out_dir, json_name)) if json_name else None
    if cmd == "forward":
        flux = _floats(rows, "flux")
        return {"rows": len(rows), "flux_l2": math.sqrt(sum(v * v for v in flux))}
    if cmd == "linearize-check":
        return {"k": [int(r["k"]) for r in rows], "d_k": _floats(rows, "d_k"),
                "ok": [r["ok"] == "True" for r in rows]}
    if cmd in ("probe-gamma", "probe-rho"):
        raw = report["raw_estimates"]
        if not _same(_floats(rows, "estimate"), raw, 1e-11):
            raise CheckError("sweep CSV and JSON report disagree")
        return {"tau": report["tau_sequence"], "raw_estimates": raw,
                "fitted_rate": report["fitted_rate"]}
    eta = [r["eta"] for r in report["rows"]]
    if not _same(_floats(rows, "eta"), eta, 1e-11):
        raise CheckError("stability CSV and JSON report disagree")
    return {"eps": [r["eps"] for r in report["rows"]], "eta": eta,
            "recovered": [r["recovered"] for r in report["rows"]],
            "ok": [r["ok"] for r in report["rows"]],
            "fitted_slope": report["fitted_slope"],
            "holder_ok": report["holder_ok"]}


def accuracy(cmd: str, values: dict) -> dict:
    """The accuracy figures of one subcommand's output."""
    if cmd == "linearize-check":
        return {"d_k_max": max(values["d_k"])}
    if cmd == "probe-gamma":
        return {"gamma_err": abs(values["raw_estimates"][-1] - GAMMA_DIFF) / GAMMA_DIFF,
                "gamma_rate": values["fitted_rate"]}
    if cmd == "probe-rho":
        return {"rho_err": abs(1.0 + values["raw_estimates"][-1] - RHO_VALUE) / RHO_VALUE}
    if cmd == "stability" and values["fitted_slope"] is not None:
        return {"slope_err": abs(values["fitted_slope"] - 1.0)}
    return {}


def check(cmd: str, values: dict, ref: dict) -> list:
    """Reasons the output misses a cap or drifts from the reference."""
    bad = []
    acc = accuracy(cmd, values)
    if cmd == "forward":
        if values["rows"] != ref["rows"] or not _same(
                [values["flux_l2"]], [ref["flux_l2"]], FLUX_REL_TOL):
            bad.append("flux differs from the seed commit")
    elif cmd == "linearize-check":
        if not all(values["ok"]) or values["k"] != ref["k"]:
            bad.append("linearization rows failed or changed")
        elif acc["d_k_max"] > DEFECT_CAP:
            bad.append(f"linear-law defect {acc['d_k_max']:.2e} above {DEFECT_CAP}")
        elif any(abs(x - y) > D_K_ABS_TOL for x, y in zip(values["d_k"], ref["d_k"])):
            bad.append("d_k drifted from the seed commit")
    elif cmd in ("probe-gamma", "probe-rho"):
        if cmd == "probe-gamma" and (acc["gamma_err"] > GAMMA_ERR_CAP
                                     or (acc["gamma_rate"] or 0.0) < GAMMA_RATE_FLOOR):
            bad.append(f"gamma error {acc['gamma_err']:.3f} or rate "
                       f"{acc['gamma_rate']} misses the cap")
        if cmd == "probe-rho" and acc["rho_err"] > RHO_ERR_CAP:
            bad.append(f"rho error {acc['rho_err']:.3f} above {RHO_ERR_CAP}")
        if values["tau"] != ref["tau"] or not _same(
                values["raw_estimates"], ref["raw_estimates"], REL_TOL):
            bad.append("raw estimates drifted from the seed commit")
    else:
        if not all(values["ok"]) or values["eps"] != ref["eps"]:
            bad.append("stability rows failed or changed")
        if values["fitted_slope"] is not None and not (
                SLOPE_WINDOW[0] <= values["fitted_slope"] <= SLOPE_WINDOW[1]):
            bad.append(f"slope {values['fitted_slope']:.4f} outside {SLOPE_WINDOW}")
        if values["fitted_slope"] is None and values["holder_ok"] is not True:
            bad.append("no Lipschitz slope and no Holder bound")
        if not (_same(values["eta"], ref["eta"], REL_TOL)
                and _same(values["recovered"], ref["recovered"], REL_TOL)):
            bad.append("eta or recovered values drifted from the seed commit")
    return bad
