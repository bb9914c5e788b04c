"""dnprobe benchmark: CLI subcommand passes, timed end to end or traced.

    python3 perfbench/run.py --workload gamma2d-newton --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  A pass is one fresh interpreter (perfbench/child.py) that imports
dnprobe.cli, loads the workload's configs and runs the workload's
subcommands one after another: a closed loop with one caller.  Passes
repeat until --seconds is used up.  Every invocation's outputs are checked
(checks.py); an invocation that exits nonzero or whose outputs fail the
checks counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones (spans.py) plus the tracing overhead.  The last stdout
line is the JSON result; the lines before it print every metric by name.
Generated configs and outputs live in a temporary directory under
./.perfbench, which also keeps the last result and span files.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import spans
from workloads import WORKLOADS, dict_seed, pass_commands, write_configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 3          # set-up-only interpreters per timed run
RUN_LIMIT_S = 170.0       # a run must end within 180 s

# One caller on one core: results must not depend on the worker pool, and
# BLAS threads would compete with the parent on a 2-core box.  No bytecode
# is written, so every checkout compiles the package the same way.
CHILD_ENV = {"DNPROBE_WORKERS": "1", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONDONTWRITEBYTECODE": "1"}


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' when it is not a git clone."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit()}


class Session:
    """Configs, outputs and child processes of one workload run."""

    def __init__(self, workload: str, seed: int, tmp: str, reference=None):
        """reference: reference.json contents; None skips the drift checks."""
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.reference = reference
        self.out_dir = os.path.join(tmp, "out")
        self.configs = write_configs(workload, seed, tmp, self.out_dir)
        self.commands = pass_commands(workload, self.configs)
        self.env = dict(os.environ, PYTHONPATH=SRC, **CHILD_ENV)
        self.passes = 0

    def run_pass(self, commands, trace: bool, timeout: float) -> dict:
        """One child interpreter; returns its timings and checked outputs."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.passes += 1
        spec = os.path.join(self.tmp, "spec.json")
        result_path = os.path.join(self.tmp, "result.json")
        if os.path.exists(result_path):
            os.unlink(result_path)
        with open(spec, "w") as fh:
            json.dump({"configs": list(self.configs.values()),
                       "commands": commands, "trace": trace,
                       "result": result_path}, fh)
        log_path = os.path.join(self.tmp, f"pass{self.passes}.log")
        start = time.monotonic()
        with open(log_path, "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), spec],
                    cwd=self.tmp, env=self.env, stdout=log,
                    stderr=subprocess.STDOUT, timeout=timeout)
                ok = proc.returncode == 0 and os.path.exists(result_path)
            except subprocess.TimeoutExpired:
                ok = False
        wall = time.monotonic() - start
        if not ok:
            self._show_log(log_path)
            return {"wall": wall, "setup_s": None, "commands": [
                {"stem": stem, "s": None, "failed": ["pass crashed"]}
                for stem, _ in commands]}
        with open(result_path) as fh:
            res = json.load(fh)
        out = {"wall": wall, "setup_s": res["setup_end"] - start,
               "rss_mb": res["max_rss_kb"] / 1024.0, "trace": res["trace"],
               "commands": []}
        for cmd in res["commands"]:
            failed = self._check(cmd)
            if failed:
                print(f"FAILED {cmd['argv'][0]}: {'; '.join(failed)}", file=sys.stderr)
                self._show_log(log_path)
            out["commands"].append({"stem": cmd["stem"], "s": cmd["s"], "failed": failed,
                                    "values": cmd.get("values"),
                                    "accuracy": cmd.get("accuracy", {})})
        return out

    def _check(self, cmd: dict) -> list:
        name = cmd["argv"][0]
        if cmd["rc"] != 0:
            return [f"exit code {cmd['rc']}"]
        prefix = os.path.splitext(os.path.basename(cmd["argv"][2]))[0]
        try:
            values = checks.extract(name, self.out_dir, prefix)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            return [f"unreadable output: {exc}"]
        cmd["values"] = values
        cmd["accuracy"] = checks.accuracy(name, values)
        if self.reference is None:
            return []
        ref = self.reference[self.workload][cmd["stem"]]
        if cmd["stem"] == "stability":
            ref = ref[str(dict_seed(self.seed))]
        return checks.check(name, values, ref)

    @staticmethod
    def _show_log(path):
        with open(path) as fh:
            tail = fh.read()[-2000:]
        print(f"--- {os.path.basename(path)} ---\n{tail}", file=sys.stderr)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _tail(values):
    """Highest of p90/p99 with at least ten samples beyond it, else None."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(RUN_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=RUN_DIR, prefix=f"{workload}-")
    t0 = time.monotonic()
    try:
        with open(os.path.join(HERE, "reference.json")) as fh:
            sess = Session(workload, seed, tmp, json.load(fh))
        setups, passes = [], []
        if not trace:
            for _ in range(SETUP_PROBES):
                setups.append(sess.run_pass([], False, RUN_LIMIT_S)["setup_s"])
        while True:
            walls = [p["wall"] for p in passes]
            used = time.monotonic() - t0
            if len(passes) >= (2 if trace else 1) and used + _median(walls) > seconds:
                break
            traced = trace and len(passes) % 2 == 1
            p = sess.run_pass(sess.commands, traced,
                              max(10.0, RUN_LIMIT_S - used))
            p["traced"] = traced
            passes.append(p)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return summarize(workload, seed, seconds, trace, setups, passes,
                     time.monotonic() - t0)


def summarize(workload, seed, seconds, trace, setups, passes, elapsed) -> dict:
    steps = WORKLOADS[workload]["steps"]
    attempted = sum(len(p["commands"]) for p in passes)
    failed = sum(bool(c["failed"]) for p in passes for c in p["commands"])
    plain = [p for p in passes if not p["traced"]]
    ok = lambda p: all(c["s"] is not None for c in p["commands"])
    pass_s = [sum(c["s"] for c in p["commands"]) for p in plain if ok(p)]
    named = {"setup_s": ([s for s in setups + [p["setup_s"] for p in plain]
                          if s is not None], "s")}
    for i, (stem, _, _) in enumerate(steps):
        named[f"{stem}_s"] = ([p["commands"][i]["s"] for p in plain if ok(p)], "s")
    named["pass_s"] = (pass_s, "s")
    named["peak_rss_mb"] = ([p["rss_mb"] for p in plain if "rss_mb" in p], "MiB")
    accuracy = {}
    for p in passes:
        for c in p["commands"]:
            for k, v in c.get("accuracy", {}).items():
                accuracy.setdefault(k, []).append(v)

    prov = provenance()
    lines = [f"workload {workload}  seed {seed}  dict_seed {dict_seed(seed)}  "
             f"seconds {seconds}  trace {int(trace)}  elapsed {elapsed:.1f} s",
             f"provenance {json.dumps(prov, sort_keys=True)}"]
    for name, (vals, unit) in named.items():
        tail = _tail(vals)
        extra = f"  p{tail[0]} {tail[1]:.4f}" if tail else ""
        lines.append(f"  {name:<20} {_median(vals):10.4f} {unit:<3} "
                     f"median of {len(vals)}{extra}")
    lines.append(f"  {'fail_frac':<20} {failed / max(attempted, 1):10.4f} 1   "
                 f"{failed} of {attempted} invocations")
    for name, vals in sorted(accuracy.items()):
        lines.append(f"  {name:<20} {_median(vals):10.4g} 1   median of {len(vals)}")

    if trace:
        traced = [p for p in passes if p["traced"] and p.get("trace")]
        layer = [spans.layer_metrics(p["trace"]) for p in traced]
        metrics = {k: _median([m[k] for m in layer]) for k in layer[0]} if layer else {}
        traced_s = [sum(c["s"] for c in p["commands"]) for p in traced if ok(p)]
        metrics["trace.overhead_frac"] = _median(traced_s) / _median(pass_s) - 1.0
        lines.append(f"  traced passes {len(traced)}, untraced {len(plain)}")
        for k, v in metrics.items():
            lines.append(f"  {k:<28} {v:12.6g}")
        _write_spans(workload, seed, traced)
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    else:
        metrics = {"setup_s": named["setup_s"][0], "pass_s": pass_s,
                   "first_cmd_s": named[f"{steps[0][0]}_s"][0],
                   "second_cmd_s": named[f"{steps[1][0]}_s"][0],
                   "peak_rss_mb": named["peak_rss_mb"][0]}
        metrics = {k: _median(v) for k, v in metrics.items()}
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    # a metric with no sample (every pass crashed) is NaN, which JSON cannot
    # carry: report 0 and mark the run incorrect
    finite = all(math.isfinite(v) for v in metrics.values())
    result = {"correct": failed == 0 and finite, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = {"workload": workload, "seed": seed, "trace": trace,
              "provenance": prov, "result": result,
              "samples": {k: v for k, (v, _) in named.items()},
              "accuracy": accuracy}
    with open(os.path.join(RUN_DIR, f"result-{workload}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return {"lines": lines, "result": result}


def _write_spans(workload, seed, traced):
    with open(os.path.join(RUN_DIR, f"spans-{workload}.jsonl"), "w") as fh:
        for i, p in enumerate(traced):
            for name, start, end, parent in p["trace"]["spans"]:
                fh.write(json.dumps({"pass": i, "seed": seed, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind like Ctrl-C: subprocess.run kills and reaps the
    # running pass, and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "dnprobe", "cli.py")):
        print(f"no dnprobe sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(out["lines"]), flush=True)
        results[name] = out["result"]
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
