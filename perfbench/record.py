"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record.py

Run once at the commit that defines the baseline; writes
perfbench/reference.json.  Each workload's full pass is recorded at seed 0,
and the stability subcommand, whose eta values depend on the dictionary,
for every dictionary seed the runs can select.  Outputs that miss an
acceptance cap are refused, so a bad baseline cannot be recorded.
"""

import json
import os
import shutil
import sys
import tempfile

import checks
from run import HERE, RUN_DIR, SRC, Session
from workloads import DICT_SEEDS, WORKLOADS


def _values(sess, commands):
    p = sess.run_pass(commands, False, 600.0)
    out = {}
    for (stem, argv), c in zip(commands, p["commands"]):
        if c["failed"]:
            raise SystemExit(f"{sess.workload} {argv[0]}: {c['failed']}")
        out[stem] = c["values"]
    return out


def main() -> int:
    if not os.path.isdir(os.path.join(SRC, "dnprobe")):
        print(f"no dnprobe sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    reference = {}
    for workload in WORKLOADS:
        tmp = tempfile.mkdtemp(dir=RUN_DIR, prefix="record-")
        try:
            sess = Session(workload, 0, tmp)
            ref = _values(sess, sess.commands)
            if "stability" in ref:
                seeds = {"0": ref["stability"]}
                for seed in range(1, DICT_SEEDS):
                    sess = Session(workload, seed, tmp)
                    stab = [c for c in sess.commands if c[0] == "stability"]
                    seeds[str(seed)] = _values(sess, stab)["stability"]
                ref["stability"] = seeds
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        for stem, values in ref.items():
            cmd = next(argv[0] for s, argv in sess.commands if s == stem)
            for v in (values.values() if stem == "stability" else [values]):
                bad = checks.check(cmd, v, v)
                if bad:
                    raise SystemExit(f"{workload} {cmd}: {bad}")
        reference[workload] = ref
        print(f"recorded {workload}", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
