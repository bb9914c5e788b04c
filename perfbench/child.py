"""One benchmark pass, run in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC holds the config paths to load, the dnprobe.cli argument lists to run
in order, whether to trace, and the path of the result file to write.  The
parent records the monotonic clock just before starting this process, so
set-up time covers interpreter start, the dnprobe.cli import and the config
loads.
"""

import json
import resource
import sys
import time
import traceback


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    from dnprobe import cli
    from dnprobe.config import load_config
    for path in spec["configs"]:
        load_config(path)
    setup_end = time.monotonic()

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    commands = []
    for stem, argv in spec["commands"]:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span(spans.ROOT_PREFIX + argv[0]):
                    rc = cli.main(argv)
        except Exception:
            # an uncaught error is a failed invocation, not a failed pass
            traceback.print_exc()
            rc = -1
        commands.append({"stem": stem, "argv": argv, "rc": rc,
                         "s": time.perf_counter() - t0})
        sys.stdout.flush()
    result = {"setup_end": setup_end, "commands": commands,
              "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "trace": tracer.export() if tracer is not None else None}
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
