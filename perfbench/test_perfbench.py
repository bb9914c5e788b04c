"""Self-checks of the benchmark's assumptions.

    python3 -m pytest perfbench
"""

import os
import subprocess
import sys

from run import SRC
from workloads import write_configs


def test_probe_gamma_outputs_do_not_depend_on_worker_count(tmp_path):
    # the benchmark pins DNPROBE_WORKERS=1; that is only fair if the
    # results are the same for any worker count
    out_dir = tmp_path / "out"
    cfg = write_configs("gamma2d-probe", 0, str(tmp_path), str(out_dir))["gamma"]
    outputs = []
    for workers in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, DNPROBE_WORKERS=workers)
        subprocess.run([sys.executable, "-m", "dnprobe.cli", "probe-gamma", "-c", cfg],
                       cwd=tmp_path, env=env, check=True, timeout=300,
                       stdout=subprocess.DEVNULL)
        outputs.append({name: (out_dir / name).read_bytes()
                        for name in ("gamma_gamma_sweep.csv", "gamma_gamma_report.json")})
        for path in out_dir.iterdir():
            path.unlink()
    assert outputs[0] == outputs[1]
