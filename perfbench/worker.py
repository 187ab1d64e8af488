"""One workload process: set up grassmm, run one CLI command, report.

Started by run.py as `python3 worker.py '<job json>'` in a fresh interpreter.
It prints `ready` once `import grassmm` and `load_config` are done, so the
parent can time set-up, then runs the command in-process through
`grassmm.cli.main` and writes its measurements to the job's result file.

Around the command it times a fixed reference computation, so the parent can
tell how fast the machine ran while this process did: on a shared VM the same
work takes up to twice as long in slow spells that last minutes.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

REFERENCE_REPEATS = 15


def reference_s() -> float:
    """Median time of a fixed mix of interpreter and small-numpy work (~2 ms)."""
    import numpy as np

    v = np.arange(64.0)
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        acc = 0.0
        for i in range(2000):
            acc += float(v @ v) + 0.5 * i
        times.append(time.perf_counter() - start)
    return sorted(times)[REFERENCE_REPEATS // 2]


def main(job: dict) -> None:
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import grassmm
    from grassmm import cli

    if Path(grassmm.__file__).resolve().parent != (src / "grassmm").resolve():
        raise SystemExit(f"grassmm was imported from {grassmm.__file__}, not from {src}")
    cli.load_config(job["config"])
    print("ready", flush=True)
    ref_before = reference_s()
    if job["setup_only"]:
        Path(job["result"]).write_text(json.dumps({"ref_setup_s": ref_before}))
        return

    tracer = None
    if job["trace"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.main(["--out", job["out"], job["command"], job["config"]])
    wall = time.perf_counter() - start
    result = {
        "exit_code": code,
        "wall_s": wall,
        "ref_setup_s": ref_before,
        "ref_s": (ref_before + reference_s()) / 2.0,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.totals()
        result["layers"] = layer_metrics(result["spans"], tracer.iterations, tracer.lapack_svd_calls)
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
