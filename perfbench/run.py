"""grassmm benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a grassmm checkout; the benchmark imports grassmm from
its `src/`. Each repetition runs the workload's CLI command in a fresh worker
process with the BLAS thread count pinned. With `--trace 0` the run repeats
the command untraced for `--seconds` and reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced repetitions and reports the
per-layer metrics. Reported times are normalized by a reference computation
timed in each worker (see `normalized`). Every repetition's outputs are
checked and fingerprinted. The next-to-last line of output is a JSON record
(environment, seeds, digests, raw samples); the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, audit_checked_frac, digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 5
MIN_REPS = 3
WORKER_TIMEOUT_S = 150.0
# Reference-computation time on an undisturbed 2-core Xeon VM (Python 3.11,
# numpy 2.4); the unit of the reported times. See normalized().
REF_NOMINAL_S = 0.002


def normalized(seconds: float, ref_s: float) -> float:
    """A time measured while the worker's reference computation took ref_s,
    rescaled to a machine on which it takes REF_NOMINAL_S. On a shared VM the
    same work runs up to twice as slow in spells lasting minutes; the ratio
    cancels that, and on an undisturbed machine like the one the benchmark was
    tuned on the value is close to the wall time."""
    return seconds * REF_NOMINAL_S / ref_s


class BenchError(RuntimeError):
    """The benchmark could not run the workload at all."""


def declared_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        lines = []
    for line in lines:
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
    }


def spawn(job: dict) -> tuple[float, dict]:
    """Run one worker; returns (set-up seconds, its result)."""
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_ENV})
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(job)], stdout=subprocess.PIPE, text=True, env=env
    )
    try:
        ready = proc.stdout.readline().strip()
        setup = time.perf_counter() - start
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s (job {job})") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode} (job {job})")
    return setup, json.loads(Path(job["result"]).read_text())


class Measurement:
    """Repetitions of one workload over one seed batch, all in `work`."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.config = workload.config(seed)
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.setups: list[tuple[float, float]] = []  # (set-up s, reference s)
        self.reps: dict[bool, list[dict]] = {False: [], True: []}
        self.digests: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []

    def _job(self, name: str, trace: bool, setup_only: bool) -> dict:
        return {
            "root": str(ROOT),
            "command": self.workload.command,
            "config": str(self.config_path),
            "out": str(self.work / name),
            "result": str(self.work / f"{name}.json"),
            "trace": trace,
            "setup_only": setup_only,
        }

    def probe_setup(self, count: int) -> None:
        for _ in range(count):
            setup, result = spawn(self._job("probe", False, True))
            self.setups.append((setup, result["ref_setup_s"]))

    def rep(self, trace: bool) -> None:
        name = f"rep{len(self.reps[False]) + len(self.reps[True])}"
        setup, result = spawn(self._job(name, trace, False))
        self.setups.append((setup, result["ref_setup_s"]))
        out = self.work / name
        attempted, failures = self.workload.check(out, self.config["seeds"], result["exit_code"])
        self.attempted += attempted
        self.failures += [f"{name}: {f}" for f in failures]
        self.digests.append(digests(out))
        result["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
        result["checked_frac"] = audit_checked_frac(out)
        shutil.rmtree(out)
        self.reps[trace].append(result)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(normalized(s, ref) for s, ref in self.setups),
            "wall_s": statistics.median(normalized(r["wall_s"], r["ref_s"]) for r in self.reps[False]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.reps[False]),
        }

    def per_layer(self) -> dict[str, float]:
        samples = []
        for r in self.reps[True]:
            m = dict(r["layers"])
            m["cli.bytes_written"] = r["bytes_written"]
            m["engine.audit.checked_frac"] = r["checked_frac"]
            m["trace.wall_s"] = r["wall_s"]
            samples.append(m)
        metrics = {k: statistics.median(m[k] for m in samples) for k in samples[0]}
        # Each traced repetition ran right after an untraced one; the ratio
        # within a pair cancels most of the machine's drift.
        pairs = zip(self.reps[False], self.reps[True])
        metrics["trace.overhead_frac"] = statistics.median(t["wall_s"] / u["wall_s"] for u, t in pairs) - 1.0
        metrics["failed_frac"] = len(self.failures) / self.attempted
        return metrics

    def bits_reproduced(self) -> bool:
        """Every repetition, traced or not, wrote byte-identical outputs."""
        return all(d == self.digests[0] for d in self.digests)


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> Measurement:
    """Set-up probes, then repetitions for `seconds`: at least MIN_REPS, and no
    new one that the last one's duration says would end past the deadline. A
    traced run alternates untraced and traced repetitions."""
    m = Measurement(workload, seed, work)
    m.probe_setup(SETUP_PROBES)
    modes = (False, True) if trace else (False,)
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for mode in modes:
            m.rep(mode)
        now = time.perf_counter()
        if len(m.reps[False]) >= MIN_REPS and now + (now - start) > deadline:
            return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grassmm" / "__init__.py").is_file():
        print(f"error: no grassmm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_units()
    workload = WORKLOADS[args.workload]

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        m = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = m.per_layer() if args.trace else m.end_to_end()
    correct = not m.failures and m.bits_reproduced()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "config": m.config,
        "reps": len(m.reps[False]),
        "traced_reps": len(m.reps[True]),
        "wall_s_samples": [r["wall_s"] for r in m.reps[False]],
        "traced_wall_s_samples": [r["wall_s"] for r in m.reps[True]],
        "ref_s_samples": [r["ref_s"] for r in m.reps[False]],
        "setup_s_samples": [s for s, _ in m.setups],
        "ref_setup_s_samples": [ref for _, ref in m.setups],
        "digests": m.digests[0],
        "bits_reproduced": m.bits_reproduced(),
        "failures": m.failures[:20],
        "environment": environment(),
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": m.attempted,
                "failed": len(m.failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
