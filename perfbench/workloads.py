"""Workload definitions: the configs each workload hands to the CLI, and the
checks that decide which of its operations failed.

Every workload is a closed loop with one caller: one `grassmm run` or
`grassmm audit` command over a seed batch, where the CLI starts the next seed
only after the previous one returns. The program sees only the generated
config file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

DECONV_PROBLEM = {"sparsity": 0.0625, "kernel_support": 8, "lambda": 0.1}
SEED_RANGE = 1_000_000
TRACE_RISE_TOL = 1e-10
STATIONARITY_PASS = -1e-4
# Exit codes a completed command may return: 2 means some seed hit max_iter.
RUN_EXIT_OK = (0, 2)
AUDIT_EXIT_OK = (0,)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    seed_pool, when set, is the fixed instance set; --seed then only fixes the
    order in which the CLI solves it. Otherwise batch_size instance seeds are
    drawn from --seed out of [0, SEED_RANGE).
    """

    name: str
    command: str
    kind: str
    problem: dict
    solver: dict = field(default_factory=dict)
    batch_size: int = 0
    seed_pool: tuple = ()
    require_converged: bool = False

    def seeds(self, seed: int) -> list[int]:
        rng = random.Random(f"{self.name}/{seed}")
        if self.seed_pool:
            pool = list(self.seed_pool)
            rng.shuffle(pool)
            return pool
        return rng.sample(range(SEED_RANGE), self.batch_size)

    def config(self, seed: int) -> dict:
        doc = {"kind": self.kind, "seeds": self.seeds(seed), "problem": dict(self.problem)}
        if self.solver:
            doc["solver"] = dict(self.solver)
        return doc

    def check(self, out_dir: Path, seeds: list[int], exit_code: int) -> tuple[int, list[str]]:
        """(operations attempted, one message per failed operation)."""
        if self.command == "run":
            return check_run(out_dir, seeds, exit_code, self.require_converged)
        return check_audit(out_dir, exit_code)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's setting (README/acceptance config). Per-instance time to
        # solution is heavy-tailed at N=64 (1 to ~1800 iterations, and ~1.5%
        # of instances stop at max_iter), so a seed-drawn batch would spread
        # more than any allowed bound; the batch is the fixed seeds 0-19.
        Workload(
            name="deconv-n64",
            command="run",
            kind="deconv",
            problem={"N": 64, **DECONV_PROBLEM},
            seed_pool=tuple(range(20)),
            require_converged=True,
        ),
        # Long signal with a fixed iteration budget: not converging is normal.
        # One seed per command keeps repetitions short enough to take many.
        Workload(
            name="deconv-n1024",
            command="run",
            kind="deconv",
            problem={"N": 1024, **DECONV_PROBLEM},
            solver={"max_iter": 100},
            batch_size=1,
        ),
        # The acceptance audit batch shape, on seed-drawn data.
        Workload(
            name="subspace-audit",
            command="audit",
            kind="subspace-mean",
            problem={"N": 10, "D": 2, "M": 40},
            batch_size=20,
        ),
    )
}


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_trace(path: Path, iterations: int, final_f: float) -> str | None:
    """None if the trace is finite, has one row per iteration and never rises
    along f_0 >= f_after_G_0 >= f_1 >= ... >= final_f by more than the tolerance."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != iterations:
        return f"{path.name}: {len(rows)} rows for {iterations} iterations"
    chain = []
    for row in rows:
        values = [float(v) for v in row[1:]]
        if not _finite(*values):
            return f"{path.name}: non-finite value at iteration {row[0]}"
        chain += values[:2]
    chain.append(final_f)
    rise = max((b - a for a, b in zip(chain, chain[1:])), default=0.0)
    if rise > TRACE_RISE_TOL:
        return f"{path.name}: cost rises by {rise:.3e}"
    return None


def check_run(out_dir: Path, seeds: list[int], exit_code: int, require_converged: bool):
    """One operation per seed."""
    if exit_code not in RUN_EXIT_OK:
        return len(seeds), [f"command exited {exit_code}"] * len(seeds)
    runs = json.loads((out_dir / "report.json").read_text())["runs"]
    failures = []
    for seed in seeds:
        entry = runs.get(str(seed))
        trace = out_dir / f"trace_{seed}.csv"
        if entry is None or not trace.is_file():
            failures.append(f"seed {seed}: no report entry or trace")
            continue
        numbers = (entry["final_f"], entry["final_dc"], entry["stationarity_score"])
        problem = None if _finite(*numbers) else "non-finite report value"
        problem = problem or _check_trace(trace, entry["iterations"], entry["final_f"])
        if problem is None and require_converged:
            if not entry["converged"]:
                problem = "did not converge"
            elif entry["stationarity_score"] < STATIONARITY_PASS:
                problem = f"stationarity score {entry['stationarity_score']:.3e}"
        if problem:
            failures.append(f"seed {seed}: {problem}")
    return len(seeds), failures


def check_audit(out_dir: Path, exit_code: int):
    """One operation per audit entry in audit.json, plus the command itself."""
    path = out_dir / "audit.json"
    if not path.is_file():
        return 1, [f"command exited {exit_code} without writing audit.json"]
    audits = json.loads(path.read_text())["audits"]
    failures = [f"audit {name} failed" for name, entry in sorted(audits.items()) if not entry["passed"]]
    if exit_code not in AUDIT_EXIT_OK:
        failures.append(f"command exited {exit_code}")
    return len(audits) + 1, failures


def audit_checked_frac(out_dir: Path) -> float:
    """checked / (checked + skipped) over audit.json; 0.0 when no audit ran."""
    path = out_dir / "audit.json"
    if not path.is_file():
        return 0.0
    audits = json.loads(path.read_text())["audits"].values()
    checked = sum(a["checked"] for a in audits)
    total = checked + sum(a["skipped"] for a in audits)
    return checked / total if total else 0.0


def digests(out_dir: Path) -> dict:
    """sha256 of the trace CSVs (in file-name order), if any, and of the JSON summary."""
    found = {}
    traces = sorted(out_dir.glob("trace_*.csv"))
    if traces:
        h = hashlib.sha256()
        for path in traces:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        found["traces_sha256"] = h.hexdigest()
    for name in ("report.json", "audit.json"):
        if (out_dir / name).is_file():
            found[f"{name}_sha256"] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    return found
