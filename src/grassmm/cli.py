"""Command-line front end: validated JSON configs, per-seed trace CSVs,
summary reports, and surrogate audits.

Exit-code contract: 0 ok, 1 usage or config error, 2 non-convergence,
3 audit failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .deconv import (
    DeconvProblem,
    DeconvState,
    build_block_problem,
    default_init,
    generate_instance,
    heuristic_lambda,
    lasso_warm_start,
    recovery_score,
)
from .engine import (
    InfeasibleBlockError,
    MonotonicityViolation,
    SolverConfig,
    _fold,
    audit_assumptions,
    builtin_subspace_plus_mean,
    run_block_mm,
    subspace_plus_mean_init,
)
from .linalg import NumericError

VALID_KINDS = ("deconv", "subspace-mean")

TRACE_HEADER = "iter,f,f_after_G,dc_step,grad_norm_G,grad_norm_c"

_REQUIRED = object()  # the key must be present
_UNSET = object()  # an absent key stays absent


class _Setting(NamedTuple):
    """One numeric setting: int or float, its lower bound, whether the bound
    itself is excluded, and the value an absent key takes."""

    type: type
    minimum: float
    strict: bool = False
    default: object = _REQUIRED


# One row per config key and section; a None row is checked by hand in
# load_config, as are the cross-field rules noted beside their rows.
_SCHEMA = {
    "config": {
        **dict.fromkeys(("kind", "seeds", "out", "problem", "solver")),
        "step_scale": _Setting(float, 0.0, True, 1.0),  # deconv only
    },
    "deconv": {
        "N": _Setting(int, 2),
        "sparsity": _Setting(float, 0.0, True),  # < 1
        "kernel_support": _Setting(int, 1),  # <= N
        "noise_sigma": _Setting(float, 0.0, default=0.0),
        "lambda": _Setting(float, 0.0, default=None),  # None: heuristic_lambda
    },
    "subspace-mean": {
        "N": _Setting(int, 2),
        "D": _Setting(int, 1),  # < N
        "M": _Setting(int, 1, default=_UNSET),  # > D; absent: 4N
    },
    "solver": {  # an absent key keeps the SolverConfig default
        "max_iter": _Setting(int, 1, default=_UNSET),
        "dist_tol": _Setting(float, 0.0, True, _UNSET),
        "cost_tol": _Setting(float, 0.0, True, _UNSET),
        "audit_every": _Setting(int, 0, default=_UNSET),
        "audit_samples": _Setting(int, 1, default=_UNSET),
    },
}


class ConfigError(Exception):
    """Raised for any config problem; message includes the offending line."""


def _key_line(raw: str, key: str) -> int:
    """1-based line of the first occurrence of "key" in the raw JSON text."""
    needle = f'"{key}"'
    for i, line in enumerate(raw.splitlines(), start=1):
        if needle in line:
            return i
    return 1


def _fail(raw: str, key: str, message: str) -> None:
    raise ConfigError(f"{message} (line {_key_line(raw, key)})")


def _read_section(raw: str, obj: dict, rows: dict, section: str, context: str) -> dict:
    """Check obj against its table rows; return its settings, defaults filled in."""
    for key in obj:
        if key not in rows:
            _fail(raw, key, f"unknown key '{key}' in {context}")
    settings = {}
    for key, row in rows.items():
        if row is None:
            continue
        if key not in obj:
            if row.default is _REQUIRED:
                _fail(raw, section, f"{context} requires key '{key}'")
            if row.default is not _UNSET:
                settings[key] = row.default
            continue
        name = f"{section}.{key}" if section else key
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            _fail(raw, key, f"{name} must be {'an integer' if row.type is int else 'a number'}")
        if v != v or abs(v) > sys.float_info.max:  # NaN, +-inf, or an int past float range
            _fail(raw, key, f"{name} must be a finite number")
        if row.type is int and not isinstance(v, int):
            _fail(raw, key, f"{name} must be an integer")
        v = row.type(v)
        if v < row.minimum or (row.strict and v == row.minimum):
            _fail(raw, key, f"{name} must be {'>' if row.strict else '>='} {row.minimum}, got {v}")
        settings[key] = v
    return settings


def load_config(path) -> dict:
    """Parse and validate an experiment config; raises ConfigError with a
    line-numbered message on the first problem found."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    raw = p.read_text()
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    top = _read_section(raw, doc, _SCHEMA["config"], "", "config")

    for key in ("kind", "seeds", "problem"):
        if key not in doc:
            raise ConfigError(f"missing required key '{key}'")
    kind = doc["kind"]
    if kind not in VALID_KINDS:
        _fail(raw, "kind", f"kind must be one of {list(VALID_KINDS)}, got {kind!r}")
    if "step_scale" in doc and kind != "deconv":
        _fail(raw, "step_scale", "step_scale applies only to deconv")

    seeds = doc["seeds"]
    if not isinstance(seeds, list) or not seeds:
        _fail(raw, "seeds", "seeds must be a non-empty list of integers")
    seen = set()
    for i, s in enumerate(seeds):
        if isinstance(s, bool) or not isinstance(s, int) or s < 0:
            _fail(raw, "seeds", f"seeds[{i}] must be a nonnegative integer, got {s!r}")
        if s in seen:
            _fail(raw, "seeds", f"seeds[{i}] repeats the seed {s}")
        seen.add(s)

    if "out" in doc and not isinstance(doc["out"], str):
        _fail(raw, "out", "out must be a string path")

    for section in ("problem", "solver"):
        if not isinstance(doc.get(section, {}), dict):
            _fail(raw, section, f"{section} must be an object")
    problem = _read_section(raw, doc["problem"], _SCHEMA[kind], "problem", f"{kind} problem")
    if kind == "deconv":
        if problem["sparsity"] >= 1.0:
            _fail(raw, "sparsity", f"problem.sparsity must be < 1, got {problem['sparsity']}")
        if problem["kernel_support"] > problem["N"]:
            _fail(raw, "kernel_support", "problem.kernel_support must be <= problem.N")
    else:
        if problem["D"] >= problem["N"]:
            _fail(raw, "D", "problem.D must be < problem.N")
        problem.setdefault("M", 4 * problem["N"])
        if problem["M"] <= problem["D"]:
            _fail(raw, "M", "problem.M must be > problem.D")

    return {
        "kind": kind,
        "seeds": list(seeds),
        "out": doc.get("out"),
        "problem": problem,
        "solver": _read_section(raw, doc.get("solver", {}), _SCHEMA["solver"], "solver", "solver"),
        "step_scale": top["step_scale"],
    }


# --- run plumbing ---------------------------------------------------------


def _build(kind: str, pc: dict, seed: int, step_scale: float = 1.0):
    """One seeded problem instance: (block problem, (g0, c0), extras).

    extras hold the generated data: the synthetic "instance" and the
    "problem" for deconv, the observation matrix "data" for subspace-mean.
    """
    if kind == "deconv":
        inst = generate_instance(seed, pc["N"], pc["sparsity"], pc["kernel_support"], pc["noise_sigma"])
        start = default_init(inst.y, pc["kernel_support"])
        lam = pc["lambda"] if pc["lambda"] is not None else heuristic_lambda(inst.y, start.kernel)
        dp = DeconvProblem(y=inst.y, lam=lam)
        block = build_block_problem(dp, step_scale)
        return block, (start.a, start.x), {"instance": inst, "problem": dp}
    a = np.random.default_rng(seed).standard_normal((pc["N"], pc["M"]))
    block = builtin_subspace_plus_mean(a, pc["D"])
    return block, subspace_plus_mean_init(a, pc["D"], seed), {"data": a}


def write_trace_csv(path: Path, trace) -> None:
    """One header line, then one line per record: the iteration, then each
    float field as %.17g, which round-trips every double."""
    row = "%d,%.17g,%.17g,%.17g,%.17g,%.17g"
    rows = [TRACE_HEADER]
    rows += [row % (r.iteration, r.f, r.f_after_g, r.dc_step, r.grad_norm_g, r.grad_norm_c) for r in trace]
    path.write_text("\n".join(rows) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_run(cfg: dict, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = {}
    all_converged = True
    for seed in cfg["seeds"]:
        block, init, _ = _build(cfg["kind"], cfg["problem"], seed, cfg["step_scale"])
        trace, report = run_block_mm(block, *init, SolverConfig(seed=seed, **cfg["solver"]))
        write_trace_csv(out_dir / f"trace_{seed}.csv", trace)
        runs[str(seed)] = {
            "converged": bool(report.converged),
            "iterations": int(report.iterations),
            "final_f": float(report.final_cost),
            "final_dc": float(report.final_dc),
            "stationarity_score": float(report.stationarity_score),
            "extrapolations": int(report.extrapolations),
        }
        all_converged &= bool(report.converged)
    _write_json(out_dir / "report.json", {"kind": cfg["kind"], "runs": runs})
    return 0 if all_converged else 2


# --- audit plumbing -------------------------------------------------------


def _audit_json(summary: dict) -> dict:
    """{audit name: AuditResult} in audit.json's shape."""
    fields = {"passed": bool, "worst": float, "threshold": float, "checked": int, "skipped": int}
    return {name: {key: cast(getattr(r, key)) for key, cast in fields.items()} for name, r in summary.items()}


def cmd_audit(cfg: dict, out_dir: Path) -> int:
    """Solve each seed, audit its initial and final anchors, and write the
    results merged over the seeds. If the solve itself breaks descent
    (possible with a step_scale override), the seed is audited at its initial
    anchor alone: the audits, not the run, are the point of this command.
    It never reads a report's stationarity_score, so no end-of-run probe is
    taken (the score is computed when first read; see ConvergenceReport)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    samples = SolverConfig(**cfg["solver"]).audit_samples
    summary: dict = {}
    for seed in cfg["seeds"]:
        block, init, _ = _build(cfg["kind"], cfg["problem"], seed, cfg["step_scale"])
        # Read-only, as the run's iterates are, so the problem may keep its
        # work at this anchor across the audits (see BlockProblem).
        init[0].basis.setflags(write=False)
        init[1].setflags(write=False)
        try:
            _, report = run_block_mm(block, *init, SolverConfig(seed=seed, **cfg["solver"]))
        except MonotonicityViolation:
            anchors = [init]
        else:
            anchors = [init, (report.final_g, report.final_c)]
        _fold(summary, audit_assumptions(block, anchors, samples, seed).values())
    overall = all(r.passed for r in summary.values())
    audits = _audit_json(summary)
    _write_json(out_dir / "audit.json", {"kind": cfg["kind"], "audits": audits, "overall_pass": overall})
    return 0 if overall else 3


# --- demo -----------------------------------------------------------------


def _demo_deconv(seed: int) -> list[str]:
    pc = {"N": 64, "sparsity": 0.05, "kernel_support": 8, "noise_sigma": 0.0, "lambda": None}
    _, (a0, x0), extras = _build("deconv", pc, seed)
    inst = extras["instance"]
    warm = lasso_warm_start(extras["problem"], DeconvState(a=a0, x=x0))
    dp = DeconvProblem(y=inst.y, lam=0.0)
    _, report = run_block_mm(build_block_problem(dp), warm.a, warm.x, SolverConfig(seed=seed))
    score = recovery_score(report.final_g, inst)
    return [
        f"deconv demo: N=64 sparsity=0.05 kernel_support=8 noise_sigma=0 seed={seed}",
        f"final cost         : {report.final_cost:.6g}",
        f"iterations         : {report.iterations}",
        f"final d_c step     : {report.final_dc:.6g}",
        f"stationarity score : {report.stationarity_score:.6g}",
        f"recovery score     : {score:.4f}",
    ]


def _demo_subspace_mean(seed: int) -> list[str]:
    n, d, m = 10, 2, 40
    block, init, extras = _build("subspace-mean", {"N": n, "D": d, "M": m}, seed)
    _, report = run_block_mm(block, *init, SolverConfig(seed=seed))
    a = extras["data"]
    centered = a - a.mean(axis=1, keepdims=True)
    tail = np.linalg.svd(centered, compute_uv=False)[d:]
    gap = abs(report.final_cost - float(np.sum(tail**2)))
    return [
        f"subspace-mean demo: N={n} D={d} M={m} seed={seed}",
        f"final cost         : {report.final_cost:.6g}",
        f"iterations         : {report.iterations}",
        f"final d_c step     : {report.final_dc:.6g}",
        f"stationarity score : {report.stationarity_score:.6g}",
        f"oracle gap         : {gap:.6g}",
    ]


def cmd_demo(kind: str, seed: int) -> int:
    if kind == "deconv":
        lines = _demo_deconv(seed)
    elif kind == "subspace-mean":
        lines = _demo_subspace_mean(seed)
    else:
        print(f"unknown kind {kind!r}; valid kinds: {', '.join(VALID_KINDS)}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


# --- entry point ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors, matching the exit contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="grassmm", description=__doc__)
    parser.add_argument("--out", type=Path, default=None, help="output directory (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run configured experiments, write traces + report.json")
    p_run.add_argument("config", type=Path)

    p_audit = sub.add_parser("audit", help="run surrogate audits, write audit.json")
    p_audit.add_argument("config", type=Path)

    p_demo = sub.add_parser("demo", help="run one canned instance and print a summary")
    p_demo.add_argument("kind")
    p_demo.add_argument("--seed", type=int, default=1)
    return parser


def _resolve_out(flag_out, cfg: dict) -> Path:
    if flag_out is not None:
        return Path(flag_out)
    if cfg.get("out"):
        return Path(cfg["out"])
    return Path("runs")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            return cmd_demo(args.kind, args.seed)
        cfg = load_config(args.config)
        out_dir = _resolve_out(args.out, cfg)
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        return cmd_audit(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MonotonicityViolation, InfeasibleBlockError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
