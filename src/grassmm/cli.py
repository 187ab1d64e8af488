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

import numpy as np

from .deconv import (
    DeconvProblem,
    build_block_problem,
    default_init,
    final_state,
    generate_instance,
    heuristic_lambda,
    lasso_warm_start,
    recovery_score,
    solve_deconv,
)
from .engine import (
    CONVEX_BLOCK,
    GRASSMANN_BLOCK,
    InfeasibleBlockError,
    MonotonicityViolation,
    SolverConfig,
    audit_derivative_match,
    audit_homogeneity,
    audit_majorization,
    audit_quasiconvexity,
    audit_tightness,
    builtin_subspace_plus_mean,
    run_block_mm,
    subspace_plus_mean_init,
)
from .linalg import NumericError

VALID_KINDS = ("deconv", "subspace-mean")

_TOP_KEYS = {"kind", "seeds", "out", "problem", "solver", "step_scale"}
_SOLVER_KEYS = {"max_iter", "dist_tol", "cost_tol", "audit_every", "audit_samples"}
_PROBLEM_KEYS = {
    "deconv": {"N", "sparsity", "kernel_support", "noise_sigma", "lambda"},
    "subspace-mean": {"N", "D", "M"},
}

TRACE_HEADER = "iter,f,f_after_G,dc_step,grad_norm_G,grad_norm_c"


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


def _require_int(raw: str, obj: dict, key: str, label: str, minimum: int) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(raw, key, f"{label} must be an integer")
    if v < minimum:
        _fail(raw, key, f"{label} must be >= {minimum}, got {v}")
    return v


def _require_number(raw: str, obj: dict, key: str, label: str, *, minimum=None, strict=False):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(raw, key, f"{label} must be a number")
    v = float(v)
    if minimum is not None:
        if strict and v <= minimum:
            _fail(raw, key, f"{label} must be > {minimum}, got {v}")
        if not strict and v < minimum:
            _fail(raw, key, f"{label} must be >= {minimum}, got {v}")
    return v


def _check_keys(raw: str, obj: dict, allowed: set, context: str) -> None:
    for k in obj:
        if k not in allowed:
            _fail(raw, k, f"unknown key '{k}' in {context}")


def load_config(path) -> dict:
    """Parse and validate an experiment config; raises ConfigError with a
    line-numbered message on the first problem found."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    raw = p.read_text()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, doc, _TOP_KEYS, "config")

    for key in ("kind", "seeds", "problem"):
        if key not in doc:
            raise ConfigError(f"missing required key '{key}'")
    kind = doc["kind"]
    if kind not in VALID_KINDS:
        _fail(raw, "kind", f"kind must be one of {list(VALID_KINDS)}, got {kind!r}")

    seeds = doc["seeds"]
    if not isinstance(seeds, list) or not seeds:
        _fail(raw, "seeds", "seeds must be a non-empty list of integers")
    for i, s in enumerate(seeds):
        if isinstance(s, bool) or not isinstance(s, int) or s < 0:
            _fail(raw, "seeds", f"seeds[{i}] must be a nonnegative integer, got {s!r}")

    if "out" in doc and not isinstance(doc["out"], str):
        _fail(raw, "out", "out must be a string path")

    pc = doc["problem"]
    if not isinstance(pc, dict):
        _fail(raw, "problem", "problem must be an object")
    _check_keys(raw, pc, _PROBLEM_KEYS[kind], f"{kind} problem")
    problem: dict = {}
    if kind == "deconv":
        for key in ("N", "sparsity", "kernel_support"):
            if key not in pc:
                _fail(raw, "problem", f"{kind} problem requires key '{key}'")
        problem["N"] = _require_int(raw, pc, "N", "problem.N", 2)
        problem["sparsity"] = _require_number(raw, pc, "sparsity", "problem.sparsity", minimum=0.0, strict=True)
        if problem["sparsity"] >= 1.0:
            _fail(raw, "sparsity", f"problem.sparsity must be < 1, got {problem['sparsity']}")
        problem["kernel_support"] = _require_int(raw, pc, "kernel_support", "problem.kernel_support", 1)
        if problem["kernel_support"] > problem["N"]:
            _fail(raw, "kernel_support", "problem.kernel_support must be <= problem.N")
        problem["noise_sigma"] = (
            _require_number(raw, pc, "noise_sigma", "problem.noise_sigma", minimum=0.0)
            if "noise_sigma" in pc
            else 0.0
        )
        problem["lambda"] = (
            _require_number(raw, pc, "lambda", "problem.lambda", minimum=0.0)
            if "lambda" in pc
            else None
        )
    else:
        for key in ("N", "D"):
            if key not in pc:
                _fail(raw, "problem", f"{kind} problem requires key '{key}'")
        problem["N"] = _require_int(raw, pc, "N", "problem.N", 2)
        problem["D"] = _require_int(raw, pc, "D", "problem.D", 1)
        if problem["D"] >= problem["N"]:
            _fail(raw, "D", "problem.D must be < problem.N")
        problem["M"] = (
            _require_int(raw, pc, "M", "problem.M", 1) if "M" in pc else 4 * problem["N"]
        )
        if problem["M"] < problem["D"]:
            _fail(raw, "M", "problem.M must be >= problem.D")

    solver_kwargs: dict = {}
    if "solver" in doc:
        sc = doc["solver"]
        if not isinstance(sc, dict):
            _fail(raw, "solver", "solver must be an object")
        _check_keys(raw, sc, _SOLVER_KEYS, "solver")
        if "max_iter" in sc:
            solver_kwargs["max_iter"] = _require_int(raw, sc, "max_iter", "solver.max_iter", 1)
        if "dist_tol" in sc:
            solver_kwargs["dist_tol"] = _require_number(raw, sc, "dist_tol", "solver.dist_tol", minimum=0.0, strict=True)
        if "cost_tol" in sc:
            solver_kwargs["cost_tol"] = _require_number(raw, sc, "cost_tol", "solver.cost_tol", minimum=0.0)
        if "audit_every" in sc:
            solver_kwargs["audit_every"] = _require_int(raw, sc, "audit_every", "solver.audit_every", 0)
        if "audit_samples" in sc:
            solver_kwargs["audit_samples"] = _require_int(raw, sc, "audit_samples", "solver.audit_samples", 1)

    step_scale = 1.0
    if "step_scale" in doc:
        step_scale = _require_number(raw, doc, "step_scale", "step_scale", minimum=0.0, strict=True)

    return {
        "kind": kind,
        "seeds": list(seeds),
        "out": doc.get("out"),
        "problem": problem,
        "solver": solver_kwargs,
        "step_scale": step_scale,
    }


# --- run plumbing ---------------------------------------------------------


def _solver_config(cfg: dict, seed: int) -> SolverConfig:
    return SolverConfig(seed=seed, **cfg["solver"])


def _run_one(cfg: dict, seed: int):
    """Solve one configured instance; returns (trace, report, extras)."""
    pc = cfg["problem"]
    if cfg["kind"] == "deconv":
        inst = generate_instance(seed, pc["N"], pc["sparsity"], pc["kernel_support"], pc["noise_sigma"])
        probe = default_init(DeconvProblem(y=inst.y, lam=0.0), pc["kernel_support"])
        lam = pc["lambda"] if pc["lambda"] is not None else heuristic_lambda(inst.y, probe.kernel)
        dp = DeconvProblem(y=inst.y, lam=lam)
        trace, report = solve_deconv(dp, probe, _solver_config(cfg, seed), cfg["step_scale"])
        return trace, report, {"instance": inst, "problem": dp}
    a = np.random.default_rng(seed).standard_normal((pc["N"], pc["M"]))
    block = builtin_subspace_plus_mean(a, pc["D"])
    g0, c0 = subspace_plus_mean_init(a, pc["D"], seed)
    trace, report = run_block_mm(block, g0, c0, _solver_config(cfg, seed))
    return trace, report, {"data": a, "block": block}


def write_trace_csv(path: Path, trace) -> None:
    def fmt(v: float) -> str:
        return f"{float(v):.17g}"

    rows = [TRACE_HEADER]
    for r in trace:
        rows.append(
            ",".join(
                [str(r.iteration), fmt(r.f), fmt(r.f_after_g), fmt(r.dc_step), fmt(r.grad_norm_g), fmt(r.grad_norm_c)]
            )
        )
    path.write_text("\n".join(rows) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_run(cfg: dict, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = {}
    all_converged = True
    for seed in cfg["seeds"]:
        trace, report, _ = _run_one(cfg, seed)
        write_trace_csv(out_dir / f"trace_{seed}.csv", trace)
        runs[str(seed)] = {
            "converged": bool(report.converged),
            "iterations": int(report.iterations),
            "final_f": float(report.final_cost),
            "final_dc": float(report.final_dc),
            "stationarity_score": float(report.stationarity_score),
        }
        all_converged &= bool(report.converged)
    _write_json(out_dir / "report.json", {"kind": cfg["kind"], "runs": runs})
    return 0 if all_converged else 2


# --- audit plumbing -------------------------------------------------------


def _audit_block_problem(cfg: dict, seed: int):
    """Build the block problem plus (init, final) anchor states for auditing.

    If the solve itself breaks descent (possible with a step_scale override),
    auditing proceeds at the initial anchor alone — the audits, not the run,
    are the point of this command.
    """
    pc = cfg["problem"]
    if cfg["kind"] == "deconv":
        inst = generate_instance(seed, pc["N"], pc["sparsity"], pc["kernel_support"], pc["noise_sigma"])
        probe = default_init(DeconvProblem(y=inst.y, lam=0.0), pc["kernel_support"])
        lam = pc["lambda"] if pc["lambda"] is not None else heuristic_lambda(inst.y, probe.kernel)
        dp = DeconvProblem(y=inst.y, lam=lam)
        block = build_block_problem(dp, cfg["step_scale"])
        init_anchor = (probe.a, probe.x)
        try:
            _, report = solve_deconv(dp, probe, _solver_config(cfg, seed), cfg["step_scale"])
        except MonotonicityViolation:
            return block, [init_anchor]
    else:
        a = np.random.default_rng(seed).standard_normal((pc["N"], pc["M"]))
        block = builtin_subspace_plus_mean(a, pc["D"])
        g0, c0 = subspace_plus_mean_init(a, pc["D"], seed)
        init_anchor = (g0, c0)
        try:
            _, report = run_block_mm(block, g0, c0, _solver_config(cfg, seed))
        except MonotonicityViolation:
            return block, [init_anchor]
    return block, [init_anchor, (report.final_g, report.final_c)]


def _smooth_anchor(anchor: tuple, seed: int) -> tuple:
    """Shift the convex part off any exact zeros so kink guards don't fire."""
    g, c = anchor
    c = np.asarray(c, dtype=float)
    rng = np.random.default_rng(seed)
    scale = 0.1 * (1.0 + np.linalg.norm(c) / np.sqrt(c.size))
    return (g, c + scale * rng.standard_normal(c.size))


_MIN_WORST = {"majorization"}


def _merge(entry: dict, name: str, result) -> dict:
    if not entry:
        return {
            "passed": bool(result.passed),
            "worst": float(result.worst),
            "threshold": float(result.threshold),
            "checked": int(result.checked),
            "skipped": int(result.skipped),
        }
    entry["passed"] = bool(entry["passed"] and result.passed)
    pick = min if name in _MIN_WORST else max
    entry["worst"] = float(pick(entry["worst"], float(result.worst)))
    entry["checked"] += int(result.checked)
    entry["skipped"] += int(result.skipped)
    return entry


def cmd_audit(cfg: dict, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    samples = cfg["solver"].get("audit_samples", 50)
    summary: dict = {}
    for seed in cfg["seeds"]:
        block, anchors = _audit_block_problem(cfg, seed)
        final_anchor = anchors[-1]
        smooth = _smooth_anchor(final_anchor, seed)
        results = []
        for name in (GRASSMANN_BLOCK, CONVEX_BLOCK):
            anchor = final_anchor if name == GRASSMANN_BLOCK else smooth
            results.append(("tightness", audit_tightness(block, name, anchors)))
            results.append(("majorization", audit_majorization(block, name, anchors, samples, seed)))
            results.append(("derivative_match", audit_derivative_match(block, name, anchor, samples, seed)))
        results.append(("quasiconvexity", audit_quasiconvexity(block, final_anchor, samples, 11, seed)))
        results.append(("homogeneity", audit_homogeneity(block, anchors, samples, seed)))
        for name, res in results:
            summary[name] = _merge(summary.get(name, {}), name, res)
    overall = all(entry["passed"] for entry in summary.values())
    _write_json(out_dir / "audit.json", {"kind": cfg["kind"], "audits": summary, "overall_pass": overall})
    return 0 if overall else 3


# --- demo -----------------------------------------------------------------


def _demo_deconv(seed: int) -> list[str]:
    inst = generate_instance(seed, 64, 0.05, 8, 0.0)
    probe = default_init(DeconvProblem(y=inst.y, lam=0.0), 8)
    lam = heuristic_lambda(inst.y, probe.kernel)
    warm = lasso_warm_start(DeconvProblem(y=inst.y, lam=lam), probe)
    dp = DeconvProblem(y=inst.y, lam=0.0)
    _, report = solve_deconv(dp, warm, SolverConfig(seed=seed))
    score = recovery_score(final_state(dp, report), inst)
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
    a = np.random.default_rng(seed).standard_normal((n, m))
    block = builtin_subspace_plus_mean(a, d)
    g0, c0 = subspace_plus_mean_init(a, d, seed)
    _, report = run_block_mm(block, g0, c0, SolverConfig(seed=seed))
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
