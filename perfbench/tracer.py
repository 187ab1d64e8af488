"""Span tracing of grassmm from outside the package.

`Tracer.install()` rebinds, in every grassmm module namespace that holds
them, the public functions of the traced modules to wrappers that record a
span (name, start, end, parent) per call. Validation is counted through the
dataclasses' `__post_init__`, and the `BlockProblem` callables are wrapped by
wrapping the functions that build a `BlockProblem`. Spans stay in memory in
flat arrays and are reduced to per-name totals when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from dataclasses import replace

import numpy as np

import grassmm
from grassmm import cli, deconv, engine, grassmann, linalg

TRACED_MODULES = (linalg, grassmann, deconv, engine, cli)
# Bindings whose span name says where they are called from, not what they are.
CALL_SITE_NAMES = {(engine, "canonical_distance"): "engine.dist"}
# Functions returning a BlockProblem whose callables get spans of their own.
PROBLEM_BUILDERS = (deconv.build_block_problem, engine.builtin_subspace_plus_mean)
SOLVER = engine.run_block_mm


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.iterations = 0
        self.lapack_svd_calls = 0

    # --- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """fn, recording one span named `name` per call; `after` maps the result."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        clock = time.perf_counter
        open_spans = self._open

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.end.append(0.0)
            open_spans.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                open_spans.pop()
            return result if after is None else after(result)

        return functools.update_wrapper(traced, fn)

    def _wrap_problem(self, problem):
        w = self.wrap
        gs, cs = problem.grassmann_surrogate, problem.convex_surrogate
        return replace(
            problem,
            cost=w("engine.cost", problem.cost),
            grassmann_surrogate=replace(
                gs, evaluate=w("engine.surrogate_eval", gs.evaluate), minimize=w("engine.g_step", gs.minimize)
            ),
            convex_surrogate=replace(
                cs, evaluate=w("engine.surrogate_eval", cs.evaluate), minimize=w("engine.c_step", cs.minimize)
            ),
            grassmann_grad=problem.grassmann_grad and w("engine.grad_diag", problem.grassmann_grad),
            convex_grad=problem.convex_grad and w("engine.grad_diag", problem.convex_grad),
        )

    def _count_iterations(self, result):
        self.iterations += result[1].iterations
        return result

    def _counting_svd(self, svd):
        def counted(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("grassmm"):
                self.lapack_svd_calls += 1
            return svd(*args, **kwargs)

        return functools.update_wrapper(counted, svd)

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch grassmm for the rest of the process; there is no undo."""
        originals = {}
        for module in TRACED_MODULES:
            for attr, obj in vars(module).items():
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    originals[obj] = f"{_short(module)}.{attr}"
                elif isinstance(obj, type) and obj.__module__ == module.__name__ and "__post_init__" in vars(obj):
                    name = f"{_short(module)}.{attr}.__post_init__"
                    obj.__post_init__ = self.wrap(name, obj.__post_init__)
        for module in (grassmm, *TRACED_MODULES):
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or obj not in originals:
                    continue
                name = CALL_SITE_NAMES.get((module, attr), originals[obj])
                after = None
                if obj in PROBLEM_BUILDERS:
                    after = self._wrap_problem
                elif obj is SOLVER:
                    after = self._count_iterations
                setattr(module, attr, self.wrap(name, obj, after))
        np.linalg.svd = self._counting_svd(np.linalg.svd)

    # --- reduction ---------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ms and self ms (minus child spans)."""
        names = np.array(self.name_id, dtype=np.intc)
        parent = np.array(self.parent, dtype=np.intc)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        self_t = np.bincount(names, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "ms": 1e3 * float(incl[i]), "self_ms": 1e3 * float(self_t[i])}
            for i, name in enumerate(self.names)
        }


AUDITS = ("tightness", "majorization", "derivative_match", "quasiconvexity", "homogeneity")
CONV = ("deconv.circular_convolution", "deconv.circular_correlation")
ALIGNED_ROUTE = (
    "grassmann.align",
    "grassmann.build_aligned_spec",
    "grassmann.aligned_geodesic_at",
    "grassmann.AlignedPair.__post_init__",
    "grassmann.GeodesicSpec.__post_init__",
)


def layer_metrics(totals: dict, iterations: int, lapack_svd_calls: int) -> dict[str, float]:
    """The per-layer metrics a traced run reports, from `Tracer.totals()`."""

    def total(key, *names):
        return sum(totals[n][key] for n in names if n in totals)

    def calls(*names):
        return total("calls", *names)

    def ms(*names):
        return total("ms", *names)

    def self_ms(*names):
        return total("self_ms", *names)

    iters = max(iterations, 1)
    conv_calls = calls(*CONV)
    metrics = {
        "cli.load_config.ms": ms("cli.load_config"),
        "cli.write_trace_csv.ms": ms("cli.write_trace_csv"),
        "cli.self_ms": self_ms(*(n for n in totals if n.startswith("cli."))),
        "engine.iterations": iterations,
        "engine.iter_ms": (ms("engine.run_block_mm") - ms("engine.stationarity_check")) / iters,
        "engine.cost.per_iter": calls("engine.cost") / iters,
        "engine.cost.ms": ms("engine.cost"),
        "engine.g_step.ms": ms("engine.g_step"),
        "engine.c_step.ms": ms("engine.c_step"),
        "engine.grad_diag.ms": ms("engine.grad_diag"),
        "engine.dist.ms": ms("engine.dist"),
        "engine.stationarity.ms": ms("engine.stationarity_check"),
        "engine.surrogate_eval.calls": calls("engine.surrogate_eval"),
        "deconv.conv.calls": conv_calls,
        "deconv.conv.per_iter": conv_calls / iters,
        "deconv.conv.self_ms": self_ms(*CONV),
        "deconv.conv.us_per_call": 1e3 * self_ms(*CONV) / conv_calls if conv_calls else 0.0,
        "deconv.lipschitz_bound.per_iter": calls("deconv.lipschitz_bound") / iters,
        "deconv.lipschitz_bound.self_ms": self_ms("deconv.lipschitz_bound"),
        "deconv.state_checks.per_iter": calls("deconv.DeconvState.__post_init__") / iters,
        "deconv.state_checks.self_ms": self_ms("deconv.DeconvState.__post_init__"),
        "deconv.generate_instance.ms": ms("deconv.generate_instance"),
        "grassmann.principal_angles.calls": calls("grassmann.principal_angles"),
        "grassmann.principal_angles.self_ms": self_ms("grassmann.principal_angles"),
        "grassmann.exp_map.calls": calls("grassmann.exp_map"),
        "grassmann.exp_map.self_ms": self_ms("grassmann.exp_map"),
        "grassmann.log_map.calls": calls("grassmann.log_map"),
        "grassmann.aligned_route.self_ms": self_ms(*ALIGNED_ROUTE),
        "grassmann.tangent_project.self_ms": self_ms("grassmann.tangent_project"),
        "grassmann.point_checks.calls": calls("grassmann.GrassmannPoint.__post_init__"),
        "grassmann.point_checks.self_ms": self_ms("grassmann.GrassmannPoint.__post_init__"),
        "linalg.thin_svd.calls": calls("linalg.thin_svd"),
        "linalg.thin_svd.self_ms": self_ms("linalg.thin_svd"),
        "linalg.qr_orthonormalize.calls": calls("linalg.qr_orthonormalize"),
        "linalg.qr_orthonormalize.self_ms": self_ms("linalg.qr_orthonormalize"),
        "linalg.as_matrix.calls": calls("linalg.as_matrix"),
        "linalg.as_matrix.self_ms": self_ms("linalg.as_matrix"),
        "linalg.lapack_svd.calls": lapack_svd_calls,
    }
    for audit in AUDITS:
        metrics[f"engine.audit.{audit}.ms"] = ms(f"engine.audit_{audit}")
    return metrics
