"""Two-block majorization-minimization driver, assumption audits, diagnostics.

The driver alternates surrogate minimizations over a Grassmann-valued block G
and a convex-set-valued block c:

    G_{i+1} = argmin_G  g_G(G | G_i, c_i)
    c_{i+1} = argmin_c  g_c(c | G_{i+1}, c_i)

and enforces the resulting descent chain f(G_i, c_i) >= f(G_{i+1}, c_i) >=
f(G_{i+1}, c_{i+1}) at runtime. The audit functions are Monte-Carlo checks of
the surrogate assumptions (tightness, majorization, directional-derivative
match, geodesic quasiconvexity) and of rotation invariance of the cost; they
can refute an assumption on sampled evidence but never prove it. A sampled
value that is NaN or infinite fails its audit.

The audits and the stationarity probe sample in batches. A batch of
Grassmann samples is one checked K x N x D array of bases from the moment it
is drawn until the problem evaluates it: the tangents are drawn, factored and
moved along their geodesics by the private stack functions of
grassmm.grassmann, in slices of at most _CHUNK_BYTES of members (or of convex
values), and give the same results, bit for bit, as one sample at a time.
Each slice is then evaluated with one call into the problem: the optional
BlockProblem.costs and SurrogateOracle.evaluate_many fields take the whole
array, and a problem without them is called once per sample instead, with a
trusted GrassmannPoint view of each member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable, Optional

import numpy as np

from .grassmann import (
    GrassmannPoint,
    _check_bases,
    _geodesics,
    _log_maps,
    _project,
    _trusted,
    _unit_tangents,
    canonical_distance,
    random_point,
    riemannian_gradient,
)
from .linalg import as_matrix, random_orthonormal, thin_svd

GRASSMANN_BLOCK = "grassmann"
CONVEX_BLOCK = "convex"

MONOTONICITY_TOL = 1e-8        # cost increase beyond this aborts the run
FEASIBILITY_TOL = 1e-9         # distance of a convex update from its projection
TIGHTNESS_TOL = 1e-9
MAJORIZATION_TOL = 1e-9
DERIVATIVE_MATCH_TOL = 1e-4
DERIVATIVE_FD_STEPS = (1e-4, 1e-5)
QUASICONVEXITY_TOL = 1e-8
QUASICONVEXITY_RADIUS = np.pi / 4   # default geodesic sampling radius around anchors
HOMOGENEITY_TOL = 1e-9
STATIONARITY_FD_STEP = 1e-5
STATIONARITY_PASS = -1e-4      # scores at or above this count as stationary
_ZERO_GRAD_FALLBACK_FD = 1e-6  # step for the finite-difference gradient fallback
# Largest stack of sampled N x D points built at once. It bounds what a batch
# holds at a time, its stacks and their temporaries: unsplit, the 50 probe
# points of Gr(1024, 1) alone would take 400 KiB.
_CHUNK_BYTES = 1 << 14
# Largest K x N x M temporary the subspace-mean batch cost builds at once.
_COST_BATCH_BYTES = 1 << 16


class MonotonicityViolation(RuntimeError):
    """The cost increased beyond MONOTONICITY_TOL during a surrogate update."""


class InfeasibleBlockError(RuntimeError):
    """A surrogate minimize returned a value outside its feasible set."""


class NonFiniteCostError(ValueError):
    """The cost at an iterate is NaN or infinite."""


@dataclass(frozen=True)
class SurrogateOracle:
    """Surrogate for one block, anchored at the current iterate pair.

    evaluate(candidate, anchor_g, anchor_c) -> float value of the surrogate.
    minimize(anchor_g, anchor_c) -> new feasible value for the block.
    smooth_along, when given, reports whether the segment candidate +/- h*direction
    stays clear of non-smooth points; the derivative-match audit skips (and
    counts) directions where it returns False.
    evaluate_many(candidates, anchor_g, anchor_c), when given, evaluates K
    candidates in one call: a K x N x D array of checked bases for the
    Grassmann block, a K x c_len array for the convex block. It returns K
    floats, member k equal bit for bit to evaluate at candidate k; the audits
    use it in place of evaluate. A dataclasses.replace that changes evaluate
    must also replace or clear (set to None) evaluate_many.
    """

    evaluate: Callable
    minimize: Callable
    smooth_along: Optional[Callable] = None
    evaluate_many: Optional[Callable] = None


@dataclass(frozen=True)
class BlockProblem:
    """A two-block problem: cost f(G, c), one surrogate per block, constraints.

    dims is (n, d, c_len): G lives on Gr(n, d) and c in R^c_len. The optional
    gradient callables feed the per-iteration diagnostic columns; when absent
    run_block_mm falls back to finite differences.

    Contract with run_block_mm: cost must be a deterministic function of its
    arguments. The engine calls it once per half-step, at each new iterate,
    and reuses that value instead of evaluating the same iterate again. The
    engine never mutates the iterates it passes in: they are its own arrays,
    marked read-only (a copy of the initial values, then each value a
    minimize returns), so a problem may cache per-anchor work for read-only
    arguments, matched by identity.

    costs, when given, evaluates the cost at K samples in one call: costs(gs,
    c) with a K x N x D array of checked bases and one c, or costs(g, cs) with
    one point and a K x c_len array. It returns K floats, member k equal bit
    for bit to the cost call at that sample. The audits, the stationarity probe and the
    finite-difference gradients use it in place of cost. As with the gradient
    callables, a dataclasses.replace that changes cost must also replace or
    clear (set to None) costs.
    """

    cost: Callable[[GrassmannPoint, np.ndarray], float]
    grassmann_surrogate: SurrogateOracle
    convex_surrogate: SurrogateOracle
    convex_constraint: Callable[[np.ndarray], np.ndarray]
    dims: tuple[int, int, int]
    grassmann_grad: Optional[Callable] = None
    convex_grad: Optional[Callable] = None
    costs: Optional[Callable] = None


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 5000
    dist_tol: float = 1e-6
    cost_tol: float = 1e-10
    audit_every: int = 0
    audit_samples: int = 50
    seed: int = 0

    def __post_init__(self):
        # audit_every = 0 disables the in-run audits.
        for name, low in (("max_iter", 1), ("audit_every", 0), ("audit_samples", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("dist_tol", "cost_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    f: float
    f_after_g: float
    dc_step: float
    grad_norm_g: float
    grad_norm_c: float
    audit_ok: Optional[bool] = None


@dataclass
class IterationTrace:
    """Per-iteration history of a run; one record per outer iteration."""

    records: list[IterationRecord] = field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    def costs(self) -> np.ndarray:
        return np.array([r.f for r in self.records])

    def dc_steps(self) -> np.ndarray:
        return np.array([r.dc_step for r in self.records])

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    iterations: int
    final_cost: float
    final_dc: float
    stationarity_score: float
    stationarity_directions: int
    stationarity_seed: int
    tie_suspected: bool
    audit_summary: Optional[dict]
    final_g: GrassmannPoint
    final_c: np.ndarray


@dataclass(frozen=True)
class AuditResult:
    """Outcome of one sampled audit.

    `worst` is the headline number: max deviation for tightness, derivative
    match and homogeneity; min margin for majorization; max interior excess
    for quasiconvexity.
    """

    audit: str
    block: Optional[str]
    passed: bool
    worst: float
    threshold: float
    checked: int
    skipped: int = 0


def _oracle_for(problem: BlockProblem, block: str) -> SurrogateOracle:
    if block == GRASSMANN_BLOCK:
        return problem.grassmann_surrogate
    if block == CONVEX_BLOCK:
        return problem.convex_surrogate
    raise ValueError(f"unknown block {block!r}; use 'grassmann' or 'convex'")


def _complement_basis(g: GrassmannPoint) -> np.ndarray:
    full = np.linalg.qr(g.basis, mode="complete")[0]
    return full[:, g.d:]


def _chunks(count: int, sample_bytes: int) -> list[tuple[int, int]]:
    """(start, size) of the slices that split `count` samples, each of which
    builds `sample_bytes` of points or convex values, into stacks of at most
    _CHUNK_BYTES (and at least one sample)."""
    step = max(1, _CHUNK_BYTES // max(1, sample_bytes))
    return [(lo, min(step, count - lo)) for lo in range(0, count, step)]


def _floats(values, count: int, name: str) -> list[float]:
    """The values of a batch of `count` samples as floats, one per sample."""
    values = [float(v) for v in values]
    if len(values) != count:
        raise ValueError(f"{name} returned {len(values)} values for {count} samples")
    return values


def _members(samples: np.ndarray) -> list:
    """The samples of a batch one by one, for a problem without batch fields:
    a trusted point viewing each basis of a checked K x N x D array, or each
    row of a K x c_len array."""
    if samples.ndim == 3:
        return [_trusted(GrassmannPoint, basis=b) for b in samples]
    return list(samples)


def _costs(problem: BlockProblem, g, c) -> list[float]:
    """The cost at K samples, in one problem.costs call when the problem has
    one: g is a K x N x D array of checked bases and c one convex value, or g
    is one point and c a K x c_len array. Without costs, one cost call per
    sample."""
    one_g = isinstance(g, GrassmannPoint)
    if problem.costs is not None:
        values = problem.costs(g, c)
    elif one_g:
        values = [problem.cost(g, ck) for ck in c]
    else:
        values = [problem.cost(gk, c) for gk in _members(g)]
    return _floats(values, len(c) if one_g else len(g), "costs")


def _evaluations(oracle: SurrogateOracle, candidates: np.ndarray, g: GrassmannPoint, c) -> list[float]:
    """The surrogate at K candidates (a K x N x D array of checked bases or a
    K x c_len array), in one oracle.evaluate_many call when the oracle has
    one. Without it, one evaluate call per candidate."""
    if oracle.evaluate_many is not None:
        values = oracle.evaluate_many(candidates, g, c)
    else:
        values = [oracle.evaluate(x, g, c) for x in _members(candidates)]
    return _floats(values, len(candidates), "evaluate_many")


def _worst(values: list[float], pick: Callable, start: float) -> float:
    """pick (max or min) of start and the values, first on ties; NaN if any
    value is not finite, so every comparison with a threshold fails."""
    if not all(map(math.isfinite, values)):
        return math.nan
    return float(pick([start, *values]))


def _fd_grad_norm_grassmann(problem: BlockProblem, g: GrassmannPoint, c: np.ndarray) -> float:
    # Directional derivatives along an orthonormal tangent basis recover the
    # full Riemannian gradient norm; only used when no gradient callable exists.
    comp = _complement_basis(g)
    h = _ZERO_GRAD_FALLBACK_FD
    total = 0.0
    for lo, size in _chunks(comp.shape[1] * g.d, 2 * g.basis.nbytes):
        # Direction lo + k puts column i of the complement into column j of G.
        i, j = np.divmod(np.arange(lo, lo + size), g.d)
        deltas = np.zeros((size, *g.basis.shape))
        deltas[np.arange(size), :, j] = comp[:, i].T
        # One stacked geodesic per slice, factored once for both steps.
        samples = _geodesics(g.basis, _project(g.basis, deltas))(np.array([h, -h]))
        values = _costs(problem, samples.reshape(-1, *g.basis.shape), c)
        for plus, minus in zip(values[0::2], values[1::2]):
            total += ((plus - minus) / (2.0 * h)) ** 2
    return float(np.sqrt(total))


def _fd_grad_norm_convex(problem: BlockProblem, g: GrassmannPoint, c: np.ndarray) -> float:
    h = _ZERO_GRAD_FALLBACK_FD
    total = 0.0
    for lo, size in _chunks(c.size, 2 * c.nbytes):
        # Rows 2k and 2k + 1 step coordinate lo + k up and down.
        steps = h * (1.0 + np.abs(c[lo : lo + size]))
        samples = np.repeat(c[None], 2 * size, axis=0)
        rows, cols = np.arange(size), np.arange(lo, lo + size)
        samples[2 * rows, cols] += steps
        samples[2 * rows + 1, cols] -= steps
        values = _costs(problem, g, samples)
        for plus, minus, step in zip(values[0::2], values[1::2], steps):
            total += ((plus - minus) / (2.0 * step)) ** 2
    return float(np.sqrt(total))


def _gradient_norms(problem: BlockProblem, g: GrassmannPoint, c: np.ndarray) -> tuple[float, float]:
    if problem.grassmann_grad is not None:
        gn_g = riemannian_gradient(g, problem.grassmann_grad(g, c)).norm()
    else:
        gn_g = _fd_grad_norm_grassmann(problem, g, c)
    if problem.convex_grad is not None:
        gn_c = float(np.linalg.norm(problem.convex_grad(g, c)))
    else:
        gn_c = _fd_grad_norm_convex(problem, g, c)
    return gn_g, gn_c


def _finite_cost(problem: BlockProblem, g: GrassmannPoint, c: np.ndarray, where: str, i: int) -> float:
    f = float(problem.cost(g, c))
    if not math.isfinite(f):
        raise NonFiniteCostError(f"cost is {f} {where} (iteration {i})")
    return f


def _tie_suspected(dc_steps: list[float], converged: bool, dist_tol: float) -> bool:
    # Minimizer ties show up as sustained oscillation of the step lengths: the
    # iterate keeps hopping a non-vanishing distance without the trend dying out.
    if converged or len(dc_steps) < 10:
        return False
    tail = np.asarray(dc_steps[-10:])
    if np.mean(tail) <= dist_tol:
        return False
    diffs = np.diff(tail)
    flips = np.sum(diffs[1:] * diffs[:-1] < 0.0)
    return bool(flips >= 4 and tail[-1] > 0.5 * np.max(tail))


def run_block_mm(
    problem: BlockProblem,
    init_g: GrassmannPoint,
    init_c,
    config: SolverConfig = SolverConfig(),
) -> tuple[IterationTrace, ConvergenceReport]:
    """Run the alternating surrogate scheme until the iterates stagnate.

    Stops as soon as the Grassmann step distance falls below dist_tol and the
    relative cost change falls below cost_tol in the same iteration; raises
    MonotonicityViolation if either half-update increases the cost by more
    than MONOTONICITY_TOL, InfeasibleBlockError (naming the block) if a
    surrogate returns a value outside its feasible set, and NonFiniteCostError
    if the cost at an iterate is NaN or infinite.
    """
    n, d, c_len = problem.dims
    if init_g.basis.shape != (n, d):
        raise ValueError(f"init_g has shape {init_g.basis.shape}, expected {(n, d)}")
    c = np.array(problem.convex_constraint(np.asarray(init_c, dtype=float)), dtype=float)
    if c.shape != (c_len,):
        raise ValueError(f"init_c has shape {c.shape}, expected {(c_len,)}")
    c.setflags(write=False)
    g = _trusted(GrassmannPoint, basis=init_g.basis.copy())
    g.basis.setflags(write=False)
    f_curr = _finite_cost(problem, g, c, "at the initial iterate", 0)

    trace = IterationTrace()
    converged = False
    iterations = 0
    final_dc = float("inf")
    audit_flags: list[bool] = []
    audit_worsts: list[float] = []

    for i in range(config.max_iter):
        g_next = problem.grassmann_surrogate.minimize(g, c)
        if not isinstance(g_next, GrassmannPoint) or g_next.basis.shape != (n, d):
            raise InfeasibleBlockError("grassmann block update is not a point of Gr(n, d)")
        g_next.basis.setflags(write=False)
        f_after_g = _finite_cost(problem, g_next, c, "after the grassmann update", i)
        if f_after_g > f_curr + MONOTONICITY_TOL:
            raise MonotonicityViolation(
                f"grassmann update increased the cost by {f_after_g - f_curr:.3e} "
                f"at iteration {i}"
            )

        c_raw = np.asarray(problem.convex_surrogate.minimize(g_next, c), dtype=float)
        if c_raw.shape != (c_len,):
            raise InfeasibleBlockError(
                f"convex block update has shape {c_raw.shape}, expected {(c_len,)}"
            )
        c_proj = np.asarray(problem.convex_constraint(c_raw), dtype=float)
        # A constraint that returns its input object leaves it exactly in place.
        if c_proj is not c_raw and (
            np.linalg.norm(c_proj - c_raw) > FEASIBILITY_TOL * (1.0 + np.linalg.norm(c_raw))
        ):
            raise InfeasibleBlockError("convex block update is infeasible")
        c_next = c_proj
        c_next.setflags(write=False)
        f_next = _finite_cost(problem, g_next, c_next, "after the convex update", i)
        if f_next > f_after_g + MONOTONICITY_TOL:
            raise MonotonicityViolation(
                f"convex update increased the cost by {f_next - f_after_g:.3e} "
                f"at iteration {i}"
            )

        dc = canonical_distance(g_next, g)
        gn_g, gn_c = _gradient_norms(problem, g_next, c_next)

        audit_ok: Optional[bool] = None
        if config.audit_every > 0 and i % config.audit_every == 0:
            anchor = [(g, c)]
            tight_g = audit_tightness(problem, GRASSMANN_BLOCK, anchor)
            tight_c = audit_tightness(problem, CONVEX_BLOCK, anchor)
            major_g = audit_majorization(
                problem, GRASSMANN_BLOCK, anchor, config.audit_samples, config.seed + i
            )
            major_c = audit_majorization(
                problem, CONVEX_BLOCK, anchor, config.audit_samples, config.seed + i
            )
            checks = [tight_g, tight_c, major_g, major_c]
            audit_ok = all(r.passed for r in checks)
            audit_flags.append(audit_ok)
            audit_worsts.append(max(tight_g.worst, tight_c.worst))

        trace.append(
            IterationRecord(
                iteration=i,
                f=f_curr,
                f_after_g=f_after_g,
                dc_step=dc,
                grad_norm_g=gn_g,
                grad_norm_c=gn_c,
                audit_ok=audit_ok,
            )
        )

        rel_change = abs(f_curr - f_next) / max(1.0, abs(f_curr))
        g, c, f_curr = g_next, c_next, f_next
        final_dc = dc
        iterations = i + 1
        if dc < config.dist_tol and rel_change < config.cost_tol:
            converged = True
            break

    stat_dirs = config.audit_samples
    stat_score = stationarity_check(problem, g, c, stat_dirs, config.seed)
    summary = None
    if audit_flags:
        summary = {
            "runs": len(audit_flags),
            "all_passed": all(audit_flags),
            "worst_tightness": max(audit_worsts),
        }
    report = ConvergenceReport(
        converged=converged,
        iterations=iterations,
        final_cost=f_curr,
        final_dc=final_dc,
        stationarity_score=stat_score,
        stationarity_directions=stat_dirs,
        stationarity_seed=config.seed,
        tie_suspected=_tie_suspected([r.dc_step for r in trace], converged, config.dist_tol),
        audit_summary=summary,
        final_g=g,
        final_c=c,
    )
    return trace, report


def stationarity_check(
    problem: BlockProblem,
    g: GrassmannPoint,
    c,
    directions: int,
    seed: int,
) -> float:
    """Smallest sampled forward directional slope of the cost at (g, c).

    Probes `directions` random unit tangent directions at g along geodesics and
    the same number of random unit directions in the convex block (projected
    back onto the feasible set). Values at or above STATIONARITY_PASS are
    consistent with first-order stationarity. The tangents are drawn and moved
    along their geodesics in stacks (see the module docstring). Raises
    NonFiniteCostError if the cost at g or at a probe is NaN or infinite.
    """
    if directions < 1:
        raise ValueError(f"directions must be at least 1, got {directions}")
    c = np.asarray(c, dtype=float)
    rng = np.random.default_rng(seed)
    h = STATIONARITY_FD_STEP
    f0 = float(problem.cost(g, c))
    slopes = []
    for _, size in _chunks(directions, g.basis.nbytes):
        probes = _geodesics(g.basis, _unit_tangents(rng, g.basis, size))(h)
        slopes += [(f - f0) / h for f in _costs(problem, probes[:, 0], c)]
    for _, size in _chunks(directions, c.nbytes):
        probes = np.empty((size, c.size))
        for k in range(size):
            direction = rng.standard_normal(c.size)
            direction /= np.linalg.norm(direction)
            probes[k] = problem.convex_constraint(c + h * direction)
        slopes += [(f - f0) / h for f in _costs(problem, g, probes)]
    worst = _worst(slopes, min, np.inf)
    if math.isnan(worst):
        raise NonFiniteCostError(f"cost is not finite at the stationarity probe (f at the iterate is {f0})")
    return worst


def audit_tightness(problem: BlockProblem, block: str, anchors: list) -> AuditResult:
    """Check g(anchor | anchor) == f(anchor) for each anchor pair."""
    oracle = _oracle_for(problem, block)
    devs = []
    for g, c in anchors:
        f0 = float(problem.cost(g, c))
        candidate = g if block == GRASSMANN_BLOCK else c
        devs.append(abs(float(oracle.evaluate(candidate, g, c)) - f0))
    worst = _worst(devs, max, 0.0)
    checked = len(devs)
    return AuditResult(
        audit="tightness",
        block=block,
        passed=checked > 0 and worst <= TIGHTNESS_TOL,
        worst=worst,
        threshold=TIGHTNESS_TOL,
        checked=checked,
    )


def audit_majorization(
    problem: BlockProblem,
    block: str,
    anchors: list,
    samples: int,
    seed: int,
) -> AuditResult:
    """Check g(candidate | anchor) >= f(candidate at that block) on random candidates.

    The candidates of one anchor are drawn (Grassmann candidates as one
    factored and checked stack of bases) and evaluated in batches, which
    consume the generator exactly as one draw at a time would. Reports the worst (smallest) margin; margins
    below -MAJORIZATION_TOL fail.
    """
    oracle = _oracle_for(problem, block)
    n, d, c_len = problem.dims
    rng = np.random.default_rng(seed)
    margins = []
    for g, c in anchors:
        scale = 1.0 + np.linalg.norm(c) / np.sqrt(c_len)
        for _, size in _chunks(samples, g.basis.nbytes if block == GRASSMANN_BLOCK else 8 * c_len):
            if block == GRASSMANN_BLOCK:
                candidates = random_orthonormal(rng, n, d, count=size)
                _check_bases(candidates)
                values = _costs(problem, candidates, c)
            else:
                candidates = np.empty((size, c_len))
                for k in range(size):
                    candidates[k] = problem.convex_constraint(c + scale * rng.standard_normal(c_len))
                values = _costs(problem, g, candidates)
            margins += [e - f for e, f in zip(_evaluations(oracle, candidates, g, c), values)]
    checked = len(margins)
    worst = _worst(margins, min, np.inf) if margins else 0.0
    return AuditResult(
        audit="majorization",
        block=block,
        passed=checked > 0 and worst >= -MAJORIZATION_TOL,
        worst=worst,
        threshold=MAJORIZATION_TOL,
        checked=checked,
    )


def audit_derivative_match(
    problem: BlockProblem,
    block: str,
    anchor: tuple,
    directions: int,
    seed: int,
) -> AuditResult:
    """Compare directional slopes of the surrogate and the cost at the anchor.

    Slopes are central finite differences at the steps in DERIVATIVE_FD_STEPS,
    along geodesics for the Grassmann block and straight lines for the convex
    block. The directions are drawn as stacks; each stack takes one stacked
    geodesic (Grassmann) or one array of shifted values (convex), evaluated at
    every +/-h at once and as one batch. Directions flagged non-smooth by the
    oracle's smooth_along guard are skipped and counted.
    """
    oracle = _oracle_for(problem, block)
    g, c = anchor
    c = np.asarray(c, dtype=float)
    rng = np.random.default_rng(seed)
    mismatches = []
    skipped = 0
    guard = oracle.smooth_along
    h_guard = max(DERIVATIVE_FD_STEPS)
    # Each direction is sampled at +h, -h for each step h, in this order.
    fd_ts = np.array([t for h in DERIVATIVE_FD_STEPS for t in (h, -h)])
    sample_bytes = fd_ts.size * (g.basis.nbytes if block == GRASSMANN_BLOCK else c.nbytes)
    for _, size in _chunks(directions, sample_bytes):
        if block == GRASSMANN_BLOCK:
            deltas = _unit_tangents(rng, g.basis, size)
            kept = deltas[[guard is None or bool(guard(g, c, m, h_guard)) for m in deltas]]
            samples = _geodesics(g.basis, kept)(fd_ts).reshape(-1, *g.basis.shape)
            values = _costs(problem, samples, c)
        else:
            kept = []
            for _ in range(size):
                direction = rng.standard_normal(c.size)
                direction /= np.linalg.norm(direction)
                if guard is None or guard(g, c, direction, h_guard):
                    kept.append(direction)
            # c + (-h) * direction is c - h * direction, bit for bit.
            samples = (c + fd_ts[:, None] * np.reshape(kept, (-1, 1, c.size))).reshape(-1, c.size)
            values = _costs(problem, g, samples)
        skipped += size - len(kept)
        surrogate = _evaluations(oracle, samples, g, c)
        for i in range(0, len(values), 2):
            h = DERIVATIVE_FD_STEPS[(i // 2) % len(DERIVATIVE_FD_STEPS)]
            sg = (surrogate[i] - surrogate[i + 1]) / (2 * h)
            sf = (values[i] - values[i + 1]) / (2 * h)
            mismatches.append(abs(sg - sf) / max(1.0, abs(sf)))
    checked = len(mismatches) // len(DERIVATIVE_FD_STEPS)
    worst = _worst(mismatches, max, 0.0)
    return AuditResult(
        audit="derivative_match",
        block=block,
        passed=checked > 0 and worst <= DERIVATIVE_MATCH_TOL,
        worst=worst,
        threshold=DERIVATIVE_MATCH_TOL,
        checked=checked,
        skipped=skipped,
    )


def audit_quasiconvexity(
    problem: BlockProblem,
    anchor: tuple,
    pairs: int,
    t_samples: int,
    seed: int,
    radius: float = QUASICONVEXITY_RADIUS,
) -> AuditResult:
    """Check the Grassmann surrogate has no interior bump along sampled geodesics.

    Endpoint pairs are drawn inside the geodesic ball of the given radius
    around the anchor point, each endpoint via the exponential map along a
    random direction. A pair is skipped and counted when log_map finds no
    unique geodesic because the two subspaces meet near pi/2. For each other
    pair the surrogate is evaluated on a uniform t-grid along
    geodesic(x, log_map(x, y)) and must not exceed max(endpoint values) by
    more than QUASICONVEXITY_TOL. The endpoints, the logs and the t-grids of
    a batch of pairs are each built as one stack (see the module docstring),
    and the surrogate takes the endpoints and t-grids of a batch in one call.
    """
    if t_samples < 1:
        raise ValueError(f"t_samples must be at least 1, got {t_samples}")
    oracle = problem.grassmann_surrogate
    g_anchor, c_anchor = anchor
    c_anchor = np.asarray(c_anchor, dtype=float)
    rng = np.random.default_rng(seed)
    excess = []
    checked = 0
    skipped = 0
    ts = np.linspace(0.0, 1.0, t_samples)
    for _, size in _chunks(pairs, t_samples * g_anchor.basis.nbytes):
        # Each endpoint draws its direction, then its radius, from the one generator.
        tangents, radii = [], []
        for _ in range(2 * size):
            tangents.append(_unit_tangents(rng, g_anchor.basis, 1))
            radii.append(rng.uniform(0.0, radius))
        ends = _geodesics(g_anchor.basis, np.concatenate(tangents))(np.array(radii)[:, None])
        keep, logs = _log_maps(ends[0::2, 0], ends[1::2, 0])
        skipped += size - keep.size
        xs, ys = ends[2 * keep], ends[2 * keep + 1]
        # Pair k takes rows k * (2 + t_samples) on: x, y, then its t-grid.
        samples = np.concatenate([xs, ys, _geodesics(xs[:, 0], logs)(ts)], axis=1)
        values = _evaluations(oracle, samples.reshape(-1, *g_anchor.basis.shape), g_anchor, c_anchor)
        for lo in range(0, len(values), 2 + t_samples):
            cap = max(values[lo], values[lo + 1])
            excess += [v - cap for v in values[lo + 2 : lo + 2 + t_samples]]
            checked += 1
    worst = _worst(excess, max, 0.0)
    return AuditResult(
        audit="quasiconvexity",
        block=GRASSMANN_BLOCK,
        passed=checked > 0 and worst <= QUASICONVEXITY_TOL,
        worst=worst,
        threshold=QUASICONVEXITY_TOL,
        checked=checked,
        skipped=skipped,
    )


def audit_homogeneity(
    problem: BlockProblem,
    anchors: list,
    rotations: int,
    seed: int,
) -> AuditResult:
    """Check the cost depends on G only through its column span.

    Samples random D x D rotations R and compares f(G R, c) against f(G, c).
    The rotations of one anchor are drawn, applied, checked and evaluated in
    batches.
    """
    rng = np.random.default_rng(seed)
    devs = []
    for g, c in anchors:
        f0 = float(problem.cost(g, c))
        for _, size in _chunks(rotations, g.basis.nbytes):
            rotated = g.basis @ random_orthonormal(rng, g.d, g.d, count=size)
            _check_bases(rotated)
            devs += [abs(f - f0) for f in _costs(problem, rotated, c)]
    worst = _worst(devs, max, 0.0)
    checked = len(devs)
    return AuditResult(
        audit="homogeneity",
        block=None,
        passed=checked > 0 and worst <= HOMOGENEITY_TOL,
        worst=worst,
        threshold=HOMOGENEITY_TOL,
        checked=checked,
    )


def builtin_subspace_plus_mean(a, d: int) -> BlockProblem:
    """Fit a D-dimensional subspace plus a mean vector to columns of A.

    The cost is the squared residual of projecting the mean-centered columns
    onto the subspace: f(G, c) = || (A - c 1^T) - G G^T (A - c 1^T) ||_F^2.
    Both surrogates are the exact cost restricted to one block, with closed-form
    minimizers: the top-D left singular vectors of the centered matrix for G,
    and the column mean of the projection residual for c.
    """
    a = as_matrix(a)
    n, m = a.shape
    if not 1 <= d < min(n, m):
        raise ValueError(f"need 1 <= D < min(N, M), got D={d} for a {n}x{m} matrix")
    newest: list = []  # [c, A - c 1^T] for the newest read-only c

    def centred(c: np.ndarray) -> np.ndarray:
        # The audits pass one anchor's c thousands of times. A read-only c is
        # the engine's own iterate (see the BlockProblem contract), so its
        # centred data is computed once and matched by identity.
        if newest and newest[0] is c:
            return newest[1]
        b = a - np.asarray(c, dtype=float)[:, None]
        if isinstance(c, np.ndarray) and not c.flags.writeable:
            b.setflags(write=False)
            newest[:] = [c, b]
        return b

    def costs(g, c) -> list[float]:
        # The cost on a stack: K bases with one c, or one point with K rows
        # of c. Each member takes the same matmuls and the same pairwise sum
        # over its N x M residual, so a member does not depend on K.
        one_g = isinstance(g, GrassmannPoint)
        if one_g:
            c = np.asarray(c, dtype=float)
        step = max(1, _COST_BATCH_BYTES // a.nbytes)
        out: list[float] = []
        for lo in range(0, len(c) if one_g else len(g), step):
            if one_g:
                x, b = np.ascontiguousarray(g.basis), a - c[lo : lo + step, :, None]
            else:
                x, b = np.ascontiguousarray(g[lo : lo + step]), centred(c)
            r = b - x @ (np.swapaxes(x, -1, -2) @ b)
            out += (r * r).sum(axis=(-2, -1)).tolist()
        return out

    def cost(g: GrassmannPoint, c: np.ndarray) -> float:
        return costs(g.basis[None], c)[0]

    def minimize_g(g: GrassmannPoint, c: np.ndarray) -> GrassmannPoint:
        return GrassmannPoint(thin_svd(centred(c)).u[:, :d])

    def minimize_c(g: GrassmannPoint, c: np.ndarray) -> np.ndarray:
        b = centred(c)
        residual = a - g.basis @ (g.basis.T @ b)
        return residual.mean(axis=1)

    def grad_g(g: GrassmannPoint, c: np.ndarray) -> np.ndarray:
        b = centred(c)
        return -2.0 * (b @ (b.T @ g.basis))

    def grad_c(g: GrassmannPoint, c: np.ndarray) -> np.ndarray:
        b = centred(c)
        r = b - g.basis @ (g.basis.T @ b)
        return -2.0 * r.sum(axis=1)

    return BlockProblem(
        cost=cost,
        grassmann_surrogate=SurrogateOracle(
            evaluate=lambda candidate, g, c: cost(candidate, c),
            minimize=minimize_g,
            evaluate_many=lambda candidates, g, c: costs(candidates, c),
        ),
        convex_surrogate=SurrogateOracle(
            evaluate=lambda candidate, g, c: cost(g, candidate),
            minimize=minimize_c,
            evaluate_many=lambda candidates, g, c: costs(g, candidates),
        ),
        convex_constraint=lambda v: np.asarray(v, dtype=float),
        dims=(n, d, n),
        grassmann_grad=grad_g,
        convex_grad=grad_c,
        costs=costs,
    )


def subspace_plus_mean_init(a, d: int, seed: int) -> tuple[GrassmannPoint, np.ndarray]:
    """Default start: the column mean of A and a seeded random subspace."""
    a = as_matrix(a)
    return random_point(seed, a.shape[0], d), a.mean(axis=1)
