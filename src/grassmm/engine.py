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

Block MM creeps through a long slow tail on some problems, so on every
third iteration run_block_mm tries one safeguarded extrapolation step past
the MM step, along the geodesic through G_i and G_{i+1} and the line through
c_i and c_{i+1}, and keeps it only when it lowers the cost below the MM
output's (SQUAREM: Varadhan and Roland, Scand. J. Statist. 2008; on MM: Zhou,
Alexander and Lange, Stat. Comput. 2011). The stop test and the recorded
step distance dc_step are those of the MM step; the kept point's cost is the
next record's f, and the next iteration starts from it. The rule, and what it
does to the limit-point argument, are in run_block_mm. The gradient norms,
the run's stationarity certificate, are taken once, at the final iterate.

The audits and the stationarity probe sample in batches, in slices of at
most _CHUNK_BYTES (128 KiB) of members, and give the same results, bit for
bit, as one sample at a time. A batch of Grassmann samples is one checked
K x N x D array of bases from the moment it is drawn until the problem
evaluates it: the tangents are drawn, factored and moved along their
geodesics by the private stack functions of grassmm.grassmann. A batch of
convex samples is drawn as one K x c_len array by _convex_directions and
passed through convex_constraint one row at a time. Each slice is then
evaluated with one call into the problem: the optional BlockProblem.costs
and SurrogateOracle.evaluate_many fields take the whole array, and a problem
without them is called once per sample instead, with a trusted
GrassmannPoint view of each member. Both built-in problems give costs, so
for them the probe makes one cost call, at the iterate, and one costs call
per slice. The stacks of majorization candidates and derivative-match
samples are read-only, and each is queried twice, for the cost and for the
surrogate; a problem may answer the second query from its first, matched by
identity (see BlockProblem). Subspace-mean, whose surrogates are the cost,
does, so each of those samples is evaluated once. The end-of-run probe is
stationarity_check at the report's final iterate; grassmm run calls it, and
run_block_mm does not.

Check policy. An anchor given to run_block_mm, stationarity_check or an audit
is checked once against the problem's dims: a GrassmannPoint of Gr(n, d) and
a c of shape (c_len,). Each output of the problem's callables is checked once,
where the engine first consumes it: a Grassmann minimize returns a
GrassmannPoint of Gr(n, d), each convex_constraint result and gradient has its
block's shape, and each cost and the final gradient norms of the run are
finite. A problem may trust all the engine passes to it.

Tolerance policy. Every solver decision that compares costs measures the
difference against |f_0|, the run's initial cost, so no decision depends on
the scale of the cost. Descent makes f_0 the largest cost the run sees, and
for a nonnegative cost, as both built-in costs are, the largest in size. An
absolute cutoff stays only where the quantity can be exactly zero, with a
comment saying why; tolerances on angles and orthonormal bases are
scale-free as they stand.

Audit policy. audit_assumptions runs the suite of grassmm audit over a run's
anchors, its start and its final iterate: tightness and majorization of both
blocks and homogeneity at every anchor; derivative match of both blocks
(the convex one with c shifted off exact zeros, where kink guards skip) and
quasiconvexity at the final anchor. The table _AUDITS gives each audit's
threshold and worst direction: the largest value, or for majorization the
smallest margin. _verdict builds every AuditResult, and AuditResult.merged
combines two. The in-run audits (audit_every) merge tightness and
majorization into ConvergenceReport.audit_summary and leave out
quasiconvexity on purpose: it can fail far from a minimizer, as at
subspace-mean's random start (worst 2.54 on Gr(8, 2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grassmann import (
    GrassmannPoint,
    _check_bases,
    _geodesics,
    _pair_geodesics,
    _project,
    _secant_point,
    _trusted,
    _unit_tangents,
    canonical_distance,
    random_point,
)
from .linalg import _check_count, _check_real, as_matrix, random_orthonormal, thin_svd

GRASSMANN_BLOCK = "grassmann"
CONVEX_BLOCK = "convex"

MONOTONICITY_TOL = 64 * np.finfo(float).eps  # times |f_0|; rounding leaves rises of about 1 ulp of f
FEASIBILITY_TOL = 1e-9  # distance of a convex update from its projection, relative to its norm
TIGHTNESS_TOL = 1e-9
MAJORIZATION_TOL = 1e-9
DERIVATIVE_MATCH_TOL = 1e-4
DERIVATIVE_FD_STEPS = (1e-4, 1e-5)
QUASICONVEXITY_TOL = 1e-8
QUASICONVEXITY_RADIUS = np.pi / 4   # default geodesic sampling radius around anchors
HOMOGENEITY_TOL = 1e-9
# The audit policy (see the module docstring): each audit's threshold, and
# the pick that makes its worst value and merges two results.
_AUDITS = {
    "tightness": (TIGHTNESS_TOL, max),
    "majorization": (MAJORIZATION_TOL, min),
    "derivative_match": (DERIVATIVE_MATCH_TOL, max),
    "quasiconvexity": (QUASICONVEXITY_TOL, max),
    "homogeneity": (HOMOGENEITY_TOL, max),
}
# The extrapolation step of run_block_mm: tried on every EXTRAPOLATION_PERIOD-th
# iteration, at a length factor beta that starts at 1, doubles on acceptance
# up to EXTRAPOLATION_BETA_MAX and halves on rejection down to 1.
EXTRAPOLATION_PERIOD = 3
EXTRAPOLATION_BETA_MAX = 64.0
STATIONARITY_FD_STEP = 1e-5
STATIONARITY_PASS = -1e-4      # scores at or above this count as stationary
# Largest stack of sampled N x D points built at once. It bounds what a batch
# holds at a time, its stacks and their temporaries: unsplit, the 50 probe
# points of Gr(1024, 1) alone would take 400 KiB. Each slice pays a fixed
# Python and LAPACK cost, so the budget trades slices against memory.
# 128 KiB is the smallest power of two at which one seed's quasiconvexity
# draw in grassmm audit on subspace-mean Gr(10, 2), M=40, is one stack (it
# counts 11 grid points x 160 B per pair, 88 KB for the 50 pairs; 32 KiB cut
# them into 3 stacks). Swept with perfbench at 32, 64, 128 and 256 KiB
# (median of 3 rotating 10 s runs, 2-core Xeon VM, OpenBLAS on 1 thread):
# subspace-audit wall_s 0.161, 0.157, 0.149 and 0.150 s; peak_rss_mb 38.1,
# 38.3, 38.3 and 38.3 there, and 36.9, 37.1, 37.5 and 39.1 on deconv-n1024,
# whose probe stacks grow with the budget (16 points of Gr(1024, 1) at
# 128 KiB).
_CHUNK_BYTES = 1 << 17
# Largest temporary the subspace-mean batch cost builds at once: its one
# K x N x M array, the projection X X^T B, which its residual and then the
# residual's square overwrite in place (a batch of K values of c first
# builds the K centred copies of A as well).
# 256 KiB slices made the audits above about 30% slower and added 0.7 MB to
# their peak RSS. With 128 KiB stacks, 128 KiB slices were no faster on
# subspace-audit (wall_s 0.149 against 0.148 s), and the 0.3 MB by which
# peak_rss_mb read lower (38.0 against 38.3) is below what that metric
# resolves.
_COST_BATCH_BYTES = 1 << 16


class MonotonicityViolation(RuntimeError):
    """The cost increased beyond MONOTONICITY_TOL * |f_0| during a surrogate update."""


class InfeasibleBlockError(RuntimeError):
    """A surrogate minimize returned a value outside its feasible set."""


class NonFiniteCostError(ValueError):
    """The cost at an iterate, or a gradient norm at the final iterate, is NaN or infinite."""


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

    dims is (n, d, c_len): G lives on Gr(n, d) and c in R^c_len. The gradient
    callables give the report's gradient norms, called once at the final
    iterate, so run_block_mm needs both; the stationarity probe and the
    audits never read them.

    Contract with run_block_mm: cost must be a deterministic function of its
    arguments. The engine calls it once per half-step, at each new iterate,
    and once per extrapolation try, and reuses that value instead of
    evaluating the same iterate again. The engine never mutates the iterates
    it passes in: they are its own arrays, marked read-only (a copy of the
    initial values, then each value a minimize returns or an extrapolation
    builds), so a problem may cache per-anchor work for read-only arguments,
    matched by identity.

    costs, when given, evaluates the cost at K samples in one call: costs(gs,
    c) with a K x N x D array of checked bases and one c, or costs(g, cs) with
    one point and a K x c_len array. It returns K floats, member k equal bit
    for bit to the cost call at that sample. The audits and the stationarity
    probe use it in place of cost; K may be 0, as when the derivative-match
    guard skips every direction of a slice. Both built-in problems give it.
    As with the gradient callables, a dataclasses.replace that changes cost
    must also replace or clear (set to None) costs.

    The sample stacks the majorization and derivative-match audits pass to
    costs and evaluate_many are read-only, and each is passed twice, once
    for the cost and once for the surrogate. So a repeated query whose
    arguments are both read-only may be answered from the last batch,
    matched by identity; the cache must hold its arguments, so their ids
    cannot be reused while it is kept. builtin_subspace_plus_mean does this.

    Check policy (see the module docstring): the engine checks each anchor it
    is given against dims, and each output of these callables once, where it
    first consumes it. The callables may trust their arguments: a checked
    point or stack of Gr(n, d), and float arrays of c_len or K x c_len.
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
    dist_tol: float = 1e-6  # an angle in radians, so absolute and scale-free
    cost_tol: float = 1e-10  # relative to |f_0| (see the tolerance policy)
    audit_every: int = 0
    audit_samples: int = 50
    seed: int = 0

    def __post_init__(self):
        # audit_every = 0 disables the in-run audits.
        for name, low in (("max_iter", 1), ("audit_every", 0), ("audit_samples", 1), ("seed", 0)):
            _check_count(name, getattr(self, name), low)
        for name in ("dist_tol", "cost_tol"):
            _check_real(name, getattr(self, name), 0.0, strict=True)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    f: float
    f_after_g: float
    dc_step: float
    audit_ok: Optional[bool] = None


@dataclass(frozen=True)
class ConvergenceReport:
    """The outcome of run_block_mm, a plain record. The end-of-run probe is
    stationarity_check at (final_g, final_c) with the run's audit_samples and
    seed, called by grassmm run."""

    converged: bool
    iterations: int
    final_cost: float
    final_dc: float
    grad_norm_g: float  # of the Riemannian gradient at (final_g, final_c)
    grad_norm_c: float  # of the convex block's gradient there
    tie_suspected: bool
    audit_summary: Optional[dict[str, AuditResult]]  # the in-run audits; None without them
    final_g: GrassmannPoint
    final_c: np.ndarray
    extrapolations: int  # accepted extrapolation steps


@dataclass(frozen=True)
class AuditResult:
    """Outcome of one sampled audit.

    `worst` is the headline number: the worst sampled value, the largest or
    the smallest as the audit policy gives it (see the module docstring).
    """

    audit: str
    block: Optional[str]
    passed: bool
    worst: float
    threshold: float
    checked: int
    skipped: int = 0

    def merged(self, other: AuditResult) -> AuditResult:
        """This result and another of the same audit as one: passed if both
        passed, the worse of the two worsts (NaN if either is NaN), the counts
        summed, and block None unless both name the same block."""
        if other.audit != self.audit:
            raise ValueError(f"cannot merge a {other.audit} result into a {self.audit} result")
        pick = _AUDITS[self.audit][1]
        # min and max keep a NaN first argument, so only the second needs a test.
        worst = other.worst if math.isnan(other.worst) else pick(self.worst, other.worst)
        block = self.block if self.block == other.block else None
        counts = (self.checked + other.checked, self.skipped + other.skipped)
        return AuditResult(self.audit, block, self.passed and other.passed, worst, self.threshold, *counts)


def _fold(summary: dict, results) -> dict:
    """summary, one AuditResult per audit name, with each result merged into
    the entry of its audit."""
    for r in results:
        summary[r.audit] = summary[r.audit].merged(r) if r.audit in summary else r
    return summary


def _oracle_for(problem: BlockProblem, block: str) -> SurrogateOracle:
    if block == GRASSMANN_BLOCK:
        return problem.grassmann_surrogate
    if block == CONVEX_BLOCK:
        return problem.convex_surrogate
    raise ValueError(f"unknown block {block!r}; use 'grassmann' or 'convex'")


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


def _checked(value, shape: tuple, what: str, error: type = ValueError) -> np.ndarray:
    """value as a float array, which must have the given shape; the error names what it is."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise error(f"{what} has shape {arr.shape}, expected {shape}")
    return arr


def _check_anchor(problem: BlockProblem, g, c, what: str = "anchor ") -> np.ndarray:
    """c as a float array, once (g, c) is checked against problem.dims: g must
    be a GrassmannPoint of Gr(n, d) and c of shape (c_len,)."""
    _check_point(problem, g, f"{what}g")
    return _checked(c, (problem.dims[2],), f"{what}c")


def _check_point(problem: BlockProblem, g, what: str, error: type = ValueError) -> None:
    """Check that g is a GrassmannPoint of Gr(n, d); the error names what it is."""
    n, d, _ = problem.dims
    if not isinstance(g, GrassmannPoint):
        raise error(f"{what} must be a GrassmannPoint, got {type(g).__name__}")
    if g.basis.shape != (n, d):
        raise error(f"{what} is a point of Gr{g.basis.shape}, expected Gr{(n, d)}")


def _constrained(problem: BlockProblem, v: np.ndarray) -> np.ndarray:
    """convex_constraint(v), checked to have shape (c_len,)."""
    c = problem.convex_constraint(v)
    return _checked(c, (problem.dims[2],), "convex_constraint result", InfeasibleBlockError)


def _convex_directions(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """A count x n stack of random unit directions in R^n: one
    standard_normal((count, n)), which equals `count` draws of n, with each
    row divided by its norm as np.linalg.norm takes it."""
    rows = rng.standard_normal((count, n))
    flat = rows[:, None, :]
    # Each (1 x n) @ (n x 1) product is the dot product np.linalg.norm takes.
    return rows / np.sqrt(flat @ np.swapaxes(flat, 1, 2))[:, 0]


def _constrained_rows(problem: BlockProblem, rows: np.ndarray) -> np.ndarray:
    """convex_constraint applied to each row of a K x c_len array, one call per row."""
    out = np.empty_like(rows)
    for k, row in enumerate(rows):
        out[k] = _constrained(problem, row)
    return out


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


def _worst(values: list[float], pick: Callable) -> float:
    """pick (max or min) of the values, first on ties, where max starts from
    0.0 and no values give 0.0; NaN if any value is not finite, so every
    comparison with a threshold fails."""
    if not all(map(math.isfinite, values)):
        return math.nan
    return float(pick([0.0, *values] if pick is max else values, default=0.0))


def _verdict(audit: str, block: Optional[str], values: list[float], checked: int, skipped: int = 0) -> AuditResult:
    """The AuditResult of an audit's sampled values: it passes when a sample
    was checked and the worst value, picked as the audit policy says, lies
    within the threshold."""
    threshold, pick = _AUDITS[audit]
    worst = _worst(values, pick)
    within = worst >= -threshold if pick is min else worst <= threshold
    return AuditResult(audit, block, checked > 0 and within, worst, threshold, checked, skipped)


def _norm(x: np.ndarray) -> float:
    """The 2-norm of x, sqrt(x . x) where that is finite. The dot product is
    np.linalg.norm's, over x raveled in memory order, so the two agree bit for
    bit; np.vdot takes it without an overflow warning, so no np.errstate is
    entered. A gradient scales as the square of the data, so x . x can
    overflow, or underflow, though x is finite and not zero; where the norm
    is then infinite or below 2^-500, it is taken as max|x| * |x / max|x||."""
    v = x.ravel(order="K")
    norm = math.sqrt(float(np.vdot(v, v)))
    if (math.isinf(norm) or norm < 2.0**-500) and np.isfinite(x).all() and v.any():
        big = float(np.max(np.abs(x)))
        norm = big * float(np.linalg.norm(x / big))
    return norm


def _gradient_norms(problem: BlockProblem, g: GrassmannPoint, c: np.ndarray) -> tuple[float, float]:
    grad = _checked(problem.grassmann_grad(g, c), g.basis.shape, "grassmann_grad result")
    gn_g = _norm(_project(g.basis, grad))
    gn_c = _norm(_checked(problem.convex_grad(g, c), c.shape, "convex_grad result"))
    if not (math.isfinite(gn_g) and math.isfinite(gn_c)):
        raise NonFiniteCostError(f"gradient norms are {gn_g} (grassmann) and {gn_c} (convex)")
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
) -> tuple[list[IterationRecord], ConvergenceReport]:
    """Run the alternating surrogate scheme until the iterates stagnate, and
    return one IterationRecord per outer iteration and the ConvergenceReport.

    Stops as soon as, in one iteration, the Grassmann step distance is below
    dist_tol and the cost change at most cost_tol * |f_0|, f_0 being the
    initial cost (see the tolerance policy). Raises ValueError naming a
    missing gradient field before the first cost call, MonotonicityViolation
    if a half-update raises the cost by more than MONOTONICITY_TOL * |f_0|,
    InfeasibleBlockError (naming the block) if a surrogate returns a value
    outside its feasible set, and NonFiniteCostError if the cost at an
    iterate, or a gradient norm at the final iterate, is NaN or infinite.
    The end-of-run stationarity probe is not taken here: it is
    stationarity_check at the report's final iterate, called by grassmm run.

    Extrapolation. On every EXTRAPOLATION_PERIOD-th iteration whose MM step
    (G_i, c_i) -> (G', c') has not met the stop test, the engine tries one
    step past it: G_e is the point at time 1 + beta on the geodesic from G_i
    through G', and c_e = convex_constraint(c' + beta (c' - c_i)). The try is
    kept only if f(G_e, c_e) < f(G', c'); beta then doubles (up to
    EXTRAPOLATION_BETA_MAX), and otherwise halves (down to 1). A pair of
    subspaces with no unique geodesic between them skips the try, which
    counts as a rejection. The stop test, dc_step and f_after_g describe the
    MM step; the kept point's cost is the next record's f, and the next
    iteration starts from it. ConvergenceReport.extrapolations counts the
    accepted tries.

    The kept point costs no more than the MM output, so the enforced chain
    f_i >= f_after_g_i >= f_{i+1} still holds, and the limit-point argument
    for plain MM carries over. Write M for the MM map and E(w) for the kept
    point, so f(E(w)) <= f(M(w)) <= f(w). The costs f(w_k) decrease to some
    f*. If w_k -> w* along a subsequence, and f and M are continuous at w*,
    then f(w_{k+1}) <= f(M(w_k)) <= f(w_k) squeezes f(M(w*)) to f(w*) = f*.
    With tight majorants, f(M(w*)) = f(w*) means each block of w* minimizes
    the surrogate anchored at w*, and with unique block minimizers w* is a
    fixed point of M, where the paper's stationarity argument applies. This
    deduction is proven; its premises (continuity of M, unique block
    minimizers, a limit point existing) are the plain method's and are not
    checked here, so for a given problem the claim stays empirical, backed by
    the end-of-run stationarity probe and the audits.
    """
    for name in ("grassmann_grad", "convex_grad"):
        if getattr(problem, name) is None:
            raise ValueError(f"run_block_mm needs the problem's {name}; it has none")
    c_len = problem.dims[2]
    c = np.array(_constrained(problem, _check_anchor(problem, init_g, init_c, "init_")))
    c.setflags(write=False)
    g = _trusted(GrassmannPoint, basis=init_g.basis.copy())
    g.basis.setflags(write=False)
    f_curr = _finite_cost(problem, g, c, "at the initial iterate", 0)
    rise_slack = MONOTONICITY_TOL * abs(f_curr)
    stop_change = config.cost_tol * abs(f_curr)

    trace: list[IterationRecord] = []
    converged = False
    iterations = 0
    final_dc = float("inf")
    audit_summary: dict[str, AuditResult] = {}
    beta = 1.0
    extrapolations = 0

    for i in range(config.max_iter):
        g_next = problem.grassmann_surrogate.minimize(g, c)
        _check_point(problem, g_next, "grassmann block update", InfeasibleBlockError)
        g_next.basis.setflags(write=False)
        f_after_g = _finite_cost(problem, g_next, c, "after the grassmann update", i)
        if f_after_g - f_curr > rise_slack:
            raise MonotonicityViolation(
                f"grassmann update increased the cost by {f_after_g - f_curr:.3e} "
                f"at iteration {i}, beyond the slack {rise_slack:.3e}"
            )

        c_raw = problem.convex_surrogate.minimize(g_next, c)
        c_raw = _checked(c_raw, (c_len,), "convex block update", InfeasibleBlockError)
        c_next = _constrained(problem, c_raw)
        # A constraint that returns its input object leaves it exactly in place.
        if c_next is not c_raw and (
            np.linalg.norm(c_next - c_raw) > FEASIBILITY_TOL * np.linalg.norm(c_raw)
        ):
            raise InfeasibleBlockError("convex block update is infeasible")
        c_next.setflags(write=False)
        f_next = _finite_cost(problem, g_next, c_next, "after the convex update", i)
        if f_next - f_after_g > rise_slack:
            raise MonotonicityViolation(
                f"convex update increased the cost by {f_next - f_after_g:.3e} "
                f"at iteration {i}, beyond the slack {rise_slack:.3e}"
            )

        dc = canonical_distance(g_next, g)
        stop = dc < config.dist_tol and abs(f_curr - f_next) <= stop_change
        if not stop and (i + 1) % EXTRAPOLATION_PERIOD == 0:
            basis = _secant_point(g.basis, g_next.basis, beta)
            f_ext = math.inf
            if basis is not None:
                basis.setflags(write=False)
                g_ext = _trusted(GrassmannPoint, basis=basis)
                c_ext = _constrained(problem, c_next + beta * (c_next - c))
                c_ext.setflags(write=False)
                f_ext = _finite_cost(problem, g_ext, c_ext, "at the extrapolated iterate", i)
            if f_ext < f_next:
                g_next, c_next, f_next = g_ext, c_ext, f_ext
                extrapolations += 1
                beta = min(2.0 * beta, EXTRAPOLATION_BETA_MAX)
            else:
                beta = max(0.5 * beta, 1.0)

        audit_ok: Optional[bool] = None
        if config.audit_every > 0 and i % config.audit_every == 0:
            # Tightness and majorization only: see the audit policy.
            anchor, blocks = [(g, c)], (GRASSMANN_BLOCK, CONVEX_BLOCK)
            checks = [audit_tightness(problem, b, anchor) for b in blocks]
            checks += [audit_majorization(problem, b, anchor, config.audit_samples, config.seed + i) for b in blocks]
            audit_ok = all(r.passed for r in checks)
            _fold(audit_summary, checks)

        trace.append(IterationRecord(iteration=i, f=f_curr, f_after_g=f_after_g, dc_step=dc, audit_ok=audit_ok))

        g, c, f_curr = g_next, c_next, f_next
        final_dc = dc
        iterations = i + 1
        if stop:
            converged = True
            break

    grad_norm_g, grad_norm_c = _gradient_norms(problem, g, c)
    report = ConvergenceReport(
        converged=converged,
        iterations=iterations,
        final_cost=f_curr,
        final_dc=final_dc,
        grad_norm_g=grad_norm_g,
        grad_norm_c=grad_norm_c,
        tie_suspected=_tie_suspected([r.dc_step for r in trace], converged, config.dist_tol),
        audit_summary=audit_summary or None,
        final_g=g,
        final_c=c,
        extrapolations=extrapolations,
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
    _check_count("directions", directions)
    c = _check_anchor(problem, g, c)
    rng = np.random.default_rng(seed)
    h = STATIONARITY_FD_STEP
    f0 = float(problem.cost(g, c))
    slopes = []
    for _, size in _chunks(directions, g.basis.nbytes):
        probes = _geodesics(g.basis, _unit_tangents(rng, g.basis, size))(h)
        slopes += [(f - f0) / h for f in _costs(problem, probes[:, 0], c)]
    for _, size in _chunks(directions, c.nbytes):
        probes = _constrained_rows(problem, c + h * _convex_directions(rng, size, c.size))
        slopes += [(f - f0) / h for f in _costs(problem, g, probes)]
    worst = _worst(slopes, min)
    if math.isnan(worst):
        raise NonFiniteCostError(f"cost is not finite at the stationarity probe (f at the iterate is {f0})")
    return worst


def audit_tightness(problem: BlockProblem, block: str, anchors: list) -> AuditResult:
    """Check g(anchor | anchor) == f(anchor) for each anchor pair."""
    oracle = _oracle_for(problem, block)
    devs = []
    for g, c in [(g, _check_anchor(problem, g, c)) for g, c in anchors]:
        f0 = float(problem.cost(g, c))
        candidate = g if block == GRASSMANN_BLOCK else c
        devs.append(abs(float(oracle.evaluate(candidate, g, c)) - f0))
    return _verdict("tightness", block, devs, len(devs))


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
    consume the generator exactly as one draw at a time would. Reports the
    worst (smallest) margin; margins below -MAJORIZATION_TOL fail.
    """
    _check_count("samples", samples)
    oracle = _oracle_for(problem, block)
    n, d, c_len = problem.dims
    rng = np.random.default_rng(seed)
    margins = []
    for g, c in [(g, _check_anchor(problem, g, c)) for g, c in anchors]:
        scale = 1.0 + np.linalg.norm(c) / np.sqrt(c_len)
        for _, size in _chunks(samples, g.basis.nbytes if block == GRASSMANN_BLOCK else 8 * c_len):
            if block == GRASSMANN_BLOCK:
                candidates = random_orthonormal(rng, n, d, count=size)
                _check_bases(candidates)
            else:
                candidates = _constrained_rows(problem, c + scale * rng.standard_normal((size, c_len)))
            candidates.setflags(write=False)
            values = _costs(problem, candidates, c) if block == GRASSMANN_BLOCK else _costs(problem, g, candidates)
            margins += [e - f for e, f in zip(_evaluations(oracle, candidates, g, c), values)]
    return _verdict("majorization", block, margins, len(margins))


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
    _check_count("directions", directions)
    oracle = _oracle_for(problem, block)
    g, c = anchor
    c = _check_anchor(problem, g, c)
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
            drawn = _unit_tangents(rng, g.basis, size)
        else:
            drawn = _convex_directions(rng, size, c.size)
        kept = drawn[[guard is None or bool(guard(g, c, m, h_guard)) for m in drawn]]
        if block == GRASSMANN_BLOCK:
            samples = _geodesics(g.basis, kept)(fd_ts).reshape(-1, *g.basis.shape)
        else:
            # c + (-h) * direction is c - h * direction, bit for bit.
            samples = (c + fd_ts[:, None] * kept[:, None]).reshape(-1, c.size)
        samples.setflags(write=False)
        values = _costs(problem, samples, c) if block == GRASSMANN_BLOCK else _costs(problem, g, samples)
        skipped += size - len(kept)
        surrogate = _evaluations(oracle, samples, g, c)
        for i in range(0, len(values), 2):
            h = DERIVATIVE_FD_STEPS[(i // 2) % len(DERIVATIVE_FD_STEPS)]
            sg = (surrogate[i] - surrogate[i + 1]) / (2 * h)
            sf = (values[i] - values[i + 1]) / (2 * h)
            mismatches.append(abs(sg - sf) / max(1.0, abs(sf)))
    return _verdict("derivative_match", block, mismatches, len(mismatches) // len(DERIVATIVE_FD_STEPS), skipped)


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
    random direction. Directions and radii come from two streams spawned from
    the seed, each drawn as one stack per batch, so the endpoints do not
    depend on the batch size. A pair is skipped and counted when its
    subspaces meet near pi/2, with no unique geodesic between them. For each
    other pair the surrogate is evaluated on a uniform t-grid along the
    geodesic from x through y and must not exceed max(endpoint values) by
    more than QUASICONVEXITY_TOL; it takes a batch of pairs in one call.
    """
    _check_count("pairs", pairs)
    _check_count("t_samples", t_samples)
    oracle = problem.grassmann_surrogate
    g_anchor, c_anchor = anchor
    c_anchor = _check_anchor(problem, g_anchor, c_anchor)
    direction_rng, radius_rng = np.random.default_rng(seed).spawn(2)
    excess = []
    skipped = 0
    ts = np.linspace(0.0, 1.0, t_samples)
    for _, size in _chunks(pairs, t_samples * g_anchor.basis.nbytes):
        tangents = _unit_tangents(direction_rng, g_anchor.basis, 2 * size)
        radii = radius_rng.uniform(0.0, radius, 2 * size)
        ends = _geodesics(g_anchor.basis, tangents)(radii[:, None])
        keep, paths = _pair_geodesics(ends[0::2, 0], ends[1::2, 0])
        skipped += size - keep.size
        # Pair k takes rows k * (2 + t_samples) on: x, y, then its t-grid.
        samples = np.concatenate([ends[2 * keep], ends[2 * keep + 1], paths(ts)], axis=1)
        values = _evaluations(oracle, samples.reshape(-1, *g_anchor.basis.shape), g_anchor, c_anchor)
        for lo in range(0, len(values), 2 + t_samples):
            cap = max(values[lo], values[lo + 1])
            excess += [v - cap for v in values[lo + 2 : lo + 2 + t_samples]]
    return _verdict("quasiconvexity", GRASSMANN_BLOCK, excess, pairs - skipped, skipped)


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
    _check_count("rotations", rotations)
    rng = np.random.default_rng(seed)
    devs = []
    for g, c in [(g, _check_anchor(problem, g, c)) for g, c in anchors]:
        f0 = float(problem.cost(g, c))
        for _, size in _chunks(rotations, g.basis.nbytes):
            rotated = g.basis @ random_orthonormal(rng, g.d, g.d, count=size)
            _check_bases(rotated)
            devs += [abs(f - f0) for f in _costs(problem, rotated, c)]
    return _verdict("homogeneity", None, devs, len(devs))


def audit_assumptions(problem: BlockProblem, anchors: list, samples: int, seed: int) -> dict[str, AuditResult]:
    """The audit suite of grassmm audit (see the audit policy) over a run's
    anchors, the last its final iterate: one merged AuditResult per audit,
    each drawing `samples` samples per anchor and block from `seed`. Anchors
    whose arrays are read-only, as grassmm audit passes them, let the problem
    keep its work at each anchor (see BlockProblem)."""
    if not anchors:
        raise ValueError("anchors must hold at least one (g, c) pair")
    g, c = anchors[-1]
    c = _check_anchor(problem, g, c)
    scale = 0.1 * (1.0 + np.linalg.norm(c) / np.sqrt(c.size))
    shifted = c + scale * np.random.default_rng(seed).standard_normal(c.size)
    shifted.setflags(write=False)  # read-only, like the anchors: see BlockProblem
    results = []
    for block, anchor in ((GRASSMANN_BLOCK, (g, c)), (CONVEX_BLOCK, (g, shifted))):
        results += [
            audit_tightness(problem, block, anchors),
            audit_majorization(problem, block, anchors, samples, seed),
            audit_derivative_match(problem, block, anchor, samples, seed),
        ]
    results.append(audit_quasiconvexity(problem, (g, c), samples, 11, seed))
    results.append(audit_homogeneity(problem, anchors, samples, seed))
    return _fold({}, results)


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
    _check_count("d", d)
    if not 1 <= d < min(n, m):
        raise ValueError(f"need 1 <= D < min(N, M), got D={d} for a {n}x{m} matrix")
    newest: list = []  # [c, A - c 1^T] for the newest read-only c

    def centred(c: np.ndarray) -> np.ndarray:
        # The audits pass one anchor's c thousands of times. A read-only c is
        # the engine's own iterate (see the BlockProblem contract), so its
        # centred data is computed once and matched by identity.
        if newest and newest[0] is c:
            return newest[1]
        b = a - c[:, None]
        if not c.flags.writeable:
            b.setflags(write=False)
            newest[:] = [c, b]
        return b

    last: list = []  # [g, c, values] of the newest batch whose arguments are both read-only

    def batch(g, c) -> list[float]:
        # The cost on a stack: K bases with one c, or one point with K rows
        # of c. Each member takes the same matmuls and the same pairwise sum
        # over its N x M residual, so a member does not depend on K. The
        # residual b - X X^T b and its square are taken in place, in the one
        # K x N x M array the projection builds.
        one_g = isinstance(g, GrassmannPoint)
        step = max(1, _COST_BATCH_BYTES // a.nbytes)
        out: list[float] = []
        for lo in range(0, len(c) if one_g else len(g), step):
            if one_g:
                x, b = np.ascontiguousarray(g.basis), a - c[lo : lo + step, :, None]
            else:
                x, b = np.ascontiguousarray(g[lo : lo + step]), centred(c)
            r = x @ (np.swapaxes(x, -1, -2) @ b)
            np.subtract(b, r, out=r)
            np.multiply(r, r, out=r)
            out += r.sum(axis=(-2, -1)).tolist()
        return out

    def costs(g, c) -> list[float]:
        # The audits ask for the cost and then for the surrogate, which is the
        # cost, at one read-only stack (see the BlockProblem contract), so a
        # repeated query is answered from the last batch, matched by identity.
        # The entry holds g and c, so their ids are not reused while it is kept.
        stack = g.basis if isinstance(g, GrassmannPoint) else g
        read_only = not (stack.flags.writeable or c.flags.writeable)
        if read_only and last and last[0] is g and last[1] is c:
            return list(last[2])
        values = batch(g, c)
        if read_only:
            last[:] = [g, c, tuple(values)]
        return values

    def cost(g: GrassmannPoint, c: np.ndarray) -> float:
        # Past the cache: a stack of one is a new view on every call, which
        # could never match and would evict the batch the audits reuse.
        return batch(g.basis[None], c)[0]

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
        convex_constraint=lambda v: v,  # unconstrained: c ranges over R^N
        dims=(n, d, n),
        grassmann_grad=grad_g,
        convex_grad=grad_c,
        costs=costs,
    )


def subspace_plus_mean_init(a, d: int, seed: int) -> tuple[GrassmannPoint, np.ndarray]:
    """Default start: the column mean of A and a seeded random subspace."""
    a = as_matrix(a)
    return random_point(seed, a.shape[0], d), a.mean(axis=1)
