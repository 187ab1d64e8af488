"""End-to-end acceptance checks: geometry properties at scale, descent and
convergence across seeded batches, oracle equivalence, surrogate audits with
negative controls, kernel recovery rates, CLI determinism, gradient checks."""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from grassmm import (
    DeconvProblem,
    DeconvState,
    SolverConfig,
    SurrogateOracle,
    audit_derivative_match,
    audit_homogeneity,
    audit_majorization,
    audit_tightness,
    builtin_subspace_plus_mean,
    canonical_distance,
    circular_convolution,
    default_init,
    generate_instance,
    heuristic_lambda,
    lasso_warm_start,
    principal_angles,
    random_point,
    recovery_score,
    run_block_mm,
    stationarity_check,
    subspace_plus_mean_init,
)
from grassmm.cli import main
from grassmm.deconv import build_block_problem
from grassmm.engine import CONVEX_BLOCK, GRASSMANN_BLOCK

from deconv_oracles import grad_a, grad_x
from grassmann_oracles import TangentVector, exp_map, log_map, random_unit_tangent

ANGLE_CAP = np.pi / 2 - 0.1


@pytest.fixture(scope="module")
def deconv_batch():
    """100 seeded solves: length 64, four expected spikes, lambda 0.1, noiseless."""
    runs = []
    start = time.perf_counter()
    for seed in range(100):
        inst = generate_instance(seed, 64, 4 / 64, 8, 0.0)
        problem = DeconvProblem(y=inst.y, lam=0.1)
        init = default_init(inst.y, 8)
        block, config = build_block_problem(problem), SolverConfig(seed=seed, audit_samples=64)
        trace, report = run_block_mm(block, init.a, init.x, config)
        score = stationarity_check(block, report.final_g, report.final_c, config.audit_samples, config.seed)
        runs.append((trace, report, score))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def subspace_batch():
    """50 seeded subspace-plus-mean solves on Gr(10,2) with 40 observations."""
    runs = []
    start = time.perf_counter()
    for seed in range(50):
        a = np.random.default_rng(seed).standard_normal((10, 40))
        block = builtin_subspace_plus_mean(a, 2)
        g0, c0 = subspace_plus_mean_init(a, 2, seed)
        config = SolverConfig(seed=seed, audit_samples=64)
        trace, report = run_block_mm(block, g0, c0, config)
        score = stationarity_check(block, report.final_g, report.final_c, config.audit_samples, config.seed)
        runs.append((a, trace, report, score))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def audited_deconv():
    """One solved instance plus its block problem and audit anchor states."""
    inst = generate_instance(0, 64, 4 / 64, 8, 0.0)
    problem = DeconvProblem(y=inst.y, lam=0.1)
    init = default_init(inst.y, 8)
    _, report = run_block_mm(build_block_problem(problem), init.a, init.x, SolverConfig(seed=0))
    anchors = [(init.a, init.x), (report.final_g, report.final_c)]
    # the l1 term has a kink at every zero of x, so derivative checks for the
    # convex block anchor at a dense perturbation of the solution
    rng = np.random.default_rng(0)
    c = report.final_c
    smooth_c = c + 0.1 * (1.0 + np.linalg.norm(c) / np.sqrt(c.size)) * rng.standard_normal(c.size)
    return problem, build_block_problem(problem), anchors, (report.final_g, smooth_c)


def test_geometry_suite_at_scale():
    start = time.perf_counter()
    worst_roundtrip = worst_norm_gap = worst_triangle = 0.0
    for seed in range(200):
        x = random_point(seed, 8, 3)
        rng = np.random.default_rng(10_000 + seed)
        h = random_unit_tangent(rng, x)
        scale = 0.05 + (ANGLE_CAP - 0.1) * rng.random()
        y = exp_map(x, TangentVector(base=x, delta=scale * h.delta), 1.0)
        assert np.max(principal_angles(x, y)) < ANGLE_CAP

        back = log_map(x, y)
        worst_roundtrip = max(worst_roundtrip, canonical_distance(exp_map(x, back, 1.0), y))
        dist = canonical_distance(x, y)
        worst_norm_gap = max(worst_norm_gap, abs(np.linalg.norm(back.delta) - dist))

        # metric axioms on (x, y) plus an unrelated third subspace
        assert canonical_distance(x, y) == canonical_distance(y, x)
        assert canonical_distance(x, x) == 0.0
        w = random_point(50_000 + seed, 8, 3)
        violation = dist - (canonical_distance(x, w) + canonical_distance(w, y))
        worst_triangle = max(worst_triangle, violation)

    elapsed = time.perf_counter() - start
    assert worst_roundtrip <= 1e-8
    assert worst_norm_gap <= 1e-8
    assert worst_triangle <= 1e-8
    assert elapsed < 10.0
    print(
        f"geometry suite: PASS (200 pairs, roundtrip {worst_roundtrip:.2e}, {elapsed:.1f}s)"
    )


def test_every_trace_is_non_increasing(deconv_batch, subspace_batch):
    d_runs, d_elapsed = deconv_batch
    s_runs, s_elapsed = subspace_batch
    worst = -np.inf
    for trace, _, _ in d_runs:
        worst = max(worst, float(np.max(np.diff([r.f for r in trace]), initial=-np.inf)))
    for _, trace, _, _ in s_runs:
        worst = max(worst, float(np.max(np.diff([r.f for r in trace]), initial=-np.inf)))
    assert worst <= 1e-10
    assert d_elapsed + s_elapsed < 60.0
    print(
        f"descent: PASS (150 traces, worst step increase {worst:.2e}, "
        f"{d_elapsed + s_elapsed:.1f}s)"
    )


def test_convergence_rate_and_stationarity(deconv_batch, subspace_batch):
    d_runs, _ = deconv_batch
    s_runs, _ = subspace_batch
    converged = [(r, score) for _, r, score in d_runs if r.converged]
    assert len(converged) >= 90
    for report, score in converged + [(r, score) for _, _, r, score in s_runs]:
        assert report.final_dc < 1e-6
        assert report.iterations < 5000
        assert score >= -1e-4
    assert all(r.converged for _, _, r, _ in s_runs)
    print(
        f"convergence: PASS (deconv {len(converged)}/100, subspace 50/50, "
        f"worst stationarity {min(score for _, score in converged):.2e})"
    )


def test_subspace_cost_matches_svd_oracle(subspace_batch):
    runs, _ = subspace_batch
    worst = 0.0
    for a, _, report, _ in runs:
        centered = a - a.mean(axis=1, keepdims=True)
        tail = np.linalg.svd(centered, compute_uv=False)[2:]
        worst = max(worst, abs(report.final_cost - float(np.sum(tail**2))))
    assert worst <= 1e-8
    print(f"oracle equivalence: PASS (50 instances, worst gap {worst:.2e})")


def test_deconv_surrogate_audits(audited_deconv):
    _, block, anchors, smooth_anchor = audited_deconv
    for name in (GRASSMANN_BLOCK, CONVEX_BLOCK):
        tight = audit_tightness(block, name, anchors)
        assert tight.passed and tight.worst <= 1e-10
        major = audit_majorization(block, name, anchors, 200, seed=1)
        assert major.passed and major.worst >= -1e-9
        anchor = anchors[-1] if name == GRASSMANN_BLOCK else smooth_anchor
        deriv = audit_derivative_match(block, name, anchor, 100, seed=2)
        assert deriv.passed and deriv.worst <= 1e-4 and deriv.checked > 0
    homo = audit_homogeneity(block, anchors, 50, seed=3)
    assert homo.passed and homo.worst <= 1e-9
    print("surrogate audits: PASS (tightness/majorization/derivative/homogeneity)")


def test_audit_negative_controls(audited_deconv):
    problem, block, anchors, smooth_anchor = audited_deconv

    base = block.grassmann_surrogate
    offset = SurrogateOracle(
        evaluate=lambda cand, ag, ac: base.evaluate(cand, ag, ac) + 1.0,
        minimize=base.minimize,
        smooth_along=base.smooth_along,
    )
    assert not audit_tightness(replace(block, grassmann_surrogate=offset), GRASSMANN_BLOCK, anchors).passed

    # curvature 10x too small is no longer an upper bound
    loose = build_block_problem(problem, step_scale=10.0)
    loose_ok = [
        audit_majorization(loose, name, anchors, 200, seed=1).passed
        for name in (GRASSMANN_BLOCK, CONVEX_BLOCK)
    ]
    assert not all(loose_ok)

    tilt = np.full(64, 0.5)
    conv = block.convex_surrogate
    tilted = SurrogateOracle(
        evaluate=lambda cand, ag, ac: conv.evaluate(cand, ag, ac) + float(tilt @ (np.asarray(cand) - np.asarray(ac))),
        minimize=conv.minimize,
        smooth_along=conv.smooth_along,
    )
    assert not audit_derivative_match(
        replace(block, convex_surrogate=tilted), CONVEX_BLOCK, smooth_anchor, 100, seed=2
    ).passed

    warped = replace(block, cost=lambda g, c: float(np.sum(g.basis)))
    assert not audit_homogeneity(warped, anchors, 50, seed=3).passed
    print("negative controls: PASS (all four audits reject their broken variants)")


def test_kernel_recovery_rate():
    wins = 0
    converged = 0
    scores = []
    for seed in range(100):
        inst = generate_instance(seed, 64, 0.05, 8, 0.0)
        probe = default_init(inst.y, 8)
        lam = heuristic_lambda(inst.y, probe.kernel)
        warm = lasso_warm_start(DeconvProblem(y=inst.y, lam=lam), probe)
        problem = DeconvProblem(y=inst.y, lam=0.0)
        _, report = run_block_mm(build_block_problem(problem), warm.a, warm.x, SolverConfig(seed=seed))
        score = recovery_score(report.final_g, inst)
        scores.append(score)
        wins += score >= 0.95
        converged += report.converged
    assert wins >= 60
    # lambda = 0 and no noise: f -> 0, so a stop test relative to the current
    # cost would never fire on many of these seeds.
    assert converged == 100
    print(f"kernel recovery: PASS ({wins}/100 seeds >= 0.95, median {np.median(scores):.3f})")


def test_repeated_runs_are_byte_identical(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "kind": "deconv",
                "seeds": [0, 1],
                "problem": {"N": 64, "sparsity": 0.0625, "kernel_support": 8, "lambda": 0.1},
            }
        )
    )
    assert main(["--out", str(tmp_path / "first"), "run", str(config)]) == 0
    assert main(["--out", str(tmp_path / "second"), "run", str(config)]) == 0
    for name in ("trace_0.csv", "trace_1.csv", "report.json"):
        first = (tmp_path / "first" / name).read_bytes()
        assert first == (tmp_path / "second" / name).read_bytes()
        assert first
    print("determinism: PASS (reruns byte-identical)")


def test_gradients_match_central_differences():
    def central(fun, v, h=1e-6):
        out = np.zeros_like(v)
        for i in range(v.size):
            vp, vm = v.copy(), v.copy()
            vp[i] += h
            vm[i] -= h
            out[i] = (fun(vp) - fun(vm)) / (2.0 * h)
        return out

    worst_x = worst_a = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(16)
        x = rng.standard_normal(16)
        a = random_point(seed, 16, 1)
        state = DeconvState(a=a, x=x)
        problem = DeconvProblem(y=y, lam=0.0)

        def smooth_in_x(v):
            r = y - circular_convolution(a.basis[:, 0], v)
            return float(r @ r)

        def smooth_in_a(v):
            r = y - circular_convolution(v, x)
            return float(r @ r)

        num_x = central(smooth_in_x, x)
        num_a = central(smooth_in_a, a.basis[:, 0])
        rel_x = np.linalg.norm(grad_x(problem, state) - num_x) / max(1.0, np.linalg.norm(num_x))
        rel_a = np.linalg.norm(grad_a(problem, state) - num_a) / max(1.0, np.linalg.norm(num_a))
        worst_x = max(worst_x, rel_x)
        worst_a = max(worst_a, rel_a)
    assert worst_x <= 1e-6
    assert worst_a <= 1e-6
    print(f"gradient checks: PASS (worst rel error x {worst_x:.2e}, kernel {worst_a:.2e})")
