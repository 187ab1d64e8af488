import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmm import (
    AuditResult,
    IterationRecord,
    SolverConfig,
    audit_assumptions,
    audit_derivative_match,
    audit_homogeneity,
    audit_majorization,
    audit_quasiconvexity,
    audit_tightness,
    cli,
    deconv,
    engine,
    run_block_mm,
)
from grassmm.cli import ConfigError, load_config, main

NAN, INF = float("nan"), float("inf")
HUGE_INT = 10**400  # a JSON integer past the float range


def write_config(tmp_path, payload, name="config.json"):
    """payload as indented JSON text; a str payload is written as it is."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n")
    return path


def with_literal(payload, literal):
    """payload's JSON text with each string value equal to literal unquoted,
    for number literals json.dumps cannot write, such as 1e400."""
    return json.dumps(payload, indent=2).replace(f'"{literal}"', literal) + "\n"


def deconv_payload(**overrides):
    payload = {
        "kind": "deconv",
        "seeds": [0],
        "problem": {"N": 32, "sparsity": 0.125, "kernel_support": 6, "lambda": 0.1},
    }
    payload.update(overrides)
    return payload


def count_probes(monkeypatch) -> list:
    """A list that gains one entry per stationarity_check call from here on,
    through the binding the CLI calls or the engine's own."""
    calls = []
    probe = engine.stationarity_check

    def counted(*args):
        calls.append(args)
        return probe(*args)

    for module in (cli, engine):
        monkeypatch.setattr(module, "stationarity_check", counted)
    return calls


def subspace_payload(**overrides):
    payload = {
        "kind": "subspace-mean",
        "seeds": [0, 1],
        "problem": {"N": 6, "D": 1, "M": 12},
    }
    payload.update(overrides)
    return payload


# --- config parsing ----------------------------------------------------------


def test_load_config_fills_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, subspace_payload(problem={"N": 6, "D": 2})))
    assert cfg["kind"] == "subspace-mean"
    assert cfg["problem"]["M"] == 24  # defaults to 4N observations
    assert cfg["solver"] == {}
    assert cfg["step_scale"] == 1.0
    assert cfg["out"] is None

    cfg = load_config(
        write_config(
            tmp_path,
            deconv_payload(problem={"N": 32, "sparsity": 0.1, "kernel_support": 4}),
        )
    )
    assert cfg["problem"]["noise_sigma"] == 0.0
    assert cfg["problem"]["lambda"] is None


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)
    path.write_text('{"seeds": [' + "1" * 5000 + "]}")  # past the int digit limit
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_load_config_reports_line_numbers(tmp_path):
    path = tmp_path / "bad_lambda.json"
    path.write_text(
        "\n".join(
            [
                "{",
                '  "kind": "deconv",',
                '  "seeds": [0],',
                '  "problem": {',
                '    "N": 32,',
                '    "sparsity": 0.1,',
                '    "kernel_support": 6,',
                '    "lambda": -0.5',
                "  }",
                "}",
            ]
        )
    )
    with pytest.raises(ConfigError, match=r"problem\.lambda must be >= 0\.0, got -0\.5 \(line 8\)"):
        load_config(path)


def test_load_config_unknown_key_with_line(tmp_path):
    path = tmp_path / "unknown.json"
    path.write_text(
        "\n".join(
            [
                "{",
                '  "kind": "subspace-mean",',
                '  "seeds": [0],',
                '  "momentum": 0.9,',
                '  "problem": {"N": 6, "D": 1}',
                "}",
            ]
        )
    )
    with pytest.raises(ConfigError, match=r"unknown key 'momentum' in config \(line 4\)"):
        load_config(path)


@pytest.mark.parametrize(
    "payload, pattern",
    [
        ({"kind": "deconv", "seeds": [0]}, "missing required key 'problem'"),
        (deconv_payload(kind="fourier"), "kind must be one of"),
        (deconv_payload(seeds=[]), "non-empty list"),
        (deconv_payload(seeds=[-1]), r"seeds\[0\] must be a nonnegative integer"),
        (deconv_payload(seeds=[True]), r"seeds\[0\] must be a nonnegative integer"),
        (deconv_payload(out=7), "out must be a string"),
        (deconv_payload(problem={"N": 32, "sparsity": 0.1}), "requires key 'kernel_support'"),
        (
            deconv_payload(problem={"N": 32, "sparsity": 1.5, "kernel_support": 4}),
            r"sparsity must be < 1",
        ),
        (
            deconv_payload(problem={"N": 8, "sparsity": 0.1, "kernel_support": 9}),
            "kernel_support must be <= problem.N",
        ),
        (subspace_payload(problem={"N": 4, "D": 4}), r"problem\.D must be < problem\.N"),
        (subspace_payload(problem={"N": 6, "D": 2, "M": 1}), r"problem\.M must be > problem\.D"),
        (subspace_payload(solver={"max_iter": 0}), r"solver\.max_iter must be >= 1"),
        (subspace_payload(solver={"dist_tol": 0.0}), r"solver\.dist_tol must be > 0"),
        (subspace_payload(solver={"warm": 2}), "unknown key 'warm' in solver"),
        (subspace_payload(step_scale=0.0), "step_scale must be > 0"),
        # every bound matches the library object that consumes it
        (
            subspace_payload(solver={"cost_tol": 0.0}),
            r"solver\.cost_tol must be > 0\.0, got 0\.0 \(line 13\)",
        ),
        (
            subspace_payload(problem={"N": 6, "D": 2, "M": 2}),
            r"problem\.M must be > problem\.D \(line 10\)",
        ),
        # non-finite numbers are rejected in every section
        (
            deconv_payload(problem={"N": 32, "sparsity": NAN, "kernel_support": 6}),
            r"problem\.sparsity must be a finite number \(line 8\)",
        ),
        (
            deconv_payload(problem={"N": 32, "sparsity": 0.1, "kernel_support": 6, "lambda": INF}),
            r"problem\.lambda must be a finite number \(line 10\)",
        ),
        (
            deconv_payload(problem={"N": 32, "sparsity": 0.1, "kernel_support": 6, "noise_sigma": -INF}),
            r"problem\.noise_sigma must be a finite number \(line 10\)",
        ),
        (
            deconv_payload(problem={"N": NAN, "sparsity": 0.1, "kernel_support": 6}),
            r"problem\.N must be a finite number \(line 7\)",
        ),
        (
            deconv_payload(problem={"N": 32, "sparsity": 0.1, "kernel_support": 6, "lambda": HUGE_INT}),
            r"problem\.lambda must be a finite number \(line 10\)",
        ),
        (subspace_payload(solver={"dist_tol": NAN}), r"solver\.dist_tol must be a finite number \(line 13\)"),
        (subspace_payload(solver={"cost_tol": INF}), r"solver\.cost_tol must be a finite number \(line 13\)"),
        (subspace_payload(solver={"max_iter": INF}), r"solver\.max_iter must be a finite number \(line 13\)"),
        (deconv_payload(step_scale=NAN), r"step_scale must be a finite number \(line 12\)"),
        (deconv_payload(step_scale=INF), r"step_scale must be a finite number \(line 12\)"),
        pytest.param(
            with_literal(deconv_payload(problem={"N": 32, "sparsity": 0.1, "kernel_support": 6, "lambda": "1e400"}), "1e400"),
            r"problem\.lambda must be a finite number \(line 10\)",
            id="problem-1e400",
        ),
        pytest.param(
            with_literal(subspace_payload(solver={"dist_tol": "1e400"}), "1e400"),
            r"solver\.dist_tol must be a finite number \(line 13\)",
            id="solver-1e400",
        ),
        pytest.param(
            with_literal(deconv_payload(step_scale="-1e400"), "-1e400"),
            r"step_scale must be a finite number \(line 12\)",
            id="step_scale-1e400",
        ),
        # step_scale acts on the deconv surrogates only
        (subspace_payload(step_scale=2.0), r"step_scale applies only to deconv \(line 12\)"),
        # a repeated seed would run, and be audited, twice
        (subspace_payload(seeds=[3, 3]), r"seeds\[1\] repeats the seed 3 \(line 3\)"),
    ],
)
def test_load_config_rejections(tmp_path, payload, pattern):
    with pytest.raises(ConfigError, match=pattern):
        load_config(write_config(tmp_path, payload))


def around(*bounds):
    """Values at, next to and across each bound, as ints and floats, plus the
    other numbers JSON can hold: +-0, bools and non-finite floats."""
    near = [v for b in bounds for v in (b - 1, b, b + 1, float(b), math.nextafter(b, -INF), math.nextafter(b, INF))]
    specials = [0.0, -0.0, True, False, NAN, INF, -INF, HUGE_INT]
    return st.sampled_from(bounds) | st.sampled_from(near) | st.sampled_from(specials) | st.floats(-4.0, 4.0)


# SolverConfig's own lower bounds (seed aside), written out apart from the
# CLI's table, and valid values to start from.
SOLVER_BOUNDS = {"max_iter": 1, "dist_tol": 0, "cost_tol": 0, "audit_every": 0, "audit_samples": 1}
SOLVER_VALID = {"max_iter": 3, "dist_tol": 1e-6, "cost_tol": 1e-10, "audit_every": 0, "audit_samples": 2}


@st.composite
def configs(draw):
    """A valid config at small N with one to three numbers moved to values at,
    next to or across their bounds, and with optional keys dropped at random."""
    kind = draw(st.sampled_from(cli.VALID_KINDS))
    n = draw(st.integers(2, 8))
    if kind == "deconv":
        k = draw(st.integers(1, n))
        problem = {"N": n, "sparsity": 0.25, "kernel_support": k, "noise_sigma": 0.1, "lambda": 0.1}
        bounds = {"N": (2, k), "sparsity": (0, 1), "kernel_support": (1, n), "noise_sigma": (0,), "lambda": (0,)}
    else:
        d = draw(st.integers(1, n - 1))
        problem = {"N": n, "D": d, "M": draw(st.integers(d + 1, 4 * n))}
        bounds = {"N": (2, d), "D": (1, n), "M": (1, d)}
    doc = {"kind": kind, "seeds": [draw(st.integers(0, 3))], "problem": problem, "solver": dict(SOLVER_VALID)}
    if kind == "deconv":
        doc["step_scale"] = 1.0
    slots = [(problem, key, b) for key, b in bounds.items()]
    slots += [(doc["solver"], key, (b,)) for key, b in SOLVER_BOUNDS.items()]
    slots.append((doc, "step_scale", (0,)))
    probed = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=3, unique_by=lambda slot: slot[1]))
    for obj, key, b in probed:
        obj[key] = draw(around(*b))
    kept = {key for _, key, _ in probed}
    optional = [(problem, "noise_sigma"), (problem, "lambda"), (problem, "M"), (doc, "step_scale")]
    for obj, key in optional + [(doc["solver"], key) for key in SOLVER_BOUNDS]:
        if key in obj and key not in kept and draw(st.booleans()):
            del obj[key]
    return doc


@settings(max_examples=600, deadline=None)
@given(doc=configs())
def test_accepted_configs_reach_the_solver(tmp_path_factory, doc):
    numbers = [*doc["problem"].values(), *doc["solver"].values(), doc.get("step_scale", 1.0)]
    try:
        cfg = load_config(write_config(tmp_path_factory.getbasetemp(), doc, "property.json"))
    except ConfigError:
        return
    assert all(not isinstance(v, float) or math.isfinite(v) for v in numbers)
    SolverConfig(seed=0, **cfg["solver"])
    cli._build(cfg["kind"], cfg["problem"], cfg["seeds"][0], cfg["step_scale"])


def test_solver_rows_name_the_solver_config_fields():
    assert set(cli._SCHEMA["solver"]) == {f.name for f in dataclasses.fields(SolverConfig)} - {"seed"}


def test_readme_example_configs_load(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        load_config(write_config(tmp_path, block, f"readme_{i}.json"))


# --- run command ---------------------------------------------------------------


def test_run_writes_traces_and_report(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, subspace_payload(out=str(out)))
    assert main(["run", str(config)]) == 0

    for seed in (0, 1):
        lines = (out / f"trace_{seed}.csv").read_text().splitlines()
        assert lines[0] == "iter,f,f_after_G,dc_step"
        assert len(lines) > 1
        for row in lines[1:]:
            fields = row.split(",")
            assert len(fields) == 4
            int(fields[0])
            for field in fields[1:]:
                float(field)

    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "subspace-mean"
    assert set(report["runs"]) == {"0", "1"}
    for entry in report["runs"].values():
        assert set(entry) == {
            "converged", "iterations", "final_f", "final_dc", "grad_norm_G", "grad_norm_c",
            "stationarity_score", "extrapolations", "tie_suspected", "audit_summary",
        }
        assert entry["converged"] is True
        assert entry["tie_suspected"] is False and entry["audit_summary"] is None
        assert math.isfinite(entry["grad_norm_G"]) and math.isfinite(entry["grad_norm_c"])
        # subspace-mean converges before the first extrapolation try
        assert entry["extrapolations"] == 0
        rows = len(lines) - 1  # one trace row per iteration
    assert report["runs"]["1"]["iterations"] == rows


def test_run_outputs_are_byte_identical(tmp_path):
    config = write_config(tmp_path, deconv_payload())
    assert main(["--out", str(tmp_path / "a"), "run", str(config)]) == 0
    assert main(["--out", str(tmp_path / "b"), "run", str(config)]) == 0
    for name in ("trace_0.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_subspace_line_report_is_pinned(tmp_path, monkeypatch):
    # Gr(10, 1): the G step returns a column slice of the SVD factor, and the
    # subspace cost must not round differently for it; values pinned exactly.
    # grassmm run takes one probe per seed, at its final iterate, with the
    # seed's audit_samples and seed.
    expected = {
        "0": (True, 2, 307.72748623092286, 1.3014080040840904e-15, 0.00020868355932179836),
        "1": (True, 2, 252.3389036801181, 8.661396316919335e-16, 0.00023894131118140646),
    }
    expected_f = {"0": [346.27281342877586, 307.72748623092286], "1": [296.882021799153, 252.3389036801181]}
    config = write_config(tmp_path, subspace_payload(seeds=[0, 1], problem={"N": 10, "D": 1, "M": 40}))
    out = tmp_path / "out"
    probes = count_probes(monkeypatch)
    assert main(["--out", str(out), "run", str(config)]) == 0
    assert len(probes) == 2
    assert [args[3:] for args in probes] == [(50, 0), (50, 1)]
    assert all(isinstance(args[0], engine.BlockProblem) for args in probes)
    report = json.loads((out / "report.json").read_text())
    assert {
        seed: (e["converged"], e["iterations"], e["final_f"], e["final_dc"], e["stationarity_score"])
        for seed, e in report["runs"].items()
    } == expected
    for seed, fs in expected_f.items():
        rows = [row.split(",") for row in (out / f"trace_{seed}.csv").read_text().splitlines()[1:]]
        assert [float(row[1]) for row in rows] == fs
        assert float(rows[-1][2]) == fs[-1]


def test_run_flag_overrides_config_out(tmp_path):
    config = write_config(tmp_path, subspace_payload(out=str(tmp_path / "ignored")))
    assert main(["--out", str(tmp_path / "chosen"), "run", str(config)]) == 0
    assert (tmp_path / "chosen" / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_run_exit_two_when_not_converged(tmp_path):
    config = write_config(tmp_path, deconv_payload(solver={"max_iter": 1}))
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(config)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["runs"]["0"]["converged"] is False
    assert report["runs"]["0"]["iterations"] == 1


def test_run_config_error_exit_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_solver_failure_exit_one_without_traceback(tmp_path, capsys):
    # step_scale 4 makes the surrogates non-majorizing: seed 1 breaks descent
    problem = {"N": 64, "sparsity": 0.0625, "kernel_support": 8, "lambda": 0.1}
    config = write_config(tmp_path, deconv_payload(seeds=[1], problem=problem, step_scale=4))
    assert main(["--out", str(tmp_path / "out"), "run", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "increased the cost" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("noise_sigma", [1e160, 1e300])
def test_run_overflowing_noise_names_noise_sigma(tmp_path, capsys, noise_sigma):
    # accepted by the config table, but y @ y overflows
    problem = {"N": 8, "sparsity": 0.25, "kernel_support": 3, "noise_sigma": noise_sigma}
    config = write_config(tmp_path, deconv_payload(problem=problem))
    assert main(["--out", str(tmp_path / "out"), "run", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: noise_sigma ") and "not finite" in err
    assert "orthonormal" not in err and "Traceback" not in err


def test_run_with_large_finite_noise_completes(tmp_path):
    # y of size about 1e150: the kernel gradient's entries are finite but the
    # sum of their squares is not, and the report must still hold its norm,
    # which lies past sqrt(max double) = 1.34e154
    problem = {"N": 64, "sparsity": 0.0625, "kernel_support": 8, "noise_sigma": 1e150}
    config = write_config(tmp_path, deconv_payload(problem=problem))
    assert main(["--out", str(tmp_path / "out"), "run", str(config)]) == 0
    rows = np.loadtxt(tmp_path / "out" / "trace_0.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.all(np.isfinite(rows))
    report = json.loads((tmp_path / "out" / "report.json").read_text())["runs"]["0"]
    assert math.isfinite(report["grad_norm_G"]) and report["grad_norm_G"] > 1.4e154


def test_run_long_signal_uses_fft_path(tmp_path):
    deconv._dft.cache_clear()
    problem = {"N": 4096, "sparsity": 0.0625, "kernel_support": 8, "lambda": 0.1}
    config = write_config(tmp_path, deconv_payload(problem=problem, solver={"max_iter": 20}))
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(config)]) == 2
    rows = np.loadtxt(out / "trace_0.csv", delimiter=",", skiprows=1, ndmin=2)
    report = json.loads((out / "report.json").read_text())["runs"]["0"]
    assert report["iterations"] == 20
    assert rows.shape == (20, 4)
    assert np.all(np.isfinite(rows))
    chain = np.append(rows[:, 1:3].ravel(), report["final_f"])  # f_0, f_after_G_0, f_1, ...
    assert np.all(np.diff(chain) <= 0.0)
    # every length seen is >= _FFT_MIN_N, so no O(N^2) DFT matrix may have been built
    assert deconv._FFT_MIN_N <= 4096
    assert deconv._dft.cache_info().currsize == 0


def test_run_below_the_fft_crossover_calls_no_fft_and_gathers_nothing(tmp_path, monkeypatch):
    # At N=64 the transform pair is a product with kept real-DFT matrices: a
    # run, its stationarity probe included, makes no numpy FFT call and no
    # np.take gather. The same hooks see the FFT path at N=128.
    calls = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, recorded(name, getattr(np.fft, name)))
    monkeypatch.setattr(np, "take", recorded("take", np.take))
    problem = {"N": 64, "sparsity": 0.0625, "kernel_support": 8, "lambda": 0.1}
    config = write_config(tmp_path, deconv_payload(seeds=[0, 1], problem=problem))
    assert main(["--out", str(tmp_path / "out"), "run", str(config)]) == 0
    assert calls == []
    deconv.circular_convolution(np.ones(128), np.ones(128))
    assert calls == ["rfft", "rfft", "irfft"]


@pytest.mark.parametrize(
    "n, solver, code, grad_norm_g, grad_norm_c",
    [
        (64, {}, 0, 1.0529909339440175e-14, 0.00010601329087164791),
        (1024, {"max_iter": 100}, 2, 0.30384546767794218, 0.042766571866456556),
    ],
    ids=["deconv-64", "deconv-1024-max-iter-100"],
)
def test_run_reports_the_gradient_norms_at_the_final_iterate(tmp_path, n, solver, code, grad_norm_g, grad_norm_c):
    # The N=1024 pair is pinned to the last row of the trace's former
    # grad_norm_G and grad_norm_c columns, which held the norms at each kept
    # iterate. The N=64 pair is pinned to the bits of the kept-matrix real
    # DFT, which moved grad_norm_G from 2.8e-15 by rounding.
    problem = {"N": n, "sparsity": 0.0625, "kernel_support": 8, "lambda": 0.1}
    config = write_config(tmp_path, deconv_payload(problem=problem, solver=solver))
    assert main(["--out", str(tmp_path / "out"), "run", str(config)]) == code
    report = json.loads((tmp_path / "out" / "report.json").read_text())["runs"]["0"]
    assert (report["grad_norm_G"], report["grad_norm_c"]) == (grad_norm_g, grad_norm_c)


def test_run_writes_the_in_run_audit_summary(tmp_path):
    problem = {"N": 10, "D": 2, "M": 40}
    for solver, out in (({"audit_every": 5}, "audited"), ({}, "plain")):
        config = write_config(tmp_path, subspace_payload(problem=problem, solver=solver))
        assert main(["--out", str(tmp_path / out), "run", str(config)]) == 0
    for entry in json.loads((tmp_path / "audited" / "report.json").read_text())["runs"].values():
        summary = entry["audit_summary"]
        assert set(summary) == {"tightness", "majorization"}
        assert all(r["passed"] is True and r["checked"] > 0 for r in summary.values())
    for entry in json.loads((tmp_path / "plain" / "report.json").read_text())["runs"].values():
        assert entry["audit_summary"] is None


@pytest.mark.parametrize("n, max_iter, code", [(64, 5000, 0), (1024, 100, 2)])
def test_deconv_run_takes_no_svd(tmp_path, monkeypatch, n, max_iter, code):
    # The kernel block is Gr(N, 1): the stop-test distance, the extrapolation
    # point and the stationarity probe's geodesics are all taken in closed
    # form, so a deconv run, probe included, calls no LAPACK SVD.
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    probes = count_probes(monkeypatch)
    problem = {"N": n, "sparsity": 0.0625, "kernel_support": 8, "lambda": 0.1}
    config = write_config(tmp_path, deconv_payload(seeds=[0, 1], problem=problem, solver={"max_iter": max_iter}))
    assert main(["--out", str(tmp_path / "out"), "run", str(config)]) == code
    runs = json.loads((tmp_path / "out" / "report.json").read_text())["runs"]
    assert all(math.isfinite(float(run["stationarity_score"])) for run in runs.values())
    assert len(probes) == 2
    assert calls == []


def test_run_with_a_non_finite_probe_exits_1_after_the_seed_trace(tmp_path, monkeypatch, capsys):
    # The engine's iterates are read-only arrays and the probe's points are
    # not, so this cost is finite along each run and NaN at every probe.
    # grassmm run takes the probe after it writes the seed's trace and before
    # report.json, so the first seed's trace is written and nothing else.
    build = cli._build

    def broken_build(*args):
        block, init, extras = build(*args)

        def cost(g, c):
            return block.cost(g, c) if not (g.basis.flags.writeable or c.flags.writeable) else math.nan

        return dataclasses.replace(block, cost=cost, costs=None), init, extras

    monkeypatch.setattr(cli, "_build", broken_build)
    probes = count_probes(monkeypatch)
    out = tmp_path / "out"
    config = write_config(tmp_path, subspace_payload())
    assert main(["--out", str(out), "run", str(config)]) == 1
    assert "stationarity probe" in capsys.readouterr().err
    assert len(probes) == 1
    assert sorted(path.name for path in out.iterdir()) == ["trace_0.csv"]


# --- audit command ---------------------------------------------------------------


def test_audit_passes_on_healthy_problem(tmp_path):
    config = write_config(
        tmp_path, subspace_payload(seeds=[0], solver={"audit_samples": 10})
    )
    out = tmp_path / "out"
    assert main(["--out", str(out), "audit", str(config)]) == 0
    audit = json.loads((out / "audit.json").read_text())
    assert audit["overall_pass"] is True
    assert set(audit["audits"]) == {
        "tightness",
        "majorization",
        "derivative_match",
        "quasiconvexity",
        "homogeneity",
    }
    for entry in audit["audits"].values():
        assert set(entry) == {"passed", "worst", "threshold", "checked", "skipped"}
        assert entry["passed"] is True
        assert entry["checked"] > 0


def test_audit_deconv_summary_is_pinned(tmp_path):
    # (passed, worst, threshold, checked, skipped) of each audit for this
    # config; quasiconvexity's worst is rounding noise, so only its bound is held
    expected = {
        "tightness": (True, 0.0, 1e-9, 8, 0),
        "majorization": (True, -4.440892098500626e-16, 1e-9, 80, 0),
        "derivative_match": (True, 1.1102230246251565e-11, 1e-4, 40, 0),
        "quasiconvexity": (True, None, 1e-8, 20, 0),
        "homogeneity": (True, 0.0, 1e-9, 40, 0),
    }
    config = write_config(tmp_path, deconv_payload(seeds=[0, 1], solver={"audit_samples": 10}))
    out = tmp_path / "out"
    assert main(["--out", str(out), "audit", str(config)]) == 0
    audit = json.loads((out / "audit.json").read_text())
    assert audit["overall_pass"] is True
    assert set(audit["audits"]) == set(expected)
    for name, (passed, worst, threshold, checked, skipped) in expected.items():
        entry = audit["audits"][name]
        assert (entry["passed"], entry["threshold"]) == (passed, threshold)
        assert (entry["checked"], entry["skipped"]) == (checked, skipped)
        if worst is None:
            assert entry["worst"] <= threshold
        else:
            assert entry["worst"] == pytest.approx(worst, abs=1e-9)


def test_audit_subspace_summary_is_pinned(tmp_path, monkeypatch):
    # (passed, worst, threshold, checked, skipped) of each audit for this
    # config, exactly: the batched audit geometry must not move a bit of it.
    # grassmm audit takes no stationarity probe.
    expected = {
        "tightness": (True, 0.0, 1e-9, 12, 0),
        "majorization": (True, 0.0, 1e-9, 600, 0),
        "derivative_match": (True, 0.0, 1e-4, 300, 0),
        "quasiconvexity": (True, 5.684341886080802e-14, 1e-8, 150, 0),
        "homogeneity": (True, 2.842170943040401e-14, 1e-9, 300, 0),
    }
    config = write_config(tmp_path, subspace_payload(seeds=[0, 1, 2], problem={"N": 8, "D": 2}))
    out = tmp_path / "out"
    probes = count_probes(monkeypatch)
    assert main(["--out", str(out), "audit", str(config)]) == 0
    assert probes == []
    audit = json.loads((out / "audit.json").read_text())
    assert audit["overall_pass"] is True
    assert {
        name: (e["passed"], e["worst"], e["threshold"], e["checked"], e["skipped"])
        for name, e in audit["audits"].items()
    } == expected


def test_audit_summary_keeps_a_non_finite_worst():
    # AuditResult.merged folds the results of grassmm audit and of the in-run audits
    finite = AuditResult("majorization", "grassmann", True, -1e-12, 1e-9, 5, 1)
    broken = dataclasses.replace(finite, block="convex", passed=False, worst=math.nan, skipped=2)
    for first, second in ((finite, broken), (broken, finite)):
        merged = first.merged(second)
        assert merged.passed is False and math.isnan(merged.worst)
        assert (merged.checked, merged.skipped, merged.block, merged.threshold) == (10, 3, None, 1e-9)
    assert finite.merged(finite).block == "grassmann"
    # majorization keeps the smallest margin, every other audit the largest value
    lower = dataclasses.replace(finite, worst=-1e-6)
    assert finite.merged(lower).worst == lower.merged(finite).worst == -1e-6
    tight = AuditResult("tightness", "grassmann", True, 1e-12, 1e-9, 1)
    larger = dataclasses.replace(tight, worst=1e-6, passed=False)
    assert tight.merged(larger) == larger.merged(tight) == dataclasses.replace(larger, checked=2)
    with pytest.raises(ValueError, match="cannot merge a tightness result into a majorization result"):
        finite.merged(tight)


# --- the parent assembly of grassmm audit, kept as the reference for audit_assumptions


def reference_smooth_anchor(anchor, seed):
    """Shift the convex part off any exact zeros so kink guards don't fire."""
    g, c = anchor
    c = np.asarray(c, dtype=float)
    rng = np.random.default_rng(seed)
    scale = 0.1 * (1.0 + np.linalg.norm(c) / np.sqrt(c.size))
    return (g, c + scale * rng.standard_normal(c.size))


def reference_merge(entry, name, result):
    if not entry:
        return {
            "passed": bool(result.passed),
            "worst": float(result.worst),
            "threshold": float(result.threshold),
            "checked": int(result.checked),
            "skipped": int(result.skipped),
        }
    entry["passed"] = bool(entry["passed"] and result.passed)
    pick = min if name == "majorization" else max
    worst = float(result.worst)
    entry["worst"] = worst if math.isnan(worst) else float(pick(entry["worst"], worst))
    entry["checked"] += int(result.checked)
    entry["skipped"] += int(result.skipped)
    return entry


def reference_audit(block, anchors, samples, seed):
    final_anchor = anchors[-1]
    smooth = reference_smooth_anchor(final_anchor, seed)
    results = []
    for name in ("grassmann", "convex"):
        anchor = final_anchor if name == "grassmann" else smooth
        results.append(("tightness", audit_tightness(block, name, anchors)))
        results.append(("majorization", audit_majorization(block, name, anchors, samples, seed)))
        results.append(("derivative_match", audit_derivative_match(block, name, anchor, samples, seed)))
    results.append(("quasiconvexity", audit_quasiconvexity(block, final_anchor, samples, 11, seed)))
    results.append(("homogeneity", audit_homogeneity(block, anchors, samples, seed)))
    return results


@pytest.mark.parametrize(
    "kind, problem, seeds",
    [
        ("subspace-mean", {"N": 10, "D": 2, "M": 40}, [0, 1, 2, 3]),
        ("deconv", {"N": 64, "sparsity": 0.0625, "kernel_support": 8, "noise_sigma": 0.0, "lambda": None}, [0, 1]),
    ],
)
def test_audit_assumptions_matches_the_reference_assembly(kind, problem, seeds):
    expected, summary = {}, {}
    for seed in seeds:
        block, init, _ = cli._build(kind, problem, seed)
        _, report = run_block_mm(block, *init, SolverConfig(seed=seed))
        anchors = [init, (report.final_g, report.final_c)]
        for name, result in reference_audit(block, anchors, 10, seed):
            expected[name] = reference_merge(expected.get(name, {}), name, result)
        for name, result in audit_assumptions(block, anchors, 10, seed).items():
            summary[name] = summary[name].merged(result) if name in summary else result
        # the JSON text holds every bit of each float, and the sign of a zero
        assert json.dumps(cli._audit_json(summary), sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_audit_flags_broken_curvature(tmp_path):
    # a 10x step override shrinks the surrogate curvature below the true one,
    # so the majorization audit must fail and the command must exit 3
    config = write_config(
        tmp_path,
        deconv_payload(
            seeds=[0],
            problem={"N": 64, "sparsity": 0.0625, "kernel_support": 8, "lambda": 0.1},
            step_scale=10.0,
            solver={"audit_samples": 20},
        ),
    )
    out = tmp_path / "out"
    assert main(["--out", str(out), "audit", str(config)]) == 3
    audit = json.loads((out / "audit.json").read_text())
    assert audit["overall_pass"] is False
    assert audit["audits"]["majorization"]["passed"] is False


# --- demo command ---------------------------------------------------------------


def per_field_trace_csv(trace):
    """write_trace_csv's text with each field formatted on its own."""

    def fmt(v):
        return f"{float(v):.17g}"

    rows = [cli.TRACE_HEADER]
    for r in trace:
        fields = [str(r.iteration), fmt(r.f), fmt(r.f_after_g), fmt(r.dc_step)]
        rows.append(",".join(fields))
    return "\n".join(rows) + "\n"


def test_trace_csv_bytes_equal_per_field_formatting(tmp_path):
    values = [NAN, INF, -INF, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0, 2.0**-1022, 123456789.0, 1e16]
    n = len(values)
    trace = [
        IterationRecord(i, *(values[(i + k) % n] for k in (0, 1)), np.float64(values[(i + 7) % n]))
        for i in range(2 * n)
    ]
    for records in (trace, trace[:1], []):
        path = tmp_path / "trace.csv"
        cli.write_trace_csv(path, records)
        assert path.read_bytes() == per_field_trace_csv(records).encode()


def test_demo_subspace_mean(capsys):
    assert main(["demo", "subspace-mean", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("subspace-mean demo")
    assert "oracle gap" in lines[5]


def test_demo_deconv(capsys):
    assert main(["demo", "deconv", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("deconv demo")
    assert "recovery score" in lines[5]


def test_demo_unknown_kind(capsys):
    assert main(["demo", "wavelets"]) == 1
    assert "unknown kind" in capsys.readouterr().err


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["demo"])
    assert excinfo.value.code == 1
