import json

import numpy as np
import pytest

from grassmm import deconv
from grassmm.cli import ConfigError, load_config, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def deconv_payload(**overrides):
    payload = {
        "kind": "deconv",
        "seeds": [0],
        "problem": {"N": 32, "sparsity": 0.125, "kernel_support": 6, "lambda": 0.1},
    }
    payload.update(overrides)
    return payload


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
        (subspace_payload(problem={"N": 6, "D": 2, "M": 1}), r"problem\.M must be >= problem\.D"),
        (subspace_payload(solver={"max_iter": 0}), r"solver\.max_iter must be >= 1"),
        (subspace_payload(solver={"dist_tol": 0.0}), r"solver\.dist_tol must be > 0"),
        (subspace_payload(solver={"warm": 2}), "unknown key 'warm' in solver"),
        (subspace_payload(step_scale=0.0), "step_scale must be > 0"),
    ],
)
def test_load_config_rejections(tmp_path, payload, pattern):
    with pytest.raises(ConfigError, match=pattern):
        load_config(write_config(tmp_path, payload))


# --- run command ---------------------------------------------------------------


def test_run_writes_traces_and_report(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, subspace_payload(out=str(out)))
    assert main(["run", str(config)]) == 0

    for seed in (0, 1):
        lines = (out / f"trace_{seed}.csv").read_text().splitlines()
        assert lines[0] == "iter,f,f_after_G,dc_step,grad_norm_G,grad_norm_c"
        assert len(lines) > 1
        for row in lines[1:]:
            fields = row.split(",")
            assert len(fields) == 6
            int(fields[0])
            for field in fields[1:]:
                float(field)

    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "subspace-mean"
    assert set(report["runs"]) == {"0", "1"}
    for entry in report["runs"].values():
        assert set(entry) == {"converged", "iterations", "final_f", "final_dc", "stationarity_score"}
        assert entry["converged"] is True
        rows = len(lines) - 1  # one trace row per iteration
    assert report["runs"]["1"]["iterations"] == rows


def test_run_outputs_are_byte_identical(tmp_path):
    config = write_config(tmp_path, deconv_payload())
    assert main(["--out", str(tmp_path / "a"), "run", str(config)]) == 0
    assert main(["--out", str(tmp_path / "b"), "run", str(config)]) == 0
    for name in ("trace_0.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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


def test_run_long_signal_uses_fft_path(tmp_path):
    deconv._conv_index.cache_clear()
    problem = {"N": 4096, "sparsity": 0.0625, "kernel_support": 8, "lambda": 0.1}
    config = write_config(tmp_path, deconv_payload(problem=problem, solver={"max_iter": 20}))
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(config)]) == 2
    rows = np.loadtxt(out / "trace_0.csv", delimiter=",", skiprows=1, ndmin=2)
    report = json.loads((out / "report.json").read_text())["runs"]["0"]
    assert report["iterations"] == 20
    assert rows.shape == (20, 6)
    assert np.all(np.isfinite(rows))
    chain = np.append(rows[:, 1:3].ravel(), report["final_f"])  # f_0, f_after_G_0, f_1, ...
    assert np.all(np.diff(chain) <= 0.0)
    # every length seen is >= _FFT_MIN_N, so no O(N^2) index may have been built
    assert deconv._FFT_MIN_N <= 4096
    assert deconv._conv_index.cache_info().currsize == 0


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
