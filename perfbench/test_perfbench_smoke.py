"""Smoke mode of each workload at tiny size, and the shape of its output."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness

sys.path.insert(0, harness.SRC)  # the checkout's program, as run.py imports it

import illposed as ip  # noqa: E402
import layertrace  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import wl_cli  # noqa: E402
import wl_ensembles  # noqa: E402
import wl_spectra  # noqa: E402

with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def check_end_to_end(res, checks):
    assert checks.attempted > 0 and checks.failed == 0 and checks.bad == 0
    metrics = run.end_to_end(res)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", [wl_ensembles, wl_cli])
def test_smoke_workload_is_correct(workload):
    checks = harness.Checks()
    check_end_to_end(workload.run(7, 0.0, False, checks, smoke=True), checks)


def test_traced_smoke_reports_every_layer_and_restores_the_package():
    original = ip.gram_matrix
    tracer, checks = layertrace.Tracer(), harness.Checks()
    with layertrace.traced(tracer):
        assert ip.gram_matrix is not original
        res = wl_spectra.run(7, 0.0, True, checks, smoke=True)
    assert ip.gram_matrix is original and ip.integral_ops.gram_matrix is original
    check_end_to_end(res, checks)
    metrics = layertrace.layer_metrics(tracer.snapshot(), 1.0)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: m["unit"] for name, m in metrics.items()}
    assert metrics["spectral.certified_modes"]["value"] == 8 + 8 + 0 + 8
    assert metrics["spectral.decompose_operator_s"]["value"] > 0
    assert len(res["session"]) == 1


def test_traced_cli_child_matches_plain_cli(tmp_path):
    trace_file = str(tmp_path / "trace.json")
    proc = harness.run_child([wl_cli.TRACED_CHILD, trace_file, "figures", "--id", "3",
                              "--out-dir", str(tmp_path / "out")])
    assert proc.returncode == 2  # the published figure-3 caption does not reproduce
    with open(trace_file) as fh:
        stats = json.load(fh)["stats"]
    assert stats["cli.main_figures"]["calls"] == 1
    assert stats["adversarial.reproduce_figure"]["calls"] == 1
    assert stats["integral_ops.fourier_image_energy"]["calls"] == 1


def test_set_ups_run_before_between_and_after_the_rounds():
    built = iter(range(100))

    def one_round(obj, between, r):
        between()
        between()
        return obj

    times, results = harness.measure(lambda: next(built), one_round, 0.0, False, 2, 0.0)
    assert results == [1]  # one round, with the last set-up made before it
    assert len(times) == 2 + 2 + 1
    assert all(0 < import_s <= total for import_s, total in times)


def test_program_ensemble_recipe_matches_the_oracle_copy():
    from illposed.stability import make_rng, random_sine_series
    funcs = random_sine_series(ip.Interval(1.0, 2.0), 5, make_rng(123))
    expected = np.array([f.payload for f in funcs]).T
    rng = np.random.Generator(np.random.PCG64(123))
    assert np.array_equal(oracles.sine_series_ensemble(rng, 5, 1.0), expected)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(harness.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
