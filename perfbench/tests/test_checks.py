"""Each independent check passes on the program's current outputs and fails
on a perturbed copy of them.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from attnctl.core import AttentionMap, AttentionRecord, LayerAttention

import checks
import spans
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


# ---------------------------------------------------------------------------
# Shared quantities against hand computations
# ---------------------------------------------------------------------------

def test_raster_box_keeps_cells_whose_centre_is_inside():
    bits = checks.raster_box((0.25, 0.0, 0.75, 0.5), 4, 4)
    assert bits.astype(int).tolist() == [
        [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


def test_token_leakage_by_hand():
    # One 2x2 decoder CA layer, two tokens; token 1's mass is 0.7, 0.1, 0.1,
    # 0.1 and its 4x4 mask covers only the top-left 2x2 block.
    weights = np.array([[0.3, 0.7], [0.9, 0.1], [0.9, 0.1], [0.9, 0.1]])
    record = AttentionRecord((
        LayerAttention("decoder", "CA", 2, 2, AttentionMap(weights)),))
    mask = np.zeros((4, 4), dtype=np.uint8)
    mask[:2, :2] = 1
    assert checks.token_leakage(record, 1, mask) == pytest.approx(0.3 / 1.0)


def test_project_simplex_matches_closed_form():
    proj, theta = checks.project_simplex(np.array([0.0, 0.5, 0.0]))
    assert proj == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-14)
    assert theta == pytest.approx(-1 / 6, abs=1e-14)


# ---------------------------------------------------------------------------
# learn-seeds-8x8
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def learn():
    workload = workloads.LearnSeeds(0, "")
    out, _ = workload.run(0)
    return workload, out


def test_learn_sweep_passes(learn):
    workload, out = learn
    assert workload.check(0, out) == []


def test_learn_sweep_fails_when_c2f_is_reward_only(learn):
    workload, (base, runs) = learn
    runs = {(k, s): (runs[("reward", base)] if k == "c2f" else r)
            for (k, s), r in runs.items()}
    assert any("reward-only" in m for m in workload.check(0, (base, runs)))


def test_learn_sweep_fails_when_c2f_and_penalty_swap(learn):
    workload, (base, runs) = learn
    swapped = {(("penalty" if k == "c2f" else "c2f" if k == "penalty" else k), s): r
               for (k, s), r in runs.items()}
    assert any("penalty-only" in m for m in workload.check(0, (base, swapped)))


# ---------------------------------------------------------------------------
# synth-boxes-64x64
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synth():
    workload = workloads.SynthBoxes(0, "")
    out, _ = workload.run(0)
    return workload, out


def _with_full(out, **changes):
    latent, seed, full, ablated = out
    return latent, seed, dataclasses.replace(full, **changes), ablated


def test_synthesis_passes(synth):
    workload, out = synth
    assert workload.check(0, out) == []


def test_synthesis_fails_on_two_rising_steps(synth):
    workload, out = synth
    steps = list(out[2].steps)
    for i in (3, 7):
        steps[i] = dataclasses.replace(steps[i], total_after=steps[i].total + 1.0)
    failures = workload.check(0, _with_full(out, steps=steps))
    assert any("13 of 15" in m for m in failures)


def test_synthesis_fails_on_non_finite_latent(synth):
    workload, out = synth
    z = out[2].z_final.copy()
    z[0, 0, 0] = np.nan
    failures = workload.check(0, _with_full(out, z_final=z))
    assert any("non-finite" in m for m in failures)


def test_synthesis_fails_without_refinement(synth):
    workload, out = synth
    failures = workload.check(0, _with_full(out, refined=False))
    assert any("refinement" in m for m in failures)


def test_synthesis_fails_on_wrong_step1_loss(synth):
    workload, out = synth
    steps = list(out[2].steps)
    steps[0] = dataclasses.replace(steps[0], total=steps[0].total * (1 + 1e-6))
    failures = workload.check(0, _with_full(out, steps=steps))
    assert any("step-1 control loss" in m for m in failures)


def test_synthesis_fails_when_penalty_and_ablation_swap(synth):
    workload, (latent, seed, full, ablated) = synth
    swapped = (latent, seed,
               dataclasses.replace(full, z_final=ablated.z_final),
               dataclasses.replace(ablated, z_final=full.z_final))
    failures = workload.check(0, swapped)
    assert any("leakage with penalty" in m for m in failures)


# ---------------------------------------------------------------------------
# experiment-16x16
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    workload = workloads.ExperimentCommand(0, str(tmp_path_factory.mktemp("exp")))
    workload.warmup()
    out, _ = workload.run(0)
    return workload, out


def _copy_run(out, tmp_path):
    run_dir, code, text = out
    copy = str(tmp_path / "run")
    shutil.copytree(run_dir, copy)
    return copy, (copy, code, text)


def test_experiment_passes(experiment):
    workload, out = experiment
    assert workload.check(0, out) == []


@pytest.mark.parametrize("line", ["config hash: MISMATCH",
                                  "MISSING outputs: pca.csv"])
def test_experiment_fails_on_bad_report(experiment, line):
    workload, (run_dir, code, text) = experiment
    text = text.replace("config hash: verified", line)
    assert workload.check(0, (run_dir, code, text))


def test_experiment_fails_on_changed_rerun_byte(experiment, tmp_path):
    workload, out = experiment
    copy, perturbed = _copy_run(out, tmp_path)
    path = os.path.join(copy, "metrics.csv")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    with open(path, "wb") as fh:
        fh.write(data)
    assert "rerun changed metrics.csv" in workload.check(0, perturbed)


def _edit_oracle(copy, edit):
    path = os.path.join(copy, "oracle.json")
    with open(path) as fh:
        report = json.load(fh)
    edit(report)
    with open(path, "w") as fh:
        json.dump(report, fh)


@pytest.mark.parametrize("edit", [
    lambda r: r["reward"]["analytic"][0].__setitem__(1, r["reward"]["analytic"][0][1] + 1e-6),
    lambda r: r["reward"]["multipliers"].__setitem__(0, 0.0),
    lambda r: r["penalty"]["analytic"][2].__setitem__(0, 0.5),
    lambda r: r["reward"].__setitem__("descent_max_dev", 2e-3),
    lambda r: r["penalty"].__setitem__("descent_max_dev", 2e-3),
])
def test_experiment_fails_on_perturbed_oracle(experiment, tmp_path, edit):
    workload, out = experiment
    copy, _ = _copy_run(out, tmp_path)
    _edit_oracle(copy, edit)
    assert checks.check_oracle(os.path.join(copy, "oracle.json"),
                               workload.instances, workload.alpha)


def _pca_rows(copy):
    with open(os.path.join(copy, "pca.csv")) as fh:
        lines = fh.read().splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


def _write_pca(copy, header, rows):
    with open(os.path.join(copy, "pca.csv"), "w") as fh:
        fh.write("\n".join([header] + [",".join(r) for r in rows]) + "\n")


def test_pca_passes_with_a_component_sign_flipped(experiment, tmp_path):
    workload, out = experiment
    copy, _ = _copy_run(out, tmp_path)
    header, rows = _pca_rows(copy)
    for r in rows:
        r[4] = repr(-float(r[4]))
    _write_pca(copy, header, rows)
    assert workload.check_pca(0, copy) == []


@pytest.mark.parametrize("column, value", [(3, 1e-3), (2, None)])
def test_pca_fails_on_perturbed_value_or_label(experiment, tmp_path, column, value):
    workload, out = experiment
    copy, _ = _copy_run(out, tmp_path)
    header, rows = _pca_rows(copy)
    if value is None:
        rows[0][column] = "5"
    else:
        rows[0][column] = repr(float(rows[0][column]) + value)
    _write_pca(copy, header, rows)
    assert workload.check_pca(0, copy)


# ---------------------------------------------------------------------------
# Tracing and the benchmark's contract
# ---------------------------------------------------------------------------

def test_tracer_folds_nested_calls_and_reports_absent_names():
    from attnctl import denoiser

    tracer = spans.Tracer(spans.SPANS + (
        spans.Span("refine.missing", "attnctl.refine", ("no_such_function",)),))
    tracer.install()
    try:
        schedule = denoiser.toy_schedule(10)
        z = np.zeros((2, 2, 4))
        denoiser.ddim_step(z, z, 5, 4, schedule)          # not recording
        with tracer.active():
            denoiser.ddim_step(z, z, 5, 4, schedule)      # calls predict_clean
    finally:
        tracer.uninstall()
    assert tracer.calls["denoiser.ddim"] == 1
    assert tracer.absent == {"refine.missing": "attnctl.refine has no no_such_function"}
    assert denoiser.ddim_step.__module__ == "attnctl.denoiser"
    assert not hasattr(denoiser.ddim_step, "__wrapped__")


def test_declared_per_layer_metrics_are_all_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"] for m in spec["per_layer"]}
    kernels = {f"{mod}.{layer}.{kind}"
               for mod, kind in (("denoiser", "fwd_us"), ("gradients", "bwd_us"))
               for layer in ("enc_ca", "dec_ca", "dec_sa")}
    assert declared == set(spans.SPAN_METRICS) | kernels


def test_workload_names_agree():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learn-seeds-8x8",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
