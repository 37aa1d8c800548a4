"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Run with plain ``pytest tests/test_acceptance.py``; each test prints
``criterion N (<name>): PASS|FAIL`` directly to the terminal and then asserts
the individual conditions, so a red run still shows which check broke.
"""
import json
import time

import numpy as np
import pytest

from attnctl.core import BinaryMask
from attnctl.denoiser import default_params, forward_denoise, toy_schedule
from attnctl.gradcheck import run_gradcheck
from attnctl.harness import run_experiment
from attnctl.kkt import (
    penalty_optimum,
    projected_descent,
    reward_stationary_point,
    standard_problem,
)
from attnctl.learning import (
    InstanceSet,
    LearningConfig,
    joint_sample,
    run_semantic_learning,
)
from attnctl.refine import assign_clusters, kmeans_self_attention
from attnctl.scenario import generate_scenario, leakage_mass, synthesis_tokens
from attnctl.synthesis import (
    ScheduleParams,
    SynthesisConfig,
    alpha_decay,
    run_synthesis,
)


def _report(capsys, number: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# 1-2: closed-form per-pixel optima vs projected descent
# ---------------------------------------------------------------------------

def test_criterion_1_reward_fixed_point(capsys):
    start = time.perf_counter()
    problem = standard_problem(2, 0.5)
    analytic = reward_stationary_point(problem, "costed")
    rng = np.random.default_rng(0)
    max_dev = 0.0
    max_mult_dev = 0.0
    for _ in range(20):
        init = rng.dirichlet(np.ones(3), size=3)
        res = projected_descent(problem, "reward", init=init)
        max_dev = max(max_dev, float(np.max(np.abs(res.dist - analytic.dist))))
        # Multiplier read off the converged point: on a full support the
        # negative gradient is constant and equals the multiplier.
        mult = float(np.mean(-2.0 * (res.dist[0] - problem.targets()[0])))
        max_mult_dev = max(max_mult_dev, abs(mult - (-1.0 / 3.0)))
    elapsed = time.perf_counter() - start

    ok = (max_dev <= 1e-3 and max_mult_dev <= 1e-3 and elapsed < 1.0
          and abs(analytic.dist[0, 2] - 1.0 / 6.0) < 1e-12
          and abs(analytic.multipliers[0] - (-1.0 / 3.0)) < 1e-12)
    _report(capsys, 1, "reward KKT fixed point", ok)
    assert analytic.dist[0, 2] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert analytic.multipliers[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert max_dev <= 1e-3
    assert max_mult_dev <= 1e-3
    assert elapsed < 1.0


def test_criterion_2_penalty_uniqueness(capsys):
    start = time.perf_counter()
    max_dev = 0.0
    for k in (1, 2, 4):
        problem = standard_problem(k, 0.5)
        opt = penalty_optimum(problem)
        rng = np.random.default_rng(k)
        for _ in range(20):
            init = rng.dirichlet(np.ones(k + 1), size=k + 1)
            res = projected_descent(problem, "penalty", init=init)
            max_dev = max(max_dev, float(np.max(np.abs(res.dist - opt))))
    elapsed = time.perf_counter() - start

    ok = max_dev <= 1e-3 and elapsed < 1.0
    _report(capsys, 2, "penalty KKT uniqueness", ok)
    assert max_dev <= 1e-3
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3: hand gradients vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_suite(capsys):
    start = time.perf_counter()
    results = run_gradcheck(seed=0)
    elapsed = time.perf_counter() - start
    worst = max(r.max_rel for r in results)

    ok = worst <= 1e-5 and elapsed < 10.0
    _report(capsys, 3, "gradient suite", ok)
    names = {r.name for r in results}
    assert any("wrt_embeddings" in n for n in names)
    assert any("wrt_latent" in n for n in names)
    assert worst <= 1e-5, sorted((r.max_rel, r.name) for r in results)[-3:]
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 4: penalty-weight decay identities
# ---------------------------------------------------------------------------

def test_criterion_4_schedule_identities(capsys):
    sched = ScheduleParams()  # 0.5 / 0.2 / 0.1, linear end 3, horizon 15
    values = [alpha_decay(t, sched, 15) for t in range(1, 16)]

    anchors = (values[0] == 0.5 and values[2] == 0.2 and values[14] == 0.1)
    mid = values[8] == pytest.approx(0.15, abs=1e-15)
    monotone = all(a >= b for a, b in zip(values, values[1:]))
    ok = anchors and mid and monotone
    _report(capsys, 4, "schedule identities", ok)
    assert values[0] == 0.5
    assert values[2] == 0.2
    assert values[14] == 0.1
    assert values[8] == pytest.approx(0.15, abs=1e-15)
    assert monotone


# ---------------------------------------------------------------------------
# 5: joint subset sampling coverage
# ---------------------------------------------------------------------------

def test_criterion_5_joint_sampling(capsys):
    bits = np.zeros((3, 4, 4), dtype=np.uint8)
    for i in range(3):
        bits[i, :, i] = 1
    instances = InstanceSet(tuple(BinaryMask(b) for b in bits), (1, 2, 3))
    rng = np.random.default_rng(0)
    counts = {}
    for _ in range(10_000):
        draw = joint_sample(instances, rng)
        counts[draw.instance_indices] = counts.get(draw.instance_indices, 0) + 1

    freqs = {k: v / 10_000 for k, v in counts.items()}
    ok = (len(counts) == 7
          and all(abs(f - 1.0 / 7.0) <= 0.015 for f in freqs.values()))
    _report(capsys, 5, "joint sampling coverage", ok)
    assert len(counts) == 7
    for subset, freq in sorted(freqs.items()):
        assert abs(freq - 1.0 / 7.0) <= 0.015, (subset, freq)


# ---------------------------------------------------------------------------
# 6: coarse-to-fine vs reward-only / penalty-only learning
# ---------------------------------------------------------------------------

def _final_leakage(coarse_iters: int, seed: int) -> "list[float]":
    scenario = generate_scenario((8, 8), 2, rho=0.8, seed=0, dim=16)
    params = default_params(16, 8, 8, seed=7)
    schedule = toy_schedule(50, 0.9999, 0.9)
    config = LearningConfig(
        total_iters=800, stage1_iters=800, coarse_iters=coarse_iters,
        learn_rate=21000.0, lambda_attn=1.0, lambda_rec=0.0, seed=seed,
    )
    result = run_semantic_learning(scenario, config, schedule=schedule,
                                   params=params)
    _, record = forward_denoise(scenario.z0, 0, result.tokens, result.params,
                                schedule)
    instances = scenario.instance_set()
    return [leakage_mass(record, token, instances.masks[i])
            for i, token in enumerate(instances.placeholder_ids)]


def test_criterion_6_coarse_to_fine_learning(capsys):
    start = time.perf_counter()
    c2f = {s: _final_leakage(200, s) for s in range(5)}
    penalty_only = {s: _final_leakage(0, s) for s in range(5)}
    reward_only = _final_leakage(800, 0)
    elapsed = time.perf_counter() - start

    def spread(runs):
        means = [float(np.mean(runs[s])) for s in range(5)]
        return max(means) - min(means)

    halved = all(c2f[0][i] <= 0.5 * reward_only[i] for i in range(2))
    seed_sensitivity = spread(penalty_only) >= 2.0 * spread(c2f)
    ok = halved and seed_sensitivity and elapsed < 120.0
    _report(capsys, 6, "coarse-to-fine disentanglement", ok)
    for i in range(2):
        assert c2f[0][i] <= 0.5 * reward_only[i], (i, c2f[0][i], reward_only[i])
    assert spread(penalty_only) >= 2.0 * spread(c2f), (
        spread(penalty_only), spread(c2f))
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 7: box-guided synthesis vs out-of-box ablation
# ---------------------------------------------------------------------------

def test_criterion_7_synthesis_control(capsys):
    start = time.perf_counter()
    scenario = generate_scenario((8, 8), 2, rho=0.8, seed=0, dim=16)
    params = default_params(16, 8, 8, seed=7)
    tokens = synthesis_tokens(scenario, gain=10.0)
    boxes = scenario.boxes()

    def run(use_out_of_box: bool):
        config = SynthesisConfig(beta=128.0, seed=0,
                                 use_out_of_box=use_out_of_box)
        return run_synthesis(tokens, params, boxes, config,
                             sched=ScheduleParams(),
                             schedule=toy_schedule(config.total_steps))

    full = run(True)
    ablated = run(False)
    elapsed = time.perf_counter() - start

    descents = sum(1 for s in full.steps[:15] if s.total_after < s.total)
    full_leak = full.steps[-1].leakage
    ablated_leak = ablated.steps[-1].leakage
    lower = all(f < a for f, a in zip(full_leak, ablated_leak))
    ok = descents >= 14 and lower and elapsed < 60.0
    _report(capsys, 7, "synthesis box control", ok)
    assert descents >= 14, descents
    for i, (f, a) in enumerate(zip(full_leak, ablated_leak)):
        assert f < a, (i, f, a)
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8: K-means mask refinement on separated feature clusters
# ---------------------------------------------------------------------------

def test_criterion_8_mask_refinement(capsys):
    truth1 = np.zeros((8, 8), dtype=np.uint8)
    truth1[2:6, 0:3] = 1
    truth2 = np.zeros((8, 8), dtype=np.uint8)
    truth2[2:6, 4:7] = 1
    labels = np.zeros((8, 8), dtype=np.int64)
    labels[truth1 == 1] = 1
    labels[truth2 == 1] = 2
    centers = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
    rng = np.random.default_rng(0)
    features = centers[labels.reshape(-1)] + 0.1 * rng.standard_normal((64, 3))

    # Coarse masks: the truth with one dropped pixel and one stray pixel each.
    coarse1 = truth1.copy()
    coarse1[2, 0] = 0
    coarse1[0, 0] = 1
    coarse2 = truth2.copy()
    coarse2[5, 6] = 0
    coarse2[7, 7] = 1
    coarse = [BinaryMask(coarse1), BinaryMask(coarse2)]

    state = kmeans_self_attention(features, 3, seed=0)
    refined = assign_clusters(coarse, state, sigma_cluster=0.5)

    def iou(mask: BinaryMask, truth: np.ndarray) -> float:
        a = mask.flat() > 0.5
        b = truth.reshape(-1) > 0.5
        return float((a & b).sum()) / float((a | b).sum())

    ious = [iou(refined[0], truth1), iou(refined[1], truth2)]
    warm = kmeans_self_attention(features, 3, prev_centers=state.centers)
    reassigned = int((warm.assignments != state.assignments).sum())

    ok = all(v >= 0.9 for v in ious) and warm.n_iter == 1 and reassigned == 0
    _report(capsys, 8, "mask refinement", ok)
    assert ious[0] >= 0.9 and ious[1] >= 0.9, ious
    assert warm.n_iter == 1
    assert reassigned == 0


# ---------------------------------------------------------------------------
# 9: byte-identical reruns
# ---------------------------------------------------------------------------

REPRO_CONFIG = """\
[scenario]
height = 8
width = 8
instances = 2
rho = 0.8
seed = 0

[learning]
total_iters = 20
stage1_iters = 15
coarse_iters = 5

[synthesis]
total_steps = 16
"""


def test_criterion_9_reproducibility(capsys, tmp_path):
    config = tmp_path / "repro.ini"
    config.write_text(REPRO_CONFIG)
    run_experiment(str(config), str(tmp_path / "a"))
    run_experiment(str(config), str(tmp_path / "b"))
    with open(tmp_path / "a" / "manifest.json") as fh:
        names = json.load(fh)["outputs"] + ["manifest.json"]

    differing = [
        name for name in names
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    ok = not differing
    _report(capsys, 9, "byte-identical reruns", ok)
    assert not differing, differing
