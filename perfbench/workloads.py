"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``__init__`` (the
set-up), offers a ``warmup`` that runs the same code paths once untimed, and
runs operation ``j`` with ``run(j)``, which returns the operation's outputs
and the seconds spent inside the program's entry points by each of its
``parts`` calls, which do equal work. ``check(j, out)`` verifies those
outputs with ``checks`` and returns failure messages. One operation does
``work`` units of ``work_unit``.

Program functions are always reached through their module attribute
(``learning.run_semantic_learning``), never through a name bound at import,
so the traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

from attnctl import cli, denoiser, learning, refine, scenario, synthesis

import checks


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class LearnSeeds:
    """Criterion 6's sweep at 8x8: five coarse-to-fine and five penalty-only
    learning runs on consecutive learning seeds, plus one reward-only run on
    the first of them. Operation j of workload seed s starts at learning
    seed 5 * (1000 * s + j), so seed 0's first sweep is criterion 6's own."""

    name = "learn-seeds-8x8"
    grid = 8
    dim = 16
    seeds_per_sweep = 5
    iters = 800
    parts = 2 * seeds_per_sweep + 1
    work = parts * iters
    work_unit = "learn iter"

    def __init__(self, seed: int, out_root: str):
        self.seed = seed
        self.scenario = scenario.generate_scenario(
            (self.grid, self.grid), 2, rho=0.8, seed=0, dim=self.dim)
        self.params = denoiser.default_params(self.dim, self.grid, self.grid, seed=7)
        self.schedule = denoiser.toy_schedule(50, 0.9999, 0.9)
        self.instances = self.scenario.instance_set()

    def _learn(self, coarse_iters: int, learn_seed: int):
        config = learning.LearningConfig(
            total_iters=self.iters, stage1_iters=self.iters,
            coarse_iters=coarse_iters, learn_rate=21000.0, lambda_attn=1.0,
            lambda_rec=0.0, seed=learn_seed)
        return _timed(learning.run_semantic_learning, self.scenario, config,
                      schedule=self.schedule, params=self.params)

    def warmup(self) -> None:
        self._learn(200, 0)

    def run(self, j: int):
        base = self.seeds_per_sweep * (1000 * self.seed + j)
        seeds = range(base, base + self.seeds_per_sweep)
        runs, seconds = {}, []
        for label, coarse in (("c2f", 200), ("penalty", 0)):
            for s in seeds:
                runs[(label, s)], dt = self._learn(coarse, s)
                seconds.append(dt)
        runs[("reward", base)], dt = self._learn(self.iters, base)
        return (base, runs), seconds + [dt]

    def _leakage(self, result) -> "list[float]":
        _, record = denoiser.forward_denoise(
            self.scenario.z0, 0, result.tokens, result.params, self.schedule)
        return [checks.token_leakage(record, token, self.instances.masks[i].bits)
                for i, token in enumerate(self.instances.placeholder_ids)]

    def check(self, j: int, out) -> "list[str]":
        base, runs = out
        seeds = range(base, base + self.seeds_per_sweep)
        c2f = [self._leakage(runs[("c2f", s)]) for s in seeds]
        penalty = [self._leakage(runs[("penalty", s)]) for s in seeds]
        reward = self._leakage(runs[("reward", base)])
        return checks.check_learn_sweep(c2f, penalty, reward)

    def kernel_inputs(self):
        return self.params, self.scenario.z0, 3


class SynthBoxes:
    """Criterion 7's box-controlled synthesis carried to 64x64 with
    refinement on: one run with the out-of-box penalty and one without, from
    the same seeded initial latent. The latent and the synthesis seed (which
    seeds K-means) come from the workload seed."""

    name = "synth-boxes-64x64"
    grid = 64
    dim = 16
    gain = 10.0
    beta = 128.0
    parts = 2
    work_unit = "synth step"

    def __init__(self, seed: int, out_root: str):
        self.rng = np.random.default_rng(seed)
        self.scenario = scenario.generate_scenario(
            (self.grid, self.grid), 2, rho=0.8, seed=0, dim=self.dim)
        self.params = denoiser.default_params(self.dim, self.grid, self.grid, seed=7)
        self.tokens = scenario.synthesis_tokens(self.scenario, gain=self.gain)
        self.boxes = self.scenario.boxes()
        self.box_tuples = [(b.x0, b.y0, b.x1, b.y1) for b in self.boxes]
        self.groups = [[i + 1] for i in range(len(self.boxes))]
        self.sched = synthesis.ScheduleParams()
        self.refinement = refine.RefinementConfig()
        self.steps = synthesis.SynthesisConfig().total_steps
        self.schedule = denoiser.toy_schedule(self.steps)
        self.work = self.parts * self.steps

    def _config(self, synth_seed: int, out_of_box: bool):
        return synthesis.SynthesisConfig(beta=self.beta, seed=synth_seed,
                                         use_out_of_box=out_of_box)

    def _synthesize(self, latent, synth_seed: int, out_of_box: bool):
        return _timed(synthesis.run_synthesis, self.tokens, self.params,
                      self.boxes, self._config(synth_seed, out_of_box),
                      sched=self.sched, schedule=self.schedule,
                      refinement=self.refinement, initial_latent=latent)

    def _draw(self):
        latent = self.rng.standard_normal((self.grid, self.grid, self.dim))
        return latent, int(self.rng.integers(0, 2 ** 31))

    def warmup(self) -> None:
        latent = np.random.default_rng(2 ** 32 - 1).standard_normal(
            (self.grid, self.grid, self.dim))
        self._synthesize(latent, 0, True)

    def run(self, j: int):
        latent, synth_seed = self._draw()
        full, t_full = self._synthesize(latent, synth_seed, True)
        ablated, t_ablated = self._synthesize(latent, synth_seed, False)
        return (latent, synth_seed, full, ablated), [t_full, t_ablated]

    def _record(self, z):
        _, record = denoiser.forward_denoise(z, self.steps - 1, self.tokens,
                                             self.params, self.schedule)
        return record

    def _final_leakage(self, z) -> "list[float]":
        record = self._record(z)
        return [checks.token_leakage(record, group[0],
                                     checks.raster_box(box, self.grid, self.grid))
                for box, group in zip(self.box_tuples, self.groups)]

    def check(self, j: int, out) -> "list[str]":
        latent, synth_seed, full, ablated = out
        start_record = self._record(latent)
        failures = []
        for label, result, out_of_box in (("penalty", full, True),
                                          ("ablation", ablated, False)):
            config = self._config(synth_seed, out_of_box)
            step1 = checks.box_control_loss(
                start_record, self.box_tuples, self.groups,
                self.sched.alpha_max, config.lambda_ca,
                config.lambda_sa, out_of_box)
            failures += [f"{label}: {msg}" for msg in checks.check_synthesis(
                result, step1, config.bound_steps)]
        if np.all(np.isfinite(full.z_final)) and np.all(np.isfinite(ablated.z_final)):
            failures += checks.check_synthesis_pair(
                self._final_leakage(full.z_final),
                self._final_leakage(ablated.z_final))
        return failures

    def kernel_inputs(self):
        latent = np.random.default_rng(0).standard_normal(
            (self.grid, self.grid, self.dim))
        return self.params, latent, len(self.tokens)


class ExperimentCommand:
    """``attnctl experiment`` on a default 16x16 config, through ``cli.main``
    in this process. Command j of workload seed s uses scenario seed
    1000 * s + j. The warm-up runs command 0's config, and command 0 is
    checked byte for byte against it."""

    name = "experiment-16x16"
    grid = 16
    instances = 2
    alpha = 0.5
    parts = 1
    work = 1
    work_unit = "command"

    def __init__(self, seed: int, out_root: str):
        self.seed = seed
        self.out_root = out_root

    def scenario_seed(self, j: int) -> int:
        return 1000 * self.seed + j

    def config_text(self, j: int) -> str:
        return (f"[scenario]\nheight = {self.grid}\nwidth = {self.grid}\n"
                f"seed = {self.scenario_seed(j)}\n")

    def _command(self, j: int, tag: str):
        config = os.path.join(self.out_root, f"{tag}.ini")
        with open(config, "w") as fh:
            fh.write(self.config_text(j))
        run_dir = os.path.join(self.out_root, tag)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code, seconds = _timed(cli.main, ["experiment", config, "--out", run_dir])
        return (run_dir, code, stdout.getvalue()), seconds

    def warmup(self) -> None:
        self._command(0, "warmup")

    def run(self, j: int):
        out, seconds = self._command(j, f"cmd{j}")
        return out, [seconds]

    def check(self, j: int, out) -> "list[str]":
        run_dir, code, text = out
        if code != 0:
            return [f"attnctl experiment exited with {code}"]
        failures = checks.check_report(text)
        if j == 0:
            failures += checks.check_rerun(os.path.join(self.out_root, "warmup"),
                                           run_dir)
        failures += checks.check_oracle(os.path.join(run_dir, "oracle.json"),
                                        self.instances, self.alpha)
        failures += self.check_pca(j, run_dir)
        return failures

    def check_pca(self, j: int, run_dir: str) -> "list[str]":
        scen = scenario.generate_scenario(
            (self.grid, self.grid), self.instances, rho=0.8,
            seed=self.scenario_seed(j))
        labels = -np.ones((self.grid, self.grid), dtype=np.int64)
        for i, mask in enumerate(scen.masks):
            labels[mask.bits == 1] = i
        return checks.check_pca(os.path.join(run_dir, "pca.csv"),
                                np.asarray(scen.z0), labels)

    def kernel_inputs(self):
        scen = scenario.generate_scenario((self.grid, self.grid), self.instances,
                                          rho=0.8, seed=0)
        params = denoiser.default_params(scen.dim, self.grid, self.grid, seed=0)
        return params, np.asarray(scen.z0), self.instances + 1


WORKLOADS = {
    LearnSeeds.name: LearnSeeds,
    SynthBoxes.name: SynthBoxes,
    ExperimentCommand.name: ExperimentCommand,
}
