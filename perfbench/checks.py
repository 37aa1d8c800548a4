"""Output checks computed apart from the program.

Every quantity here is rebuilt from plain numpy: box rasterisation, block
downsampling of masks, per-token leakage, the box-control loss, the simplex
projection and the PCA projection. The program's own helpers for these
quantities are never called, so a fault in one of them shows up as a
disagreement instead of being checked against itself.

Each ``check_*`` function returns a list of failure messages; an empty list
means the operation's outputs are correct.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np

DECODER = "decoder"
CROSS = "CA"


# ---------------------------------------------------------------------------
# Masks and leakage
# ---------------------------------------------------------------------------

def raster_box(box, height: int, width: int) -> np.ndarray:
    """Boolean (height, width) grid of the cells whose centre lies in the
    closed box (x0, y0, x1, y1), given in [0, 1] image coordinates."""
    x0, y0, x1, y1 = box
    cy = (np.arange(height) + 0.5) / height
    cx = (np.arange(width) + 0.5) / width
    rows = (y0 <= cy) & (cy <= y1)
    cols = (x0 <= cx) & (cx <= x1)
    return rows[:, None] & cols[None, :]


def block_downsample(bits: np.ndarray, height: int, width: int) -> np.ndarray:
    """Boolean block-majority downsample: a coarse cell is set when at least
    half of the fine cells it covers are set."""
    bits = np.asarray(bits, dtype=np.float64)
    big_h, big_w = bits.shape
    blocks = bits.reshape(height, big_h // height, width, big_w // width)
    return blocks.mean(axis=(1, 3)) >= 0.5


def decoder_cross_maps(record) -> "list[np.ndarray]":
    """(height, width, tokens) arrays of the decoder cross-attention maps."""
    return [
        layer.amap.weights.reshape(layer.height, layer.width, -1)
        for layer in record.layers
        if layer.kind == DECODER and layer.attn_type == CROSS
    ]


def token_leakage(record, token: int, mask_bits: np.ndarray) -> float:
    """Share of a token's decoder cross-attention mass outside its mask,
    averaged over decoder cross-attention layers. The full-grid mask is
    block-downsampled to each layer's resolution."""
    values = []
    for amap in decoder_cross_maps(record):
        h, w, _ = amap.shape
        inside = block_downsample(mask_bits, h, w)
        col = amap[:, :, token]
        values.append(float(col[~inside].sum()) / float(col.sum()))
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# learn-seeds-8x8
# ---------------------------------------------------------------------------

def check_learn_sweep(c2f: "list[list[float]]", penalty: "list[list[float]]",
                      reward: "list[float]") -> "list[str]":
    """Coarse-to-fine learning must leak less, on the mean over the sweep's
    seeds and instances, than penalty-only learning on the same seeds and
    than the reward-only run on the first seed."""
    failures = []
    mean_c2f = float(np.mean(c2f))
    for label, other in (("penalty-only", float(np.mean(penalty))),
                         ("reward-only", float(np.mean(reward)))):
        if not mean_c2f < other:
            failures.append(
                f"mean coarse-to-fine leakage {mean_c2f:.4f} >= {label} {other:.4f}")
    return failures


# ---------------------------------------------------------------------------
# synth-boxes-64x64
# ---------------------------------------------------------------------------

def _score(fg: float, bg: float, alpha: float, out_of_box: bool) -> float:
    total = fg + bg
    score = (bg / total) ** 2 if total > 0.0 else 0.0
    if out_of_box:
        score += alpha * np.log1p(bg)
    return score


def box_control_loss(record, boxes, groups, alpha: float, lambda_ca: float,
                     lambda_sa: float, out_of_box: bool) -> float:
    """Sum over instances of the squared combined box score: per instance,
    the in-box and out-of-box squared attention energies are averaged over
    decoder cross-attention layers (the group's token columns) and decoder
    self-attention layers (rows of in-box pixels), then scored as
    (bg / (fg + bg))^2 plus, with the out-of-box term, alpha * log(1 + bg)."""
    total = 0.0
    for box, group in zip(boxes, groups):
        ca, sa = [], []
        for layer in record.layers:
            if layer.kind != DECODER:
                continue
            inside = raster_box(box, layer.height, layer.width).reshape(-1)
            a = layer.amap.weights
            if layer.attn_type == CROSS:
                sub = a[:, group]
                ca.append(((sub[inside] ** 2).sum(), (sub[~inside] ** 2).sum()))
            else:
                rows = a[inside]
                sa.append(((rows[:, inside] ** 2).sum(),
                           (rows[:, ~inside] ** 2).sum()))
        loss = lambda_ca * _score(*np.mean(ca, axis=0), alpha, out_of_box)
        if sa:
            loss += lambda_sa * _score(*np.mean(sa, axis=0), alpha, out_of_box)
        total += loss ** 2
    return float(total)


def check_synthesis(result, step1_loss: float, bound_steps: int) -> "list[str]":
    """Properties one box-controlled synthesis run must have on its own."""
    failures = []
    descents = sum(1 for s in result.steps[:bound_steps]
                   if s.total_after < s.total)
    if descents < bound_steps - 1:
        failures.append(
            f"only {descents} of {bound_steps} optimisation steps lowered the loss")
    if not np.all(np.isfinite(result.z_final)):
        failures.append("z_final has non-finite entries")
    if not result.refined:
        failures.append("refinement replaced no box mask")
    reported = result.steps[0].total
    if not abs(reported - step1_loss) <= 1e-9 * max(1.0, abs(step1_loss)):
        failures.append(
            f"step-1 control loss {reported!r} != recomputed {step1_loss!r}")
    return failures


def check_synthesis_pair(full_leak: "list[float]",
                         ablated_leak: "list[float]") -> "list[str]":
    """The out-of-box penalty must lower every instance's final leakage."""
    return [
        f"instance {i}: leakage with penalty {f:.4f} >= ablation {a:.4f}"
        for i, (f, a) in enumerate(zip(full_leak, ablated_leak))
        if not f < a
    ]


# ---------------------------------------------------------------------------
# experiment-16x16
# ---------------------------------------------------------------------------

def check_report(text: str) -> "list[str]":
    failures = []
    if "config hash: verified" not in text:
        failures.append("report does not show a verified config hash")
    if "MISSING" in text:
        failures.append("report lists missing outputs")
    return failures


def manifest_files(run_dir: str) -> "list[str]":
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        return sorted(json.load(fh)["outputs"]) + ["manifest.json"]


def check_rerun(first_dir: str, second_dir: str) -> "list[str]":
    """Two runs of one config must leave byte-identical manifest outputs."""
    names = manifest_files(first_dir)
    if manifest_files(second_dir) != names:
        return ["reruns list different outputs"]
    failures = []
    for name in names:
        with open(os.path.join(first_dir, name), "rb") as a, \
                open(os.path.join(second_dir, name), "rb") as b:
            if a.read() != b.read():
                failures.append(f"rerun changed {name}")
    return failures


def project_simplex(v: np.ndarray) -> "tuple[np.ndarray, float]":
    """Euclidean projection of a vector onto the probability simplex by
    bisection on the shift theta in sum(max(v - theta, 0)) = 1."""
    lo, hi = float(v.min()) - 1.0, float(v.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return np.maximum(v - theta, 0.0), theta


def check_oracle(path: str, k: int, alpha: float) -> "list[str]":
    """oracle.json against the benchmark's own optima: the costed reward
    optimum of each pixel is the simplex projection of its alpha-scaled
    membership vector, the penalty optimum puts all mass on the pixel's own
    token, and both descents must land within 1e-3 of them."""
    with open(path) as fh:
        report = json.load(fh)
    failures = []
    if report["k"] != k or report["alpha"] != alpha:
        failures.append(f"oracle.json is for k={report['k']}, alpha={report['alpha']}")
        return failures
    own = list(range(1, k + 1)) + [0]  # k instance pixels, then background
    reward = np.asarray(report["reward"]["analytic"])
    penalty = np.asarray(report["penalty"]["analytic"])
    mult = np.asarray(report["reward"]["multipliers"])
    for p, token in enumerate(own):
        target = np.zeros(k + 1)
        if token:
            target[token] = alpha
        proj, theta = project_simplex(target)
        if not np.allclose(reward[p], proj, rtol=0.0, atol=1e-12):
            failures.append(f"reward optimum of pixel {p} is not the projection")
        if not abs(mult[p] - 2.0 * theta) <= 1e-12:
            failures.append(f"reward multiplier of pixel {p} != 2 * theta")
        if not np.array_equal(penalty[p], np.eye(k + 1)[token]):
            failures.append(f"penalty optimum of pixel {p} is not one-hot")
    for name in ("reward", "penalty"):
        dev = report[name]["descent_max_dev"]
        if not dev <= 1e-3:
            failures.append(f"{name} descent deviates by {dev!r} > 1e-3")
    return failures


def pca_reference(z0: np.ndarray) -> np.ndarray:
    """Rows of the (H, W, d) latent projected on the two leading
    eigenvectors of their centred scatter matrix."""
    x = z0.reshape(-1, z0.shape[-1])
    xc = x - x.mean(axis=0)
    _, vecs = np.linalg.eigh(xc.T @ xc)
    return xc @ vecs[:, ::-1][:, :2]


def check_pca(path: str, z0: np.ndarray, labels: np.ndarray,
              tol: float = 1e-6) -> "list[str]":
    """pca.csv must hold every pixel once, with its instance label and the
    reference projection up to the sign of each component."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    height, width = labels.shape
    if len(rows) != height * width:
        return [f"pca.csv has {len(rows)} rows, expected {height * width}"]
    failures = []
    cells = [(int(r["row"]), int(r["col"])) for r in rows]
    if cells != [(r, c) for r in range(height) for c in range(width)]:
        failures.append("pca.csv rows are not the grid in row-major order")
    if [int(r["label"]) for r in rows] != labels.reshape(-1).tolist():
        failures.append("pca.csv labels differ from the instance masks")
    got = np.array([[float(r["pc1"]), float(r["pc2"])] for r in rows])
    ref = pca_reference(z0)
    for c in range(2):
        dev = min(np.abs(got[:, c] - ref[:, c]).max(),
                  np.abs(got[:, c] + ref[:, c]).max())
        if not dev <= tol:
            failures.append(f"pca component {c + 1} deviates by {dev:.3g}")
    return failures
