"""The benchmark's workloads: seeded inputs, one operation, and its checks.

Model workloads classify PPM images with presets whose weights were
written to ``.rftw`` files by ``prepare.py`` (in a child process, which
also computes the f64 reference logits). The gradient-check workload
runs ``gradcheck_suite`` one (block, seed) pair at a time.

The package is reached through module attributes at call time
(``netpbm.read_ppm``, not a bound name), so the tracer's wrappers, when
installed, see every call. ``src`` must be on ``sys.path`` before this
module is imported.
"""

from __future__ import annotations

import gc
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference
from macs import README_MACS_224, model_tally
from raftmlp import adapt, container, cost, models, netpbm, ops, selftest

# Largest |logit - reference| allowed, as a share of the largest |reference logit|.
TOLERANCE = 1e-4
NATIVE = (224, 224)

# s-adapt: the grid each image snaps to, and whether its own size is off
# that grid. The seed picks each off-grid size inside the snapping window,
# so every seed runs the same work after the pre-resize.
ADAPT_BUCKETS = (
    ((224, 224), False),
    ((192, 128), True),
    ((256, 192), True),
    ((224, 224), False),
    ((128, 288), True),
    ((224, 224), True),
    ((288, 288), True),
    ((320, 288), True),
)

GRADCHECK_BLOCKS = ("mixing", "vertical", "horizontal", "raft", "channel", "embed", "model")
# Gradient-check seeds cycle through 0..399, where every block passes. Some
# seeds outside that range fail the suite's relative-error test on a
# near-zero gradient coordinate (a FOUND line in CHANGES.md), so they are left out.
GRADCHECK_SEED_POOL = 400


def image_specs(workload: str, seed: int) -> list:
    """(height, width, native) of each input image, in round order."""
    if workload == "s224":
        return [NATIVE + (True,)] * 8
    if workload == "b16-ablation":
        return [NATIVE + (True,)] * 2
    if workload == "s-adapt":
        rng = np.random.default_rng([seed, 1])
        specs = []
        for (th, tw), off_grid in ADAPT_BUCKETS:
            h, w = th, tw
            while off_grid and (h, w) == (th, tw):
                # snap() maps [t - 16, t + 15] onto t for a stride of 32.
                h, w = (int(t + rng.integers(-16, 16)) for t in (th, tw))
            specs.append((h, w, not off_grid))
        return specs
    return []


def image_pixels(seed: int, index: int, h: int, w: int) -> np.ndarray:
    return np.random.default_rng([seed, 2, index]).integers(0, 256, (h, w, 3), dtype=np.uint8)


def write_ppm(path, pixels: np.ndarray) -> None:
    h, w, _ = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def param_digests(params: dict) -> dict:
    """sha256 of each tensor's dtype, shape and bytes."""
    out = {}
    for name, tensor in params.items():
        arr = tensor.numpy()
        h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
        out[name] = h.hexdigest()
    return out


def logits_error(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


class ModelBench:
    """Classify seeded images with one or more presets loaded from .rftw files."""

    stages = (
        "netpbm.read_ppm", "adapt.pre_resize", "embed", "token_mix.raft", "token_mix.plain",
        "adapt.sandwich.self", "channel_mix", "head",
    )

    def __init__(self, workload: str, seed: int, workdir: Path, presets: tuple, adapted: bool):
        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.presets = presets
        self.adapted = adapted
        self.specs = image_specs(workload, seed)
        self.models = {}
        self._first = {}
        self._native = {}
        self._op_macs = {}

    def image_path(self, index: int) -> Path:
        return self.workdir / f"img{index}.ppm"

    def weights_path(self, preset: str) -> Path:
        return self.workdir / f"{preset}.rftw"

    def resolution(self, index: int) -> tuple:
        h, w, _ = self.specs[index]
        if not self.adapted:
            return (h, w)
        stride = reference.ARCHS[self.presets[0]].total_stride
        return (reference.snap(h, stride), reference.snap(w, stride))

    def prepare(self) -> None:
        """Write images, weights, digests and reference logits in a child process."""
        script = Path(__file__).with_name("prepare.py")
        subprocess.run(
            [sys.executable, str(script), "--workload", self.workload, "--seed", str(self.seed),
             "--out", str(self.workdir)],
            check=True, timeout=150, stdout=subprocess.DEVNULL,
        )
        self.load_prepared()

    def load_prepared(self) -> None:
        with np.load(self.workdir / "reference.npz") as refs:
            self.refs = {(p, int(i)): refs[k] for k in refs.files for p, i in [k.split("|")]}
        self.digests = json.loads((self.workdir / "digests.json").read_text())

    def round(self, index: int) -> list:
        return [(p, i) for i in range(len(self.specs)) for p in self.presets]

    def release(self) -> None:
        """Drop the loaded models, so the next set-up starts from nothing."""
        self.models = {}
        gc.collect()

    def setup_once(self) -> list:
        """Fresh skeletons, loaded weights, one warm-up op per preset."""
        warm = []
        for preset in self.presets:
            skeleton = models.build_preset(preset, init="zeros")
            self.models[preset] = container.load_weights(skeleton, self.weights_path(preset))
            key = (preset, 0)
            warm.append((key, self.run(key)))
        return warm

    def run(self, key):
        preset, index = key
        image = netpbm.read_ppm(self.image_path(index))
        fwd = adapt.forward_adapted if self.adapted else models.forward
        logits = fwd(self.models[preset], image)
        return logits, ops.softmax(logits)

    def check(self, key, out):
        """None when the op's output is right, else what is wrong."""
        logits, probs = (t.numpy() for t in out)
        if logits.shape != (1000,) or not np.isfinite(logits).all():
            return f"logits shape {logits.shape} or non-finite values"
        err = logits_error(logits, self.refs[key])
        if not err <= TOLERANCE:
            return f"logits off the f64 reference by {err:.3e} (tolerance {TOLERANCE:g})"
        if not (abs(float(probs.sum()) - 1.0) < 1e-5 and (probs >= 0).all()):
            return "softmax is not a probability vector"
        first = self._first.setdefault(key, logits.copy())
        if not np.array_equal(first, logits):
            return "same image gave different logits bits within one process"
        if key in self._native and not np.array_equal(self._native[key], logits):
            return "forward_adapted != forward bitwise on a native-size image"
        return None

    def setup_checks(self) -> list:
        """Loaded weights and MAC tally; also runs ``forward`` on native images for ``check``."""
        errors = []
        for preset, index in self.round(0):
            if self.adapted and self.specs[index][2] and (preset, index) not in self._native:
                image = netpbm.read_ppm(self.image_path(index))
                self._native[preset, index] = models.forward(self.models[preset], image).numpy()
        for preset, model in self.models.items():
            params = models.named_parameters(model)
            if param_digests(params) != self.digests[preset]:
                errors.append(f"{preset}: loaded parameters differ from the saved ones")
            shapes = {k: v.shape for k, v in params.items()}
            for res in sorted({self.resolution(i) for i in range(len(self.specs))}):
                rows, stages = model_tally(shapes, reference.ARCHS[preset], res)
                self._op_macs[(preset, res)] = sum(stages.values())
                report = cost.cost_report(model, res)
                got = {row.name: row.macs for row in report.rows}
                if got != rows or report.macs_total != sum(rows.values()):
                    errors.append(f"{preset} at {res}: MAC tally {rows} != cost_report {got}")
                if res == NATIVE and README_MACS_224.get(preset, report.macs_total) != report.macs_total:
                    errors.append(f"{preset}: {report.macs_total} MACs, README says "
                                  f"{README_MACS_224[preset]}")
        return errors

    def op_macs(self, key) -> int:
        """MACs of one op by the tally; ``setup_checks`` fills the table."""
        preset, index = key
        return self._op_macs[(preset, self.resolution(index))]

    def distinct_keys(self) -> list:
        return self.round(0)


class GradcheckBench:
    """gradcheck_suite over all seven blocks, one (block, seed) pair per op."""

    stages = ("autograd.forward", "autograd.backward", "autograd.probe")

    def __init__(self, seed: int):
        self.start = seed * 97 % GRADCHECK_SEED_POOL

    def prepare(self) -> None:
        pass

    def release(self) -> None:
        pass

    def round(self, index: int) -> list:
        seed = (self.start + index) % GRADCHECK_SEED_POOL
        return [(block, seed) for block in GRADCHECK_BLOCKS]

    def setup_once(self) -> list:
        return [(key, self.run(key)) for key in self.round(0)]

    def run(self, key):
        block, seed = key
        return selftest.gradcheck_suite(block, seeds=(seed,))

    def check(self, key, out):
        if len(out) != 1:
            return f"gradcheck_suite returned {len(out)} results for one (block, seed)"
        result, report = out[0]
        if not result.ok or report.coords_checked < 1:
            return f"{result.name}: {result.detail}"
        return None

    def setup_checks(self) -> list:
        return []

    def op_macs(self, key):
        return None

    def distinct_keys(self) -> list:
        return []


def make(workload: str, seed: int, workdir: Path):
    if workload == "s224":
        return ModelBench(workload, seed, workdir, ("raftmlp-s",), adapted=False)
    if workload == "b16-ablation":
        return ModelBench(workload, seed, workdir, ("mixer-b16", "mixer-b16-cr2"), adapted=False)
    if workload == "s-adapt":
        return ModelBench(workload, seed, workdir, ("raftmlp-s",), adapted=True)
    if workload == "gradcheck":
        return GradcheckBench(seed)
    raise ValueError(f"unknown workload {workload!r}")
