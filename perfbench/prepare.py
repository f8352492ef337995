"""Write one model workload's inputs and its f64 reference logits.

    python3 perfbench/prepare.py --workload s224 --seed 0 --out DIR

Writes ``img<i>.ppm`` per image, ``<preset>.rftw`` per preset (the
package's seeded init, built with the run seed), ``digests.json`` (sha256
per saved parameter) and ``reference.npz`` (f64 logits per preset and
image). ``run.py`` calls it in a child process, so the f64 copies of the
weights never count toward the measured process's peak memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from raftmlp import container, models  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = workloads.make(args.workload, args.seed, args.out)
    args.out.mkdir(parents=True, exist_ok=True)
    images = []
    for index, (h, w, _) in enumerate(bench.specs):
        pixels = workloads.image_pixels(args.seed, index, h, w)
        workloads.write_ppm(bench.image_path(index), pixels)
        images.append(pixels.transpose(2, 0, 1) / 255.0)

    refs, digests = {}, {}
    for preset in bench.presets:
        model = models.build_preset(preset, seed=args.seed)
        container.save_weights(model, bench.weights_path(preset))
        params = models.named_parameters(model)
        digests[preset] = workloads.param_digests(params)
        weights = {k: v.numpy().astype(np.float64) for k, v in params.items()}
        del model, params
        for index, image in enumerate(images):
            refs[f"{preset}|{index}"] = reference.forward(
                reference.ARCHS[preset], weights, image, adapted=bench.adapted
            )
        del weights
    np.savez(args.out / "reference.npz", **refs)
    (args.out / "digests.json").write_text(json.dumps(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
