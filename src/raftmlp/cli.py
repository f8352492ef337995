"""Command-line surface.

Subcommands: describe, cost, forward, gradcheck, featmaps, selftest.
Exit codes: 0 success, 1 usage error, 2 failed check, 3 IO/format error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .adapt import _check_extent, forward_adapted
from .container import ContainerError, load_weights
from .cost import cost_report
from .models import PRESETS, _check_size, build_preset, forward, level_outputs, preset_config
from .netpbm import ImageFormatError, _read_header, _read_raster, write_pgm
from .ops import softmax
from .rearrange import rearrange
from .selftest import BLOCK_NAMES, gradcheck_suite, run as run_selftest
from .tensor import Tensor

EX_OK = 0
EX_USAGE = 1
EX_CHECK = 2
EX_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # failed checks, so route usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EX_USAGE)


def _resolution(text: str):
    try:
        h, w = text.lower().split("x")
        res = (int(h), int(w))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW, got {text!r}")
    if res[0] < 1 or res[1] < 1:
        raise argparse.ArgumentTypeError("resolution extents must be positive")
    return res


def _at_least(low, kind=int):
    """argparse type: a ``kind`` value no less than ``low``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}")
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="raftmlp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("describe", help="print the level table of a preset")
    p.add_argument("preset", choices=sorted(PRESETS))

    p = sub.add_parser("cost", help="parameter/MAC report for a preset")
    p.add_argument("preset", choices=sorted(PRESETS))
    p.add_argument("--resolution", type=_resolution, default=None, metavar="HxW")
    p.add_argument("--flops-convention", choices=("macs", "2macs"), default="macs")
    p.add_argument("--json", action="store_true")
    p.add_argument("--expect-params", type=_at_least(1), default=None, metavar="N")
    p.add_argument("--tolerance", type=_at_least(0.0, float), default=0.01, metavar="T",
                   help="relative tolerance for --expect-params (default 0.01)")

    p = sub.add_parser("forward", help="classify one PPM image")
    p.add_argument("preset", choices=sorted(PRESETS))
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--adapt-resolution", action="store_true",
                   help="bicubic-adapt arbitrary image sizes to the model grid")
    p.add_argument("--topk", type=_at_least(1), default=5,
                   help="rows to print (default 5; above the class count, all)")

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--block", choices=("all",) + BLOCK_NAMES, default="all")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--seeds", type=_at_least(1), default=5, help="number of seeds from --seed up")
    p.add_argument("--max-coords", type=_at_least(1), default=40)

    p = sub.add_parser("featmaps", help="dump one level's channels as PGM images")
    p.add_argument("preset", choices=sorted(PRESETS))
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


def _cmd_describe(args) -> int:
    config = preset_config(args.preset)
    grids = config.grids()
    print(f"preset: {config.name}")
    print(f"resolution: {config.resolution[0]}x{config.resolution[1]}")
    print("channels:", " ".join(str(l.channels) for l in config.levels))
    print("depths:", " ".join(str(l.depth) for l in config.levels))
    print("strides:", " ".join(str(l.stride) for l in config.levels))
    print(f"{'level':<6}{'channels':<10}{'depth':<7}{'stride':<8}{'scales':<9}"
          f"{'mixing':<11}{'grid'}")
    for i, (lvl, grid) in enumerate(zip(config.levels, grids), start=1):
        scales = ",".join(str(m) for m in lvl.scales)
        mixing = "plain" if lvl.token_hidden is not None else f"raft r={lvl.raft_size}"
        print(f"{i:<6}{lvl.channels:<10}{lvl.depth:<7}{lvl.stride:<8}{scales:<9}"
              f"{mixing:<11}{grid.h_prime}x{grid.w_prime}")
    print(f"head: {config.levels[-1].channels} -> {config.num_classes}"
          + (" (with final norm)" if config.final_norm else ""))
    return EX_OK


def _cmd_cost(args) -> int:
    # --resolution follows the adapter's runtime semantics: parameter
    # counts stay those of the native build, MAC counts move with the
    # token grid actually processed.
    model = build_preset(args.preset, init="zeros")
    report = cost_report(model, resolution=args.resolution)
    factor = 2 if args.flops_convention == "2macs" else 1

    if args.json:
        doc = report.as_dict()
        doc["flops_convention"] = args.flops_convention
        doc["flops"] = report.macs_total * factor
        print(json.dumps(doc, indent=2))
    else:
        print(f"preset: {report.name}")
        print(f"resolution: {report.resolution[0]}x{report.resolution[1]}")
        print(f"flops convention: {args.flops_convention}")
        print(f"{'module':<20}{'params':>14}{'flops':>16}")
        for row in report.rows:
            print(f"{row.name:<20}{row.params:>14}{row.macs * factor:>16}")
        print(f"{'total':<20}{report.params_total:>14}{report.macs_total * factor:>16}")
        print(f"params (M): {report.params_total / 1e6:.3f}   "
              f"flops (G): {report.macs_total * factor / 1e9:.3f}")

    if args.expect_params is not None:
        rel = abs(report.params_total - args.expect_params) / args.expect_params
        if rel > args.tolerance:
            print(
                f"FAIL: params {report.params_total} deviate from {args.expect_params} "
                f"by {rel:.4%} (tolerance {args.tolerance:.4%})",
                file=sys.stderr,
            )
            return EX_CHECK
        print(f"params check ok: {report.params_total} within {args.tolerance:.2%} "
              f"of {args.expect_params}")
    return EX_OK


def _load_model(preset: str, weights_path: str):
    model = build_preset(preset, init="zeros")
    return load_weights(model, weights_path)


def _read_image(path: str, config, adapt: bool, entry: str, hint: str) -> Tensor:
    """The PPM at ``path``, refused from its header before its raster is read.

    With ``adapt`` the adapter's cap applies, else ``config``'s size and ``hint``;
    either refusal names ``entry``.
    """
    with open(path, "rb") as f:
        size = _read_header(f)
        if adapt:
            _check_extent(*size, entry)
        else:
            _check_size(config, size, entry, hint)
        return _read_raster(f, *size)


def _cmd_forward(args) -> int:
    image = _read_image(args.image, preset_config(args.preset), args.adapt_resolution,
                        "forward", "pass --adapt-resolution for other sizes")
    model = _load_model(args.preset, args.weights)
    logits = forward_adapted(model, image) if args.adapt_resolution else forward(model, image)
    probs = softmax(logits).numpy()
    k = min(args.topk, probs.shape[0])
    order = probs.argsort()[::-1][:k]
    for rank, idx in enumerate(order, start=1):
        print(f"{rank}: class {int(idx)} p={probs[idx]:.6f}")
    return EX_OK


def _print_results(results) -> int:
    """One "ok" / "FAIL" line per CheckResult; returns the number that failed."""
    failed = 0
    for result in results:
        print(f"{'ok' if result.ok else 'FAIL':<5}{result.name}: {result.detail}")
        failed += not result.ok
    return failed


def _cmd_gradcheck(args) -> int:
    seeds = tuple(range(args.seed, args.seed + args.seeds))
    pairs = gradcheck_suite(block=args.block, seeds=seeds, max_coords=args.max_coords)
    failed = _print_results(result for result, _ in pairs)
    if failed:
        print(f"{failed} gradient check(s) failed", file=sys.stderr)
        return EX_CHECK
    return EX_OK


def _cmd_featmaps(args) -> int:
    # The level and the image are checked before the weights are loaded.
    config = preset_config(args.preset)
    if not 1 <= args.level <= len(config.levels):
        print(
            f"raftmlp featmaps: error: level {args.level} out of range 1..{len(config.levels)}",
            file=sys.stderr,
        )
        return EX_USAGE
    image = _read_image(args.image, config, False, "featmaps", "resize the image first")
    model = _load_model(args.preset, args.weights)
    tokens = level_outputs(model, image)[args.level - 1]
    grid = config.grids()[args.level - 1]
    planes = rearrange(tokens, "(h w) c -> c h w", h=grid.h_prime, w=grid.w_prime)
    os.makedirs(args.out, exist_ok=True)
    arr = planes.numpy()
    for ch in range(arr.shape[0]):
        write_pgm(Tensor(arr[ch]), os.path.join(args.out, f"level{args.level}_ch{ch:04d}.pgm"))
    print(f"wrote {arr.shape[0]} channel maps to {args.out}")
    return EX_OK


def _cmd_selftest(args) -> int:
    results = run_selftest()
    failed = _print_results(results)
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return EX_CHECK
    print(f"all {len(results)} checks passed")
    return EX_OK


_COMMANDS = {
    "describe": _cmd_describe,
    "cost": _cmd_cost,
    "forward": _cmd_forward,
    "gradcheck": _cmd_gradcheck,
    "featmaps": _cmd_featmaps,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises SystemExit for both --help (0) and usage errors.
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ContainerError, ImageFormatError, OSError) as exc:
        print(f"raftmlp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_IO
    except ValueError as exc:
        print(f"raftmlp: {exc}", file=sys.stderr)
        return EX_USAGE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
