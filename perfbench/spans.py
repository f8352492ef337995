"""Spans and counts around the package's public calls, for traced runs.

``install`` rebinds each listed function, in every ``raftmlp`` module
that holds it, to a wrapper that records a span: its name, duration,
and the duration of the spans nested in it. Some spans also carry work
(MACs or elements) computed from the call's arguments. The package's own
code is unchanged; only the module attributes are swapped, and
``install`` returns the function that swaps them back.

Timed runs never install the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from macs import linear_macs, mlp_macs

# A derived span time: the span's duration minus the named children.
DERIVED = {
    "adapt.sandwich": ("adapt.sandwich.self", ("token_mix.raft", "token_mix.plain")),
    "autograd.grad_check": ("autograd.probe", ("autograd.forward", "autograd.backward")),
}


class Tracer:
    """Totals of span time, call counts and work, keyed by span name."""

    def __init__(self):
        self._stack = []
        self.reset()

    def reset(self) -> None:
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)

    def enter(self) -> None:
        self._stack.append(defaultdict(float))

    def exit(self, name: str, seconds: float, work: int = 0) -> None:
        children = self._stack.pop()
        self.seconds[name] += seconds
        self.calls[name] += 1
        self.work[name] += work
        if self._stack:
            self._stack[-1][name] += seconds
        if name in DERIVED:
            out, minus = DERIVED[name]
            self.seconds[out] += seconds - sum(children[c] for c in minus)

    def add_tape(self, tape) -> None:
        self.work["tape.nodes"] += len(tape.nodes)
        self.work["tape.bytes_out"] += sum(node.output.numpy().nbytes for node in tape.nodes)


def _embed_macs(x, p):
    return linear_macs((x.shape[1] // p.stride) * (x.shape[2] // p.stride), p.projection.weight.shape)


def _mixing_macs(x, p, *_, **__):
    return mlp_macs(x.size, p.fc1.weight.shape, p.fc2.weight.shape)


def _raft_macs(x, p, grid):
    return sum(mlp_macs(x.size, d.fc1.weight.shape, d.fc2.weight.shape) for d in (p.vertical, p.horizontal))


def _head_macs(model, tokens):
    return linear_macs(1, model.head.weight.shape)


def _plain_token_mixing(x, p, to_mlp=None):
    """A mixing MLP whose move is a plain 2-D transpose mixes tokens, not channels."""
    if to_mlp is not None and len(to_mlp.lhs) == 2 and to_mlp.rhs == to_mlp.lhs[::-1]:
        return "token_mix.plain"
    return None


# (module, function, span name or a function of the call's arguments, work)
TARGETS = (
    ("netpbm", "read_ppm", "netpbm.read_ppm", None),
    ("models", "build_preset", "models.build", None),
    ("container", "load_weights", "container.load_weights", None),
    ("adapt", "pre_embed_resize", "adapt.pre_resize", None),
    ("adapt", "adapted_token_mixing", "adapt.sandwich", None),
    ("blocks", "multi_scale_patch_embed", "embed", _embed_macs),
    ("blocks", "raft_token_mixing", "token_mix.raft", _raft_macs),
    ("blocks", "mixing_mlp", _plain_token_mixing, _mixing_macs),
    ("blocks", "channel_mixing", "channel_mix", _mixing_macs),
    ("models", "_classify", "head", _head_macs),
    ("ops", "linear", "ops.linear", None),
    ("ops", "gelu", "ops.gelu", lambda x: x.size),
    ("ops", "layer_norm", "ops.layer_norm", None),
    ("ops", "bicubic_resize", "ops.bicubic_resize", None),
    ("tensor", "add", "tensor.add", None),
    ("tensor", "unfold", "tensor.unfold", None),
    ("rearrange", "parse_rearrange", "rearrange.parse", None),
    ("rearrange", "apply_rearrange", "rearrange.apply", None),
    ("autograd", "backward", "autograd.backward", None),
    ("autograd", "grad_check", "autograd.grad_check", None),
)


def _spanned(tracer: Tracer, fn, name, work):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        if label is None:
            return fn(*args, **kwargs)
        tracer.enter()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(label, perf_counter() - start, work(*args, **kwargs) if work else 0)

    return wrapper


def _traced_trace(tracer: Tracer, trace):
    """``autograd.trace`` that spans its body and counts the tape it recorded."""

    @contextmanager
    def wrapper():
        with trace() as tape:
            tracer.enter()
            start = perf_counter()
            try:
                yield tape
            finally:
                tracer.exit("autograd.forward", perf_counter() - start)
                tracer.add_tape(tape)

    return wrapper


def install(tracer: Tracer):
    """Wrap every target; returns (restore, names of targets not found)."""
    import raftmlp

    for info in pkgutil.iter_modules(raftmlp.__path__):
        importlib.import_module(f"raftmlp.{info.name}")
    modules = [m for n, m in sys.modules.items() if n == "raftmlp" or n.startswith("raftmlp.")]

    replacements = []
    missing = []
    for mod, attr, name, work in TARGETS:
        fn = getattr(sys.modules.get(f"raftmlp.{mod}"), attr, None)
        if fn is None:
            missing.append(f"{mod}.{attr}")
            continue
        replacements.append((fn, _spanned(tracer, fn, name, work)))
    autograd = sys.modules["raftmlp.autograd"]
    replacements.append((autograd.trace, _traced_trace(tracer, autograd.trace)))

    undo = []
    for fn, wrapper in replacements:
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is fn]:
                setattr(module, key, wrapper)
                undo.append((module, key, fn))

    def restore():
        for module, key, fn in reversed(undo):
            setattr(module, key, fn)

    return restore, missing
