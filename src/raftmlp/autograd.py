"""Reverse-mode differentiation over the recorded op set.

Usage::

    with trace() as tape:
        y = some_scalar_function(x)
    grads = backward(tape, y, wrt=[x])

plus a finite-difference harness (:func:`grad_check`) that compares the
analytic gradient against central differences coordinate by coordinate.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import _tape
from ._tape import Trace
from .tensor import Tensor, _is_int

__all__ = ["Trace", "trace", "backward", "grad_check", "GradCheckReport"]


@contextmanager
def trace():
    """Record every primitive op executed in the body onto a fresh trace."""
    t = Trace()
    outer = _tape.swap(t)
    try:
        yield t
    finally:
        _tape.swap(outer)


def backward(tr: Trace, output: Tensor, wrt: Iterable[Tensor]) -> dict:
    """Gradients of a scalar output with respect to the tensors in ``wrt``.

    ``wrt`` is required. Returns a dict keyed by tensor identity holding
    exactly those tensors, with zeros for one the output does not depend on.
    """
    if output.size != 1:
        raise ValueError(f"backward needs a scalar output, got shape {output.shape}")
    grads: dict[int, np.ndarray] = {
        id(output): np.ones_like(output.numpy())
    }

    for node in reversed(tr.nodes):
        g = grads.pop(id(node.output), None)
        if g is None:
            continue
        for tin, gin in zip(node.inputs, node.vjp(g)):
            key = id(tin)
            if key in grads:
                grads[key] = grads[key] + gin
            else:
                grads[key] = gin

    out = {}
    for t in wrt:
        g = grads.get(id(t))
        if g is None:
            g = np.zeros_like(t.numpy())
        out[t] = Tensor._wrap(g)
    return out


@dataclass(frozen=True)
class GradCheckReport:
    """Worst-case disagreement between analytic and numeric gradients."""

    max_abs_err: float
    max_rel_err: float
    worst_index: tuple
    step: float
    coords_checked: int


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-5,
    max_coords: Optional[int] = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare backward() against central differences at ``x``.

    ``f`` must map a tensor to a scalar tensor and be pure. All
    coordinates are checked unless ``max_coords`` caps them, in which
    case a seeded random subset is used; a cap that is not an int >= 1
    is a ValueError, as are a step ``h`` that is not a finite, positive
    real number (a bool, a string, None or a complex is none) and a
    ``seed`` that is not an int >= 0. f64 only. The relative error
    denominator is max(|analytic|, |numeric|, floor) with floor =
    max(1e-8, 1e-3 * max|analytic|) over the whole gradient, so
    finite-difference noise on a near-zero coordinate is judged at the
    gradient's scale while a full-size coordinate keeps its own.
    """
    if x.dtype != "f64":
        raise ValueError("grad_check requires an f64 input tensor")
    if max_coords is not None and not (_is_int(max_coords) and max_coords >= 1):
        raise ValueError(f"grad_check: max_coords must be an int >= 1, got {max_coords!r}")
    if not isinstance(h, numbers.Real) or isinstance(h, bool) or not (np.isfinite(h) and h > 0):
        raise ValueError(f"grad_check: step h must be a finite, positive real number, got {h!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"grad_check: seed must be an int >= 0, got {seed!r}")
    with trace() as tr:
        y = f(x)
    if y.size != 1:
        raise ValueError(f"grad_check function must return a scalar, got {y.shape}")
    analytic = backward(tr, y, wrt=[x])[x].numpy().reshape(-1)
    floor = max(1e-8, 1e-3 * float(np.abs(analytic).max(initial=0.0)))

    n = x.size
    if max_coords is not None and max_coords < n:
        rng = np.random.default_rng(seed)
        coords = np.sort(rng.choice(n, size=max_coords, replace=False))
    else:
        coords = np.arange(n)

    base = x.numpy().reshape(-1)
    max_abs = 0.0
    max_rel = 0.0
    worst = (0,)

    def probe(i, delta):
        bumped = base.copy()
        bumped[i] += delta
        return f(Tensor._wrap(bumped.reshape(x.shape))).item()

    for i in coords:
        fp = probe(i, h)
        fm = probe(i, -h)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("grad_check: non-finite function value at a probe point")
        numeric = (fp - fm) / (2.0 * h)
        a = analytic[i]
        abs_err = abs(a - numeric)
        rel_err = abs_err / max(abs(a), abs(numeric), floor)
        if rel_err > max_rel:
            max_rel = rel_err
            worst = tuple(int(v) for v in np.unravel_index(int(i), x.shape))
        max_abs = max(max_abs, abs_err)
    return GradCheckReport(
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        worst_index=worst,
        step=h,
        coords_checked=len(coords),
    )
