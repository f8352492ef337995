"""Parser and executor for axis-rearrangement patterns.

A pattern describes a pure permutation/regrouping of tensor axes, e.g.::

    'b (h w) (r o) -> b (o w) (r h)'

Each side is a whitespace-separated list of items; an item is a bare axis
name or a parenthesized group of names. The same axis names must appear
exactly once on each side (nothing is created, repeated, or reduced).
Within a group the leftmost name is the slowest-varying factor, so
``(r o)`` decomposes an axis of length r*o as ``idx = r_idx * o + o_idx``.

Axis lengths come from ``bindings`` or are inferred from the input shape;
at most one axis per left-hand group may be left unbound.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import _tape
from .tensor import Tensor

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class RearrangeError(ValueError):
    """Malformed pattern, or a tensor inconsistent with a pattern."""

    def __init__(self, message: str, pattern: str | None = None, position: int | None = None):
        if pattern is not None and position is not None:
            message = f"{message} (pattern {pattern!r}, position {position})"
        super().__init__(message)
        self.pattern = pattern
        self.position = position


@dataclass(frozen=True)
class RearrangeSpec:
    """Validated rearrangement program.

    ``lhs`` and ``rhs`` are tuples of groups; every group is a tuple of
    axis names (a bare item is a one-name group). ``bindings`` pins the
    lengths of axes that cannot be inferred at application time. It is a
    read-only copy of the mapping given, since parsed specs are cached and
    shared between callers.
    """

    lhs: tuple
    rhs: tuple
    bindings: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "bindings", MappingProxyType(dict(self.bindings)))

    @property
    def pattern(self) -> str:
        return f"{_side_str(self.lhs)} -> {_side_str(self.rhs)}"

    def __repr__(self) -> str:
        return f"RearrangeSpec({self.pattern!r}, bindings={dict(self.bindings)})"


def _side_str(groups) -> str:
    items = []
    for g in groups:
        if len(g) == 1:
            items.append(g[0])
        else:
            items.append("(" + " ".join(g) + ")")
    return " ".join(items)


def _tokenize(pattern: str):
    pos = 0
    n = len(pattern)
    while pos < n:
        ch = pattern[pos]
        if ch.isspace():
            pos += 1
            continue
        if pattern.startswith("->", pos):
            yield "arrow", "->", pos
            pos += 2
            continue
        if ch in "()":
            yield ch, ch, pos
            pos += 1
            continue
        m = _NAME.match(pattern, pos)
        if m:
            yield "name", m.group(), pos
            pos = m.end()
            continue
        raise RearrangeError(f"unexpected character {ch!r}", pattern, pos)


def parse_rearrange(pattern: str, bindings: Mapping[str, int] | None = None) -> RearrangeSpec:
    """Compile a pattern string into a validated :class:`RearrangeSpec`.

    Specs are cached per (pattern, bindings); a cached spec is shared, and
    immutable. Lengths must be exact ints: a bool, float or numpy integer
    hashes like the int it equals, so it is rejected before the lookup.
    """
    items = tuple(dict(bindings or {}).items())
    for name, length in items:
        if type(length) is not int or length < 1:
            raise RearrangeError(f"axis {name!r} must have a positive integer length")
    return _parse(pattern, items)


@functools.lru_cache(maxsize=256)
def _parse(pattern: str, items: tuple) -> RearrangeSpec:
    bindings = dict(items)
    sides = [[], []]
    side = 0
    group = None  # open parenthesized group, else None
    last_pos = 0
    seen = [{}, {}]  # name -> position, per side

    for kind, text, pos in _tokenize(pattern):
        last_pos = pos
        if kind == "arrow":
            if side == 1:
                raise RearrangeError("more than one '->'", pattern, pos)
            if group is not None:
                raise RearrangeError("unclosed '(' before '->'", pattern, pos)
            side = 1
        elif kind == "(":
            if group is not None:
                raise RearrangeError("nested '(' is not supported", pattern, pos)
            group = []
        elif kind == ")":
            if group is None:
                raise RearrangeError("')' without matching '('", pattern, pos)
            sides[side].append(tuple(group))
            group = None
        else:  # name
            if text in seen[side]:
                raise RearrangeError(f"duplicate axis {text!r}", pattern, pos)
            seen[side][text] = pos
            if group is not None:
                group.append(text)
            else:
                sides[side].append((text,))
    if group is not None:
        raise RearrangeError("unclosed '('", pattern, last_pos)
    if side == 0:
        raise RearrangeError("missing '->'", pattern, len(pattern))

    lhs_names, rhs_names = set(seen[0]), set(seen[1])
    for name in sorted(rhs_names - lhs_names):
        raise RearrangeError(
            f"axis {name!r} appears only on the right side", pattern, seen[1][name]
        )
    for name in sorted(lhs_names - rhs_names):
        raise RearrangeError(
            f"axis {name!r} appears only on the left side", pattern, seen[0][name]
        )

    for name in bindings:
        if name not in lhs_names:
            raise RearrangeError(f"binding for unknown axis {name!r}", pattern, 0)

    for g in sides[0]:
        unbound = [a for a in g if a not in bindings]
        if len(g) > 1 and len(unbound) > 1:
            raise RearrangeError(
                f"group ({' '.join(g)}) has {len(unbound)} unbound axes; "
                "at most one can be inferred"
            )

    return RearrangeSpec(tuple(sides[0]), tuple(sides[1]), bindings)


def invert(spec: RearrangeSpec) -> RearrangeSpec:
    """Swap the two sides; bindings carry over unchanged.

    Applying the inverse after the original restores the input bitwise
    whenever the inverse's own group inference is determined. A spec like
    'a b -> (a b)' with no bindings has an under-determined inverse and
    fails at apply time, not here; pinning the lengths with
    ``parse_rearrange(pattern, bindings)`` makes the inverse total.
    """
    return RearrangeSpec(spec.rhs, spec.lhs, spec.bindings)


def _resolve_sizes(spec: RearrangeSpec, shape) -> dict:
    if len(shape) != len(spec.lhs):
        raise RearrangeError(
            f"pattern {spec.pattern!r} expects rank {len(spec.lhs)}, got shape {tuple(shape)}"
        )
    sizes = dict(spec.bindings)
    for g, length in zip(spec.lhs, shape):
        known = 1
        unbound = []
        for a in g:
            if a in sizes:
                known *= sizes[a]
            else:
                unbound.append(a)
        if not unbound:
            if known != length:
                raise RearrangeError(
                    f"group ({' '.join(g)}) binds to {known}, but axis has length {length}"
                )
        elif len(unbound) == 1:
            if known == 0 or length % known:
                raise RearrangeError(
                    f"axis of length {length} is not divisible by {known} "
                    f"for group ({' '.join(g)})"
                )
            sizes[unbound[0]] = length // known
        else:
            raise RearrangeError(
                f"group ({' '.join(g)}) has several unbound axes; cannot infer lengths"
            )
    return sizes


def _apply_np(lhs, rhs, sizes: dict, arr: np.ndarray) -> np.ndarray:
    flat_lhs = [a for g in lhs for a in g]
    arr = arr.reshape([sizes[a] for a in flat_lhs])
    flat_rhs = [a for g in rhs for a in g]
    arr = arr.transpose([flat_lhs.index(a) for a in flat_rhs])
    return np.ascontiguousarray(arr).reshape(
        [math.prod(sizes[a] for a in g) for g in rhs]
    )


def apply_rearrange(spec: RearrangeSpec, t: Tensor) -> Tensor:
    """Execute a parsed rearrange on a tensor; pure data movement, no arithmetic."""
    sizes = _resolve_sizes(spec, t.shape)
    out = Tensor._wrap(_apply_np(spec.lhs, spec.rhs, sizes, t.numpy()))

    def vjp(g):
        return (_apply_np(spec.rhs, spec.lhs, sizes, g),)

    _tape.record("rearrange", (t,), out, vjp)
    return out


def rearrange(t: Tensor, pattern: str, **axes: int) -> Tensor:
    """One-shot parse + apply, mirroring the usual einops call style."""
    return apply_rearrange(parse_rearrange(pattern, axes), t)
