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

Parsing and execution are cached separately: :func:`parse_rearrange` per
(pattern, bindings), :func:`plan` per (spec, input shape). A plan holds
the split shape, the permutation and the merged shape of both directions,
so applying a spec, its adjoint included, resolves no sizes once the plan
for that shape exists. Callers that parse at call time therefore still see
a different spec (a patched parser, say) on the very next call.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

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


class Move(NamedTuple):
    """One direction of a plan: reshape to ``split``, permute, copy, reshape to ``merged``."""

    split: tuple
    perm: tuple
    merged: tuple

    def __call__(self, arr: np.ndarray) -> np.ndarray:
        moved = np.ascontiguousarray(arr.reshape(self.split).transpose(self.perm))
        return moved.reshape(self.merged)


def plan(spec: RearrangeSpec, shape) -> tuple:
    """(forward, inverse) :class:`Move` pair of ``spec`` on an input of ``shape``.

    Plans are cached per (lhs, rhs, bindings, shape), so the sizes are
    resolved and the permutation built once; the inverse maps the forward's
    output back to ``shape``. A shape the spec does not fit raises
    :class:`RearrangeError` on every call.
    """
    return _plan(spec.lhs, spec.rhs, tuple(spec.bindings.items()), tuple(shape))


@functools.lru_cache(maxsize=512)
def _plan(lhs: tuple, rhs: tuple, items: tuple, shape: tuple) -> tuple:
    if len(shape) != len(lhs):
        raise RearrangeError(
            f"pattern '{_side_str(lhs)} -> {_side_str(rhs)}' expects rank {len(lhs)}, "
            f"got shape {shape}"
        )
    sizes = dict(items)
    for g, length in zip(lhs, shape):
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
    flat_lhs = [a for g in lhs for a in g]
    flat_rhs = [a for g in rhs for a in g]
    merged = tuple(math.prod(sizes[a] for a in g) for g in rhs)
    forward = Move(
        tuple(sizes[a] for a in flat_lhs), tuple(flat_lhs.index(a) for a in flat_rhs), merged
    )
    inverse = Move(
        tuple(sizes[a] for a in flat_rhs), tuple(flat_rhs.index(a) for a in flat_lhs), shape
    )
    return forward, inverse


def apply_rearrange(spec: RearrangeSpec, t: Tensor) -> Tensor:
    """Execute a parsed rearrange on a tensor; pure data movement, no arithmetic.

    The move and its adjoint run the spec's cached :func:`plan` for the
    tensor's shape.
    """
    forward, inverse = plan(spec, t.shape)
    out = Tensor._wrap(forward(t.numpy()))
    _tape.record("rearrange", (t,), out, lambda g: (inverse(g),))
    return out


def rearrange(t: Tensor, pattern: str, **axes: int) -> Tensor:
    """Parse + apply, mirroring the usual einops call style.

    The pattern is parsed on every call, through the parse cache, and the
    resulting spec runs its cached plan for ``t``'s shape.
    """
    return apply_rearrange(parse_rearrange(pattern, axes), t)
