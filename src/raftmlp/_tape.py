"""Recording infrastructure for reverse-mode differentiation.

Each thread has one trace slot, empty by default. Primitive operations call
:func:`record` after computing their forward value; when the slot holds a
trace, the operation is appended with a vector-Jacobian-product closure.
``raftmlp.autograd.trace`` swaps a fresh trace in and the outer one back
out, so only the innermost open trace of a thread records. Keeping the slot
here lets the tensor and op modules record without importing the frontend.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Node:
    """One recorded operation.

    ``vjp`` is required: it maps the cotangent of the output (a numpy
    array) to a tuple of cotangents, one array per entry of ``inputs``.
    """

    op: str
    inputs: tuple
    output: Any
    vjp: Callable


@dataclass
class Trace:
    """Topologically ordered record of a forward computation."""

    nodes: list = field(default_factory=list)


_state = threading.local()


def swap(trace: Optional[Trace]) -> Optional[Trace]:
    """Make ``trace`` this thread's recording trace; return the one it replaces."""
    previous = getattr(_state, "trace", None)
    _state.trace = trace
    return previous


def record(op: str, inputs: tuple, output: Any, vjp: Callable) -> None:
    trace = getattr(_state, "trace", None)
    if trace is not None:
        trace.nodes.append(Node(op, tuple(inputs), output, vjp))
