"""Recording infrastructure for reverse-mode differentiation.

Primitive operations call :func:`record` after computing their forward
value; when a trace is active on the current thread, the operation is
appended together with a vector-Jacobian-product closure. The autograd
frontend (``raftmlp.autograd``) owns trace creation and the backward
walk. Keeping the registry here lets the tensor and op modules record
themselves without importing the frontend.
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


def _stack() -> list:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    return stack


def push(trace: Trace) -> None:
    _stack().append(trace)


def pop() -> Trace:
    return _stack().pop()


def active() -> Optional[Trace]:
    stack = _stack()
    return stack[-1] if stack else None


def record(op: str, inputs: tuple, output: Any, vjp: Callable) -> None:
    trace = active()
    if trace is not None:
        trace.nodes.append(Node(op, tuple(inputs), output, vjp))
