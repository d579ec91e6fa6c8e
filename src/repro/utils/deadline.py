"""One wall-clock deadline, scoped to the running context.

The paper's Alg. 2 gives every solver call a timeout, and a ``TIMEOUT``
entry in Tables 1/2 means the wall clock ran out.  This module carries such
a budget from the request down to the innermost solver loops.
:func:`deadline` scopes nest, the earlier expiry winning, so an inner caller
can tighten a budget but never extend it; :func:`check` is cheap enough for
branch-and-bound nodes and fixpoint worklist pops.  The expiry lives in a
:mod:`contextvars` variable, so each thread (every ``serve`` handler thread,
for instance) sees only its own budget.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from repro.utils.errors import ReproError

#: Monotonic-clock instant at which the current budget runs out
#: (``None``: no deadline).
_EXPIRY: ContextVar[Optional[float]] = ContextVar("repro_deadline", default=None)


class DeadlineExceeded(ReproError):
    """The current deadline passed while work was still running.

    Deliberately *not* a :class:`~repro.utils.errors.SolverLimitError`: the
    logic core swallows that class where giving up on one query is harmless
    (unsat-core probes, subsumption tests), and an expired deadline must
    abort the whole run instead.
    """


@contextmanager
def deadline(seconds: Optional[float]) -> Iterator[None]:
    """Run the block with at most ``seconds`` of wall time left.

    ``None`` adds no bound (the enclosing deadline, if any, still applies).
    """
    if seconds is None:
        yield
        return
    expiry = time.monotonic() + seconds
    enclosing = _EXPIRY.get()
    if enclosing is not None and enclosing < expiry:
        expiry = enclosing
    token = _EXPIRY.set(expiry)
    try:
        yield
    finally:
        _EXPIRY.reset(token)


@contextmanager
def lifted() -> Iterator[None]:
    """Run the block with no deadline (work that must finish once started)."""
    token = _EXPIRY.set(None)
    try:
        yield
    finally:
        _EXPIRY.reset(token)


def remaining() -> Optional[float]:
    """Seconds left in the current scope (never negative), or ``None``."""
    expiry = _EXPIRY.get()
    return None if expiry is None else max(0.0, expiry - time.monotonic())


def expired() -> bool:
    """True when the current scope has a deadline and it has passed."""
    expiry = _EXPIRY.get()
    return expiry is not None and time.monotonic() >= expiry


def check() -> None:
    """Raise :class:`DeadlineExceeded` when the current deadline has passed."""
    if expired():
        raise DeadlineExceeded("the wall-clock deadline passed")
