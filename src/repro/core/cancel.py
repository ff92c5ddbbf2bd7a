"""Cooperative cancellation of a solve: :class:`SolveCancelled` and the
:func:`check_cancel` poll shared by the position and sweep phases."""

from __future__ import annotations

__all__ = ["SolveCancelled", "check_cancel"]


class SolveCancelled(RuntimeError):
    """A cooperative cancellation fired mid-solve.

    The extraction pipeline polls a caller-supplied *cancel* token (anything
    with an ``is_set() -> bool``, e.g. a ``threading.Event``) between
    per-device tasks and between sweep chunks.  Long solves therefore stop
    within one task of the token being set — this is how ``repro.serve``
    implements job cancellation and per-job timeouts without killing worker
    processes.
    """


def check_cancel(cancel) -> None:
    """Raise :class:`SolveCancelled` when the *cancel* token is set.

    ``None`` (the default everywhere) is a no-op, so the hook costs one
    attribute check on the hot paths that poll it.
    """
    if cancel is not None and cancel.is_set():
        raise SolveCancelled("solve cancelled by caller")
