"""The kernels of the extraction hot path, in two fixed sets.

The candidate extraction spends nearly all of its time in three array
kernels: the segment-blocking test that
:func:`~repro.geometry.visibility.visible_pairs` runs per obstacle
(Eq. 1's line of sight), the exact power-law fill ``a / (d + b)**2``,
and the Algorithm-1 rotational-sweep coverage matrix.  :class:`KernelBackend` is their API,
implemented twice:

* ``numpy`` (:mod:`.numpy_backend`) — the production kernels: broadcast
  array expressions, the default everywhere.
* ``pyloop`` (:mod:`.pyloop_backend`) — the same kernels written as
  scalar loops: an independently written reference, never the default.
  The ``cross_impl`` invariant of :mod:`repro.variation` and
  ``tests/backend`` compare it against numpy.

The two sets are **numerically interchangeable by contract**: every
kernel returns bit-identical arrays for identical inputs, so candidate
sets, cache keys and solutions do not depend on the set (asserted by
``tests/backend/test_equivalence.py``).  Because of that contract the
extraction-reuse cache key deliberately does *not* fold the set in.

The set in use is one context variable: numpy unless a caller scopes
another with :func:`use_backend` (``with use_backend("pyloop"):``; the
extraction pool's initializer sets it once per worker process).
"""

from __future__ import annotations

import contextlib
from abc import ABC, abstractmethod
from contextvars import ContextVar
from typing import Iterator

import numpy as np

__all__ = [
    "ACTIVE_BACKEND",
    "BACKENDS",
    "KernelBackend",
    "active_backend",
    "use_backend",
]


class KernelBackend(ABC):
    """The stable kernel API of the extraction hot path.

    All kernels take and return plain ``numpy`` arrays.  The contract is
    bit-identical output: for equal inputs both sets return arrays equal
    under ``np.array_equal`` with identical dtypes.  That property is what
    keeps candidate sets, content-address cache keys and solved placements
    independent of the set.
    """

    #: The name :func:`use_backend` and the pool initializer take.
    name: str = ""

    @abstractmethod
    def blocked_segments(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        edge_starts: np.ndarray,
        edge_ends: np.ndarray,
        edge_dirs: np.ndarray,
    ) -> np.ndarray:
        """Which sight segments ``starts[k] → ends[k]`` one polygon blocks.

        *edge_starts* / *edge_ends* / *edge_dirs* are the polygon's
        ``(E, 2)`` edge arrays (:meth:`repro.geometry.Polygon.edge_arrays`).
        A segment is blocked iff some point of the open segment lies
        strictly inside the polygon (DESIGN.md §6, item 12); touching the
        boundary does not block.  Returns an ``(m,)`` bool array.
        """

    @abstractmethod
    def power_fill(self, a: np.ndarray, b: np.ndarray, dists: np.ndarray) -> np.ndarray:
        """The exact power law ``a / (dists + b) ** 2`` (Eq. 1).

        *dists* is either ``(n,)`` with *a*/*b* of the same length, or
        ``(rows, devices)`` with *a*/*b* of length ``devices`` broadcast
        across rows.  Returns a float array shaped like *dists*.
        """

    @abstractmethod
    def sweep_coverage(
        self, bearings: np.ndarray, m: np.ndarray, half_angle: float, tol: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm-1 sweep support for a batch of charger positions.

        Row *r* of the padded ``(R, M)`` *bearings* holds the
        charger→device bearings of the ``m[r]`` coverable devices at one
        position; entries past ``m[r]`` are padding.  Returns ``(thetas,
        coverage)``, shaped ``(R, M)`` and ``(R, M, M)``, where
        ``thetas[r, t] = mod(bearings[r, t] + half_angle, 2π)`` puts device
        *t* on the clockwise cone boundary and ``coverage[r, t, j]`` is True
        iff device *j* lies inside the cone oriented at ``thetas[r, t]``
        (within *tol*).  Padding is ``0.0`` in *thetas* and False in
        *coverage*.
        """


from .numpy_backend import NumpyBackend  # noqa: E402 - subclasses the ABC above
from .pyloop_backend import PyLoopBackend  # noqa: E402

#: Name → kernel set: the only two there are.
BACKENDS: dict[str, KernelBackend] = {b.name: b for b in (NumpyBackend(), PyLoopBackend())}

#: The set the kernels run on in this context (context-local, so concurrent
#: serve threads and pool workers each keep their own).
ACTIVE_BACKEND: ContextVar[KernelBackend] = ContextVar(
    "repro_backend", default=BACKENDS["numpy"]
)


def active_backend() -> KernelBackend:
    """The kernel set the hot kernels must use *right now*: the one
    :func:`use_backend` installed, else numpy.  This is the only entry
    point the ``geometry`` / ``model`` / ``core`` kernels call."""
    return ACTIVE_BACKEND.get()


@contextlib.contextmanager
def use_backend(backend: KernelBackend | str | None) -> Iterator[KernelBackend]:
    """Make *backend* (instance, name, or ``None`` for the current one) the
    kernel set for the enclosed block::

        with use_backend("pyloop") as b:
            solve_hipo(scenario)   # every kernel inside runs on b
    """
    if backend is None:
        resolved = active_backend()
    elif isinstance(backend, KernelBackend):
        resolved = backend
    elif backend in BACKENDS:
        resolved = BACKENDS[backend]
    else:
        raise ValueError(f"unknown backend {backend!r} (known: {', '.join(sorted(BACKENDS))})")
    token = ACTIVE_BACKEND.set(resolved)
    try:
        yield resolved
    finally:
        ACTIVE_BACKEND.reset(token)
