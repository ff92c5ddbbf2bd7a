"""Pluggable compute backends for the extraction hot path.

The candidate extraction spends nearly all of its time in four array
kernels: the segment-blocking test behind
:func:`~repro.geometry.visibility.visible_mask_many`, the even-odd
point-in-polygon parity fallback, the exact power-law fill
``a / (d + b)**2``, and the Algorithm-1 rotational-sweep coverage matrix.
This package puts a *seam* under exactly those kernels so the numpy
implementation can be swapped for a compiled one without touching any
call site:

* :class:`KernelBackend` — the stable kernel API every backend implements
  (``blocked_segments`` / ``parity_inside`` / ``power_fill`` /
  ``sweep_coverage``).
* ``numpy`` (:mod:`.numpy_backend`) — the reference implementation: the
  exact broadcast kernels that used to live inline in ``geometry/`` and
  ``core/``, moved behind the seam byte-for-byte.
* ``numba`` (:mod:`.numba_backend`) — njit-compiled, cached, parallel
  where safe.  Selected automatically when numba is importable; falls
  back to numpy otherwise.  The accelerator is imported lazily inside
  :meth:`KernelBackend.load` (rule BKD701 enforces this), so merely
  importing :mod:`repro.backend` never pays a compiler import.
* ``pyloop`` (:mod:`.pyloop_backend`) — the numba kernel bodies running
  as plain Python: always available, never auto-selected.  The
  independent second implementation behind the cross-backend
  byte-equality invariant of :mod:`repro.variation`.

Backends are **numerically interchangeable by contract**: every kernel
must return bit-identical arrays for identical inputs, so candidate sets,
cache keys and solutions do not depend on the backend (asserted by
``tests/backend/test_equivalence.py`` and ``benchmarks/bench_backends.py``).
Because of that contract the extraction-reuse cache key deliberately does
*not* fold the backend in.

Selection order (first match wins):

1. an explicit name (``solve_hipo(backend=...)``, ``repro solve
   --backend``, ``repro serve --backend``);
2. the ambient backend installed by :func:`use_backend` (how
   ``solve_hipo`` scopes its choice for nested kernels and pool workers);
3. the ``REPRO_BACKEND`` environment variable;
4. auto: the highest-priority backend that imports and loads, i.e.
   numba when present, else numpy.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
from abc import ABC, abstractmethod
from contextvars import ContextVar
from typing import Iterator

import numpy as np

__all__ = [
    "BackendUnavailable",
    "KernelBackend",
    "activate_backend",
    "active_backend",
    "available_backends",
    "backend_status",
    "default_backend",
    "get_backend",
    "registered_backends",
    "register_backend",
    "resolve_backend",
    "use_backend",
]

#: Name of the environment variable consulted when no backend is named
#: explicitly and no ambient backend is installed.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class BackendUnavailable(RuntimeError):
    """A requested backend cannot be used (not installed, or broken)."""


class KernelBackend(ABC):
    """The stable kernel API of the extraction hot path.

    Subclasses implement the four kernels below and may override
    :meth:`load` to import and compile their accelerator *lazily* — never
    at module import time (lint rule BKD701).  All kernels take and
    return plain ``numpy`` arrays; a GPU backend is expected to do its
    own host/device transfers behind this boundary.

    The contract is bit-identical output: for equal inputs every backend
    must return arrays equal under ``np.array_equal`` with identical
    dtypes.  That property is what keeps candidate sets, content-address
    cache keys and solved placements backend-independent.
    """

    #: Registry name (also the CLI / env-var spelling).
    name: str = ""
    #: Auto-selection rank; highest available wins.
    priority: int = 0
    #: Whether auto-selection may pick this backend (reference backends say no).
    selectable: bool = True

    def __init__(self) -> None:
        self._loaded = False

    # -- lifecycle -------------------------------------------------------
    def available(self) -> bool:
        """Whether the backend's dependencies are importable (cheap probe)."""
        return True

    def load(self) -> None:
        """Import/compile the accelerator.  Idempotent; may raise."""

    def ensure_loaded(self) -> "KernelBackend":
        """Load once; translate failures into :class:`BackendUnavailable`."""
        if not self._loaded:
            try:
                self.load()
            except BackendUnavailable:
                raise
            except Exception as exc:
                raise BackendUnavailable(
                    f"backend {self.name!r} failed to load: {exc}"
                ) from exc
            self._loaded = True
        return self

    # -- kernels ---------------------------------------------------------
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
        A segment is blocked when it properly crosses an edge, or — for
        grazing segments — when its midpoint lies strictly inside by the
        even-odd parity test.  Returns an ``(m,)`` bool array.
        """

    @abstractmethod
    def parity_inside(
        self, edge_starts: np.ndarray, edge_ends: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        """Even-odd point-in-polygon over edges ``(edge_starts[k],
        edge_ends[k])`` for each row of *points* (no boundary refinement).
        Returns an ``(n,)`` bool array."""

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


# -- registry ------------------------------------------------------------

_REGISTRY: dict[str, KernelBackend] = {}

#: Ambient backend installed by :func:`use_backend` (context-local so
#: concurrent serve threads can run different backends independently).
_ACTIVE: ContextVar[KernelBackend | None] = ContextVar("repro_backend", default=None)

#: Auto/env resolution cache, keyed by the env-var value it was computed
#: under (the probe walks importlib; do it once per configuration).
_DEFAULT_CACHE: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add *backend* to the registry (replacing any same-named one)."""
    if not backend.name:
        raise ValueError("backend must declare a non-empty name")
    _REGISTRY[backend.name] = backend
    _DEFAULT_CACHE.clear()
    return backend


def registered_backends() -> dict[str, KernelBackend]:
    """Name → backend instance for every registered backend (copy)."""
    return dict(_REGISTRY)


def get_backend(name: str) -> KernelBackend:
    """The registered backend called *name*, loaded and ready.

    Raises :class:`BackendUnavailable` for unknown names and for backends
    whose dependencies are missing or broken — an *explicit* request never
    falls back silently.
    """
    key = name.strip().lower()
    backend = _REGISTRY.get(key)
    if backend is None:
        known = ", ".join(sorted(_REGISTRY))
        raise BackendUnavailable(f"unknown backend {name!r} (registered: {known})")
    if not backend.available():
        raise BackendUnavailable(
            f"backend {backend.name!r} is not available in this environment "
            f"(is its optional dependency installed? try `pip install repro[accel]`)"
        )
    return backend.ensure_loaded()


def available_backends() -> list[str]:
    """Names of registered backends whose dependencies are importable."""
    return [name for name, b in sorted(_REGISTRY.items()) if b.available()]


def backend_status() -> dict[str, bool]:
    """Name → availability for every registered backend (cheap probes only)."""
    return {name: b.available() for name, b in sorted(_REGISTRY.items())}


def _auto_backend() -> KernelBackend:
    """Highest-priority selectable backend that actually loads."""
    candidates = sorted(
        (b for b in _REGISTRY.values() if b.selectable),
        key=lambda b: b.priority,
        reverse=True,
    )
    for backend in candidates:
        if not backend.available():
            continue
        try:
            return backend.ensure_loaded()
        except BackendUnavailable:
            continue
    raise BackendUnavailable("no usable compute backend registered")


def default_backend() -> KernelBackend:
    """The backend auto/env resolution picks when nothing is explicit."""
    env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    cached = _DEFAULT_CACHE.get(env)
    if cached is None:
        cached = _auto_backend() if env in ("", "auto") else get_backend(env)
        _DEFAULT_CACHE[env] = cached
    return cached


def resolve_backend(name: str | None) -> KernelBackend:
    """Resolve *name* per the selection order documented in the module
    docstring.  ``None`` / ``"auto"`` defer to the ambient backend, then
    the ``REPRO_BACKEND`` environment variable, then auto-probing."""
    if name is not None and name.strip().lower() != "auto":
        return get_backend(name)
    ambient = _ACTIVE.get()
    if ambient is not None:
        return ambient
    return default_backend()


def active_backend() -> KernelBackend:
    """The backend the hot kernels must use *right now*.

    The ambient backend when one is installed (:func:`use_backend`),
    otherwise the env/auto default.  This is the only entry point the
    ``geometry`` / ``model`` / ``core`` kernels call, and it is cheap: a
    context-variable read plus, at worst, one cached dict lookup.
    """
    backend = _ACTIVE.get()
    if backend is not None:
        return backend
    return default_backend()


def activate_backend(name: str | None) -> KernelBackend:
    """Resolve *name* and install it as this context's ambient backend,
    unscoped.  This is the pool-worker entry point: the extraction pool
    initializer calls it once per worker process so chunked sweep tasks
    run on the same backend the parent solve resolved.  In-process callers
    should prefer the scoped :func:`use_backend`."""
    backend = resolve_backend(name).ensure_loaded()
    _ACTIVE.set(backend)
    return backend


@contextlib.contextmanager
def use_backend(backend: KernelBackend | str | None) -> Iterator[KernelBackend]:
    """Make *backend* (instance, name, or ``None`` for auto) the ambient
    backend for the enclosed block::

        with use_backend("numpy") as b:
            solve_hipo(scenario)   # every kernel inside runs on b
    """
    resolved = backend if isinstance(backend, KernelBackend) else resolve_backend(backend)
    resolved.ensure_loaded()
    token = _ACTIVE.set(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.reset(token)


def _module_importable(module: str) -> bool:
    """Whether *module* could be imported (without importing it)."""
    try:
        return importlib.util.find_spec(module) is not None
    except (ImportError, ValueError):
        return False


# Register the built-in backends.  Only lightweight module imports happen
# here — accelerators are imported inside each backend's load() (BKD701).
from .numba_backend import NumbaBackend  # noqa: E402 - registry population
from .numpy_backend import NumpyBackend  # noqa: E402
from .pyloop_backend import PyLoopBackend  # noqa: E402

register_backend(NumpyBackend())
register_backend(NumbaBackend())
register_backend(PyLoopBackend())
