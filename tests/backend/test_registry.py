"""Naming and scoping the kernel set."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.backend import BACKENDS, active_backend, use_backend


def test_builtin_backends_registered():
    """Exactly two fixed kernel sets ship."""
    assert sorted(BACKENDS) == ["numpy", "pyloop"]
    assert all(name == b.name for name, b in BACKENDS.items())


def test_numpy_always_resolves():
    with use_backend("numpy") as b:
        assert b is BACKENDS["numpy"]


def test_unknown_backend_is_a_clear_error():
    with pytest.raises(ValueError, match="unknown backend 'tpu'"):
        with use_backend("tpu"):
            pass


def test_cupy_stub_never_loads():
    """No GPU kernel set ships: asking for one is an unknown-backend error."""
    with pytest.raises(ValueError, match="unknown backend"):
        with use_backend("cupy"):
            pass


def test_explicit_unavailable_backend_does_not_fall_back():
    """A request for a kernel set that does not ship (numba) errors instead
    of silently running numpy."""
    with pytest.raises(ValueError, match="unknown backend 'numba'"):
        with use_backend("numba"):
            pass


def test_use_backend_scopes_the_ambient_choice():
    assert active_backend().name == "numpy"
    with use_backend("pyloop") as b:
        assert b.name == "pyloop"
        assert active_backend() is b
        # A thread started inside the block does not inherit the choice.
        seen = []
        t = threading.Thread(target=lambda: seen.append(active_backend().name))
        t.start()
        t.join()
        assert seen == ["numpy"]
    assert active_backend().name == "numpy"
    # A body that raises still restores the prior choice.
    with pytest.raises(RuntimeError):
        with use_backend("pyloop"):
            raise RuntimeError("boom")
    assert active_backend().name == "numpy"


def test_use_backend_nests():
    with use_backend("pyloop") as outer:
        with use_backend(None) as inner:  # None keeps the current set
            assert inner is outer


def test_pool_init_installs_backend_unscoped(monkeypatch):
    """The extraction pool initializer installs the parent's kernel set for
    the rest of the worker's life (a fresh thread stands in for a worker
    started without the parent's context)."""
    from repro.core import distributed
    from repro.experiments import small_scenario

    monkeypatch.setattr(distributed, "_WORKER_GEN", None)  # restored after
    scenario = small_scenario(np.random.default_rng(0), num_devices=2)
    seen = []

    def worker():
        distributed._pool_init(scenario, 0.15, "pyloop")
        seen.append(active_backend().name)

    t = threading.Thread(target=worker)
    t.start()
    t.join()
    assert seen == ["pyloop"]
    assert active_backend().name == "numpy"
