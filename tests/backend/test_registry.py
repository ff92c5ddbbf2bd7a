"""Registry, resolution order and lifecycle of the compute-backend seam."""

from __future__ import annotations

import threading

import pytest
from backend_testlib import pyloop_registered  # noqa: F401  (fixture)

from repro import backend as backend_pkg
from repro.backend import (
    BackendUnavailable,
    activate_backend,
    active_backend,
    available_backends,
    backend_status,
    get_backend,
    registered_backends,
    resolve_backend,
    use_backend,
)


def test_builtin_backends_registered():
    names = set(registered_backends())
    assert {"numpy", "numba", "pyloop"} <= names
    status = backend_status()
    assert status["numpy"] is True
    assert "numpy" in available_backends()


def test_numpy_always_resolves():
    assert get_backend("numpy").name == "numpy"
    assert get_backend(" NumPy ").name == "numpy"  # normalized
    assert resolve_backend("numpy").name == "numpy"


def test_unknown_backend_is_a_clear_error():
    with pytest.raises(BackendUnavailable, match="unknown backend"):
        get_backend("tpu")


def test_cupy_stub_never_loads():
    """No GPU backend ships: asking for one is an unknown-backend error."""
    with pytest.raises(BackendUnavailable, match="unknown backend"):
        get_backend("cupy")


def test_explicit_unavailable_backend_does_not_fall_back():
    """An explicit request for a missing backend errors instead of silently
    running numpy (auto-selection is where graceful fallback lives)."""
    from repro.backend.numba_backend import NumbaBackend

    if NumbaBackend().available():
        pytest.skip("numba installed; the unavailable path is moot here")
    with pytest.raises(BackendUnavailable, match="not available"):
        get_backend("numba")


def test_auto_selection_prefers_compiled_when_available(monkeypatch):
    from repro.backend.numba_backend import NumbaBackend

    monkeypatch.delenv("REPRO_BACKEND", raising=False)  # CI pins the env
    expected = "numba" if NumbaBackend().available() else "numpy"
    assert resolve_backend(None).name == expected
    assert resolve_backend("auto").name == expected


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert resolve_backend(None).name == "numpy"
    monkeypatch.setenv("REPRO_BACKEND", "bogus")
    with pytest.raises(BackendUnavailable):
        resolve_backend(None)


def test_use_backend_scopes_the_ambient_choice(pyloop_registered):
    before = active_backend().name
    assert before != "pyloop"
    with use_backend("pyloop") as b:
        assert b.name == "pyloop"
        assert active_backend() is b
        # Ambient beats the environment inside the block.
        assert resolve_backend(None) is b
        # A thread started inside the block does not inherit the choice.
        seen = []
        t = threading.Thread(target=lambda: seen.append(active_backend().name))
        t.start()
        t.join()
        assert seen == [before]
    assert active_backend().name == before
    # A body that raises still restores the prior choice.
    with pytest.raises(RuntimeError):
        with use_backend("pyloop"):
            raise RuntimeError("boom")
    assert active_backend().name == before


def test_use_backend_nests():
    with use_backend("numpy") as outer:
        with use_backend(None) as inner:  # auto defers to ambient
            assert inner is outer


def test_activate_backend_installs_unscoped(pyloop_registered):
    token = backend_pkg._ACTIVE.set(None)  # isolate this test's context
    try:
        activate_backend("pyloop")
        assert active_backend().name == "pyloop"
    finally:
        backend_pkg._ACTIVE.reset(token)


def test_load_failure_reads_as_backend_unavailable():
    from repro.backend import KernelBackend

    class Broken(backend_pkg.KernelBackend):
        name = "broken-test"

        def load(self) -> None:
            raise RuntimeError("compiler exploded")

        def blocked_segments(self, *a):
            raise NotImplementedError

        def parity_inside(self, *a):
            raise NotImplementedError

        def power_fill(self, *a):
            raise NotImplementedError

        def sweep_coverage(self, *a):
            raise NotImplementedError

    with pytest.raises(BackendUnavailable, match="compiler exploded"):
        Broken().ensure_loaded()
    assert isinstance(Broken(), KernelBackend)
