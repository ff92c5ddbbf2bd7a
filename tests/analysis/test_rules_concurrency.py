"""CNC201/CNC202/CNC203: lock discipline and cancellation plumbing."""

from __future__ import annotations


def rule_ids(result):
    return [v.rule_id for v in result.violations]


# ------------------------------------------------------------ CNC201 --


def test_cnc201_fires_on_unguarded_mutation(lint_tree):
    result = lint_tree(
        {
            "serve/box.py": """\
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []
            self._total = 0

        def add(self, x):
            self._items.append(x)

        def bump(self):
            self._total += 1
    """
        },
        select=["CNC201"],
    )
    assert rule_ids(result) == ["CNC201", "CNC201"]


def test_cnc201_clean_when_guarded(lint_tree):
    result = lint_tree(
        {
            "serve/box.py": """\
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def add(self, x):
            with self._lock:
                self._items.append(x)
    """
        },
        select=["CNC201"],
    )
    assert result.violations == []


def test_cnc201_atomic_containers_exempt(lint_tree):
    # deque/Event mutations are GIL-atomic or synchronization primitives;
    # the AnnAssign form (attr: deque = deque()) must be recognized too.
    result = lint_tree(
        {
            "serve/box.py": """\
    import threading
    from collections import deque

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._guarded = []
            self.log: deque = deque(maxlen=8)
            self._stop = threading.Event()

        def add(self, x):
            self.log.append(x)
            self._stop.set()
    """
        },
        select=["CNC201"],
    )
    assert result.violations == []


def test_cnc201_locked_suffix_convention_exempt(lint_tree):
    result = lint_tree(
        {
            "serve/box.py": """\
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def add(self, x):
            with self._lock:
                self._add_locked(x)

        def _add_locked(self, x):
            self._items.append(x)
    """
        },
        select=["CNC201"],
    )
    assert result.violations == []


def test_cnc201_condition_sharing_lock_counts_as_guard(lint_tree):
    result = lint_tree(
        {
            "serve/q.py": """\
    import threading

    class Q:
        def __init__(self):
            self._lock = threading.Lock()
            self._not_empty = threading.Condition(self._lock)
            self._items = []

        def put(self, x):
            with self._not_empty:
                self._items.append(x)
                self._not_empty.notify()
    """
        },
        select=["CNC201"],
    )
    assert result.violations == []


def test_cnc201_ignores_classes_without_locks(lint_tree):
    result = lint_tree(
        {
            "serve/plain.py": """\
    class Plain:
        def __init__(self):
            self._items = []

        def add(self, x):
            self._items.append(x)
    """
        },
        select=["CNC201"],
    )
    assert result.violations == []


# ------------------------------------------------------------ CNC202 --


def test_cnc202_fires_on_blocking_call_under_lock(lint_tree):
    result = lint_tree(
        {
            "serve/svc.py": """\
    import threading
    import time

    class Svc:
        def __init__(self):
            self._lock = threading.Lock()
            self._n = 0

        def slow(self):
            with self._lock:
                time.sleep(0.1)
                self._n += 1
    """
        },
        select=["CNC202"],
    )
    assert rule_ids(result) == ["CNC202"]
    assert "time.sleep" in result.violations[0].message


def test_cnc202_fires_on_nested_own_locks(lint_tree):
    result = lint_tree(
        {
            "serve/svc.py": """\
    import threading

    class Svc:
        def __init__(self):
            self._a = threading.Lock()
            self._b = threading.Lock()

        def both(self):
            with self._a:
                with self._b:
                    pass
    """
        },
        select=["CNC202"],
    )
    assert rule_ids(result) == ["CNC202"]
    assert "lock-ordering" in result.violations[0].message


def test_cnc202_fires_on_cross_object_lock_acquisition(lint_tree):
    # The api.py bug shape: reading a lock-acquiring property of another
    # lock-owning object while holding your own lock.
    result = lint_tree(
        {
            "serve/svc.py": """\
    import threading

    class JobQueue:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        @property
        def depth(self):
            with self._lock:
                return len(self._items)

    class Svc:
        def __init__(self):
            self._metrics_lock = threading.Lock()
            self.queue = JobQueue()
            self.peak = 0

        def record(self):
            with self._metrics_lock:
                self.peak = max(self.peak, self.queue.depth)
    """
        },
        select=["CNC202"],
    )
    assert rule_ids(result) == ["CNC202"]
    assert "queue.depth" in result.violations[0].message


def test_cnc202_clean_when_read_hoisted(lint_tree):
    result = lint_tree(
        {
            "serve/svc.py": """\
    import threading

    class JobQueue:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        @property
        def depth(self):
            with self._lock:
                return len(self._items)

    class Svc:
        def __init__(self):
            self._metrics_lock = threading.Lock()
            self.queue = JobQueue()
            self.peak = 0

        def record(self):
            depth = self.queue.depth
            with self._metrics_lock:
                self.peak = max(self.peak, depth)
    """
        },
        select=["CNC202"],
    )
    assert result.violations == []


def test_cnc202_condition_wait_on_held_lock_is_sanctioned(lint_tree):
    result = lint_tree(
        {
            "serve/q.py": """\
    import threading

    class Q:
        def __init__(self):
            self._lock = threading.Lock()
            self._not_empty = threading.Condition(self._lock)
            self._items = []

        def pop(self):
            with self._not_empty:
                while not self._items:
                    self._not_empty.wait()
                return self._items.pop()
    """
        },
        select=["CNC202"],
    )
    assert result.violations == []


def test_cnc202_thread_join_under_lock_fires_but_str_join_does_not(lint_tree):
    result = lint_tree(
        {
            "serve/svc.py": """\
    import threading

    class Svc:
        def __init__(self):
            self._lock = threading.Lock()
            self._threads = []

        def stop(self):
            with self._lock:
                for t in self._threads:
                    t.join(1.0)

        def label(self, parts):
            with self._lock:
                return ", ".join(parts)
    """
        },
        select=["CNC202"],
    )
    assert rule_ids(result) == ["CNC202"]
    assert "join" in result.violations[0].message


# ------------------------------------------------------------ CNC203 --


def test_cnc203_fires_when_cancel_ignored(lint_tree):
    result = lint_tree(
        {
            "core/work.py": """\
    def run(data, cancel=None):
        total = 0.0
        for d in data:
            total += d
        return total
    """
        },
        select=["CNC203"],
    )
    assert rule_ids(result) == ["CNC203"]


def test_cnc203_clean_when_polled_or_forwarded(lint_tree):
    result = lint_tree(
        {
            "core/work.py": """\
    from repro.core import check_cancel

    def run(data, cancel=None):
        total = 0.0
        for d in data:
            check_cancel(cancel)
            total += d
        return total

    def outer(data, cancel=None):
        return run(data, cancel=cancel)

    def polls(data, cancel):
        for d in data:
            if cancel is not None and cancel.is_set():
                break
    """
        },
        select=["CNC203"],
    )
    assert result.violations == []


def test_cnc203_out_of_scope_outside_core(lint_tree):
    result = lint_tree(
        {
            "serve/work.py": """\
    def run(data, cancel=None):
        return sum(data)
    """
        },
        select=["CNC203"],
    )
    assert result.violations == []


def test_cnc202_enforces_leaf_locks_through_an_optional_registry(lint_tree):
    # The serve-layer shape: a component records onto a lock-owning
    # registry it may be handed (``metrics if metrics is not None else
    # MetricsRegistry()``).  Recording under its own lock nests two locks;
    # each such call is reported once.
    result = lint_tree(
        {
            "serve/lru.py": """\
    import threading

    class MetricsRegistry:
        def __init__(self):
            self._lock = threading.Lock()
            self._counters = {}

        def inc(self, name):
            with self._lock:
                self._counters[name] = self._counters.get(name, 0) + 1

    class Cache:
        def __init__(self, metrics=None):
            self._lock = threading.Lock()
            self.metrics = metrics if metrics is not None else MetricsRegistry()
            self._entries = {}

        def put(self, key, value):
            with self._lock:
                self._entries[key] = value
                self.metrics.inc("stores")

        def get(self, key):
            with self._lock:
                value = self._entries.get(key)
            self.metrics.inc("hits")
            return value
    """
        },
        select=["CNC202"],
    )
    assert rule_ids(result) == ["CNC202"]
    assert "self.metrics.inc()" in result.violations[0].message
    assert result.violations[0].line == 21
