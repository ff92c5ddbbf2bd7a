"""Concurrency rules (CNC2xx) for the threaded serve layer and the core.

``repro.serve`` is a classic shared-state threading design: a bounded
priority queue, a worker pool, an LRU cache and one metrics registry, all
mutated from HTTP handler threads and solver workers at once.  Its safety
rests on two conventions — every guarded attribute is only mutated inside
``with <lock>:``, and nothing slow (or lock-acquiring) runs while a lock
is held.  The second makes every lock a leaf: no thread ever holds two
project locks, so lock-order cycles cannot form.  The third convention lives in ``repro.core``: long-running
functions accept a cooperative ``cancel`` token and must actually poll or
forward it, otherwise serve-layer timeouts/cancellation silently rot.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from ..astutil import attr_chain, self_attr
from ..engine import ModuleContext, Project, Rule, Violation

__all__ = ["LockGuardRule", "LockHazardRule", "CancelPollRule", "collect_lock_info"]

_LOCK_INFO_KEY = "concurrency.lock_info"

#: Constructors whose result is a mutual-exclusion primitive.
_LOCK_CTORS = {"Lock", "RLock", "Condition"}

#: Constructors whose instances are safe to mutate without a lock
#: (GIL-atomic mutations or dedicated synchronization primitives).
_ATOMIC_CTORS = {"deque", "Event", "Queue", "SimpleQueue", "LifoQueue", "PriorityQueue", "count"}

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "extend", "insert", "remove", "discard", "clear", "pop",
    "popitem", "update", "add", "setdefault", "sort", "reverse",
    "appendleft", "extendleft", "popleft", "move_to_end",
}

#: ``heapq`` functions that mutate their first argument.
_HEAP_MUTATORS = {"heappush", "heappop", "heapify", "heappushpop", "heapreplace"}


@dataclass
class ClassLockInfo:
    """What the analyzer knows about one class's locking structure."""

    name: str
    module: str
    lock_attrs: set[str] = field(default_factory=set)
    atomic_attrs: set[str] = field(default_factory=set)
    #: methods/properties whose body acquires one of ``lock_attrs``
    acquiring_members: set[str] = field(default_factory=set)
    #: self attribute -> simple class name assigned in ``__init__``
    attr_types: dict[str, str] = field(default_factory=dict)


def _ctor_name(value: ast.expr) -> str | None:
    """The simple constructor name of ``X(...)`` / ``mod.X(...)`` values.

    Sees through the optional-dependency pattern
    ``self.metrics = metrics if metrics is not None else MetricsRegistry()``
    by resolving the concrete branch of the ``IfExp``, so CNC202 knows the
    attribute's class (and whether its methods take a lock) either way.
    """
    if isinstance(value, ast.IfExp):
        return _ctor_name(value.body) or _ctor_name(value.orelse)
    if isinstance(value, ast.Call):
        chain = attr_chain(value.func)
        if chain:
            return chain[-1]
    return None


def _with_lock_attrs(node: ast.With, lock_attrs: set[str]) -> set[str]:
    """Lock attributes of ``self`` acquired by this ``with`` statement."""
    out: set[str] = set()
    for item in node.items:
        attr = self_attr(item.context_expr)
        if attr is not None and attr in lock_attrs:
            out.add(attr)
    return out


def collect_lock_info(project: Project) -> dict[str, ClassLockInfo]:
    """Pass 1: per-class lock structure, keyed by simple class name.

    Name collisions across modules keep the first definition seen — fine
    for a project linter where class names are unique in practice.
    """
    cached = project.shared.get(_LOCK_INFO_KEY)
    if cached is not None:
        return cached
    out: dict[str, ClassLockInfo] = {}
    for ctx in project.modules:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = ClassLockInfo(name=node.name, module=ctx.rel)
            for sub in ast.walk(node):
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target, value = sub.targets[0], sub.value
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    target, value = sub.target, sub.value
                if target is not None and value is not None:
                    attr = self_attr(target)
                    if attr is None:
                        continue
                    ctor = _ctor_name(value)
                    if ctor in _LOCK_CTORS:
                        info.lock_attrs.add(attr)
                    elif ctor in _ATOMIC_CTORS:
                        info.atomic_attrs.add(attr)
                    elif ctor is not None:
                        info.attr_types[attr] = ctor
            if not info.lock_attrs:
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for sub in ast.walk(item):
                        if isinstance(sub, ast.With) and _with_lock_attrs(sub, info.lock_attrs):
                            info.acquiring_members.add(item.name)
                            break
                        if isinstance(sub, ast.Call):
                            chain = attr_chain(sub.func)
                            if (
                                chain
                                and len(chain) == 3
                                and chain[0] == "self"
                                and chain[1] in info.lock_attrs
                                and chain[2] == "acquire"
                            ):
                                info.acquiring_members.add(item.name)
                                break
            out.setdefault(node.name, info)
    project.shared[_LOCK_INFO_KEY] = out
    return out


class LockGuardRule(Rule):
    """CNC201: in a lock-owning class, mutate shared attributes under a lock.

    A class that constructs a ``threading.Lock``/``RLock``/``Condition``
    declares that its state is shared across threads; every mutation of a
    ``self`` attribute outside ``__init__``/``__post_init__`` must then sit
    inside a ``with self.<lock>:`` block.  Attributes holding documented
    GIL-atomic containers (``deque``, ``queue.Queue``) or synchronization
    primitives (``Event``) are exempt, as are helpers named ``*_locked``
    (the project convention for "caller holds the lock").
    """

    rule_id = "CNC201"
    severity = "error"
    scope = ()
    summary = "lock-owning classes must mutate self attributes under their lock"

    def prepare(self, project: Project) -> None:
        collect_lock_info(project)

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Violation]:
        lock_info = collect_lock_info(project)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = lock_info.get(node.name)
            if info is None or info.module != ctx.rel or not info.lock_attrs:
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name in ("__init__", "__post_init__", "__new__"):
                    continue
                # ``*_locked`` names are the project convention for helpers
                # whose contract is "caller holds the lock" (depth_locked,
                # _evict_history_locked); the call sites are checked instead.
                if item.name.endswith("_locked"):
                    continue
                yield from self._check_body(ctx, info, item.body, guarded=False)

    def _check_body(
        self, ctx: ModuleContext, info: ClassLockInfo, body: list[ast.stmt], *, guarded: bool
    ) -> Iterator[Violation]:
        for stmt in body:
            yield from self._check_stmt(ctx, info, stmt, guarded=guarded)

    _SIMPLE_STMTS = (
        ast.Assign,
        ast.AugAssign,
        ast.AnnAssign,
        ast.Delete,
        ast.Expr,
        ast.Return,
        ast.Raise,
        ast.Assert,
    )

    def _check_stmt(
        self, ctx: ModuleContext, info: ClassLockInfo, stmt: ast.stmt, *, guarded: bool
    ) -> Iterator[Violation]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A nested def runs later, outside this lock scope; treat its
            # body as unguarded.
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    yield from self._check_stmt(ctx, info, sub, guarded=False)
            return
        if isinstance(stmt, ast.With):
            inner_guarded = guarded or bool(_with_lock_attrs(stmt, info.lock_attrs))
            yield from self._check_body(ctx, info, stmt.body, guarded=inner_guarded)
            return
        if isinstance(stmt, self._SIMPLE_STMTS):
            if not guarded:
                yield from self._check_mutations(ctx, info, stmt)
            return
        # Compound statement (if/for/while/try/match): its own expressions
        # (test, iter, ...) may hide mutator calls; its nested statements
        # are checked recursively with the current guard state.
        if not guarded:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    yield from self._flag_mutator_calls(ctx, info, child)
        for child in self._stmt_children(stmt):
            yield from self._check_stmt(ctx, info, child, guarded=guarded)

    @staticmethod
    def _stmt_children(stmt: ast.stmt) -> Iterator[ast.stmt]:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                yield child
            elif isinstance(child, (ast.ExceptHandler, ast.match_case)):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.stmt):
                        yield sub

    def _check_mutations(
        self, ctx: ModuleContext, info: ClassLockInfo, stmt: ast.stmt
    ) -> Iterator[Violation]:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets.extend(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets.append(stmt.target)
        elif isinstance(stmt, ast.Delete):
            targets.extend(stmt.targets)
        for target in targets:
            for leaf in ast.walk(target):
                attr = self_attr(leaf)
                if isinstance(leaf, ast.Subscript):
                    attr = self_attr(leaf.value)
                if attr is not None and attr not in info.atomic_attrs:
                    yield self.violation(
                        ctx,
                        stmt,
                        f"mutation of self.{attr} outside `with "
                        f"self.{sorted(info.lock_attrs)[0]}:` in lock-owning class "
                        f"{info.name}; guard it or mark the attribute single-threaded",
                    )
                    break
            else:
                continue
            break
        # Mutator method calls can hide anywhere in an expression statement.
        yield from self._flag_mutator_calls(ctx, info, stmt)

    def _flag_mutator_calls(
        self, ctx: ModuleContext, info: ClassLockInfo, node: ast.AST
    ) -> Iterator[Violation]:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if not isinstance(sub, ast.Call):
                continue
            chain = attr_chain(sub.func)
            if chain is None:
                continue
            if (
                len(chain) == 3
                and chain[0] == "self"
                and chain[2] in _MUTATORS
                and chain[1] not in info.atomic_attrs
                and chain[1] not in info.lock_attrs
            ):
                yield self.violation(
                    ctx,
                    sub,
                    f"in-place mutation self.{chain[1]}.{chain[2]}() outside a "
                    f"`with` on one of {sorted(info.lock_attrs)} in lock-owning "
                    f"class {info.name}",
                )
            elif len(chain) == 2 and chain[0] == "heapq" and chain[1] in _HEAP_MUTATORS:
                if sub.args:
                    attr = self_attr(sub.args[0])
                    if attr is not None and attr not in info.atomic_attrs:
                        yield self.violation(
                            ctx,
                            sub,
                            f"heapq.{chain[1]}(self.{attr}, ...) mutates shared state "
                            f"outside a lock in lock-owning class {info.name}",
                        )


class LockHazardRule(Rule):
    """CNC202: nothing blocking or lock-acquiring runs while holding a lock.

    Flags, inside ``with self.<lock>:`` blocks of a lock-owning class:
    nested acquisition of a *different* own lock (lock-ordering hazard),
    calls/property reads on attributes typed as other lock-owning classes
    whose member acquires *their* internal lock (cross-object deadlock
    ordering), and known blocking calls (``time.sleep``, ``subprocess.*``,
    thread ``join``, HTTP, ``.result()``, pool ``map``).  ``wait``/
    ``notify`` on the held condition itself is the sanctioned pattern and
    exempt.
    """

    rule_id = "CNC202"
    severity = "error"
    scope = ()
    summary = "no blocking or lock-acquiring calls while holding a lock"

    _BLOCKING_CHAINS = {
        ("time", "sleep"),
        ("socket", "create_connection"),
    }
    _BLOCKING_PREFIXES = (("subprocess",), ("requests",))
    _POOLISH = ("pool", "executor")

    def prepare(self, project: Project) -> None:
        collect_lock_info(project)

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Violation]:
        lock_info = collect_lock_info(project)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = lock_info.get(node.name)
            if info is None or info.module != ctx.rel or not info.lock_attrs:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.With):
                    held = _with_lock_attrs(sub, info.lock_attrs)
                    if held:
                        yield from self._check_held_body(
                            ctx, info, lock_info, sub.body, held
                        )

    def _check_held_body(
        self,
        ctx: ModuleContext,
        info: ClassLockInfo,
        lock_info: dict[str, ClassLockInfo],
        body: list[ast.stmt],
        held: set[str],
    ) -> Iterator[Violation]:
        held_name = sorted(held)[0]
        for stmt in body:
            callees: set[int] = set()  # a call's callee is reported as a call
            for node in self._walk_same_frame(stmt):
                if isinstance(node, ast.With):
                    other = _with_lock_attrs(node, info.lock_attrs) - held
                    for attr in sorted(other):
                        yield self.violation(
                            ctx,
                            node,
                            f"acquires self.{attr} while already holding "
                            f"self.{held_name} (lock-ordering hazard); restructure to "
                            "hold one lock at a time",
                        )
                if isinstance(node, ast.Call):
                    callees.add(id(node.func))
                    yield from self._check_call(ctx, info, lock_info, node, held, held_name)
                elif isinstance(node, ast.Attribute) and id(node) not in callees:
                    yield from self._check_property(
                        ctx, info, lock_info, node, held_name
                    )

    @staticmethod
    def _walk_same_frame(root: ast.stmt) -> Iterator[ast.AST]:
        """Walk without descending into nested defs (they run later)."""
        stack: list[ast.AST] = [root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _check_call(
        self,
        ctx: ModuleContext,
        info: ClassLockInfo,
        lock_info: dict[str, ClassLockInfo],
        node: ast.Call,
        held: set[str],
        held_name: str,
    ) -> Iterator[Violation]:
        chain = attr_chain(node.func)
        if chain is None:
            # ``"sep".join(...)`` and other computed callees: only the
            # str-constant join case arises in practice; skip.
            return
        if chain in self._BLOCKING_CHAINS or any(
            chain[: len(p)] == p for p in self._BLOCKING_PREFIXES
        ):
            yield self.violation(
                ctx,
                node,
                f"blocking call {'.'.join(chain)} while holding self.{held_name}",
            )
            return
        if chain[-1] == "urlopen":
            yield self.violation(
                ctx, node, f"HTTP call {'.'.join(chain)} while holding self.{held_name}"
            )
            return
        if chain[-1] == "result" and not node.args and not node.keywords:
            yield self.violation(
                ctx,
                node,
                f"future.result() may block indefinitely while holding self.{held_name}",
            )
            return
        if chain[-1] == "join" and self._is_thread_join(node, chain):
            yield self.violation(
                ctx,
                node,
                f"thread/process join {'.'.join(chain)}() while holding self.{held_name}",
            )
            return
        if (
            chain[-1] in ("map", "imap", "imap_unordered", "starmap", "submit")
            and len(chain) >= 2
            and any(p in chain[-2].lower() for p in self._POOLISH)
        ):
            yield self.violation(
                ctx,
                node,
                f"pool dispatch {'.'.join(chain)}(...) while holding self.{held_name}",
            )
            return
        if chain[-1] in ("wait", "wait_for"):
            # Waiting on the held condition releases it — sanctioned.
            if len(chain) == 3 and chain[0] == "self" and chain[1] in held:
                return
            yield self.violation(
                ctx,
                node,
                f"{'.'.join(chain)}() blocks while holding self.{held_name} "
                "(only the held condition itself may wait)",
            )
            return
        # Cross-object lock acquisition: self.<attr>.<member>() where
        # <attr> is an instance of another lock-owning class and <member>
        # takes that class's internal lock.
        if len(chain) == 3 and chain[0] == "self":
            target = lock_info.get(info.attr_types.get(chain[1], ""))
            if target is not None and chain[2] in target.acquiring_members:
                yield self.violation(
                    ctx,
                    node,
                    f"self.{chain[1]}.{chain[2]}() acquires {target.name}'s internal "
                    f"lock while holding self.{held_name}; move it outside the locked "
                    "region (lock-ordering hazard)",
                )

    def _check_property(
        self,
        ctx: ModuleContext,
        info: ClassLockInfo,
        lock_info: dict[str, ClassLockInfo],
        node: ast.Attribute,
        held_name: str,
    ) -> Iterator[Violation]:
        chain = attr_chain(node)
        if chain is None or len(chain) != 3 or chain[0] != "self":
            return
        target = lock_info.get(info.attr_types.get(chain[1], ""))
        if target is not None and chain[2] in target.acquiring_members:
            yield self.violation(
                ctx,
                node,
                f"self.{chain[1]}.{chain[2]} acquires {target.name}'s internal lock "
                f"while holding self.{held_name}; read it before taking the lock",
            )

    @staticmethod
    def _is_thread_join(node: ast.Call, chain: tuple[str, ...]) -> bool:
        """Distinguish ``thread.join(timeout?)`` from ``str.join(iterable)``."""
        if node.keywords:
            return any(kw.arg == "timeout" for kw in node.keywords)
        if not node.args:
            return True
        if len(node.args) == 1:
            arg = node.args[0]
            return isinstance(arg, ast.Constant) and (
                arg.value is None or isinstance(arg.value, (int, float))
            )
        return False


class CancelPollRule(Rule):
    """CNC203: a ``cancel`` token accepted must be polled or forwarded.

    ``repro.serve`` job timeouts and ``DELETE /v1/jobs/<id>`` rely on every
    long-running ``core`` function cooperating: a function that accepts a
    ``cancel`` parameter but neither calls ``check_cancel``/``is_set`` nor
    passes the token to a callee silently breaks cancellation for every
    caller above it.
    """

    rule_id = "CNC203"
    severity = "error"
    scope = ("core",)
    summary = "core functions accepting `cancel` must poll or forward it"

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = [a.arg for a in node.args.args + node.args.kwonlyargs]
            if "cancel" not in params:
                continue
            if self._uses_cancel(node):
                continue
            yield self.violation(
                ctx,
                node,
                f"function {node.name} accepts `cancel` but never polls "
                "(check_cancel / cancel.is_set()) or forwards it; cooperative "
                "cancellation silently breaks here",
            )

    @staticmethod
    def _uses_cancel(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is not None and chain[-1] == "check_cancel":
                return True
            if chain is not None and chain == ("cancel", "is_set"):
                return True
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id == "cancel":
                    return True
            for kw in node.keywords:
                if kw.arg == "cancel" or (
                    isinstance(kw.value, ast.Name) and kw.value.id == "cancel"
                ):
                    return True
        return False
