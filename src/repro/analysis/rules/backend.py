"""Backend purity rule (BKD702).

The two kernel sets of :mod:`repro.backend` must return bit-identical
arrays for identical inputs.  That holds only while they are pure
compute, so backend code may not import the orchestration packages.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import walk_with_parents
from ..engine import ModuleContext, Project, Rule, Violation

__all__ = ["BackendPurityRule"]


def _is_type_checking(test: ast.expr) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` guards."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


#: Orchestration packages kernel backends must never reach back into.
_ORCHESTRATION = {"core", "serve"}


class BackendPurityRule(Rule):
    """BKD702: kernel backends never call back into ``core``/``serve``.

    The byte-identity contract (every backend returns bit-identical arrays
    for identical inputs, so cache keys and solutions are
    backend-independent) only holds while backends are *pure compute*: a
    backend that imports ``repro.core`` or ``repro.serve`` — at module
    scope or lazily inside a kernel body — can observe or mutate
    orchestration state (caches, metrics, ambient scopes), making kernel
    output depend on which backend ran and when.  Shared numeric helpers
    live in ``geometry``/``model``; those imports are fine.  Laziness is
    no excuse: the import is flagged wherever it appears, except under
    ``if TYPE_CHECKING:`` (annotations never run).
    """

    rule_id = "BKD702"
    severity = "error"
    scope = ("backend",)
    summary = "backend kernels must not import repro.core / repro.serve orchestration"

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Violation]:
        # Package path of this module relative to the lint root, for
        # resolving `from ..core import ...` style relative imports.
        parts = [p for p in ctx.rel.replace("\\", "/").split("/") if p][:-1]
        for node, ancestors in walk_with_parents(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any(
                isinstance(a, ast.If) and _is_type_checking(a.test)
                for a in ancestors
            ):
                continue
            for target in self._import_targets(node, parts):
                top = self._top_package(target)
                if top in _ORCHESTRATION:
                    yield self.violation(
                        ctx,
                        node,
                        f"backend code imports {target!r}: kernel backends must stay "
                        "pure compute — calling into core/serve orchestration breaks "
                        "the cross-backend byte-identity contract",
                    )

    @staticmethod
    def _import_targets(node: ast.Import | ast.ImportFrom, pkg_parts: list[str]) -> list[str]:
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if node.level == 0:
            return [node.module] if node.module else []
        # Relative import: ascend `level` packages from this module's package.
        base = pkg_parts[: max(0, len(pkg_parts) - (node.level - 1))]
        suffix = node.module.split(".") if node.module else []
        return [".".join(base + suffix)]

    @staticmethod
    def _top_package(target: str) -> str:
        parts = [p for p in target.split(".") if p]
        if parts and parts[0] == "repro":
            parts = parts[1:]
        return parts[0] if parts else ""
