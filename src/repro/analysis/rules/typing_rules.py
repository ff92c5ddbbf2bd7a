"""Strict-typing rules (TYP6xx).

These mirror the load-bearing half of ``mypy --strict``
(``disallow_untyped_defs`` and ``disallow_any_generics``) as AST checks,
so the typing gate is enforceable in environments where mypy itself is
not installed (``scripts/typecheck.sh`` skips gracefully there).  Scope:
the mypy config's packages in ``pyproject.toml`` (``model``, ``geometry``,
``obs``, ``serve``), this package, and ``opt``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import ModuleContext, Project, Rule, Violation

__all__ = ["AnnotationsRequiredRule", "BareGenericRule"]

_TYPED_SCOPE = ("model", "geometry", "obs", "serve", "analysis", "opt")

#: Builtin/typing containers that must be parameterized in annotations.
_GENERIC_NAMES = {
    "dict", "list", "set", "frozenset", "tuple", "type",
    "Dict", "List", "Set", "FrozenSet", "Tuple", "Type",
    "Callable", "Iterator", "Iterable", "Sequence", "Mapping",
    "MutableMapping", "Optional", "deque",
}


class AnnotationsRequiredRule(Rule):
    """TYP601: every function in the typed packages is fully annotated.

    This is mypy-strict's ``disallow_untyped_defs``/``disallow_incomplete_defs``:
    every parameter (except ``self``/``cls``) and every return type must be
    annotated, including ``-> None`` on procedures and ``__init__``.
    """

    rule_id = "TYP601"
    severity = "error"
    scope = _TYPED_SCOPE
    summary = "all functions must annotate every parameter and the return type"

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            missing: list[str] = []
            args = node.args
            positional = args.posonlyargs + args.args
            for i, arg in enumerate(positional):
                if i == 0 and arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    missing.append(arg.arg)
            missing.extend(a.arg for a in args.kwonlyargs if a.annotation is None)
            if args.vararg is not None and args.vararg.annotation is None:
                missing.append("*" + args.vararg.arg)
            if args.kwarg is not None and args.kwarg.annotation is None:
                missing.append("**" + args.kwarg.arg)
            if node.returns is None:
                missing.append("return")
            if missing:
                yield self.violation(
                    ctx,
                    node,
                    f"function {node.name!r} is missing annotations for: "
                    + ", ".join(missing),
                )


class BareGenericRule(Rule):
    """TYP602: no bare generic types in annotations.

    mypy-strict's ``disallow_any_generics``: ``-> dict`` is really
    ``-> dict[Any, Any]`` and silently turns every downstream access into
    ``Any``.  Spell the parameters (``dict[str, Any]`` is fine — the point
    is that widening to ``Any`` is visible and deliberate).
    """

    rule_id = "TYP602"
    severity = "error"
    scope = _TYPED_SCOPE
    summary = "generic types in annotations must be parameterized"

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Violation]:
        for ann in self._annotations(ctx.tree):
            for loc, name in self._bare_generics(ann):
                yield self.violation(
                    ctx,
                    loc,
                    f"bare generic {name!r} in annotation; spell the type "
                    "parameters (Any is allowed but must be explicit)",
                )

    @staticmethod
    def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.annotation is not None:
                        yield arg.annotation
                for vararg in (args.vararg, args.kwarg):
                    if vararg is not None and vararg.annotation is not None:
                        yield vararg.annotation
                if node.returns is not None:
                    yield node.returns
            elif isinstance(node, ast.AnnAssign):
                yield node.annotation

    @classmethod
    def _bare_generics(cls, ann: ast.expr) -> Iterator[tuple[ast.expr, str]]:
        """``(location_node, name)`` for each unsubscripted generic in *ann*.

        A string annotation (``"dict"``/forward ref) is parsed and scanned
        the same way, with the violation anchored at the original string
        node (parsed nodes carry line numbers relative to the string);
        unparsable strings are ignored.
        """
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                parsed = ast.parse(ann.value, mode="eval")
            except SyntaxError:
                return
            for _, name in cls._bare_generics(parsed.body):
                yield ann, name
            return
        subscript_values: set[int] = set()
        for node in ast.walk(ann):
            if isinstance(node, ast.Subscript):
                subscript_values.add(id(node.value))
        for node in ast.walk(ann):
            name = cls._name_of(node)
            if name in _GENERIC_NAMES and id(node) not in subscript_values:
                yield node, name

    @staticmethod
    def _name_of(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None
