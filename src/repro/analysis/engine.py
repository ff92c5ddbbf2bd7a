"""Rule engine for the project static analyzer (``repro.analysis``).

The analyzer enforces, by AST inspection, the project invariants that the
test suite cannot economically cover: determinism of the numeric core
(seeded RNG, no wall-clock in solver paths, no hash-order iteration),
lock discipline in the threaded serve layer, cooperative-cancellation
plumbing, float-comparison hygiene in the geometry kernels, and the
strict-typing gate for the annotated packages.

Architecture
------------

* A :class:`Rule` declares an ``rule_id``, a ``severity`` (``error`` or
  ``warning``), an optional path ``scope`` (directory components the rule
  applies to — empty means everywhere) and a ``check`` generator yielding
  :class:`Violation` objects for one :class:`ModuleContext`.
* A :class:`Project` holds every parsed module; rules with cross-module
  concerns (e.g. which classes own locks) implement ``prepare(project)``
  which runs before any ``check``.
* Suppressions: a ``# repro: noqa[RULE-ID]`` comment on the flagged line
  silences that rule there (several ids comma-separated; a justification
  may follow after ``--``).  Suppressions that silence nothing are
  themselves reported as :data:`UNUSED_SUPPRESSION_ID` warnings, so stale
  noqa comments cannot accumulate.

Exit-code contract (also documented in docs/api.md):

* ``0`` — no violations, or warnings only (without ``--strict``)
* ``1`` — at least one error, or any violation with ``--strict``
* ``2`` — usage or internal failure (unreadable path, syntax error)
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

__all__ = [
    "AnalysisError",
    "AnalysisResult",
    "ModuleContext",
    "Project",
    "Rule",
    "Violation",
    "UNUSED_SUPPRESSION_ID",
    "LINT_SCHEMA",
    "main",
    "run_analysis",
]

LINT_SCHEMA = "repro.lint/v1"

#: Rule id reported for ``# repro: noqa[...]`` comments that suppress nothing.
UNUSED_SUPPRESSION_ID = "SUP001"

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s-]+)\]")


class AnalysisError(RuntimeError):
    """The analyzer itself failed (unreadable path, unparsable file)."""


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a source location."""

    rule_id: str
    severity: str  # "error" | "warning"
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} [{self.severity}] {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class Suppression:
    """One ``# repro: noqa[...]`` entry on one line."""

    path: str
    line: int
    rule_ids: tuple[str, ...]
    used: set[str] = field(default_factory=set)


@dataclass
class ModuleContext:
    """One parsed source file plus the metadata rules key off."""

    path: Path
    rel: str  # path relative to the scanned root (display + scoping)
    components: tuple[str, ...]  # path components of ``rel`` (dirs + stem)
    tree: ast.Module
    lines: list[str]
    suppressions: dict[int, Suppression]

    def in_scope(self, scope: tuple[str, ...]) -> bool:
        """Whether this module falls under any of *scope*'s components.

        An empty scope matches everything.  A scope entry matches either a
        directory component (``"core"`` matches ``core/placement.py``) or a
        module filename (``"placement.py"``).
        """
        if not scope:
            return True
        parts = set(self.components)
        return any(s.removesuffix(".py") in parts for s in scope)


class Rule:
    """Base class: subclasses override the class attributes and ``check``."""

    rule_id: str = ""
    severity: str = "error"
    scope: tuple[str, ...] = ()
    summary: str = ""

    def prepare(self, project: "Project") -> None:
        """Cross-module pass run once before any ``check`` call."""

    def check(self, ctx: ModuleContext, project: "Project") -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: ModuleContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule_id=self.rule_id,
            severity=self.severity,
            path=ctx.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


@dataclass
class Project:
    """All modules under analysis plus shared cross-module state."""

    modules: list[ModuleContext]
    #: Free-form per-rule shared state (populated by ``Rule.prepare``).
    shared: dict[str, Any] = field(default_factory=dict)


@dataclass
class AnalysisResult:
    """Outcome of one analyzer run."""

    violations: list[Violation]
    files: int
    rules_run: tuple[str, ...]
    rules_registered: int

    @property
    def errors(self) -> int:
        return sum(1 for v in self.violations if v.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for v in self.violations if v.severity == "warning")

    def exit_code(self, *, strict: bool = False) -> int:
        if self.errors or (strict and self.violations):
            return 1
        return 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": LINT_SCHEMA,
            "files": self.files,
            "rules_registered": self.rules_registered,
            "rules_run": list(self.rules_run),
            "counts": {"error": self.errors, "warning": self.warnings},
            "violations": [v.to_dict() for v in self.violations],
        }


def _parse_suppressions(path_rel: str, source: str) -> dict[int, Suppression]:
    """Suppressions from actual ``#`` comments (tokenized, so noqa syntax
    quoted inside docstrings or string literals is not a suppression)."""
    out: dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if m is None:
                continue
            ids = tuple(p.strip().upper() for p in m.group(1).split(",") if p.strip())
            if ids:
                lineno = tok.start[0]
                out[lineno] = Suppression(path_rel, lineno, ids)
    except tokenize.TokenError:
        pass  # ast.parse already succeeded; be permissive about the tail
    return out


def collect_files(paths: Sequence[str | Path]) -> list[tuple[Path, Path]]:
    """Expand *paths* into ``(root, file)`` pairs of python sources.

    Directories are walked recursively (sorted, skipping ``__pycache__``);
    the root a file was found under anchors its display-relative path.
    """
    out: list[tuple[Path, Path]] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if "__pycache__" in f.parts:
                    continue
                out.append((p, f))
        elif p.is_file():
            out.append((p.parent, p))
        else:
            raise AnalysisError(f"no such file or directory: {p}")
    return out


def load_module(root: Path, path: Path) -> ModuleContext:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    try:
        rel = str(path.relative_to(root))
    except ValueError:
        rel = str(path)
    rel_parts = Path(rel).parts
    # The scan root's own name participates in scoping, so linting
    # `benchmarks/` or a single `src/repro/core/<file>.py` applies the
    # same directory-scoped rules as linting the parent tree would.
    components = (root.name,) + tuple(rel_parts[:-1]) + (Path(rel).stem, Path(rel).name)
    lines = source.splitlines()
    return ModuleContext(
        path=path,
        rel=rel,
        components=components,
        tree=tree,
        lines=lines,
        suppressions=_parse_suppressions(rel, source),
    )


def _select_rules(
    rules: Sequence[Rule],
    select: Sequence[str] | None,
    ignore: Sequence[str] | None,
) -> list[Rule]:
    """Filter by id prefix: ``--select DET`` keeps the DET family."""

    def matches(rule_id: str, prefixes: Sequence[str]) -> bool:
        return any(rule_id.upper().startswith(p.strip().upper()) for p in prefixes if p.strip())

    out = list(rules)
    if select:
        out = [r for r in out if matches(r.rule_id, select)]
    if ignore:
        out = [r for r in out if not matches(r.rule_id, ignore)]
    return out


def _validate_rule_ids(
    rules: Sequence[Rule], select: Sequence[str] | None, ignore: Sequence[str] | None
) -> None:
    """Reject ``--select``/``--ignore`` prefixes matching no registered rule.

    A typo like ``--select DET10X`` silently running *zero* rules is a CI
    gate that passes while checking nothing; make it a usage error (exit 2).
    """
    known = sorted({r.rule_id for r in rules} | {UNUSED_SUPPRESSION_ID})
    for flag, prefixes in (("--select", select), ("--ignore", ignore)):
        for raw in prefixes or []:
            token = raw.strip().upper()
            if token and not any(rid.startswith(token) for rid in known):
                raise AnalysisError(
                    f"unknown rule id {raw.strip()!r} in {flag} "
                    f"(known: {', '.join(known)})"
                )


def run_analysis(
    paths: Sequence[str | Path],
    *,
    rules: Sequence[Rule] | None = None,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> AnalysisResult:
    """Run the (optionally filtered) rule set over *paths*.

    Returns every unsuppressed violation, sorted by location, plus one
    :data:`UNUSED_SUPPRESSION_ID` warning per noqa comment that matched
    nothing (unless SUP001 itself is deselected).
    """
    from .rules import default_rules

    all_rules: Sequence[Rule] = rules if rules is not None else default_rules()
    _validate_rule_ids(all_rules, select, ignore)
    active = _select_rules(all_rules, select, ignore)
    project = Project(modules=[load_module(root, f) for root, f in collect_files(paths)])
    for rule in active:
        rule.prepare(project)

    raw: list[Violation] = []
    for ctx in project.modules:
        for rule in active:
            if not ctx.in_scope(rule.scope):
                continue
            raw.extend(rule.check(ctx, project))

    kept: list[Violation] = []
    by_module = {ctx.rel: ctx for ctx in project.modules}
    for v in raw:
        ctx = by_module.get(v.path)
        sup = ctx.suppressions.get(v.line) if ctx is not None else None
        if sup is not None and v.rule_id in sup.rule_ids:
            sup.used.add(v.rule_id)
            continue
        kept.append(v)

    def _matches(rule_id: str, prefixes: Sequence[str] | None) -> bool:
        return bool(prefixes) and any(
            rule_id.upper().startswith(p.strip().upper()) for p in prefixes if p.strip()
        )

    sup_active = (select is None or _matches(UNUSED_SUPPRESSION_ID, select)) and not _matches(
        UNUSED_SUPPRESSION_ID, ignore
    )
    if sup_active:
        for ctx in project.modules:
            for sup in ctx.suppressions.values():
                for rid in sup.rule_ids:
                    if rid not in sup.used:
                        kept.append(
                            Violation(
                                rule_id=UNUSED_SUPPRESSION_ID,
                                severity="warning",
                                path=sup.path,
                                line=sup.line,
                                col=1,
                                message=f"suppression of {rid} matches no violation; remove it",
                            )
                        )

    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return AnalysisResult(
        violations=kept,
        files=len(project.modules),
        rules_run=tuple(r.rule_id for r in active),
        rules_registered=len(all_rules),
    )


def default_source_root() -> Path:
    """The installed ``repro`` package directory (default lint target)."""
    return Path(__file__).resolve().parents[1]


def build_arg_parser(prog: str = "repro.analysis") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Project static analyzer: determinism, lock discipline, "
        "numeric/trace hygiene, strict typing (docs/static-analysis.md).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--select", type=str, default=None, metavar="IDS",
                        help="comma-separated rule-id prefixes to run (e.g. DET,CNC201)")
    parser.add_argument("--ignore", type=str, default=None, metavar="IDS",
                        help="comma-separated rule-id prefixes to skip")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as errors (exit 1 on any violation)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    return parser


def _split(arg: str | None) -> list[str] | None:
    if arg is None:
        return None
    return [p for p in arg.split(",") if p.strip()]


def main(argv: Sequence[str] | None = None, *, prog: str = "repro.analysis") -> int:
    """CLI entry point shared by ``python -m repro.analysis`` and ``repro lint``."""
    args = build_arg_parser(prog).parse_args(argv)
    if args.list_rules:
        from .rules import default_rules

        for rule in default_rules():
            scope = ",".join(rule.scope) if rule.scope else "*"
            print(f"{rule.rule_id}  [{rule.severity:<7}]  scope={scope:<30}  {rule.summary}")
        return 0
    paths = args.paths if args.paths else [default_source_root()]
    try:
        result = run_analysis(paths, select=_split(args.select), ignore=_split(args.ignore))
    except AnalysisError as exc:
        print(f"repro.analysis: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        for v in result.violations:
            print(v.format())
        print(
            f"{result.files} files, {len(result.rules_run)} rules: "
            f"{result.errors} errors, {result.warnings} warnings"
        )
    return result.exit_code(strict=args.strict)
