"""Project static analyzer: AST rules for the repro invariants.

Run as ``python -m repro.analysis [paths...]`` or ``repro lint``.  See
``docs/static-analysis.md`` for the rule catalog and suppression syntax.
"""

from __future__ import annotations

from .engine import (
    LINT_SCHEMA,
    UNUSED_SUPPRESSION_ID,
    AnalysisError,
    AnalysisResult,
    ModuleContext,
    Project,
    Rule,
    Violation,
    default_source_root,
    main,
    run_analysis,
)
from .rules import default_rules

__all__ = [
    "AnalysisError",
    "AnalysisResult",
    "LINT_SCHEMA",
    "ModuleContext",
    "Project",
    "Rule",
    "UNUSED_SUPPRESSION_ID",
    "Violation",
    "default_rules",
    "default_source_root",
    "main",
    "run_analysis",
]
