"""BKD702: kernel backends never import core/serve orchestration."""

from __future__ import annotations


def rule_ids(result):
    return [v.rule_id for v in result.violations]


def test_bkd702_flags_absolute_orchestration_imports(lint_tree):
    result = lint_tree(
        {
            "backend/impure.py": """\
    import repro.core.reuse
    from repro.serve import api

    def kernel(x):
        return x
    """
        },
        select=["BKD702"],
    )
    assert rule_ids(result) == ["BKD702", "BKD702"]
    messages = " ".join(v.message for v in result.violations)
    assert "core.reuse" in messages and "serve" in messages
    assert "byte-identity" in messages


def test_bkd702_flags_relative_and_lazy_imports(lint_tree):
    # A lazy import is no excuse: a kernel body importing core can
    # observe orchestration state mid-computation.
    result = lint_tree(
        {
            "backend/sneaky.py": """\
    from ..core import reuse

    def kernel(x):
        from ..serve.api import SolveService

        return SolveService
    """
        },
        select=["BKD702"],
    )
    assert rule_ids(result) == ["BKD702", "BKD702"]


def test_bkd702_allows_numeric_helpers_and_type_checking(lint_tree):
    result = lint_tree(
        {
            "backend/pure.py": """\
    from typing import TYPE_CHECKING

    import numpy as np

    from ..geometry import primitives
    from ..model import types

    if TYPE_CHECKING:
        from ..core.solver import Solver

    def kernel(x):
        return np.sum(x)
    """
        },
        select=["BKD702"],
    )
    assert result.violations == []


def test_bkd702_out_of_scope_outside_backend(lint_tree):
    # core importing serve is an architecture question, not this rule's.
    result = lint_tree(
        {
            "core/hub.py": """\
    from repro.serve import api
    """
        },
        select=["BKD702"],
    )
    assert result.violations == []


def test_bkd702_real_backend_package_is_clean():
    """The shipped backend implementations never reach into core/serve."""
    from repro.analysis import default_source_root, run_analysis

    result = run_analysis([default_source_root()], select=["BKD702"])
    assert result.violations == []
