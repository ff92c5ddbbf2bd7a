"""Rule registry for ``repro.analysis``.

``default_rules()`` is the canonical rule set; the engine and the CLI
both go through it.  New rules register by being added to
``_RULE_CLASSES`` — keep the list sorted by rule ID so ``--list-rules``
output is stable.
"""

from __future__ import annotations

from ..engine import Rule
from .backend import BackendPurityRule
from .concurrency import CancelPollRule, LockGuardRule, LockHazardRule
from .determinism import SetIterationRule, UnseededRandomRule, WallClockRule
from .hygiene import FloatEqualityRule, PicklableTaskRule, SpanContextRule
from .typing_rules import AnnotationsRequiredRule, BareGenericRule
from .variation import PureVariationRule

__all__ = ["default_rules"]

_RULE_CLASSES: tuple[type[Rule], ...] = (
    BackendPurityRule,       # BKD702
    UnseededRandomRule,      # DET101
    WallClockRule,           # DET102
    SetIterationRule,        # DET103
    LockGuardRule,           # CNC201
    LockHazardRule,          # CNC202
    CancelPollRule,          # CNC203
    FloatEqualityRule,       # NUM301
    SpanContextRule,         # OBS401
    PicklableTaskRule,       # PCK501
    AnnotationsRequiredRule, # TYP601
    BareGenericRule,         # TYP602
    PureVariationRule,       # VAR801
)


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by rule ID."""
    return sorted((cls() for cls in _RULE_CLASSES), key=lambda r: r.rule_id)
