"""The batched position pass equals the per-task computation, byte for byte.

``CandidateGenerator.positions(ct)`` runs every device task of a charger
type in one batched pass whose kernel slices cross task boundaries.  On a
corpus of scenes from every ``repro.variation`` family plus the boundary
scenes of ``test_extraction_digest.py``, its result must equal, byte for
byte and in the same order:

* the gather of the one-task calls ``positions_for_task(ct, i)``;
* the pooled per-device tasks of ``positions_from_tasks`` on two workers;
* itself with ``POSITION_ELEMENT_BUDGET`` set to 1 and 7, so slice cuts
  inside and across tasks change nothing.

The batched pass's per-task output, before the gather's global dedupe,
must also equal the concatenated one-task calls: a task cut in two by a
slice must still be deduped as one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CandidateGenerator, candidates, extraction_pool
from repro.core.distributed import positions_from_tasks
from repro.variation import FAMILIES

from test_extraction_digest import SCENES

#: Four parameter points per family, cycling each axis' choices, each on
#: its own seed.
CORPUS = {
    f"{name}-{k}": (
        lambda family=family, k=k: family.build(
            {p.name: p.choices[k % len(p.choices)] for p in family.params}, seed=k
        ).scenario
    )
    for name, family in FAMILIES.items()
    for k in range(4)
}
CORPUS.update(
    {name: SCENES[name] for name in ("edge-device-10", "coincident-10", "arena-touch-10")}
)


def _by_budget(scenario, budget, monkeypatch) -> list[tuple[bytes, bytes]]:
    """Per charger type: the batched pass's per-task output (before the
    gather) and ``positions``, with *budget* slots per kernel slice."""
    monkeypatch.setattr(candidates, "POSITION_ELEMENT_BUDGET", budget)
    gen = CandidateGenerator(scenario)
    tasks = range(scenario.num_devices)
    return [
        (gen.positions_for_tasks(ct, tasks).tobytes(), gen.positions(ct).tobytes())
        for ct in scenario.charger_types
    ]


def test_corpus_covers_every_family():
    assert {name.rsplit("-", 1)[0] for name in CORPUS} >= set(FAMILIES)
    assert len(CORPUS) >= 20


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_batched_positions_equal_per_task_and_pooled(name, monkeypatch):
    scenario = CORPUS[name]()
    gen = CandidateGenerator(scenario)
    n = scenario.num_devices
    batched = [gen.positions(ct) for ct in scenario.charger_types]
    assert sum(len(p) for p in batched) > 0
    oracle = CandidateGenerator(scenario)
    expected = []
    for ct, pts in zip(scenario.charger_types, batched):
        per_task = [oracle.positions_for_task(ct, i) for i in range(n)]
        assert pts.tobytes() == oracle.gather(per_task).tobytes()
        expected.append((np.concatenate(per_task).tobytes(), pts.tobytes()))
    with extraction_pool(gen, 2) as pool:
        pooled = positions_from_tasks(gen, pool)
    for ct, pts in zip(scenario.charger_types, batched):
        if scenario.budgets.get(ct.name, 0):
            assert pooled[ct.name].tobytes() == pts.tobytes()
    for budget in (1, 7, candidates.POSITION_ELEMENT_BUDGET):
        assert _by_budget(scenario, budget, monkeypatch) == expected, budget
