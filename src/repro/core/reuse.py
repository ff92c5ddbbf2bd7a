"""Candidate-set reuse: byte-stable serialization + content-addressed cache.

Extraction (candidate positions + PDCS sweeps, Algorithms 1/4) dominates
solve wall-clock, yet its output — the :class:`~repro.core.placement.CandidateSet`
— depends only on the geometry, the hardware tables, which charger types are
active and ``eps``.  Budgets, thresholds and greedy flags only shape the
(millisecond) selection that follows.  This module lets repeated and swept
workloads pay the expensive phase once:

* :func:`serialize_candidate_set` / :func:`deserialize_candidate_set` — a
  byte-stable, npz-style binary codec for candidate sets (canonical JSON
  header + raw C-order array payload; equal sets always serialize to equal
  bytes, unlike ``np.savez`` whose zip members embed timestamps).
* :class:`CandidateSetCache` — a thread-safe, bytes-bounded LRU
  (:class:`~repro.lru.BytesLRU`) over the serialized blobs, keyed by
  :func:`repro.io.canonical_extraction_hash` (via
  :func:`extraction_cache_key`), with optional on-disk persistence;
  :func:`~repro.core.placement.solve_hipo` warm-starts from the one passed
  as its ``candidate_cache``.

On a hit the deserialized set is *re-bound* to the requesting scenario:
its charger types are the scenario's own :class:`~repro.model.ChargerType`
objects, so the strategies built from it point at them, and the matroid
capacities are re-derived from its budgets — the two pieces of a candidate
set that legitimately vary under the shared key.  Decoding builds no
strategy: the arrays are views into the blob, and only the strategies a
solve selects are ever built.  Solutions from a warm start are
byte-identical to cold ones (tested).
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

import numpy as np

from ..io import canonical_extraction_hash, canonical_json
from ..lru import BytesLRU
from ..model.network import Scenario
from ..model.types import ChargerType
from ..obs import MetricsRegistry

if TYPE_CHECKING:
    from .placement import CandidateSet

__all__ = [
    "CANDIDATE_BLOB_MAGIC",
    "CandidateSetCache",
    "deserialize_candidate_set",
    "extraction_cache_key",
    "serialize_candidate_set",
]

#: Leading bytes of every serialized candidate set (format version 1).
CANDIDATE_BLOB_MAGIC = b"repro.candidates/v1\n"

#: Array fields of the codec, in payload order: name -> (dtype, rank).
_ARRAY_FIELDS: tuple[tuple[str, str], ...] = (
    ("approx_power", "<f8"),
    ("exact_power", "<f8"),
    ("part_of", "<i8"),
    ("positions", "<f8"),
    ("orientations", "<f8"),
    ("ctype_index", "<i8"),
)


def extraction_cache_key(scenario: Scenario, *, eps: float = 0.15) -> str:
    """The content-address under which this scenario's extraction is cached:
    :func:`repro.io.canonical_extraction_hash` of *scenario* and *eps*, the
    whole input of the extraction (Theorem 4.2).

    The kernel set (:mod:`repro.backend`) is deliberately *not* part of
    the key: the sets are bit-identical by contract (enforced by the
    ``tests/backend`` equivalence suite), so a candidate set extracted on
    one is a valid warm-start for the other — folding the set in would
    only fragment the cache.

    The key is memoized on the scenario instance, per ``eps`` and set of
    active charger types (the one input a caller can still change in
    place, through the ``budgets`` dict), so a request that probes the
    cache and then solves canonicalizes once.
    """
    active = tuple(sorted(name for name, n in scenario.budgets.items() if int(n) > 0))
    memo = (eps, active)
    key = scenario._extraction_keys.get(memo)
    if key is None:
        key = scenario._extraction_keys[memo] = canonical_extraction_hash(scenario, eps=eps)
    return key


def _first_appearance(part_of: np.ndarray) -> np.ndarray:
    """The distinct charger type indices of *part_of*, in order of first
    appearance: the order of the blob's charger-type catalogue, which its
    ``ctype_index`` array indexes."""
    _, first = np.unique(part_of, return_index=True)
    return part_of[np.sort(first)]


def serialize_candidate_set(candidates: "CandidateSet") -> bytes:
    """Encode a candidate set as deterministic bytes.

    Layout: :data:`CANDIDATE_BLOB_MAGIC`, a 16-digit ASCII header length,
    the canonical-JSON header (array manifest + charger-type catalogue +
    capacities + per-type position counts), then the raw C-order array
    bytes concatenated in manifest order.  Two equal candidate sets always
    produce identical bytes (the property the content-addressed cache and
    the byte-identical warm-start guarantee rest on).
    """
    n = candidates.num_candidates
    part_of = np.asarray(candidates.part_of, dtype="<i8").reshape(n)
    used = _first_appearance(part_of)
    index_of = np.zeros(len(candidates.capacities), dtype="<i8")
    index_of[used] = np.arange(len(used))
    ctype_defs = [
        {"name": ct.name, "charging_angle": ct.charging_angle, "dmin": ct.dmin, "dmax": ct.dmax}
        for ct in (candidates.charger_types[q] for q in used.tolist())
    ]
    arrays: dict[str, np.ndarray] = {
        "approx_power": np.ascontiguousarray(candidates.approx_power, dtype="<f8"),
        "exact_power": np.ascontiguousarray(candidates.exact_power, dtype="<f8"),
        "part_of": part_of,
        "positions": np.ascontiguousarray(candidates.positions, dtype="<f8").reshape(n, 2),
        "orientations": np.ascontiguousarray(candidates.orientations, dtype="<f8").reshape(n),
        "ctype_index": index_of[part_of],
    }
    manifest = [
        {"name": name, "dtype": dtype, "shape": list(arrays[name].shape)}
        for name, dtype in _ARRAY_FIELDS
    ]
    header = canonical_json(
        {
            "arrays": manifest,
            "capacities": [int(c) for c in candidates.capacities],
            "ctypes": ctype_defs,
            "num_devices": int(candidates.approx_power.shape[1]),
            "positions_per_type": {
                k: int(v) for k, v in candidates.positions_per_type.items()
            },
        }
    ).encode("utf-8")
    parts = [CANDIDATE_BLOB_MAGIC, b"%016d" % len(header), header]
    for name, _dtype in _ARRAY_FIELDS:
        parts.append(arrays[name].tobytes(order="C"))
    return b"".join(parts)


def deserialize_candidate_set(
    blob: bytes, scenario: Scenario | None = None
) -> "CandidateSet":
    """Rebuild a candidate set from :func:`serialize_candidate_set` bytes.

    With *scenario* given, the set is re-bound to it: its charger types
    are the scenario's own objects and the matroid capacities are
    re-derived from the scenario's *current* budgets (the one part of a
    candidate set that varies under the shared extraction key).  Without a
    scenario the stored catalogue and capacities are used verbatim.  The
    power matrices, positions and orientations are read-only views into
    *blob*, not copies: decoding allocates no matrix and builds no
    strategy, and a warm solve cannot alter the cached set.
    """
    from .placement import CandidateSet

    if not blob.startswith(CANDIDATE_BLOB_MAGIC):
        raise ValueError("not a serialized candidate set (bad magic)")
    off = len(CANDIDATE_BLOB_MAGIC)
    header_len = int(blob[off : off + 16])
    off += 16
    header = json.loads(blob[off : off + header_len].decode("utf-8"))
    off += header_len
    arrays: dict[str, np.ndarray] = {}
    for spec in header["arrays"]:
        dtype = np.dtype(spec["dtype"])
        shape = tuple(int(x) for x in spec["shape"])
        nbytes = dtype.itemsize * int(np.prod(shape)) if shape else dtype.itemsize
        arrays[spec["name"]] = np.frombuffer(
            blob, dtype=dtype, count=int(np.prod(shape)), offset=off
        ).reshape(shape)
        off += nbytes
    stored_types = [
        ChargerType(d["name"], d["charging_angle"], d["dmin"], d["dmax"])
        for d in header["ctypes"]
    ]
    used = _first_appearance(arrays["part_of"]).tolist()
    if scenario is not None:
        charger_types = scenario.charger_types
        for q, ct in zip(used, stored_types):
            if q >= len(charger_types) or charger_types[q].name != ct.name:
                raise ValueError(
                    f"cached candidate set references unknown charger type {ct.name!r}"
                )
        capacities = [int(scenario.budgets.get(ct.name, 0)) for ct in charger_types]
    else:
        capacities = [int(c) for c in header["capacities"]]
        types: list[ChargerType | None] = [None] * len(capacities)
        for q, ct in zip(used, stored_types):
            types[q] = ct
        charger_types = tuple(types)
    return CandidateSet(
        approx_power=arrays["approx_power"],
        exact_power=arrays["exact_power"],
        part_of=arrays["part_of"].tolist(),
        capacities=capacities,
        positions=arrays["positions"],
        orientations=arrays["orientations"],
        charger_types=charger_types,
        positions_per_type={
            str(k): int(v) for k, v in header["positions_per_type"].items()
        },
    )


class CandidateSetCache(BytesLRU):
    """A :class:`~repro.lru.BytesLRU` of :func:`serialize_candidate_set`
    blobs, so a hit reconstructs the identical candidate set the miss
    stored.  With *directory* given, stores persist as ``<key>.candidates``
    and survive process restarts; a truncated or corrupted file reads as a
    miss (counted as ``cache.candidates.corrupt``), so the solve extracts
    cold.  Counters land on *metrics* under ``cache.candidates.*``.
    """

    prefix = "cache.candidates"
    suffix = ".candidates"

    def __init__(
        self,
        max_entries: int = 64,
        max_bytes: int = 256 * 1024 * 1024,
        *,
        directory: str | os.PathLike[str] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(max_entries, max_bytes, metrics=metrics, directory=directory)

    def get(self, key: str, scenario: Scenario | None = None) -> "CandidateSet | None":
        """Deserialized candidate set for *key* (re-bound to *scenario*)."""
        blob = self.get_bytes(key)
        if blob is None:
            return None
        return deserialize_candidate_set(blob, scenario)

    def put(self, key: str, candidates: "CandidateSet") -> bool:
        """Serialize and store one candidate set."""
        return self.put_bytes(key, serialize_candidate_set(candidates))

    def __contains__(self, key: str) -> bool:
        """Whether *key* would hit (memory, or a valid file in the
        persistence directory) — the serve layer's candidate-tier probe."""
        return super().__contains__(key)

    def probe_or_miss(self, key: str) -> bool:
        """Whether a solve's lookup of *key* would hit, for a caller that
        solves the misses without this cache (the serve layer's solver
        processes): a miss is counted here, as the lookup that solve would
        have made, and a hit is left to the solve's own lookup to count."""
        if super().__contains__(key):
            return True
        self.metrics.inc(f"{self.prefix}.misses")
        return False
