"""Candidate positions pinned byte for byte on two more scene corpora.

``test_extraction_digest.POSITIONS`` pins ``CandidateGenerator.positions``
on nine scenes.  This module extends the pin to

* the ``repro.variation`` corpus of ``test_position_batches.py`` (four
  parameter points per family), and
* a cluttered corpus: ``cluttered_scenario`` with 14 and 30 obstacles on
  three seeds each, plus scenes that put devices exactly on obstacle
  vertices, on the ``rmax − EPS`` ring around a vertex (where a hole ray
  stops being generated) and just inside it, and a
  device pair whose line runs nearly parallel to an obstacle edge, so that
  ``segment_points`` computes an intersection with ``|r × s|`` close to
  ``EPS`` just outside the edge's bounding box.

Every digest was recorded before position generation skipped the
(pair, curve) slots that cannot reach a kept point, so any slot dropped
that did yield a point, or any change of emission order or of arithmetic,
fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from repro.core import CandidateGenerator
from repro.experiments.generators import cluttered_scenario
from repro.experiments.scenarios import (
    default_charger_types,
    default_coefficients,
    default_device_types,
)
from repro.geometry import EPS, Polygon
from repro.model import Device, Scenario

from test_extraction_digest import BENCH_SEED, SCENES
from test_position_batches import CORPUS

FAMILY_SCENES = {name: build for name, build in CORPUS.items() if name not in SCENES}


def _cluttered(num_obstacles: int, seed: int) -> Scenario:
    return cluttered_scenario(
        np.random.default_rng([BENCH_SEED, 30 + seed]),
        num_obstacles=num_obstacles,
        clusters=3,
        per_cluster=5,
    )


def _moved(scenario: Scenario, moves: dict[int, tuple[float, float]]) -> Scenario:
    devices = list(scenario.devices)
    for k, xy in moves.items():
        devices[k] = dataclasses.replace(devices[k], position=xy)
    return scenario.with_devices(devices)


def _vertex_devices() -> Scenario:
    """Six devices moved exactly onto a vertex of six obstacles."""
    scenario = _cluttered(14, 0)
    return _moved(
        scenario,
        {k: tuple(scenario.obstacles[k].vertices[k % 3]) for k in range(6)},
    )


def _on_ring(vertices, radius: float, bearing: float, inside: bool) -> tuple[float, float]:
    """A device position, along *bearing* from the first vertex of
    *vertices* that admits one, whose ``math.hypot`` distance to that
    vertex is exactly *radius*, or (*inside*) the largest float below
    *radius* within four units in the last place that a position reaches."""
    targets = [radius]
    for _ in range(4):
        targets.append(math.nextafter(targets[-1], 0.0))
    steps = sorted(
        ((i, j) for i in range(-8, 9) for j in range(-8, 9)), key=lambda s: abs(s[0]) + abs(s[1])
    )
    for vertex in vertices:
        vx, vy = float(vertex[0]), float(vertex[1])
        for target in targets[1:] if inside else targets[:1]:
            x0, y0 = vx + target * math.cos(bearing), vy + target * math.sin(bearing)
            for i, j in steps:
                x, y = x0, y0
                for _ in range(abs(i)):
                    x = math.nextafter(x, math.copysign(math.inf, i))
                for _ in range(abs(j)):
                    y = math.nextafter(y, math.copysign(math.inf, j))
                if math.hypot(vx - x, vy - y) == target:
                    return x, y
    raise AssertionError("no position at the exact distance")


def _ring_devices() -> Scenario:
    """Devices on the ``dmax − EPS`` ring of an obstacle vertex for each
    charger type (the hole-ray cut-off of ``shadow_rays``), and just inside
    it, along axis and diagonal bearings."""
    scenario = _cluttered(14, 1)
    types = scenario.charger_types
    moves = {}
    for k in range(9):
        bearing = (0.0, math.pi / 2.0, 0.75 * math.pi)[k // 3]
        moves[k] = _on_ring(
            scenario.obstacles[k].vertices, types[k % 3].dmax - EPS, bearing, inside=bool(k % 2)
        )
    return _moved(scenario, moves)


def _near_parallel() -> Scenario:
    """Two devices whose ``charger-1`` pair line meets a thin triangle's
    long edge at a near-parallel angle just beyond the pair's reach box,
    with two further devices nearby.  The computed intersection point
    lands ~7e-8 m inside the reach box: a kept point from an edge whose
    box misses the reach box by more than the ``EPS`` parameter slack."""
    dtypes = default_device_types()
    positions = [
        (6.659953905863799, 20.497657844438702),
        (21.129649805417962, 20.498692171526198),
        (12.0, 24.5),
        (15.0, 16.25),
    ]
    devices = tuple(
        Device(p, 0.9 * k + 0.3, dtypes[k % 4], 0.05) for k, p in enumerate(positions)
    )
    triangle = Polygon(
        [
            (16.65995395069061, 20.49837266740341),
            (27.85462477536123, 20.499172888209714),
            (24.0, 23.0),
        ]
    )
    types = tuple(default_charger_types())
    return Scenario(
        bounds=(0.0, 0.0, 40.0, 40.0),
        devices=devices,
        obstacles=(triangle,),
        charger_types=types,
        budgets={ct.name: 1 for ct in types},
        table=default_coefficients(),
    )


CLUTTERED_SCENES = {
    **{
        f"clutter{n}-{seed}": (lambda n=n, seed=seed: _cluttered(n, seed))
        for n in (14, 30)
        for seed in range(3)
    },
    "vertex-devices": _vertex_devices,
    "ring-devices": _ring_devices,
    "near-parallel": _near_parallel,
}

#: sha256 of ``CandidateGenerator.positions(ct)`` per charger type, in
#: scenario order, recorded before the near-slot filter.
DIGESTS: dict[str, tuple[str, ...]] = {
    "clutter14-0": (
        "fc3f758624a81ed0fe0c580f4215cfbbf8e7f6aaf8baca024f747bf4ddd52ef1",
        "78b5abbfa6a7d2305f17562c6fd6d01a4ab6af0feb0dc68cc31d5a09653160c2",
        "0785e1a404239515b75d0d15d35fd85a22be3431afb8f165ca4b5deadd98c3f3",
    ),
    "clutter14-1": (
        "c18d5d55c4aa6bd267c5b09371ec0f8edca5e53823a9c00333efe5284c2f76de",
        "0d2256b59a978baebec9198b7b4b1533c7c7b459292a1329b4a700486f6bef20",
        "02e859a508e9fd9a4ffa730cbeed45d5248dfec8c8aa3a58ef384f1e8bc7a2b9",
    ),
    "clutter14-2": (
        "9d56060400d3a57663ee0d5e1d4ef6906eec3322bc3229c038a485f7ea591f32",
        "770ef36a48966cd91c799b62f1954d68780a220a8db5ff11e956be766328c0ea",
        "7b4385e81ba2f9b86967e792747b270bb0734796282916184b1b4ef1cdb7e6b0",
    ),
    "clutter30-0": (
        "0fd1546164fa5505ca065be1b0f667a8ea390b23b5d656a1043122cc4a08cb16",
        "f899d21c17ca4502e1a60246c0523fabfc8b0c43ce69aa621619e6ccd08e0db5",
        "02f4fbf8469db16400231b7485ef90c1d1470d6f9d193e85ca53007e94afc74d",
    ),
    "clutter30-1": (
        "d1c4926a5e0107c908b46e18f438fd8e25896a3d06ee01394fe0cc398028512d",
        "d96d534b9ca69b010851a99f19df0eb211cf3fab224f943f7f9756be4b709b20",
        "7a62dd377b222be6105a335e9ab0453ef2dd16a74f9abdbefc52123de5019c3c",
    ),
    "clutter30-2": (
        "0c454a34bca84760ecc80ef1ca71f30a260d618350a9bf5d36df03692e10c52f",
        "1305d061d6fa89c8fcb024279f79606facb81dfe68dc4fe0111050291e862d98",
        "6e4f5a0a544dd1e53a64027b7ea3cbfdaf3bb8bcc2b602ab07464eb295bb575f",
    ),
    "cluttered-0": (
        "8536a0ba87332b9c69d0562706e35283490a4ce25b812de5213c5302d9a77b24",
        "bd5d2036d69f2d5a053056b420aa88a622fa673dd8aa36fc9510b4adbcf1e084",
        "54b28aa5e34710338e2fb07c3469ed3e69c281ebdf74de69b9c10c19f1eb7deb",
    ),
    "cluttered-1": (
        "318f83210675091c19053b475650a9789ae0d7add1ce3eaf75169687fb694fc8",
        "c5b14f998ef1af2b0b8c16231a30a2b685a82b7e067b15d6a075b0f9d4ce4c83",
        "91fd2c14aca4618e4d1c7447a3a6a94310bad9033b113d7a2d783513ec62a68f",
    ),
    "cluttered-2": (
        "d55de3aceee937c8a15443854f6410a3cb139e1acabdda4c70bed2311f7454f8",
        "ad6c4380fa0c64f75ed6df173ca27cae7f96a6fb0b7a9051e9fa519cc69d7ed3",
        "df5ff20cb914aa0f84028b736b15c8481bf0901e5ae864679fddcea2f584e271",
    ),
    "cluttered-3": (
        "be487be467fe3355fbeff3aa3344e73acb96437fc8e4f23ce87e641bd4b110ab",
        "1b227a62f07268175835874471c13834a1652e2742c47027575f6432ebccbe88",
        "86dfec99c0a26e6de14af9aeeede0a1a70999abafc6faa662ae5191d994aa54d",
    ),
    "corridor-0": (
        "e16ea213c2395e54102b3bab9931714e5ff7c654dc541e4a1f83f6f03f940ec2",
        "791f883d12ce59085ad62b00fa98af1a11edb863c56f2d22f968411de539cd31",
        "cd922ae0d0490c80472474f224941618698710b45858e34a9d4c87f92b503896",
    ),
    "corridor-1": (
        "4cb0aa805917eb9eeaaed817a2db21c15e3177ffcdcfb59c59d7828e6600c573",
        "eaf641d3d9b9f4e4d0f8ea2e0108f2094327ea8d3f7fb0987373346053045b5a",
        "cf994c57fc436d949cee14ef534571194f74a2441fccb68ef3d772d9c48fc390",
    ),
    "corridor-2": (
        "f2f43faf61c0e0d4cebd926437e7fbbfb75f99721ed0306b8e6a7ab92b2daf4e",
        "95356252fd219765efdf708d858437defe3cdb1f407189043205f9ceae181129",
        "619b0110684eeca0a36f95368331e0cc22e15e2d540c84b1acc769e084aca34f",
    ),
    "corridor-3": (
        "fffed91d8a403d00e8de168da3260d7fcb8fcbed013b27fa0be3280543daf08f",
        "19e5bdd705f341c970277b5e521fac643044706127e24ce9da062cd572168ec8",
        "4a8a23527b44cc007af0ebd531b699fd3c47ff36959b381cfd4abb68ee00eb19",
    ),
    "fairness-0": (
        "45b44a9ff508076fd9c028323c3007348c556b4aa26aecd99974a619e95cfde7",
        "8e76e39c88d40cfcc732416830eb2578b44077d595f4a486d963cf9fb52c094a",
        "60da1dc72bbd7eb06a1cb1bd1e11e358d33371580ca340c14a25c38a692d7120",
    ),
    "fairness-1": (
        "e9ec4e038d39abc5c40ea6dcb51bc102cb428e745593632be95c18a3ff17bdc6",
        "e0ec57501d3161e84d8369aa4138f9ca8cec873737f10f720c0bc69b12808fc2",
        "a17420387354eaa4c355b5c078ae9a0bada9b45f155429318444a111ea314a6e",
    ),
    "fairness-2": (
        "4fcf1f781519b341c2ae6a1ac120315203517a1ebab02a9109c64f3b035c4525",
        "efc2e609152e91a7d53b3eb688364707ac0d6957ece6cce2fc3e8de2cea14b25",
        "74089ef788974078be794a5fb08d85c997db08968e7d860b07140fe0a7825935",
    ),
    "fairness-3": (
        "716e205922f6c288596d93759d54747d8e830820f19c017d8aeef1b7d2f5724d",
        "93a757d9e599ccd2f694a5cae9440cc4f9bedeb58b395a0a20d770542c28d140",
        "5c6e979f73f6ebeb86c8a4731abe6cdc8ee16b2005fd4077463a3c75041ecd27",
    ),
    "kcoverage-0": (
        "82ff980333c9d7121220e6a1ba11cfbcd9131b571374e2678ddcad2f65f606d4",
        "d2db15b23599f70ebb9eed5c31edea66160ff115c9cd0f2788a47f0762069018",
        "4c4b4c97adfd5858ddf516e888058706c409117b0b4aada49b0840fe0a5e8719",
    ),
    "kcoverage-1": (
        "7aa9b9de54c22d6fe30647f09f882fad64b222d216b9a33161488bdc74eb5b60",
        "d9690e461e548e2ede38d0e46e59244429a2fed1081f0afe8a763c288020bb04",
        "69cc7d3bddd922656ec8b95b46e60dd5026cf65f0611cce216f15c0318fbb2fa",
    ),
    "kcoverage-2": (
        "4cfa617237fdb7281cc3ca3099bc90764f45ed3cd3be3a096e583f33358097c8",
        "c9c76c9bcc4880c1f6d5151285b5c15f3f5b4810fabb6a222758694dbb276375",
        "f8ca1f316d1d0535e4a72b085b50aabd4a2c780a5540bd44f1016745935ba85b",
    ),
    "kcoverage-3": (
        "824690a114382821067e121c85d245e2a3593b5bc6ce8e9627888385a66a4ebc",
        "535fb02122a0af4a5efcd869b9f8cee307a4e01a5cdffe5b96c40ce3afebee16",
        "8efd91bc56e8c60a61c6161f45978d0ffef0511dd6f685f43ce9f1906a7b9894",
    ),
    "near-parallel": (
        "d7c48d3711b59df7b7b83f0182cd716113db47561bc70a7629ab4ab926a3bbf8",
        "dd6b8442fb9e841b8efb7a8254e4efc274d9ddc3ad369f692dc06877c74f8a2b",
        "c03721347639dab63b41d39cb1013e90f004452723b78d193d39768880bcce56",
    ),
    "ring-devices": (
        "72b1cbdf6960b19fd083a6a79d564ccc5fa587db1dbc458f44de8e3ce8579815",
        "69c4d9d0e146062836ef7bfb98d3baaa47a13f1d6e061b99e3676d6e3d630ddd",
        "a1088124ca41b4a6fcc2182481efd7f5c1399d5fb6067635ab9a607d6fb6219c",
    ),
    "sparse-0": (
        "36eb5bb5c0c2f6ed59f53a565f528e78c4e928922272325dd244fa0394d8d0a4",
        "bd4ff22f936295c6f8bf47ec1e8b2b0ab7a4145e84794e4527ca416119b163dc",
        "c20535e857c3456959482293401c0cba7f3d1de6e2ec96f7823fb5c6e2395d7c",
    ),
    "sparse-1": (
        "d96bab292e00ebb052661ed2d9ae01a4d0b25cb170b9d2518ef11d39b1c13c60",
        "a1c95e8eba7bf8c572fcf0e41bc45d18abc116764a17052ad4672435830ef7a7",
        "299e4cc3fd4eee6411d569d6a408e9bfb410f97fb36c98581e545ace6d6781c6",
    ),
    "sparse-2": (
        "af5a3227b7145680b9bf7745f20cc94f0754ed81b32a761832e0fe77456887d4",
        "b93e73ce831286b55227feb0f74c4d3d6ad1b44c9b86b9017e079745b16c3b82",
        "c86b98a1185ec98aff03ff35813d470993350840afd6f19f88e0ea01da7caee4",
    ),
    "sparse-3": (
        "77b9a67d204ff88f9480d6d7b9681aa00ef023668a13981fedb82ef47f1c2e07",
        "f719e5096939945b24774114b888cbaa3c71d2693e3b31055f632fc54aebe95a",
        "b358b649cc243cc2e217e7ec905a97798a1c8010a0f10414e1ec6428c6ff2ce7",
    ),
    "vertex-devices": (
        "48e06481fd35fc58e6f244a01795a649cce8d4ddbb515137b238cd624567ecad",
        "e3e6abd07f4e0cca88035923468944ba01087d6ab4b048831153069c1dc5798c",
        "c71b4374b491eaee2c3e3844cda74b3d5b395decbed9f3d96af61cfc461db466",
    ),
}


def _sha(points: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(points).tobytes()).hexdigest()


def positions_digest(scenario: Scenario) -> tuple[str, ...]:
    gen = CandidateGenerator(scenario)
    return tuple(_sha(gen.positions(ct)) for ct in scenario.charger_types)


ALL_SCENES = {**FAMILY_SCENES, **CLUTTERED_SCENES}


def test_corpora_are_pinned():
    assert set(DIGESTS) == set(ALL_SCENES)
    assert len(FAMILY_SCENES) == 20


def test_ring_devices_sit_on_the_cut_off():
    """The ring scene hits ``shadow_rays``' cut-off: even devices at exactly
    ``dmax − EPS`` from an obstacle vertex, odd ones just inside."""
    scenario = _ring_devices()
    for k in range(9):
        limit = scenario.charger_types[k % 3].dmax - EPS
        x, y = scenario.devices[k].position
        ds = [math.hypot(vx - x, vy - y) for vx, vy in scenario.obstacles[k].vertices]
        if k % 2:
            assert any(limit - 8e-15 < d < limit for d in ds), k
        else:
            assert limit in ds, k


@pytest.mark.parametrize("name", sorted(ALL_SCENES))
def test_positions_digest(name):
    assert positions_digest(ALL_SCENES[name]()) == DIGESTS[name]
