"""Seeded input generators for the benchmark workloads.

Every input is a function of the benchmark seed alone: the same seed gives
byte-identical request bodies and fact lists, a different seed gives
different ones.  The generators build plain data (facts as
``(relation, arguments)`` tuples, bodies as JSON bytes) without importing
the program, so a change to the program cannot change its own inputs.

The schema is the molecules workload of the paper's propositionalization
motivation: ``eta(molecule)``, ``contains(molecule, atom)``, one unary type
per element, ``bond(atom, atom)`` and, only inside a planted carbonyl
group, ``double(atom, atom)``.  A molecule is labelled +1 exactly when the
group is planted, so the CQ[2] feature pool separates every training set.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

Fact = Tuple[str, Tuple[str, ...]]

ELEMENTS = ("carbon", "oxygen", "nitrogen", "hydrogen")

#: Atoms in each generated molecule's random chain (before the group).
ATOMS_PER_MOLECULE = 5

#: Share of randomly drawn molecules that carry the planted carbonyl group
#: (molecules drawn with a fixed pattern carry it in every other one).
CARBONYL_SHARE = 0.5

#: Molecules in one request body.  One keeps a request near 8 ms, so the
#: gateway's closed-loop capacity on two vCPUs (100-130 req/s) is several
#: times the open-loop rate.
BODY_MOLECULES = 1


def workload_rng(seed: int, stream: str) -> random.Random:
    """An independent random stream per (seed, purpose) pair."""
    return random.Random(f"{seed}:{stream}")


def molecules(
    rng: random.Random, prefix: str, count: int, first: Optional[int] = None
) -> Tuple[List[Fact], Dict[str, int]]:
    """``count`` random molecules named under ``prefix``, with labels.

    With ``first`` set, molecule ``i`` carries the group exactly when
    ``first + i`` is even, and its atoms' elements are a fixed multiset in
    a random order, so sets that must cost the same for every seed (a
    training set, a scoring batch, the hot set) differ only in structure.
    """
    facts: List[Fact] = []
    labels: Dict[str, int] = {}
    for index in range(count):
        molecule = f"{prefix}m{index}"
        facts.append(("eta", (molecule,)))
        atoms = [f"{molecule}a{a}" for a in range(ATOMS_PER_MOLECULE)]
        if first is None:
            elements = [rng.choice(ELEMENTS) for _ in atoms]
        else:
            # A fixed composition in a random order along the chain.
            elements = [
                ELEMENTS[(first + index + a) % len(ELEMENTS)]
                for a in range(ATOMS_PER_MOLECULE)
            ]
            rng.shuffle(elements)
        for atom, element in zip(atoms, elements):
            facts.append(("contains", (molecule, atom)))
            facts.append((element, (atom,)))
        for left, right in zip(atoms, atoms[1:]):
            facts.append(("bond", (left, right)))
        if first is None:
            planted = rng.random() < CARBONYL_SHARE
        else:
            planted = (first + index) % 2 == 0
        if planted:
            carbon, oxygen = f"{molecule}c", f"{molecule}o"
            facts.extend(
                [
                    ("contains", (molecule, carbon)),
                    ("contains", (molecule, oxygen)),
                    ("carbon", (carbon,)),
                    ("oxygen", (oxygen,)),
                    ("double", (carbon, oxygen)),
                ]
            )
        labels[molecule] = 1 if planted else -1
    return facts, labels


def facts_json(facts: Sequence[Fact]) -> List[dict]:
    """Facts in the program's request encoding, in a fixed order."""
    entries = sorted(set(facts))
    return [
        {"relation": relation, "arguments": list(arguments)}
        for relation, arguments in entries
    ]


def request_body(request_id: str, facts: Sequence[Fact]) -> bytes:
    """A ``POST /v1/predict`` body; the id leads so tracing can read it."""
    return json.dumps(
        {"id": request_id, "facts": facts_json(facts)}
    ).encode("utf-8")


def training_set(seed: int, count: int) -> Tuple[List[Fact], Dict[str, int]]:
    """The labelled training molecules for ``seed``."""
    return molecules(
        workload_rng(seed, f"training-{count}"), "t", count, first=0
    )


def distinct_body(seed: int, index: int) -> bytes:
    """Unique body ``index`` of :data:`BODY_MOLECULES` molecules.

    Each index draws from a stream of its own, so any index can be built
    without the ones before it.  Molecule names carry the index, so no
    two bodies share a fact and every request misses every cache keyed
    on content.
    """
    rng = workload_rng(seed, f"distinct-{index}")
    facts, _ = molecules(rng, f"d{index}", BODY_MOLECULES)
    return request_body(f"d{index}", facts)


def distinct_bodies(seed: int, count: int) -> List[bytes]:
    """The first ``count`` unique bodies (see :func:`distinct_body`)."""
    return [distinct_body(seed, index) for index in range(count)]


def hot_bodies(seed: int, count: int) -> List[bytes]:
    """The hot set: ``count`` bodies that every request draws from.

    Which bodies carry the group, and their atoms' elements, do not
    depend on the seed, so every seed's hot set costs about the same to
    serve; only the order of atoms along each chain differs.
    """
    rng = workload_rng(seed, "hot")
    bodies = []
    for index in range(count):
        facts, _ = molecules(rng, f"h{index}", BODY_MOLECULES, first=index)
        bodies.append(request_body(f"h{index}", facts))
    return bodies


def hot_draw(seed: int, index: int, count: int) -> int:
    """Which of the ``count`` hot bodies request ``index`` sends."""
    return workload_rng(seed, f"hot-draw-{index}").randrange(count)


def scoring_batch(
    seed: int, databases: int, molecules_each: int
) -> List[List[Fact]]:
    """The restart workload's fixed batch of larger molecule databases."""
    rng = workload_rng(seed, "batch")
    return [
        molecules(rng, f"b{index}", molecules_each, first=0)[0]
        for index in range(databases)
    ]
