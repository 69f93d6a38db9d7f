"""Scenario draws that `delayedmarkets.scenarios` replaced, kept unchanged
as the references that `test_scenarios.py` compares them against; each
pair must give equal results and leave the generator in the same state.

The index-system draw closes each drawn family with repeated all-pairs
union rounds and then closes the result once more. The partition split
shuffles each atom's state names and rebuilds the partition from its
atoms with `Partition.of`.
"""

from __future__ import annotations

import random

from delayedmarkets.probability import Partition


def _random_split(rng: random.Random, part: Partition) -> Partition:
    atoms = []
    for atom in part.atoms:
        if len(atom) >= 2 and rng.random() < 0.6:
            shuffled = list(atom)
            rng.shuffle(shuffled)
            cut = rng.randint(1, len(shuffled) - 1)
            atoms.append(shuffled[:cut])
            atoms.append(shuffled[cut:])
        else:
            atoms.append(list(atom))
    return Partition.of(part.states, atoms)


def _union_closed_index_system(rng: random.Random, assets, max_sets: int, singletons: bool):
    ids = list(assets)
    if singletons:
        family = {frozenset([a]) for a in ids}
        family.add(frozenset(ids))
        extra = {frozenset(rng.sample(ids, rng.randint(1, len(ids)))) for _ in range(2)}
        family |= extra
    else:
        for attempt in range(6):
            k = rng.randint(1, max(1, min(max_sets - 1, len(ids))))
            family = {frozenset(rng.sample(ids, rng.randint(1, len(ids)))) for _ in range(k)}
            family = _close_under_union(family)
            if len(family) <= max_sets:
                break
        else:
            family = {frozenset(ids)}
    return _close_under_union(family)


def _close_under_union(family: set[frozenset]) -> set[frozenset]:
    closed = set(family)
    while True:
        fresh = {a | b for a in closed for b in closed} - closed
        if not fresh:
            return closed
        closed |= fresh
