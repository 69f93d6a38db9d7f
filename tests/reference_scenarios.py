"""The index-system draw that `delayedmarkets.scenarios` replaced, kept
unchanged as the reference that `test_scenarios.py` compares it against:
it closes each drawn family with repeated all-pairs union rounds and then
closes the result once more. The two must give equal families and leave
the generator in the same state.
"""

from __future__ import annotations

import random


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
