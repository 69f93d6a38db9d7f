"""The benchmark's workloads: seeded market documents and the item each one times.

A workload is three functions and two sizes. `generate(pkg, seed, size)`
draws markets with the package's own scenario generators and yields them
one input entry at a time, `serialize(pkg, i, entry)` turns entry `i`
into the items the timed phase reads, each a market document, and
`run_item(pkg, item)` takes one item through the public API. `run_item` returns
`(reason, kind)`: why the item failed (None when it passed) and the
verdict kind it reached (None when the item gives no verdict).

Every call into the package goes through a module attribute of `pkg`
(`pkg.arbitrage.check_naflp`, ...), so the tracer in `spans.py` sees it
after it has wrapped that attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

FREE_LUNCH = "free-lunch"
NO_FREE_LUNCH = "no-free-lunch"

# The second seed of desk-sweep and delay-roundtrip. It was not used while
# the benchmark was written; a gain claimed on seed 2024 must also hold here.
HELD_OUT_SEED = 2718

# Desk markets drawn as fully random (not martingale-built) that are free of
# free lunch all the same, by index, for the seeds whose verdicts are pinned.
# Every other random market of a pinned seed gives a free lunch and every
# martingale-built market gives none. That makes 264 free-lunch and 236
# no-free-lunch verdicts for seed 2024, and 253 and 247 for the held-out seed.
PINNED_RANDOM_NO_FREE_LUNCH = {
    2024: frozenset({15, 42, 55, 174, 270, 332, 363, 462}),
    HELD_OUT_SEED: frozenset({38, 176, 219, 270, 429, 430, 445}),
}

# (delay mode, steps, lookahead) of the insider walks: 128, 256 and 128 states.
WALK_LADDER = (("information", 6, 1), ("information", 7, 1), ("execution", 5, 1))


@dataclass(frozen=True)
class Item:
    label: str
    text: str                   # the market document the item starts from
    mode: str | None            # delay mode applied after parsing, if any
    expected: str | None        # verdict kind the item must reach, if known


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable
    serialize: Callable
    run_item: Callable
    size: object                # default input size: a count, or the walk ladder
    pass_s: float               # seconds a pass took at the first baseline; sizes a run


def desk_config(scenarios, seed: int):
    """The desk scale that acceptance criterion 1 pins."""
    return scenarios.ScenarioConfig(seed=seed, num_states=12, grid=4, extension=6,
                                    num_assets=3, max_index_sets=4, brokers=3)


def _apply_delay(pkg, doc, mode: str | None):
    """The document's market with its `mode` delay family applied, and the
    other family, which stays valid on the delayed market."""
    if mode is None:
        return doc.market, {}
    if mode == "information":
        return (pkg.delays.information_delayed_market(doc.market, doc.info_delays),
                {"exec_delays": doc.exec_delays})
    return pkg.delays.delayed_market(doc.market, doc.exec_delays), {"info_delays": doc.info_delays}


def verdict_item(pkg, item: Item):
    """parse -> (delay) -> check_naflp -> verify_certificate -> render_verdict."""
    doc = pkg.documents.parse_market_document(item.text)
    market, _ = _apply_delay(pkg, doc, item.mode)
    verdict = pkg.arbitrage.check_naflp(market)
    if not pkg.arbitrage.verify_certificate(market, verdict):
        return "certificate failed re-verification", verdict.kind
    text = pkg.arbitrage.render_verdict(verdict, market.space.states)
    if not text.startswith(f"verdict: {verdict.kind}\n"):
        return "rendered verdict does not name its kind", verdict.kind
    return None, verdict.kind


def roundtrip_item(pkg, item: Item):
    """parse -> delay -> serialize -> parse, then re-serialize byte for byte."""
    doc = pkg.documents.parse_market_document(item.text)
    market, other = _apply_delay(pkg, doc, item.mode)
    out = pkg.documents.serialize_market_document(market, **other)
    again = pkg.documents.parse_market_document(out)
    echo = pkg.documents.serialize_market_document(
        again.market, info_delays=again.info_delays, exec_delays=again.exec_delays)
    if echo != out:
        return "re-serialized document differs", None
    return None, None


def desk_generate(pkg, seed: int, size: int):
    cfg = desk_config(pkg.scenarios, seed)
    pinned = PINNED_RANDOM_NO_FREE_LUNCH.get(seed)
    for i in range(size):
        rng = pkg.scenarios._rng(seed, "ftap", i)
        if rng.random() < 0.45:
            yield pkg.scenarios.gen_martingale_market(cfg, rng=rng), NO_FREE_LUNCH
        else:
            expected = None if pinned is None else (NO_FREE_LUNCH if i in pinned else FREE_LUNCH)
            yield pkg.scenarios.gen_random_market(cfg, rng=rng), expected


def desk_serialize(pkg, i: int, entry):
    market, expected = entry
    return [Item(f"desk-{i}", pkg.documents.serialize_market_document(market), None, expected)]


def walk_generate(pkg, seed: int, ladder):
    # the walks are deterministic: the seed has no effect on this workload
    for mode, steps, lookahead in ladder:
        gen = (pkg.scenarios.gen_insider_market if mode == "information"
               else pkg.scenarios.gen_insider_execution_market)
        yield (mode, *gen(steps, lookahead))


def walk_serialize(pkg, i: int, entry):
    mode, market, fam = entry
    family = {"info_delays": fam} if mode == "information" else {"exec_delays": fam}
    text = pkg.documents.serialize_market_document(market, **family)
    name = f"{mode}-walk-{len(market.space.states)}"
    return [Item(f"{name}-plain", text, None, FREE_LUNCH), Item(f"{name}-delayed", text, mode, NO_FREE_LUNCH)]


def roundtrip_generate(pkg, seed: int, size: int):
    cfg = desk_config(pkg.scenarios, seed)
    for i in range(size):
        rng = pkg.scenarios._rng(seed, "roundtrip", i)
        m = pkg.scenarios.gen_martingale_market(cfg, rng=rng)
        info = pkg.scenarios.gen_random_delay(cfg, "information", m, rng=rng)
        execution = pkg.scenarios.gen_random_delay(cfg, "execution", m, rng=rng)
        yield m, info, execution


def roundtrip_serialize(pkg, i: int, entry):
    m, info, execution = entry
    text = pkg.documents.serialize_market_document(m, info_delays=info, exec_delays=execution)
    return [Item(f"roundtrip-{i}-information", text, "information", None),
            Item(f"roundtrip-{i}-execution", text, "execution", None)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-sweep", desk_generate, desk_serialize, verdict_item, 500, 2.7),
        Workload("walk-ladder", walk_generate, walk_serialize, verdict_item, WALK_LADDER, 5.5),
        Workload("delay-roundtrip", roundtrip_generate, roundtrip_serialize, roundtrip_item, 300, 2.2),
    )
}
