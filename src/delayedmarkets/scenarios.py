"""Structured and random market generators plus experiment harnesses.

Martingale-built markets price each asset as the conditional expectation
of a random terminal payoff under a random strictly positive measure,
computed in integers one atom at a time, so they are free of free lunches
by construction; fully random ones usually are not. Every delay trial
draws a martingale-built market, so each one has a safety to inherit,
and every market it checks is validated, checked and re-verified by
_check_safe; the insider demo's two trials check and re-verify the
insider walks. Every trial asserts exact theorem-level facts (a failing
trial is a bug, never noise). EXPERIMENTS maps each experiment kind to
its trial function, and run_experiment runs any kind the same way: a
failed check becomes a failing record reproduced by its market document,
and a trial that raises anything else one reproduced by its seed.

All randomness flows from a config seed through per-trial child generators
derived by stable string seeding, so any single trial can be replayed in
isolation.
"""

from __future__ import annotations

import itertools
import json
import math
import random

from .arbitrage import (
    FreeLunch,
    MartingaleMeasureCertificate,
    NoFreeLunch,
    check_naflp,
    verify_certificate,
)
from .delays import (
    ExecutionDelayFamily,
    InformationDelayFamily,
    delayed_market,
    first_compared_times,
    information_delayed_market,
    min_delay,
    representation_check,
    superimpose_delays,
    validate_execution_family,
    validate_information_family,
)
from .documents import serialize_market_document
from .frozen import Frozen
from .markets import Market, validate_market
from .probability import (
    Filtration,
    FiniteSpace,
    Partition,
    StoppingProcess,
    grid_values,
    is_subfiltration,
    join_each,
    sigma_meet,
)
from .rationals import Rational, int_multiple


class ScenarioConfig(Frozen):
    """Upper bounds and knobs for generated scenarios; sizes are drawn per trial.

    grid is the trading horizon N and extension the extended horizon for prices."""

    _fields = ("seed", "num_states", "grid", "extension", "num_assets", "max_index_sets", "brokers")

    def __init__(self, seed: int = 0, num_states: int = 10, grid: int = 3, extension: int = 5, num_assets: int = 2,
                 max_index_sets: int = 4, brokers: int = 3):
        sizes = grid_values((num_states, grid, extension, num_assets, max_index_sets, brokers))
        self.__dict__.update(zip(self._fields, (seed, *sizes)))
        positive = ("num_states", "grid", "num_assets", "max_index_sets", "brokers")
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.extension < self.grid:
            raise ValueError("extension must be at least the grid length")


# every price and payoff a generated market draws, n/d by (n, d), built once
_SMALL_RATIONALS = {(n, d): Rational(n, d) for n in range(-6, 13) for d in (1, 2, 4)}


def _rng(seed, *path) -> random.Random:
    return random.Random(":".join([str(seed), *map(str, path)]))


# ---------------------------------------------------------------------------
# random building blocks


def random_positive_measure(rng: random.Random, states) -> dict[str, Rational]:
    weights = [rng.randint(1, 9) for _ in states]
    total = sum(weights)
    return {s: Rational(w, total) for s, w in zip(states, weights)}


def _random_split(rng: random.Random, part: Partition) -> Partition:
    """Cut each atom of two or more states in two with probability 0.6: a
    random cut of its shuffled positions, the part after the cut under a
    new label (shuffle draws by length alone, so positions shuffle as
    names would)."""
    labels = list(part.labels)
    fresh = len(part.atoms)
    for positions in part.atom_positions:
        if len(positions) >= 2 and rng.random() < 0.6:
            shuffled = list(positions)
            rng.shuffle(shuffled)
            cut = rng.randint(1, len(shuffled) - 1)
            for k in shuffled[cut:]:
                labels[k] = fresh
            fresh += 1
    return Partition(part.states, labels)


def random_refining_filtration(rng: random.Random, states, length: int) -> Filtration:
    current = Partition.trivial(states)
    if len(states) > 1 and rng.random() < 0.2:
        current = _random_split(rng, current)
    parts = [current]
    for _ in range(length - 1):
        current = _random_split(rng, current)
        parts.append(current)
    return Filtration(tuple(parts))


def random_time_change(rng: random.Random, length: int) -> list[int]:
    g = [0]
    for t in range(1, length):
        g.append(min(t, g[-1] + rng.choice((0, 1, 1, 2))))
    return g


def random_subfiltration(rng: random.Random, f: Filtration) -> Filtration:
    """A filtration coarser than f at every time: trivial or a time change of f."""
    if rng.random() < 0.25:
        return Filtration.constant(Partition.trivial(f.states), len(f))
    g = random_time_change(rng, len(f))
    return Filtration(tuple(map(f.at, g)))


def random_stopping_time(rng: random.Random, f: Filtration, top: int) -> list[int]:
    """Scan the grid and stop whole atoms at random; everyone stops by `top`."""
    states = f.states
    tau = {s: top for s in states}
    alive = set(states)
    for s in range(min(top, len(f) - 1) + 1):
        for atom in f.at(s).atoms:
            if atom[0] in alive and (s == top or rng.random() < 0.35):
                for st in atom:
                    tau[st] = s
                alive -= set(atom)
    return [tau[s] for s in states]


def _random_info_values(rng: random.Random, info: Filtration, horizon: int) -> tuple[tuple[int, ...], ...]:
    """A valid information-delay table: monotone, 0 <= value <= t, stopping."""
    n = len(info.states)
    kind = rng.choice(("zero", "deterministic", "frozen", "mixed"))
    if kind == "zero":
        return tuple(tuple(t for _ in range(n)) for t in range(horizon + 1))
    schedule = random_time_change(rng, horizon + 1)
    if kind == "deterministic":
        return tuple(tuple(schedule[t] for _ in range(n)) for t in range(horizon + 1))
    tau = random_stopping_time(rng, info, horizon)
    if kind == "frozen":
        # information freezes at tau: delta(t) = min(tau, t)
        return tuple(tuple(min(tau[i], t) for i in range(n)) for t in range(horizon + 1))
    return tuple(
        tuple(max(schedule[t], min(tau[i], t)) for i in range(n)) for t in range(horizon + 1)
    )


def _random_exec_values(
    rng: random.Random,
    info: Filtration,
    horizon: int,
    top: int,
    continuous: bool,
) -> tuple[tuple[int, ...], ...]:
    """A valid execution-delay table with values in [t, top]."""
    n = len(info.states)
    jumps = (0, 1) if continuous else (0, 1, 1, 2, 3)
    d = [min(top, rng.randint(0, 2))]
    for t in range(1, horizon + 1):
        d.append(min(top, max(t, d[-1] + rng.choice(jumps))))
    kind = rng.choice(("identity", "deterministic", "queue", "mixed"))
    if kind == "identity":
        return tuple(tuple(t for _ in range(n)) for t in range(horizon + 1))
    if kind == "deterministic":
        return tuple(tuple(d[t] for _ in range(n)) for t in range(horizon + 1))
    tau = random_stopping_time(rng, info, top)
    queue = [tuple(min(top, max(tau[i], t)) for i in range(n)) for t in range(horizon + 1)]
    if kind == "queue":
        return tuple(queue)
    return tuple(
        tuple(min(d[t], queue[t][i]) for i in range(n)) for t in range(horizon + 1)
    )


def _delay_info_for_asset(rng: random.Random, m: Market, asset: str) -> Filtration:
    """Delay information for one asset: coarser than every containing trading
    filtration at all times, and frozen past the trading horizon."""
    containing = [m.trading_filtrations[a] for a in m.index_system if asset in a]
    horizon, extended = m.space.horizon, m.space.extended_horizon
    if containing:
        meet = Filtration(tuple(
            sigma_meet([f.at(t) for f in containing]) for t in range(horizon + 1)
        ))
    else:
        meet = Filtration.constant(Partition.trivial(m.space.states), horizon + 1)
    g = random_time_change(rng, extended + 1)
    return Filtration(tuple(meet.at(min(g[u], horizon)) for u in range(extended + 1)))


def gen_random_delay(
    cfg: ScenarioConfig,
    mode: str,
    m: Market,
    *,
    continuous: bool = False,
    capped: bool = False,
    rng: random.Random | None = None,
):
    """Random valid delay family of the requested mode for a market."""
    rng = rng if rng is not None else _rng(cfg.seed, "delay", mode)
    horizon = m.space.horizon
    extended = m.space.extended_horizon
    if mode == "information":
        delays = {}
        for index_set in m.index_system:
            info = random_subfiltration(rng, m.trading_filtrations[index_set].restrict(horizon + 1))
            delays[index_set] = StoppingProcess(_random_info_values(rng, info, horizon), info)
        return InformationDelayFamily(delays)
    if mode != "execution":
        raise ValueError(f"unknown delay mode {mode!r}")
    delays = {}
    caps = {}
    for asset in sorted(m.assets):
        info = _delay_info_for_asset(rng, m, asset)
        cap = rng.randint(horizon + 1, extended + 1) if capped else extended + 1
        values = _random_exec_values(rng, info, horizon, cap - 1, continuous)
        delays[asset] = StoppingProcess(values, info)
        if capped:
            caps[asset] = cap
    return ExecutionDelayFamily(delays, caps)


# ---------------------------------------------------------------------------
# market generators


def _union_closed_index_system(rng: random.Random, assets, max_sets: int, singletons: bool):
    """A union-closed index system on `assets`: at most max_sets sets, or,
    with singletons, every nonempty subset.

    With singletons, max_sets does not apply: the representation check
    needs a singleton index set per asset, and the union closure of all
    singletons is every nonempty subset, 2^n - 1 sets for n assets, so no
    bound below that can hold. The full set and the two sampled sets add
    nothing to that closure, but they are still drawn: they consume the
    generator's draws, and the trial markets that follow are pinned to
    that draw order."""
    ids = list(assets)
    if singletons:
        drawn = [frozenset([a]) for a in ids] + [frozenset(ids)]
        drawn += [frozenset(rng.sample(ids, rng.randint(1, len(ids)))) for _ in range(2)]
        return _union_closure(drawn)
    for _ in range(6):
        k = rng.randint(1, max(1, min(max_sets - 1, len(ids))))
        drawn = [frozenset(rng.sample(ids, rng.randint(1, len(ids)))) for _ in range(k)]
        family = _union_closure(drawn, max_sets)
        if family is not None:
            return family
    return _union_closure([frozenset(ids)])


def _union_closure(sets, max_sets=math.inf) -> set[frozenset] | None:
    """The union closure of `sets`, folding in one set at a time: the closure
    of C and s is C, s and s | c for each c in C. None as soon as it holds
    more than max_sets sets, since the closure only grows."""
    closed: set[frozenset] = set()
    for s in sets:
        closed |= {s | c for c in closed}
        closed.add(s)
        if len(closed) > max_sets:
            return None
    return closed


def _random_filtration_bundle(rng: random.Random, space: FiniteSpace, index_system):
    """Grand filtration plus monotone trading filtrations built from
    per-asset information joined over each index set."""
    grand = random_refining_filtration(rng, space.states, space.extended_horizon + 1)
    restricted = grand.restrict(space.horizon + 1)
    assets_present = sorted(set().union(*index_system)) if index_system else []
    base = {a: random_subfiltration(rng, restricted) for a in assets_present}
    trading = {
        index_set: Filtration(join_each([base[a].partitions for a in sorted(index_set)]))
        for index_set in index_system
    }
    return grand, trading


def _draw_frame(rng: random.Random, cfg: ScenarioConfig, singletons: bool = False, min_extension: int = 0):
    """What both market generators draw before their prices, in this order:
    the space, the asset count and names, the index system and the
    filtration bundle. Returns (space, assets, index_system, grand, trading)."""
    n_states = rng.randint(2, max(2, cfg.num_states))
    states = tuple(f"s{i}" for i in range(n_states))
    horizon = rng.randint(1, max(1, cfg.grid))
    extension = rng.randint(max(horizon, horizon + min_extension), max(horizon + min_extension, cfg.extension))
    space = FiniteSpace(states, random_positive_measure(rng, states), horizon, extension)
    assets = tuple(f"a{i}" for i in range(rng.randint(1, max(1, cfg.num_assets))))
    index_system = _union_closed_index_system(rng, assets, cfg.max_index_sets, singletons)
    return (space, assets, index_system, *_random_filtration_bundle(rng, space, index_system))


def gen_martingale_market(
    cfg: ScenarioConfig,
    *,
    rng: random.Random | None = None,
    with_measure: bool = False,
    singletons: bool = False,
    min_extension: int = 0,
):
    """A market that is free of free lunches at every horizon by construction.

    Draws a strictly positive measure q and one random terminal payoff per
    atom of the final grand partition, and prices each asset at time t by
    E_q[payoff | F_t] along the grand filtration, so every asset is a
    martingale under q. The grand filtration refines, so by the tower
    property each row is the conditional expectation of the next one. The
    rows are computed on ints: q and each payoff are scaled to ints once,
    and each atom of F_t gives one int sum and one rational.
    """
    rng = rng if rng is not None else _rng(cfg.seed, "martingale-market")
    space, assets, index_system, grand, trading = _draw_frame(rng, cfg, singletons, min_extension)
    q_map = random_positive_measure(rng, space.states)
    weights, _ = int_multiple(q_map[s] for s in space.states)
    earlier = grand.partitions[:-1]
    masses = [[sum(map(weights.__getitem__, atom)) for atom in p.atom_positions] for p in earlier]
    final = grand.partitions[-1]

    tables = {}
    for a in assets:
        payoffs = [_SMALL_RATIONALS[rng.randint(-6, 12), rng.choice((1, 1, 2, 4))] for _ in final.atoms]
        scaled, scale = int_multiple(payoffs)
        weighted = [w * scaled[label] for w, label in zip(weights, final.labels)]
        rows = []
        for p, mass in zip(earlier, masses):
            values = [Rational(sum(map(weighted.__getitem__, atom)), m * scale)
                      for atom, m in zip(p.atom_positions, mass)]
            rows.append(tuple(map(values.__getitem__, p.labels)))
        rows.append(tuple(map(payoffs.__getitem__, final.labels)))
        tables[a] = tuple(rows)
    market = Market(space, tables, tuple(index_system), trading, grand)
    if with_measure:
        return market, MartingaleMeasureCertificate(q_map)
    return market


def gen_random_market(cfg: ScenarioConfig, *, rng: random.Random | None = None) -> Market:
    """A market with adapted but otherwise arbitrary prices; usually not
    arbitrage-free, which exercises the free-lunch side of the oracles."""
    rng = rng if rng is not None else _rng(cfg.seed, "random-market")
    space, assets, index_system, grand, trading = _draw_frame(rng, cfg)
    tables = {}
    for a in assets:
        rows = []
        for p in grand.partitions:
            values = [_SMALL_RATIONALS[rng.randint(-4, 10), rng.choice((1, 1, 2))] for _ in p.atoms]
            rows.append(tuple(map(values.__getitem__, p.labels)))
        tables[a] = tuple(rows)
    return Market(space, tables, tuple(index_system), trading, grand)


WALK_STATE_CAP = 2 ** 14  # the most states an insider walk may have


def _walk_states(length: int):
    if 2 ** length > WALK_STATE_CAP:
        raise ValueError(f"walk needs 2^{length} states, over the cap {WALK_STATE_CAP}")
    return tuple("".join(p) for p in itertools.product("+-", repeat=length))


def _prefix_filtration(states, horizons) -> Filtration:
    return Filtration(tuple(
        Partition(states, [s[:k] for s in states]) for k in horizons
    ))


def _insider_walk(steps: int, lookahead: int, length: int, peek):
    """The walk over all +/- paths of `length` steps that both insider
    generators share: uniform, priced and known `lookahead` steps ahead up
    to the extended horizon steps + lookahead, with one index set trading on
    path prefixes of the lengths in `peek`. Returns the market and the
    trivial delay information over its extended horizon."""
    if steps < 1 or lookahead < 0 or lookahead > steps:
        raise ValueError("need steps >= 1 and 0 <= lookahead <= steps")
    states = _walk_states(length)
    extended = steps + lookahead
    space = FiniteSpace.uniform(states, steps, extended)
    prices = tuple(tuple(Rational(2 * s[:t].count("+") - t) for s in states) for t in range(extended + 1))
    grand = _prefix_filtration(states, [min(t + lookahead, length) for t in range(extended + 1)])
    index_set = frozenset({"walk"})
    trading = {index_set: _prefix_filtration(states, peek)}
    market = Market(space, {"walk": prices}, (index_set,), trading, grand)
    return market, Filtration.constant(Partition.trivial(states), extended + 1)


def gen_insider_market(steps: int, lookahead: int):
    """Walk market whose trading information peeks `lookahead` steps ahead.

    The peek makes a sure win available from time 1 on; delaying the
    information by the same lookahead restores the walk's natural
    filtration (trading at time 0 is blind, so nothing is known there
    either) and with it the uniform martingale measure.
    """
    peek = [0] + [t + lookahead for t in range(1, steps + 1)]
    market, trivial = _insider_walk(steps, lookahead, steps + lookahead, peek)
    delays = [max(t - lookahead, 0) for t in range(steps + 1)]
    delta = StoppingProcess.deterministic(delays, trivial.restrict(steps + 1))
    return market, InformationDelayFamily({frozenset({"walk"}): delta})


def gen_insider_execution_market(steps: int, lookahead: int):
    """Walk market with a peeking filtration and the matching execution delay.

    Undelayed, the peek is a sure win even at time 0; deferring every
    order by the lookahead executes at prices the information no longer
    anticipates, and the uniform measure prices the delayed market.
    """
    peek = [t + lookahead for t in range(steps + 1)]
    market, trivial = _insider_walk(steps, lookahead, steps + 2 * lookahead, peek)
    pi = StoppingProcess.deterministic(peek, trivial)  # an order placed at t executes at t + lookahead
    return market, ExecutionDelayFamily({"walk": pi}, {"walk": steps + lookahead + 1})


# ---------------------------------------------------------------------------
# experiment harnesses


class TrialRecord(Frozen):
    _fields = ("index", "label", "ok", "detail", "reproduction")

    def __init__(self, index: int, label: str, ok: bool, detail: str = "", reproduction: dict | None = None):
        self.__dict__.update(index=index, label=label, ok=ok, detail=detail, reproduction=reproduction)


class ExperimentReport(Frozen):
    _fields = ("kind", "seed", "records")

    def __init__(self, kind: str, seed: int, records: tuple[TrialRecord, ...]):
        self.__dict__.update(kind=kind, seed=seed, records=records)

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> tuple[dict, ...]:
        return tuple(
            {"index": r.index, "label": r.label, "detail": r.detail, "reproduction": r.reproduction}
            for r in self.records
            if not r.ok
        )

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.records)

    def to_json(self) -> str:
        payload = {
            "format_version": 1,
            "kind": self.kind,
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "records": [
                {"index": r.index, "label": r.label, "ok": r.ok, "detail": r.detail}
                for r in self.records
            ],
            "failures": list(self.failures),
        }
        return json.dumps(payload, indent=2)


class _TrialFailure(Exception):
    """A trial's failed check: its detail, plus the market and delay family
    (keyword arguments of serialize_market_document) that reproduce it."""

    def __init__(self, detail: str, m: Market, **delays):
        super().__init__(detail)
        self.market, self.delays = m, delays

    def reproduction(self) -> dict:
        try:
            return json.loads(serialize_market_document(self.market, **self.delays))
        except Exception as exc:  # reproduction must never mask the failure itself
            return {"serialization_error": repr(exc)}


def _check_safe(what: str, market: Market, horizon: int | None, m: Market, **delays) -> None:
    """Validate `market`, check it at `horizon` and re-verify its certificate
    there; a failure names `what` and reproduces by m and its delays."""
    problems = validate_market(market)
    if problems:
        raise _TrialFailure(f"{what} failed validation: {problems[0]}", m, **delays)
    market = market.at_horizon(horizon)
    verdict = check_naflp(market)
    if not isinstance(verdict, NoFreeLunch):
        raise _TrialFailure(f"{what} showed a free lunch", m, **delays)
    if not verify_certificate(market, verdict):
        raise _TrialFailure(f"{what} failed re-verification of its measure certificate", m, **delays)


def _information_trial(cfg: ScenarioConfig, rng: random.Random, i: int) -> TrialRecord:
    """Information-delay inheritance at desk scale."""
    m = gen_martingale_market(cfg, rng=rng)
    fam = gen_random_delay(cfg, "information", m, rng=rng)
    _check_safe("martingale-built market", m, None, m, info_delays=fam)
    problems = validate_information_family(m, fam)
    if problems:
        raise _TrialFailure(f"generated delay family invalid: {problems[0]}", m, info_delays=fam)
    delayed = information_delayed_market(m, fam)
    if not all(is_subfiltration(f, m.trading_filtrations[a]) for a, f in delayed.trading_filtrations.items()):
        raise _TrialFailure("delayed filtration finer than the original", m, info_delays=fam)
    _check_safe("information-delayed market", delayed, None, m, info_delays=fam)
    return TrialRecord(i, "information", True, "inherited")


def _execution_trial(cfg: ScenarioConfig, rng: random.Random, i: int) -> TrialRecord:
    """Execution-delay inheritance at desk scale."""
    m = gen_martingale_market(cfg, rng=rng, min_extension=1)
    fam = gen_random_delay(
        cfg, "execution", m,
        continuous=rng.random() < 0.5,
        capped=rng.random() < 0.5,
        rng=rng,
    )
    problems = validate_execution_family(m, fam)
    if problems:
        raise _TrialFailure(f"generated delay family invalid: {problems[0]}", m, exec_delays=fam)
    _check_safe("martingale-built market", m, fam.reach(m.space.extended_horizon), m, exec_delays=fam)
    _check_safe("execution-delayed market", delayed_market(m, fam), None, m, exec_delays=fam)
    return TrialRecord(i, "execution", True, "inherited")


def _draw_infos_and_caps(rng: random.Random, m: Market):
    """Per-asset delay information, then per-asset execution caps."""
    infos = {a: _delay_info_for_asset(rng, m, a) for a in sorted(m.assets)}
    caps = {a: rng.randint(m.space.horizon + 1, m.space.extended_horizon + 1) for a in sorted(m.assets)}
    return infos, caps


def _shared_info_families(m: Market, k: int, rng: random.Random):
    """k execution families sharing per-asset delay information and caps."""
    infos, caps = _draw_infos_and_caps(rng, m)
    families = []
    for _ in range(k):
        delays = {
            a: StoppingProcess(
                _random_exec_values(rng, infos[a], m.space.horizon, caps[a] - 1, rng.random() < 0.5),
                infos[a],
            )
            for a in sorted(m.assets)
        }
        families.append(ExecutionDelayFamily(delays, dict(caps)))
    return families


def _broker_trial(cfg: ScenarioConfig, rng: random.Random, i: int) -> TrialRecord:
    """The multi-broker approach: if the fastest broker's market is safe, every broker's is."""
    m = gen_martingale_market(cfg, rng=rng, min_extension=1)
    k = rng.randint(2, max(2, cfg.brokers))
    families = _shared_info_families(m, k, rng)
    fastest = min_delay(families)
    for fam in families:
        for a in fam.delays:
            fast, slow = fastest.delays[a].values, fam.delays[a].values
            if any(f > s for rf, rs in zip(fast, slow) for f, s in zip(rf, rs)):
                raise _TrialFailure("minimum delay exceeds a broker delay", m, exec_delays=fastest)
    horizon = fastest.reach(m.space.extended_horizon)
    fast_market = delayed_market(m, fastest, extended_horizon=horizon)
    _check_safe("fastest broker's market", fast_market, horizon, m, exec_delays=fastest)
    for l, fam in enumerate(families):
        _check_safe(f"broker {l}'s market", delayed_market(m, fam), None, m, exec_delays=fam)
    return TrialRecord(i, "broker", True, f"{k} brokers inherited")


def _superimpose_trial(cfg: ScenarioConfig, rng: random.Random, i: int) -> TrialRecord:
    """Composed delays reproduce stronger-delayed prices and inherit safety."""
    m = gen_martingale_market(cfg, rng=rng, min_extension=1)
    horizon = m.space.horizon
    extended = m.space.extended_horizon
    infos, caps = _draw_infos_and_caps(rng, m)
    base_delays = {}
    strong_delays = {}
    for a in sorted(m.assets):
        top = caps[a] - 1
        base_vals = _random_exec_values(rng, infos[a], horizon, top, continuous=True)
        over_vals = _random_exec_values(rng, infos[a], horizon, top, continuous=True)
        strong_vals = tuple(
            tuple(max(b, o) for b, o in zip(rb, ro)) for rb, ro in zip(base_vals, over_vals)
        )
        base_delays[a] = StoppingProcess(base_vals, infos[a])
        strong_delays[a] = StoppingProcess(strong_vals, infos[a])
    base_fam = ExecutionDelayFamily(base_delays, dict(caps))
    strong_fam = ExecutionDelayFamily(strong_delays, dict(caps))

    composed = superimpose_delays(base_fam, strong_fam)
    base_market = delayed_market(m, base_fam, extended_horizon=extended)
    strong_market = delayed_market(m, strong_fam)
    if validate_execution_family(base_market, composed):
        raise _TrialFailure("composed delay failed validation on the delayed market", m, exec_delays=strong_fam)
    if delayed_market(base_market, composed).assets != strong_market.assets:
        raise _TrialFailure("price identity broken: delaying the base-delayed market by the composed "
                            "delay does not give the stronger-delayed prices", m, exec_delays=strong_fam)
    _check_safe("base-delayed market", base_market, strong_fam.reach(extended), m, exec_delays=base_fam)
    _check_safe("stronger-delayed market", strong_market, None, m, exec_delays=strong_fam)
    return TrialRecord(i, "superimpose", True, "identity and inheritance hold")


def _representation_trial(cfg: ScenarioConfig, rng: random.Random, i: int) -> TrialRecord:
    """Inverting execution delays must reconstruct the trading filtrations."""
    m = gen_martingale_market(cfg, rng=rng, singletons=True)
    horizon = m.space.horizon
    delays = {}
    for a in sorted(m.assets):
        info = _delay_info_for_asset(rng, m, a)
        # values at most n, so every index set's comparison range is non-empty
        values = _random_exec_values(rng, info, horizon, horizon, continuous=True)
        delays[a] = StoppingProcess(values, info)
    fam = ExecutionDelayFamily(delays)
    if not representation_check(m, fam):
        raise _TrialFailure("reconstructed filtration differs from the original", m, exec_delays=fam)
    pairs = sum(horizon + 1 - start for start in first_compared_times(m, fam).values())
    moved = sum(any(v != t for t, row in enumerate(sp.values) for v in row) for sp in delays.values())
    detail = (f"reconstruction exact; (index set, time) pairs compared: {pairs}; "
              f"delays not the identity: {moved} of {len(delays)}")
    return TrialRecord(i, "representation", True, detail)


INSIDER_WALKS = (
    ("insider-information", gen_insider_market, information_delayed_market),
    ("insider-execution", gen_insider_execution_market, delayed_market),
)


def _insider_trial(cfg: ScenarioConfig, rng: random.Random, i: int) -> TrialRecord:
    """The converse failures: delays can remove but never create free
    lunches. Trial i checks walk i of INSIDER_WALKS and draws nothing."""
    label, walk, delay = INSIDER_WALKS[i]
    m, fam = walk(max(2, min(cfg.grid, 3)), 1)
    markets = {"undelayed": m, "delayed": delay(m, fam)}
    verdicts = {name: check_naflp(market) for name, market in markets.items()}
    rejected = [f"{name} market failed re-verification of its certificate"
                for name, market in markets.items() if not verify_certificate(market, verdicts[name])]
    return TrialRecord(
        i, label,
        isinstance(verdicts["undelayed"], FreeLunch) and isinstance(verdicts["delayed"], NoFreeLunch)
        and not rejected,
        ", ".join([f"{name}={v.kind}" for name, v in verdicts.items()] + rejected),
    )


INSIDER_DEMO = "insider-demo"  # the one kind whose trials are fixed: one per insider walk
EXPERIMENTS = {
    "information": _information_trial,
    "execution": _execution_trial,
    "broker": _broker_trial,
    "superimpose": _superimpose_trial,
    "representation": _representation_trial,
    INSIDER_DEMO: _insider_trial,
}


def run_experiment(cfg: ScenarioConfig, kind: str, trials: int) -> ExperimentReport:
    """Run `trials` trials of one experiment kind, trial i on its own
    generator _rng(seed, kind, i).

    A failed check is a failing trial reproduced by its market document;
    a trial that raises anything else is a failing trial, not a crash of
    the run, reproduced by the replay key of that generator.
    """
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    trial = EXPERIMENTS[kind]
    records: list[TrialRecord] = []
    for i in range(trials):
        try:
            record = trial(cfg, _rng(cfg.seed, kind, i), i)
        except _TrialFailure as failure:
            record = TrialRecord(i, kind, False, str(failure), failure.reproduction())
        except Exception as exc:
            record = TrialRecord(i, kind, False, f"exception: {exc!r}",
                                 {"seed": cfg.seed, "kind": kind, "index": i})
        records.append(record)
    return ExperimentReport(kind, cfg.seed, tuple(records))
