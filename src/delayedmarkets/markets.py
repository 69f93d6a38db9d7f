"""Markets with restricted information.

A market bundles grid-indexed asset prices, a union-closed index system of
tradeable asset subsets, one trading filtration per index set, and a grand
filtration carrying all market information. Simple strategies hold
atom-measurable positions between finitely many dates (validate_strategy
checks one against a market); their terminal wealths are the attainable
claims, for which gain_generators produces a finite generator set. The
certificate checker replays a strategy's terminal wealth itself
(arbitrage.terminal_wealth).
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations
from typing import Mapping, Sequence

from .frozen import Frozen
from .probability import Filtration, FiniteSpace, Partition, grid_values, refines
from .rationals import Rational, int_multiple

PriceTable = tuple[tuple[Rational, ...], ...]  # time-major: table[t][state]


class Market(Frozen):
    """Assets, index system, trading filtrations, and grand filtration.

    Asset tables span 0..extended_horizon and the grand filtration with
    them. Trading filtrations span at least 0..horizon; a market may
    declare them further out (up to the extended horizon) when trading
    information past maturity matters. Every check reads the market over
    0..space.horizon; at_horizon gives the market traded over a longer
    grid. Prices are taken as given, shape errors raise immediately and
    semantic invariants are reported by validate_market.
    """

    _fields = ("space", "assets", "index_system", "trading_filtrations", "grand_filtration")

    def __init__(self, space: FiniteSpace, assets: Mapping[str, PriceTable], index_system: Sequence[frozenset[str]],
                 trading_filtrations: Mapping[frozenset[str], Filtration], grand_filtration: Filtration):
        n_states = len(space.states)
        rows = space.extended_horizon + 1
        frozen_assets = {}
        for aid, table in assets.items():
            table = tuple(map(tuple, table))
            if len(table) != rows:
                raise ValueError(f"asset {aid!r}: price table must have {rows} time rows")
            if any(len(r) != n_states for r in table):
                raise ValueError(f"asset {aid!r}: price rows must have {n_states} entries")
            frozen_assets[aid] = table
        index_system = tuple(sorted({frozenset(a) for a in index_system}, key=lambda a: (len(a), sorted(a))))
        filts = {frozenset(k): v for k, v in trading_filtrations.items()}
        if len(grand_filtration) != rows:
            raise ValueError(f"grand filtration must span 0..{rows - 1}")
        if grand_filtration.states != space.states:
            raise ValueError("grand filtration state set differs from the space")
        for a, f in filts.items():
            if f.states != space.states:
                raise ValueError(f"trading filtration for {sorted(a)} has a different state set")
            if not space.horizon + 1 <= len(f) <= rows:
                raise ValueError(
                    f"trading filtration for {sorted(a)} must span at least 0..{space.horizon} "
                    f"and at most 0..{space.extended_horizon}"
                )
        self.__dict__.update(space=space, assets=frozen_assets, index_system=index_system,
                             trading_filtrations=filts, grand_filtration=grand_filtration)

    @cached_property
    def price_scale(self) -> int:
        """The lcm D of the denominators of every price of every asset, so
        that D times any price is an int; computed on first use."""
        return math.lcm(*{v.denominator for table in self.assets.values() for row in table for v in row})

    def at_horizon(self, horizon: int | None) -> "Market":
        """The market traded over 0..horizon, for checking only: past its
        declared grid each trading filtration repeats its final partition,
        and None or the own horizon gives the market itself. A horizon that
        is not an int raises TypeError. Delay tables cover 0..n, so the
        delay functions take a market at its own horizon."""
        n, n_ext = self.space.horizon, self.space.extended_horizon
        if horizon is None or grid_values((horizon,)) == (n,):
            return self
        if not n <= horizon <= n_ext:
            raise ValueError(f"horizon must lie in {n}..{n_ext}")
        filts = {a: f.extend_to(horizon + 1) for a, f in self.trading_filtrations.items()}
        space = FiniteSpace(self.space.states, self.space.probability, horizon, n_ext)
        return Market(space, self.assets, self.index_system, filts, self.grand_filtration)


def validate_market(m: Market) -> list[str]:
    """Diagnostic report of every violated market invariant; empty means valid."""
    problems: list[str] = []
    ids = set(m.assets)

    members = set(m.index_system)
    for a in m.index_system:
        if not a:
            problems.append("index system contains an empty set")
        if not a <= ids:
            problems.append(f"index set {sorted(a)} names unknown assets")
    for a1, a2 in combinations(m.index_system, 2):
        if a1 | a2 not in members:
            problems.append(
                f"refining property violated: union of {sorted(a1)} and {sorted(a2)} is not in the index system"
            )
    missing = [a for a in m.index_system if a not in m.trading_filtrations]
    for a in missing:
        problems.append(f"no trading filtration declared for index set {sorted(a)}")
    extra = [a for a in m.trading_filtrations if a not in members]
    for a in extra:
        problems.append(f"trading filtration declared for unknown index set {sorted(a)}")

    # the index system is sorted by size, so a proper subset comes first
    for a1, a2 in combinations(m.index_system, 2):
        if a1 < a2 and a1 in m.trading_filtrations and a2 in m.trading_filtrations:
            # compared on the grid at_horizon pads both filtrations to
            f1, f2 = m.trading_filtrations[a1], m.trading_filtrations[a2]
            length = max(len(f1), len(f2))
            for t, (p1, p2) in enumerate(zip(f1.extend_to(length).partitions, f2.extend_to(length).partitions)):
                if not refines(p2, p1):
                    problems.append(
                        f"monotonicity property violated: filtration of {sorted(a1)} is not coarser than "
                        f"that of {sorted(a2)} at t={t}"
                    )
                    break

    for a, f in m.trading_filtrations.items():
        if a not in members:
            continue
        for t, (g, p) in enumerate(zip(m.grand_filtration.partitions, f.partitions)):
            if not refines(g, p):
                problems.append(
                    f"trading filtration of {sorted(a)} is finer than the grand filtration at t={t}"
                )
                break

    for aid, table in m.assets.items():
        for t, (row, g) in enumerate(zip(table, m.grand_filtration.partitions)):
            if not is_measurable(row, g):
                problems.append(f"asset {aid!r} not adapted: price at t={t} varies inside a grand-filtration atom")
                break
    return problems


def is_measurable(x: Sequence[Rational], sigma: Partition) -> bool:
    """True iff x is constant on every atom of sigma: each entry equals
    the first entry of its atom (equal values are often the same object)."""
    for atom in sigma.atom_positions:
        first = x[atom[0]]
        for k in atom:
            v = x[k]
            if v is not first and v != first:
                return False
    return True


class Strategy(Frozen):
    """Piecewise-constant holdings on one index set between ordered dates.

    holdings[i] maps each traded asset to a state vector held over the
    interval (dates[i], dates[i+1]]; each vector must be measurable for the
    index set's trading filtration at dates[i].
    """

    _fields = ("index_set", "dates", "holdings")

    def __init__(self, index_set: frozenset[str], dates: Sequence[int],
                 holdings: Sequence[Mapping[str, Sequence[Rational]]]):
        index_set = frozenset(index_set)
        dates = grid_values(dates)
        if len(dates) < 2:
            raise ValueError("a strategy needs at least two dates")
        if any(a >= b for a, b in zip(dates, dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if len(holdings) != len(dates) - 1:
            raise ValueError("one holdings map per interval between consecutive dates")
        frozen = tuple({aid: tuple(vec) for aid, vec in h.items()} for h in holdings)
        for h in frozen:
            if not set(h) <= index_set:
                raise ValueError("holdings name assets outside the index set")
        self.__dict__.update(index_set=index_set, dates=dates, holdings=frozen)


def validate_strategy(m: Market, s: Strategy) -> list[str]:
    """Report contract violations of a strategy against a market."""
    problems: list[str] = []
    horizon = m.space.horizon
    if s.index_set not in set(m.index_system):
        problems.append(f"index set {sorted(s.index_set)} is not in the index system")
        return problems
    if s.dates[0] < 0 or s.dates[-1] > horizon:
        problems.append(f"dates {s.dates} leave the grid 0..{horizon}")
        return problems
    filtration = m.trading_filtrations[s.index_set]
    n_states = len(m.space.states)
    for i, h in enumerate(s.holdings):
        t_prev = s.dates[i]
        sigma = filtration.at(t_prev)
        for aid, vec in h.items():
            if len(vec) != n_states:
                problems.append(f"holding vector for {aid!r} has wrong length")
            elif not is_measurable(vec, sigma):
                problems.append(
                    f"holding for {aid!r} over ({t_prev}, {s.dates[i + 1]}] is not measurable at time {t_prev}"
                )
    return problems


class GainGenerator(Frozen):
    """One-step gain of holding an atom indicator of one asset.

    Its gain vector is 1_atom(w) * (price(step + 1, w) - price(step, w)),
    held sparse: deltas are the (state position, price change) pairs of
    the atom's states whose price changes, in increasing position order,
    each change an int in units of 1/D for the market's price_scale D.
    The linear span of all generators equals the attainable terminal
    wealths.
    """

    _fields = ("index_set", "asset", "step", "atom", "deltas")

    def __init__(self, index_set: frozenset[str], asset: str, step: int, atom: tuple[str, ...],
                 deltas: tuple[tuple[int, int], ...]):
        self.__dict__.update(index_set=index_set, asset=asset, step=step, atom=atom, deltas=deltas)


def gain_generators(m: Market) -> list[GainGenerator]:
    """Finite generator set of the attainable-terminal-wealth space.

    Any holding over a longer interval telescopes into per-step holdings
    that stay measurable at the earlier date, so consecutive-step atom
    indicators span every simple strategy's terminal wealth. Deltas are
    ints in units of 1/D for the one market-wide price_scale D, so equal
    vectors of different assets stay equal. Zero vectors are dropped and
    duplicate vectors keep their first (canonical) provenance.
    """
    horizon = m.space.horizon
    out: list[GainGenerator] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    scale = m.price_scale
    scaled = {a: [int_multiple(row, scale)[0] for row in table[:horizon + 1]] for a, table in m.assets.items()}
    for index_set in m.index_system:
        filtration = m.trading_filtrations[index_set]
        for asset in sorted(index_set):
            table = scaled[asset]
            for t in range(horizon):
                now, nxt = table[t], table[t + 1]
                sigma = filtration.at(t)
                for atom, positions in zip(sigma.atoms, sigma.atom_positions):
                    deltas = tuple((k, nxt[k] - now[k]) for k in positions if nxt[k] != now[k])
                    if deltas and deltas not in seen:
                        seen.add(deltas)
                        out.append(GainGenerator(index_set, asset, t, atom, deltas))
    return out
