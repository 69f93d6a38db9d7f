"""Information delays and order-execution delays on finite markets.

An information delay rewinds each trading sigma-field to a stopped past,
an execution delay defers the grid time at which a received order is
priced. Both are stopping-time processes against a declared
delay-information filtration; this module builds the delayed filtrations
and delayed markets, inverts execution delays into information delays,
superimposes one execution delay over another, and takes pointwise minima
across brokers. Every delayed filtration comes from two primitives of
probability: stopped_fields reads a filtration at each row of a delay
table, and join_each joins several such sequences time by time.

A delay table is "step-continuous" when every path moves by 0 or 1 per
grid step, which makes each path's range a full integer interval; that is
the hypothesis under which composing a delay with its inverse is the
identity on the range, and it is required wherever that identity is used.
"""

from __future__ import annotations

from operator import getitem
from typing import Mapping, Sequence

from .frozen import Frozen
from .markets import Market
from .probability import (
    Filtration,
    StoppingProcess,
    grid_values,
    is_subfiltration,
    join_each,
    stopped_fields,
    validate_stopping_process,
)


class DelayPreconditionError(ValueError):
    """A delay operation's preconditions failed; carries every violation."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class InformationDelayFamily(Frozen):
    """One information delay per index set of the market."""

    _fields = ("delays",)

    def __init__(self, delays: Mapping[frozenset[str], StoppingProcess]):
        self.__dict__.update(delays={frozenset(k): v for k, v in delays.items()})


class ExecutionDelayFamily(Frozen):
    """One execution delay per asset, with optional strict caps.

    A cap c for asset a promises value < c everywhere; uncapped assets
    default to the top of the extended grid plus one. A cap needs a delay
    of its asset to bound.
    """

    _fields = ("delays", "caps")

    def __init__(self, delays: Mapping[str, StoppingProcess], caps: Mapping[str, int] | None = None):
        caps = {} if caps is None else dict(zip(caps, grid_values(caps.values())))
        stray = sorted(set(caps) - set(delays))
        if stray:
            raise ValueError(f"cap for asset {stray[0]!r}, which has no execution delay")
        self.__dict__.update(delays=dict(delays), caps=caps)

    def cap(self, asset: str, extended_horizon: int) -> int:
        return self.caps.get(asset, extended_horizon + 1)

    def reach(self, extended_horizon: int) -> int:
        """Largest grid index any delayed order can be priced at."""
        return max(self.cap(a, extended_horizon) - 1 for a in self.delays)


def _delay_problems(
    m: Market, sp: StoppingProcess, mode: str, top: int, reference: Filtration, name: str, cap: int | None = None
) -> list[str]:
    """The problems of one delay on m: its table covers order times 0..n
    and its information 0..top on m's states (a shape problem is reported
    alone), it is a valid `mode` stopping process, its information is
    coarser than `reference`, the `name` filtration, and, for an execution
    delay, every value lies below its cap."""
    n = m.space.horizon
    if sp.info.states != m.space.states:
        return ["delay information lives on a different state set"]
    if sp.grid_length() != n + 1:
        return [f"delay table must cover grid times 0..{n}"]
    if len(sp.info) != top + 1:
        return [f"delay information must cover grid times 0..{top}"]
    found = validate_stopping_process(sp, mode)
    if not is_subfiltration(sp.info, reference):
        found.append(f"delay information is not coarser than the {name} filtration")
    if cap is not None:
        if not 1 <= cap <= top + 1:
            found.append(f"cap {cap} outside 1..{top + 1}")
        if max(map(max, sp.values)) >= cap:
            t, v = next((t, v) for t, row in enumerate(sp.values) for v in row if v >= cap)
            found.append(f"cap {cap} violated at t={t} (value {v})")
    return found


def validate_information_family(m: Market, fam: InformationDelayFamily) -> list[str]:
    """Diagnostic report; empty means the family is usable on this market.

    Admissibility relates the family to m, so a family holds no market:
    every delay operation checks its family on the market it is given.
    """
    problems = [f"no information delay for index set {sorted(a)}" for a in m.index_system if a not in fam.delays]
    members = set(m.index_system)
    for a, sp in fam.delays.items():
        if a not in members:
            problems.append(f"information delay for unknown index set {sorted(a)}")
            continue
        found = _delay_problems(m, sp, "information", m.space.horizon, m.trading_filtrations[a], "trading")
        problems += [f"index set {sorted(a)}: {p}" for p in found]
    return problems


def validate_execution_family(m: Market, fam: ExecutionDelayFamily) -> list[str]:
    """Diagnostic report; empty means the family is usable on this market."""
    problems = [f"no execution delay for asset {a!r}" for a in m.assets if a not in fam.delays]
    extended = m.space.extended_horizon
    for a, sp in fam.delays.items():
        if a not in m.assets:
            problems.append(f"execution delay for unknown asset {a!r}")
            continue
        found = _delay_problems(m, sp, "execution", extended, m.grand_filtration, "grand", fam.cap(a, extended))
        problems += [f"asset {a!r}: {p}" for p in found]
    return problems


def is_step_continuous(sp: StoppingProcess) -> bool:
    """Every path moves by 0 or 1 per grid step."""
    return all(
        b - a in (0, 1)
        for row_now, row_next in zip(sp.values, sp.values[1:])
        for a, b in zip(row_now, row_next)
    )


def large_delayed_filtrations(m: Market, fam: InformationDelayFamily) -> dict[frozenset[str], Filtration]:
    """Recursively delayed trading filtrations for the whole index system.

    Each index set joins its own trading filtration, stopped at each row
    of its delay, with the results of every proper subset in the system,
    so the delayed family again agrees with the index system: monotone in
    the set order and refining in time. validate_information_family checks
    each delay against its trading filtration on m, which makes the
    stopped fields refine in t, on every call.
    """
    problems = validate_information_family(m, fam)
    if problems:
        raise DelayPreconditionError(problems)
    out: dict[frozenset[str], Filtration] = {}
    for index_set in m.index_system:  # canonical order puts subsets first
        own = stopped_fields(m.trading_filtrations[index_set], fam.delays[index_set].values)
        subs = [out[a].partitions for a in m.index_system if a < index_set]
        out[index_set] = Filtration(join_each([own, *subs]))
    return out


def information_delayed_market(m: Market, fam: InformationDelayFamily) -> Market:
    """The market with trading filtrations replaced by the delayed family."""
    return Market(m.space, m.assets, m.index_system, large_delayed_filtrations(m, fam), m.grand_filtration)


def _extended_rows(sp: StoppingProcess, upto: int) -> list[tuple[int, ...]]:
    """Delay rows for order times 0..upto, pushing past the table's end.

    Beyond its grid a delay keeps its final backlog: row(t) = max(row(T), t),
    which preserves monotonicity, the stopping property, bounds, and
    step-continuity.
    """
    rows = list(sp.values[: upto + 1])
    last = sp.values[-1]
    for t in range(sp.grid_length(), upto + 1):
        rows.append(tuple(max(v, t) for v in last))
    return rows


def delayed_market(m: Market, fam: ExecutionDelayFamily, extended_horizon: int | None = None) -> Market:
    """Reprice every asset at its delayed order time.

    The result trades on the same filtrations over the same grid, prices
    asset a at t as the original price at the stopped time, and carries
    the grand filtration joined over the per-asset stopped sigma-fields.
    With extended_horizon > horizon the delayed price table and grand
    filtration are continued past maturity so the result can itself be
    checked or delayed on a longer grid.
    """
    problems = validate_execution_family(m, fam)
    if problems:
        raise DelayPreconditionError(problems)
    space = m.space
    upto = space.horizon if extended_horizon is None else extended_horizon
    if not space.horizon <= upto <= space.extended_horizon:
        raise ValueError(f"extended horizon {upto} outside {space.horizon}..{space.extended_horizon}")
    n_states = len(space.states)
    rows_by_asset = {a: _extended_rows(fam.delays[a], upto) for a in m.assets}

    new_assets = {}
    for a, table in m.assets.items():
        rows = rows_by_asset[a]
        new_assets[a] = tuple(
            tuple(map(getitem, map(table.__getitem__, rows[t]), range(n_states))) for t in range(upto + 1)
        )
    grand = Filtration(join_each([stopped_fields(m.grand_filtration, rows_by_asset[a]) for a in sorted(m.assets)]))
    new_space = type(space)(space.states, space.probability, space.horizon, upto)
    trading = {
        a: f if len(f) <= upto + 1 else f.restrict(upto + 1)
        for a, f in m.trading_filtrations.items()
    }
    return Market(new_space, new_assets, m.index_system, trading, grand)


def _first_reach(rows: Sequence[Sequence[int]], targets: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Per target row and state i, the first index s with rows[s][i] >= target[i].

    rows must be path-wise monotone and reach every target by their last row.
    """
    return tuple(
        tuple(next(s for s, row in enumerate(rows) if row[i] >= v) for i, v in enumerate(target))
        for target in targets
    )


def invert_delay(pi: StoppingProcess) -> StoppingProcess:
    """The information delay matching an execution delay.

    value(t) is the first order time whose execution reaches t, which the
    execution bound pi(top) >= top guarantees on the whole grid; its
    information at t is the delay information stopped at pi(t), so the
    inverse is a stopping time there.
    """
    problems = validate_stopping_process(pi, "execution")
    if problems:
        raise DelayPreconditionError(problems)
    n_states = len(pi.states)
    values = _first_reach(pi.values, [(t,) * n_states for t in range(pi.grid_length())])
    return StoppingProcess(values, Filtration(stopped_fields(pi.info, pi.values)))


def superimpose_delays(fam: ExecutionDelayFamily, stronger: ExecutionDelayFamily) -> ExecutionDelayFamily:
    """The residual delay that turns the fam-delayed market into the stronger one.

    Requires fam <= stronger pointwise, step-continuous fam, and fam's
    information coarser than stronger's on the same grid. The result maps
    order time t to the first fam-delayed time from t on whose original
    price index reaches stronger(t); pricing the fam-delayed market there
    reproduces the stronger-delayed prices exactly.
    """
    problems: list[str] = []
    if set(fam.delays) != set(stronger.delays):
        raise DelayPreconditionError(["families delay different asset sets"])
    for a in fam.delays:
        base, tilde = fam.delays[a], stronger.delays[a]
        label = f"asset {a!r}"
        problems += [f"{label}: {p}" for p in validate_stopping_process(base, "execution")]
        problems += [f"{label}: {p}" for p in validate_stopping_process(tilde, "execution")]
        if base.grid_length() != tilde.grid_length():
            problems.append(f"{label}: delay tables cover different grids")
            continue
        if not is_step_continuous(base):
            problems.append(f"{label}: base delay is not step-continuous")
        if any(
            b > s for rb, rs in zip(base.values, tilde.values) for b, s in zip(rb, rs)
        ):
            problems.append(f"{label}: base delay exceeds the stronger delay somewhere")
        if len(base.info) != len(tilde.info):
            problems.append(f"{label}: delay informations cover different grids")
        elif not is_subfiltration(base.info, tilde.info):
            problems.append(f"{label}: base delay information is not coarser than the stronger one")
    if problems:
        raise DelayPreconditionError(problems)

    out: dict[str, StoppingProcess] = {}
    caps: dict[str, int] = {}
    for a in fam.delays:
        base, tilde = fam.delays[a], stronger.delays[a]
        ext = _extended_rows(base, len(base.info) - 1)
        # base is monotone, so the first reach from t on is the first reach or t
        values = tuple(tuple(max(t, s) for s in row) for t, row in enumerate(_first_reach(ext, tilde.values)))
        out[a] = StoppingProcess(values, Filtration(stopped_fields(tilde.info, ext)))
        if a in stronger.caps:
            caps[a] = stronger.caps[a]
    return ExecutionDelayFamily(out, caps)


def _pointwise_min(procs: Sequence[StoppingProcess]) -> tuple[tuple[int, ...], ...]:
    """The smallest of the procs' values at each order time and state."""
    return tuple(tuple(map(min, zip(*rows))) for rows in zip(*(p.values for p in procs)))


def min_delay(families: Sequence[ExecutionDelayFamily]) -> ExecutionDelayFamily:
    """Pointwise fastest execution across brokers sharing delay information."""
    if not families:
        raise ValueError("min_delay of an empty list")
    assets = set(families[0].delays)
    for fam in families[1:]:
        if set(fam.delays) != assets:
            raise ValueError("families delay different asset sets")
    out: dict[str, StoppingProcess] = {}
    caps: dict[str, int] = {}
    for a in sorted(assets):
        procs = [fam.delays[a] for fam in families]
        info = procs[0].info
        for p in procs[1:]:
            if p.info != info:
                raise DelayPreconditionError([f"asset {a!r}: broker delay informations differ"])
            if p.grid_length() != procs[0].grid_length():
                raise DelayPreconditionError([f"asset {a!r}: broker delay tables cover different grids"])
        out[a] = StoppingProcess(_pointwise_min(procs), info)
        declared = [fam.caps[a] for fam in families if a in fam.caps]
        if declared:
            caps[a] = min(declared)
    return ExecutionDelayFamily(out, caps)


def enlarged_trading_filtrations(m: Market, fam: ExecutionDelayFamily) -> dict[frozenset[str], Filtration]:
    """Per index set: the join over its assets of the pi-stopped trading
    field, read over the extended grid (Market.at_horizon)."""
    extended = m.at_horizon(m.space.extended_horizon).trading_filtrations
    return {
        index_set: Filtration(join_each([
            stopped_fields(extended[index_set], fam.delays[a].values) for a in sorted(index_set)
        ]))
        for index_set in m.index_system
    }


def first_compared_times(m: Market, fam: ExecutionDelayFamily) -> dict[frozenset[str], int]:
    """Per index set A, the first order time representation_check compares:
    max over a in A of max(pi_a(0)). Before it some order of A is still
    waiting for its first execution, so the inverse has no order time to
    map it back to."""
    return {A: max(max(fam.delays[a].values[0]) for a in A) for A in m.index_system}


def representation_check(m: Market, fam: ExecutionDelayFamily) -> bool:
    """Does inverting the execution delays recover the trading filtrations?

    Builds the enlarged filtrations (trading fields stopped at the
    execution times), the inverse information-delay family (per index set
    the pointwise minimum over its assets), recursively delays the
    enlarged family, and compares atoms with the original trading
    filtrations on the range the inverse delays reach: for index set A,
    the order times from first_compared_times(m, fam)[A] to n.

    Preconditions (violations raise, they are never reported as False):
    singleton index sets for all assets, step-continuous delays, delay
    information coarser than every containing trading filtration, and a
    non-empty comparison range for every index set.
    """
    problems = validate_execution_family(m, fam)
    extended = m.at_horizon(m.space.extended_horizon).trading_filtrations
    for a in sorted(m.assets):
        if frozenset({a}) not in set(m.index_system):
            problems.append(f"asset {a!r} has no singleton index set")
        sp = fam.delays.get(a)
        if sp is None:
            continue
        if not is_step_continuous(sp):
            problems.append(f"asset {a!r}: delay is not step-continuous")
        for index_set in m.index_system:
            if a in index_set and not is_subfiltration(sp.info, extended[index_set]):
                problems.append(
                    f"asset {a!r}: delay information is not coarser than the trading "
                    f"filtration of {sorted(index_set)}"
                )
    n = m.space.horizon
    if not problems:
        starts = first_compared_times(m, fam)
        problems = [
            f"index set {sorted(A)}: nothing to compare, its first execution lands at {s} > n = {n}"
            for A, s in starts.items() if s > n
        ]
    if problems:
        raise DelayPreconditionError(problems)

    enlarged = enlarged_trading_filtrations(m, fam)
    inverses = {a: invert_delay(fam.delays[a]) for a in m.assets}
    deltas = {
        A: StoppingProcess(_pointwise_min([inverses[a] for a in sorted(A)]), enlarged[A])
        for A in m.index_system
    }
    enlarged_market = Market(m.space, m.assets, m.index_system, enlarged, m.grand_filtration)
    recovered = large_delayed_filtrations(enlarged_market, InformationDelayFamily(deltas))
    return all(
        m.trading_filtrations[A].at(t).atoms == recovered[A].at(t).atoms
        for A, start in starts.items() for t in range(start, n + 1)
    )
