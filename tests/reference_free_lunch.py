"""The Fraction certificate assembly that
`delayedmarkets.arbitrage.find_free_lunch` replaced, kept as the
reference that `test_arbitrage.py` compares the integer assembly against:
the same LP, solved by the dense Fraction simplex of `reference_lp`, then
the terminal wealth and the holdings summed as fractions. The two must
return equal free-lunch certificates. This side returns None where the
optimum is 0; it reads no duals.
"""

from __future__ import annotations

from types import SimpleNamespace

from delayedmarkets import lp
from delayedmarkets.arbitrage import FreeLunchCertificate, OracleDisagreementError
from delayedmarkets.markets import GainGenerator, Market, Strategy
from delayedmarkets.rationals import Rational, ZERO

from reference_lp import reference_solve


def _dense(row, width: int) -> tuple[Rational, ...]:
    out = [ZERO] * width
    for k, v in row:
        out[k] = Rational(v)
    return tuple(out)


def reference_find_free_lunch(m: Market, gens: list[GainGenerator]) -> FreeLunchCertificate | None:
    if not gens:
        return None
    n_states = len(m.space.states)
    lower: list[list] = [[] for _ in range(n_states)]
    upper: list[list] = [[] for _ in range(n_states)]
    objective = []
    for j, g in enumerate(gens):
        total = 0
        for w, d in g.deltas:
            nd = -d
            lower[w] += ((2 * j, nd), (2 * j + 1, d))
            upper[w] += ((2 * j, d), (2 * j + 1, nd))
            total += d
        if total:
            objective += ((2 * j, total), (2 * j + 1, -total))
    width = 2 * len(gens)
    problem = SimpleNamespace(
        num_vars=width,
        objective=_dense(objective, width),
        equalities=(),
        inequalities=tuple((_dense(row, width), ZERO) for row in lower)
        + tuple((_dense(row, width), Rational(1)) for row in upper),
    )
    outcome = reference_solve(problem)
    if outcome.status != lp.OPTIMAL:
        raise OracleDisagreementError(f"free-lunch search ended {outcome.status}; the claim box is compact")
    if outcome.objective == 0:
        return None
    x = outcome.solution
    units = [x[2 * j] - x[2 * j + 1] for j in range(len(gens))]
    terminal = [ZERO] * n_states
    for c, g in zip(units, gens):
        if c != 0:
            for w, d in g.deltas:
                terminal[w] += c * d
    strategy = _strategy_from_active(m, gens, [m.price_scale * c for c in units])
    return FreeLunchCertificate(strategy=strategy, terminal_wealth=tuple(terminal))


def _strategy_from_active(m: Market, gens: list[GainGenerator], coeffs) -> Strategy:
    active = [(c, g) for c, g in zip(coeffs, gens) if c != 0]
    if not active:
        raise ValueError("no active generators to build a strategy from")
    index_set = frozenset().union(*(g.index_set for _, g in active))
    if index_set not in set(m.index_system):
        raise OracleDisagreementError(
            f"union {sorted(index_set)} of active index sets escaped the index system"
        )
    idx = m.space.state_index
    n_states = len(m.space.states)
    steps = sorted({g.step for _, g in active})
    t_lo, t_hi = steps[0], steps[-1] + 1
    dates = tuple(range(t_lo, t_hi + 1))
    holdings = []
    for t in dates[:-1]:
        acc: dict[str, list[Rational]] = {}
        for c, g in active:
            if g.step != t:
                continue
            vec = acc.setdefault(g.asset, [ZERO] * n_states)
            for s in g.atom:
                vec[idx[s]] += c
        holdings.append({a: tuple(v) for a, v in acc.items()})
    return Strategy(index_set=index_set, dates=dates, holdings=tuple(holdings))
