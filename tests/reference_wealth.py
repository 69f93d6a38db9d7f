"""The Fraction wealth replay that `delayedmarkets.markets.wealth_process`
replaced, kept unchanged as the reference that `test_markets.py` compares
the integer replay against: the two must return equal wealth rows.
"""

from __future__ import annotations

from delayedmarkets.markets import Market, Strategy, validate_strategy
from delayedmarkets.rationals import ZERO


def reference_wealth_process(m: Market, s: Strategy, horizon: int | None = None):
    horizon = m.space.horizon if horizon is None else horizon
    problems = validate_strategy(m.at_horizon(horizon), s)
    if problems:
        raise ValueError("invalid strategy: " + "; ".join(problems))
    n_states = len(m.space.states)
    wealth = [[ZERO] * n_states for _ in range(horizon + 1)]
    for t in range(1, horizon + 1):
        acc = wealth[t]
        for i, h in enumerate(s.holdings):
            t_prev, t_next = s.dates[i], s.dates[i + 1]
            if t <= t_prev:
                break
            stop = min(t_next, t)
            for aid, vec in h.items():
                now, then = m.assets[aid][stop], m.assets[aid][t_prev]
                for k in range(n_states):
                    acc[k] += vec[k] * (now[k] - then[k])
    return tuple(tuple(row) for row in wealth)
