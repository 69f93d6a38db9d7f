"""References for `delayedmarkets.arbitrage.check_naflp` and its measure
oracle, which `test_arbitrage.py` compares them against.

`reference_check_naflp` is the decision order that `check_naflp`
replaced, kept unchanged: the uniform measure when every generator's
changes sum to 0, else the measure oracle, and the free-lunch LP only
when that finds no measure. The two must give equal verdicts and equal
rendered bytes.

`reference_projection` is the projection p = 1 - P_K 1 that
`find_martingale_measure` tries before its measure LP (K the span of the
gain generators), from dense Fraction normal equations over the
generators themselves: no row basis and nothing from `arbitrage`.
"""

from __future__ import annotations

from delayedmarkets.arbitrage import (
    FreeLunch,
    MartingaleMeasureCertificate,
    NoFreeLunch,
    OracleDisagreementError,
    find_free_lunch,
    find_martingale_measure,
)
from delayedmarkets.markets import Market, gain_generators
from delayedmarkets.rationals import Rational, rat


def reference_check_naflp(m: Market, horizon: int | None = None):
    gens, states = gain_generators(m.at_horizon(horizon)), m.space.states
    if all(sum(d for _, d in g.deltas) == 0 for g in gens):
        return NoFreeLunch(MartingaleMeasureCertificate(dict.fromkeys(states, rat(1, len(states)))))
    measure = find_martingale_measure(m, gens)
    if measure is not None:
        return NoFreeLunch(measure)
    lunch = find_free_lunch(m, gens)
    if lunch is not None:
        return FreeLunch(lunch)
    raise OracleDisagreementError("oracles disagree: free lunch absent, martingale measure absent")


def reference_projection(n_states: int, gens) -> tuple[Rational, ...]:
    """1 - G^T y for a solution y of G G^T y = G 1, G the dense generator
    matrix over Fractions. The system is consistent and may be singular:
    Gauss-Jordan elimination sets each free unknown to 0, and every
    solution gives the same G^T y, the projection of 1 onto K."""
    rows = []
    for g in gens:
        row = [Rational(0)] * n_states
        for k, d in g.deltas:
            row[k] = Rational(d)
        rows.append(row)
    size = len(rows)
    system = [[sum(a * b for a, b in zip(ri, rj)) for rj in rows] + [sum(ri)] for ri in rows]
    pivots = []
    for col in range(size):
        lead = next((i for i in range(len(pivots), size) if system[i][col] != 0), None)
        if lead is None:
            continue
        top = len(pivots)
        system[top], system[lead] = system[lead], system[top]
        system[top] = [v / system[top][col] for v in system[top]]
        for i in range(size):
            if i != top and system[i][col] != 0:
                f = system[i][col]
                system[i] = [v - f * w for v, w in zip(system[i], system[top])]
        pivots.append(col)
    assert all(row[-1] == 0 for row in system[len(pivots):]), "normal equations are inconsistent"
    y = [Rational(0)] * size
    for i, col in enumerate(pivots):
        y[col] = system[i][-1]
    return tuple(1 - sum(yj * row[k] for yj, row in zip(y, rows)) for k in range(n_states))
