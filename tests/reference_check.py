"""References for `delayedmarkets.arbitrage.check_naflp` and its measure
oracle, which `test_arbitrage.py` compares them against. None of them
calls an oracle of `arbitrage` or the simplex of `lp`.

`reference_check_naflp` is the decision order that `check_naflp`
replaced, kept as it was: the uniform measure when every generator's
changes sum to 0, else the projected measure when it is strictly
positive, else the measure LP, and the free-lunch LP only when that
finds no measure. Each step is a Fraction reference here: the projection
from `reference_projection`, the measure LP from
`reference_find_martingale_measure`, and the free-lunch LP from
`reference_free_lunch`, the last two solved by `reference_lp`. Where
`check_naflp` reaches its one LP and that LP proves no free lunch, the
two may certify different measures of a market with more than one;
everywhere else they give equal verdicts and equal rendered bytes.

`reference_projection` is the projection p = 1 - P_K 1 that
`find_martingale_measure` certifies with (K the span of the gain
generators), from dense Fraction normal equations over the generators
themselves: no row basis and nothing from `arbitrage`.
"""

from __future__ import annotations

from fractions import Fraction as rat
from types import SimpleNamespace

from delayedmarkets.arbitrage import (
    FreeLunch,
    MartingaleMeasureCertificate,
    NoFreeLunch,
    OracleDisagreementError,
)
from delayedmarkets.lp import OPTIMAL
from delayedmarkets.markets import Market, gain_generators
from delayedmarkets.rationals import ZERO, Rational

from conftest import ONE
from reference_free_lunch import reference_find_free_lunch
from reference_lp import reference_row_basis, reference_solve


def reference_check_naflp(m: Market, horizon: int | None = None):
    m = m.at_horizon(horizon)
    gens, states = gain_generators(m), m.space.states
    if all(sum(d for _, d in g.deltas) == 0 for g in gens):
        return NoFreeLunch(MartingaleMeasureCertificate(dict.fromkeys(states, rat(1, len(states)))))
    p = reference_projection(len(states), gens)
    if min(p) > 0:
        total = sum(p)
        return NoFreeLunch(MartingaleMeasureCertificate(dict(zip(states, (v / total for v in p)))))
    measure = reference_find_martingale_measure(m, gens)
    if measure is not None:
        return NoFreeLunch(measure)
    lunch = reference_find_free_lunch(m, gens)
    if lunch is not None:
        return FreeLunch(lunch)
    raise OracleDisagreementError("oracles disagree: free lunch absent, martingale measure absent")


def reference_find_martingale_measure(m: Market, gens) -> MartingaleMeasureCertificate | None:
    """The measure LP over Fractions: maximize the floor eps under
    sum(q) = 1, q_w >= eps, and orthogonality of q to the generators'
    reduced row echelon basis, each row with pivot 1, solved by the dense
    Fraction simplex. A positive optimum is a certificate, anything else
    None."""
    n = len(m.space.states)
    basis = reference_row_basis(_generator_rows(n, gens))
    unit = [tuple(ONE if k == w else ZERO for k in range(n + 1)) for w in range(n + 1)]
    problem = SimpleNamespace(
        num_vars=n + 1,
        objective=unit[n],
        equalities=((tuple(ONE - u for u in unit[n]), ONE), *((row + (ZERO,), ZERO) for row in basis)),
        inequalities=tuple((tuple(e - u for e, u in zip(unit[n], unit[w])), ZERO) for w in range(n)),
    )
    outcome = reference_solve(problem)
    if outcome.status != OPTIMAL or outcome.objective == 0:
        return None
    return MartingaleMeasureCertificate(dict(zip(m.space.states, outcome.solution[:n])))


def reference_projection(n_states: int, gens) -> tuple[Rational, ...]:
    """1 - G^T y for a solution y of G G^T y = G 1, G the dense generator
    matrix over Fractions. The system is consistent and may be singular:
    Gauss-Jordan elimination sets each free unknown to 0, and every
    solution gives the same G^T y, the projection of 1 onto K."""
    rows = _generator_rows(n_states, gens)
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


def _generator_rows(n_states: int, gens) -> list[list[Rational]]:
    """The generators' deltas as dense Fraction rows."""
    rows = []
    for g in gens:
        row = [ZERO] * n_states
        for k, d in g.deltas:
            row[k] = Rational(d)
        rows.append(row)
    return rows
