"""The decision order that `delayedmarkets.arbitrage.check_naflp` replaced,
kept unchanged as the reference that `test_arbitrage.py` compares it
against: the uniform measure when every generator's changes sum to 0,
else the measure LP, and the free-lunch LP only when that finds no
measure. The two must give equal verdicts and equal rendered bytes.
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
from delayedmarkets.rationals import rat


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
