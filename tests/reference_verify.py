"""The martingale-measure check over Fraction conditional expectations
that `delayedmarkets.arbitrage._verify_measure` replaced, kept unchanged
as the reference that `test_arbitrage.py` compares the integer atom-sum
check against: the two must accept exactly the same measures.
"""

from __future__ import annotations

from delayedmarkets.arbitrage import MartingaleMeasureCertificate
from delayedmarkets.markets import Market
from delayedmarkets.probability import conditional_expectation

from conftest import ONE


def reference_verify_measure(m: Market, cert: MartingaleMeasureCertificate, horizon: int) -> bool:
    if set(cert.q) != set(m.space.states):
        return False
    weights = cert.vector(m.space.states)
    if any(w <= 0 for w in weights) or sum(weights) != ONE:
        return False
    for index_set in m.index_system:
        filtration = m.at_horizon(horizon).trading_filtrations[index_set]
        for asset in sorted(index_set):
            table = m.assets[asset]
            for t in range(horizon + 1):
                sigma = filtration.at(t)
                projected_now = conditional_expectation(table[t], sigma, weights)
                for u in range(t, horizon + 1):
                    projected_later = conditional_expectation(table[u], sigma, weights)
                    if projected_later != projected_now:
                        return False
    return True
