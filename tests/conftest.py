"""Shared builders for the test suite."""

from __future__ import annotations

from fractions import Fraction as rat

import pytest

from delayedmarkets.arbitrage import (
    MartingaleMeasureCertificate,
    NoFreeLunch,
    check_naflp,
    find_free_lunch,
    find_martingale_measure,
    verify_certificate,
)
from delayedmarkets.lp import row_basis
from delayedmarkets.markets import Market, gain_generators
from delayedmarkets.probability import Filtration, FiniteSpace, Partition, StoppingProcess
from delayedmarkets.rationals import int_multiple

from reference_wealth import reference_wealth_process

ONE = rat(1)


def sparse(values) -> tuple:
    """A dense vector as a sparse row: (column, value) per nonzero entry."""
    return tuple((k, v) for k, v in enumerate(values) if v)


def discrete_partition(states) -> Partition:
    """The partition of states into singletons."""
    return Partition(tuple(states), tuple(range(len(states))))


def identity_delay(grid_length: int, info: Filtration) -> StoppingProcess:
    """The zero delay: order time t is priced at t on every state."""
    return StoppingProcess.deterministic(range(grid_length), info)


def dense(row, width: int) -> tuple:
    """A sparse row as a dense vector of the given width."""
    out = [rat(0)] * width
    for k, v in row:
        out[k] = v
    return tuple(out)


def reference_terminal_wealth(m, s, horizon=None) -> tuple:
    """The last row of the reference Fraction wealth replay of s on m,
    traded over 0..horizon; raises ValueError for an invalid strategy."""
    return reference_wealth_process(m, s, horizon)[-1]


def int_row(row) -> tuple:
    """A sparse rational row times the lcm of its denominators: an int row
    with the same span."""
    return tuple(zip([k for k, _ in row], int_multiple(v for _, v in row)[0]))


def in_span(rows, v) -> bool:
    """The sparse row v lies in the span of the sparse rows iff it equals
    its expansion over the reduced echelon basis, whose coefficients are
    v's entries at the pivots. The rows are scaled to ints for row_basis,
    and each basis row is divided by its pivot before it is expanded."""
    entries = dict(v)
    rebuilt: dict = {}
    for b in row_basis([int_row(r) for r in rows]):
        lead, p = b[0]
        c = entries.get(lead)
        if c:
            for k, x in b:
                rebuilt[k] = rebuilt.get(k, 0) + c * rat(x, p)
    return entries == {k: x for k, x in rebuilt.items() if x}


def single_signed(g) -> bool:
    """The generator's price changes are all positive or all negative."""
    changes = [d for _, d in g.deltas]
    return min(changes) > 0 or max(changes) < 0


def one_certificate(m, horizon=None):
    """check_naflp's verdict, after running the free-lunch LP and the
    projection on one generator set: wherever the projection certifies,
    the LP must prove no free lunch too (the Stiemke alternative), any
    measure the LP reads off its duals must re-verify, and the verdict
    must carry the projection's measure or else the LP's certificate."""
    m = m.at_horizon(horizon)
    gens = gain_generators(m)
    cert, measure = find_free_lunch(m, gens), find_martingale_measure(m, gens)
    if measure is not None:
        assert isinstance(cert, MartingaleMeasureCertificate), "free lunch found, projected measure found"
    if isinstance(cert, MartingaleMeasureCertificate):
        assert verify_certificate(m, NoFreeLunch(cert)), "the LP's dual measure failed re-verification"
    verdict = check_naflp(m)
    assert verdict.certificate == (measure or cert)
    return verdict


def binomial_market(s0, up, down):
    """One asset, two states, one step: the textbook sanity market."""
    states = ("u", "d")
    space = FiniteSpace.uniform(states, 1, 1)
    prices = {"stock": ((rat(s0), rat(s0)), (rat(up), rat(down)))}
    grand = Filtration((Partition.trivial(states), discrete_partition(states)))
    index_set = frozenset({"stock"})
    return Market(space, prices, (index_set,), {index_set: grand}, grand)


def two_step_market():
    """Four states, two steps, one asset on a recombining-style tree."""
    states = ("uu", "ud", "du", "dd")
    space = FiniteSpace.uniform(states, 2, 2)
    level1 = Partition.of(states, [("uu", "ud"), ("du", "dd")])
    grand = Filtration((Partition.trivial(states), level1, discrete_partition(states)))
    prices = {
        "stock": (
            tuple(rat(4) for _ in states),
            (rat(8), rat(8), rat(2), rat(2)),
            (rat(16), rat(4), rat(4), rat(1)),
        )
    }
    index_set = frozenset({"stock"})
    return Market(space, prices, (index_set,), {index_set: grand}, grand)


@pytest.fixture
def no_arbitrage_binomial():
    return binomial_market(1, 2, rat(1, 2))


@pytest.fixture
def dominated_binomial():
    return binomial_market(1, 2, 1)
