"""The one rational-to-integer scaling helper and the sum-to-one test on it."""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from delayedmarkets.rationals import int_multiple, sums_to_one

VALUES = st.lists(st.one_of(st.integers(-10**9, 10**9), st.fractions(max_denominator=10**6)), max_size=12)


@given(VALUES, st.integers(1, 50))
@example([], 1)
@example([0, -3, 7], 2)
@example([Fraction(-1, 2), Fraction(0), Fraction(5, 6), 4, Fraction(-7, 15)], 3)
def test_int_multiple_matches_fraction_arithmetic(values, factor):
    ints, scale = int_multiple(values)
    assert scale == math.lcm(*[Fraction(v).denominator for v in values])
    assert all(type(n) is int for n in ints)
    assert ints == [Fraction(v) * scale for v in values]
    wider, given_scale = int_multiple(values, factor * scale)
    assert given_scale == factor * scale
    assert wider == [factor * n for n in ints]


@given(VALUES)
@example([])
@example([Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)])
@example([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(1, 10**18)])
@example([2, -1])
def test_sums_to_one_matches_fraction_sum(values):
    total = sum(map(Fraction, values))
    assert sums_to_one(values) == (total == 1)
    if total:
        assert sums_to_one([Fraction(v) / total for v in values])
