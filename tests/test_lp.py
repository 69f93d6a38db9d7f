"""Exact simplex: optimality, duality, determinism.

The solver returns a status, a point, a value and, at an optimum, one
dual per row, so soundness is checked here from outside: optimal points
re-substitute exactly, and the duals are an LP-duality certificate
(nonnegative, A^T y >= c, b . y equal to the optimal value), which by
weak duality proves the point optimal. An unbounded outcome is
confirmed by the reference solver finding the dual infeasible.

Problems are written here with dense rational rows and handed to the
solver as sparse int ones (`problem`); the dense reference code and the
duality checks read them back as Fractions through `dense_view`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as rat
from types import SimpleNamespace

import pytest

import reference_lp
from delayedmarkets import lp
from delayedmarkets.lp import (
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    row_basis,
    solve,
)
from delayedmarkets.rationals import int_multiple

from conftest import dense, in_span, int_row, sparse
from reference_lp import INFEASIBLE, reference_row_basis, reference_solve

ZERO, ONE = rat(0), rat(1)


def problem(n: int, objective, inequalities=()) -> LpProblem:
    """An LpProblem from dense rational rows. Each row, with its
    right-hand side, and the objective are scaled to ints by the lcm of
    their denominators: a positive factor, which keeps the feasible set
    and the optimal points."""
    def scaled(row, b):
        *values, rhs = int_multiple((*row, b))[0]
        return sparse(values), rhs

    return LpProblem(
        n, sparse(int_multiple(objective)[0]),
        inequalities=tuple(scaled(row, b) for row, b in inequalities),
    )


def dense_view(p: LpProblem) -> SimpleNamespace:
    """The problem with dense rows of Fractions, as the reference solver
    reads it: its ratio test divides, which on ints would give floats."""
    n = p.num_vars

    def fractions(row):
        return tuple(map(rat, dense(row, n)))

    return SimpleNamespace(
        num_vars=n,
        objective=fractions(p.objective),
        equalities=(),
        inequalities=tuple((fractions(row), rat(b)) for row, b in p.inequalities),
    )


def dot(row, x):
    return sum(c * x[k] for k, c in row)


def check_feasible(p: LpProblem, x) -> list[str]:
    """All constraint violations of a candidate point, exactly; empty = feasible."""
    if len(x) != p.num_vars:
        return [f"point has {len(x)} coordinates, expected {p.num_vars}"]
    problems = []
    for i, (row, rhs) in enumerate(p.inequalities):
        lhs = dot(row, x)
        if lhs > rhs:
            problems.append(f"inequality {i}: {lhs} > {rhs}")
    for j, v in enumerate(x):
        if v < 0:
            problems.append(f"variable {j} is negative: {v}")
    return problems


def check_duals(p: LpProblem, out) -> list[str]:
    """Every way the outcome's duals y fail to certify its value, over
    Fractions; empty = y >= 0, A^T y >= c column by column, and
    b . y == objective, which by weak duality proves the optimum."""
    y = out.duals
    if len(y) != len(p.inequalities):
        return [f"{len(y)} duals for {len(p.inequalities)} rows"]
    problems = [f"dual {i} is negative: {v}" for i, v in enumerate(y) if v < 0]
    combined = [ZERO] * p.num_vars
    for v, (row, _) in zip(y, p.inequalities):
        for k, a in row:
            combined[k] += v * a
    cost = dict(p.objective)
    problems += [f"column {j}: {c} < {cost.get(j, 0)}" for j, c in enumerate(combined) if c < cost.get(j, 0)]
    value = sum(v * b for v, (_, b) in zip(y, p.inequalities))
    if value != out.objective:
        problems.append(f"b . y = {value} != {out.objective}")
    return problems


def dual_view(p: LpProblem) -> SimpleNamespace:
    """The dual min b . y subject to A^T y >= c and y >= 0, as the
    reference solver's maximization of -b . y with rows -A^T y <= -c.
    Its right-hand sides may be negative, which only the reference takes."""
    p = dense_view(p)
    rows = [row for row, _ in p.inequalities]
    return SimpleNamespace(
        num_vars=len(rows),
        objective=tuple(-b for _, b in p.inequalities),
        equalities=(),
        inequalities=tuple((tuple(-row[j] for row in rows), -p.objective[j]) for j in range(p.num_vars)),
    )


def assert_sound(p: LpProblem, out, label: str):
    """Prove the outcome exactly, without trusting the solver's own word."""
    if out.status == OPTIMAL:
        assert check_feasible(p, out.solution) == [], label
        assert dot(p.objective, out.solution) == out.objective, label
        assert check_duals(p, out) == [], label
    else:
        assert out.status == UNBOUNDED and out.duals is None, label
        assert reference_solve(dual_view(p)).status == INFEASIBLE, f"{label}: unbounded but dual feasible"


class TestExamples:
    def test_one_variable_box(self):
        p = problem(1, (rat(1),), inequalities=(((rat(1),), rat(1)),))
        out = solve(p)
        assert out.status == OPTIMAL
        assert out.solution == (rat(1),)
        assert out.objective == rat(1)
        assert out.duals == (rat(1),)

    def test_box_as_rows(self):
        p = problem(
            1, (rat(1),),
            inequalities=(((rat(1),), rat(1)), ((rat(-1),), rat(0))),
        )
        out = solve(p)
        assert out.status == OPTIMAL and out.solution == (rat(1),)

    def test_binomial_martingale_system(self):
        # the free-lunch LP of the binomial with moves 2 and 1/2 in units of
        # 1/2: the generator (2, -1), its coefficient x0 - x1, rows -v <= 0
        # and v <= 1 per state; no free lunch, and 1 + w over the duals w of
        # the rows -v <= 0 is proportional to the unique measure (1/3, 2/3)
        p = LpProblem(
            2, ((0, 1), (1, -1)),
            inequalities=(
                (((0, -2), (1, 2)), 0), (((0, 1), (1, -1)), 0),
                (((0, 2), (1, -2)), 1), (((0, -1), (1, 1)), 1),
            ),
        )
        out = solve(p)
        assert out.status == OPTIMAL and out.objective == 0
        assert check_duals(p, out) == []
        w, u = out.duals[:2], out.duals[2:]
        assert u == (ZERO, ZERO)
        total = 2 + sum(w)
        assert ((1 + w[0]) / total, (1 + w[1]) / total) == (rat(1, 3), rat(2, 3))

    def test_unbounded(self):
        p = problem(1, (rat(1),))
        assert solve(p).status == UNBOUNDED

    def test_dimension_mismatch(self):
        # a column outside 0..num_vars-1, or rows whose columns do not increase
        with pytest.raises(ValueError):
            LpProblem(2, ((2, 1),))
        with pytest.raises(ValueError):
            LpProblem(1, (), inequalities=((((0, 1), (1, 2)), 0),))
        with pytest.raises(ValueError):
            LpProblem(1, (), inequalities=((((-1, 1),), 0),))
        with pytest.raises(ValueError):
            LpProblem(2, ((1, 1), (0, 1)))
        LpProblem(2, ((0, 1), (1, 1)), inequalities=((((1, 1),), 0),))

    def test_zero_entry(self):
        # a row holds nonzero values only, which the sparse tableau relies on
        with pytest.raises(ValueError, match="zero"):
            LpProblem(2, ((1, 1),), inequalities=((((0, 0), (1, 1)), 0), (((0, 1),), 1)))
        with pytest.raises(ValueError, match="zero"):
            LpProblem(2, ((0, 0),))
        with pytest.raises(ValueError, match="zero"):
            LpProblem(2, (), inequalities=((((0, 1), (1, 0)), 1),))

    def test_non_int_values(self):
        # a value, right-hand side or objective entry that is not an int is
        # a TypeError: an internal slip, not an input error
        for bad in (rat(1), rat(1, 2), 1.0, True):
            with pytest.raises(TypeError):
                LpProblem(2, ((0, bad),))
            with pytest.raises(TypeError):
                LpProblem(2, (), inequalities=((((1, bad),), 0),))
            with pytest.raises(TypeError):
                LpProblem(2, (), inequalities=((((0, 1),), bad),))

    def test_negative_right_hand_side(self):
        # the all-slack start basis is feasible only for right-hand sides >= 0
        with pytest.raises(ValueError, match=r"^inequality 1 has right-hand side -2; it must be at least 0$"):
            LpProblem(1, ((0, 1),), inequalities=((((0, 1),), 1), (((0, -1),), -2)))
        assert solve(LpProblem(1, ((0, 1),), inequalities=((((0, -1),), 0),))).status == UNBOUNDED


class TestExactness:
    def test_optimal_solutions_resubstitute(self):
        for seed in range(40):
            p = random_problem(random.Random(f"resub:{seed}"))
            out = solve(p)
            if out.status == OPTIMAL:
                assert check_feasible(p, out.solution) == []
                assert dot(p.objective, out.solution) == out.objective

    def test_duals_certify_optimality_on_random_problems(self):
        statuses = {OPTIMAL: 0, UNBOUNDED: 0}
        for seed in range(300):
            p = random_problem(random.Random(f"dual:{seed}"))
            out = solve(p)
            statuses[out.status] += 1
            assert_sound(p, out, f"seed {seed}")
        assert statuses[OPTIMAL] >= 100 and statuses[UNBOUNDED] >= 20, statuses

    def test_deterministic(self):
        p = random_problem(random.Random("det"))
        assert solve(p) == solve(p)


def random_problem(rng: random.Random) -> LpProblem:
    n = rng.randint(1, 5)
    objective = tuple(rat(rng.randint(-5, 5)) for _ in range(n))
    inequalities = []
    for _ in range(rng.randint(0, 5)):
        row = tuple(rat(rng.randint(-4, 4)) for _ in range(n))
        inequalities.append((row, rat(rng.randint(0, 8))))
    for j in range(n):
        if rng.random() < 0.5:
            unit = tuple(ONE if k == j else ZERO for k in range(n))
            inequalities.append((unit, rat(rng.randint(1, 6))))
    return problem(n, objective, inequalities=tuple(inequalities))


class TestLinearAlgebra:
    def test_row_basis_spans_and_reduces(self):
        rows = [(1, 2, 0), (2, 4, 0), (0, 0, 1)]
        rows = [sparse(r) for r in rows]
        basis = row_basis(rows)
        assert basis == [((0, 1), (1, 2)), ((2, 1),)]
        for r in rows:
            assert in_span(basis, r)

    def test_row_basis_spans_random_combinations(self):
        rng = random.Random("span")
        for _ in range(50):
            dim = rng.randint(1, 5)
            k = rng.randint(1, 4)
            vectors = [
                tuple(rat(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(dim))
                for _ in range(k)
            ]
            coeffs = [rat(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(k)]
            target = tuple(
                sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(dim)
            )
            assert in_span([sparse(v) for v in vectors], sparse(target))

    def test_row_basis_rejects_outsiders(self):
        assert not in_span([((0, rat(1)),)], ((1, rat(1)),))
        assert not in_span([((0, rat(1)), (1, rat(1)))], ((0, rat(1)), (1, rat(2))))


MIXED = (rat(1), rat(1, 3), rat(5, 7), rat(11, 13), rat(2), rat(-3, 2))


def tangled_problem(rng: random.Random) -> LpProblem:
    """Sparse rows with mixed denominators around a feasible point with
    zero coordinates, several of them tight there and every right-hand
    side at least 0: degenerate vertices and ratio ties, at that point
    and at the origin."""
    n = rng.randint(1, 5)

    def coeff():
        return rng.choice((0, 0, 1, -1, 2)) * rng.choice(MIXED)

    x0 = tuple(rng.choice((ZERO, ZERO, ONE, rat(2, 3))) for _ in range(n))
    inequalities = []
    for _ in range(rng.randint(0, 6)):
        row = tuple(coeff() for _ in range(n))
        level = sum(c * v for c, v in zip(row, x0))
        if level < 0:
            row, level = tuple(-c for c in row), -level
        inequalities.append((row, level + rng.choice((ZERO, ZERO, rat(1, 3), rat(5, 7)))))
    for j in range(n):
        if rng.random() < 0.6:
            unit = tuple(ONE if k == j else ZERO for k in range(n))
            inequalities.append((unit, rng.choice((ONE, rat(5, 7), rat(11, 13), 2 * ONE))))
    rng.shuffle(inequalities)
    return problem(n, tuple(coeff() for _ in range(n)), inequalities=tuple(inequalities))


class TestMatchesReference:
    """The integer simplex and row basis against the Fraction code they
    replaced (tests/reference_lp.py): same outcome, same pivots, same basis."""

    def test_same_outcomes_and_pivots(self, monkeypatch):
        pivots = {"new": [], "ref": []}
        ties = 0

        def recording(tableau, side):
            original = tableau.pivot

            def pivot(self, i, j):
                nonlocal ties
                pivots[side].append((i, j))
                if side == "ref":
                    ratios = [self.rhs[r] / self.rows[r][j] for r in self.live if self.rows[r][j] > 0]
                    ties += ratios.count(min(ratios)) > 1
                return original(self, i, j)
            monkeypatch.setattr(tableau, "pivot", pivot)

        recording(lp._Tableau, "new")
        recording(reference_lp._Tableau, "ref")
        statuses = {OPTIMAL: 0, UNBOUNDED: 0}
        for seed in range(400):
            p = tangled_problem(random.Random(f"tangled:{seed}"))
            pivots["new"].clear()
            pivots["ref"].clear()
            out = solve(p)
            ref = reference_solve(dense_view(p))
            assert (out.status, out.solution, out.objective) == (ref.status, ref.solution, ref.objective), seed
            assert pivots["new"] == pivots["ref"], seed
            if out.status == OPTIMAL:
                assert check_duals(p, out) == [], seed
            statuses[out.status] += 1
        assert min(statuses.values()) >= 20, statuses
        assert ties >= 20, ties

    def test_same_row_basis(self):
        rng = random.Random("reference-basis")
        for _ in range(300):
            dim = rng.randint(1, 6)
            vectors = [
                tuple(rng.choice((0, 0, 1, -2)) * rng.choice(MIXED) for _ in range(dim))
                for _ in range(rng.randint(0, 5))
            ]
            if vectors and rng.random() < 0.5:
                k = rng.choice(MIXED)
                vectors.append(tuple(k * v for v in rng.choice(vectors)))
            basis = row_basis([int_row(sparse(v)) for v in vectors])
            for row in basis:
                assert row[0][1] > 0 and math.gcd(*(v for _, v in row)) == 1, row
            # the rational basis row is the primitive int row over its pivot
            rational = [dense([(k, rat(v, row[0][1])) for k, v in row], dim) for row in basis]
            assert rational == reference_row_basis(vectors), vectors
