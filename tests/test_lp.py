"""Exact simplex: optimality, infeasibility, duality, determinism.

The solver returns only a status, a point and a value, so soundness is
checked here from outside: optimal points re-substitute exactly, the dual
LP reaches the same value (which by weak duality proves optimality), and
every infeasible problem gets a Farkas certificate found by solving the
alternative system and re-substituted by hand.

Problems are written here with dense rational rows and handed to the
solver as sparse int ones (`problem`); the dense reference code and the
duality checks read them back as Fractions through `dense_view`.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest

import reference_lp
from delayedmarkets import lp
from delayedmarkets.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    row_basis,
    solve,
)
from delayedmarkets.rationals import int_multiple, rat

from conftest import dense, in_span, int_row, sparse
from reference_lp import reference_row_basis, reference_solve

ZERO, ONE = rat(0), rat(1)


def problem(n: int, objective, equalities=(), inequalities=()) -> LpProblem:
    """An LpProblem from dense rational rows. Each constraint row, with its
    right-hand side, and the objective are scaled to ints by the lcm of
    their denominators: a positive factor, which keeps the feasible set
    and the optimal points."""
    def scaled(row, b):
        *values, rhs = int_multiple((*row, b))[0]
        return sparse(values), rhs

    return LpProblem(
        n, sparse(int_multiple(objective)[0]),
        equalities=tuple(scaled(row, b) for row, b in equalities),
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
        equalities=tuple((fractions(row), rat(b)) for row, b in p.equalities),
        inequalities=tuple((fractions(row), rat(b)) for row, b in p.inequalities),
    )


def dot(row, x):
    return sum(c * x[k] for k, c in row)


def check_feasible(p: LpProblem, x) -> list[str]:
    """All constraint violations of a candidate point, exactly; empty = feasible."""
    if len(x) != p.num_vars:
        return [f"point has {len(x)} coordinates, expected {p.num_vars}"]
    problems = []
    for i, (row, rhs) in enumerate(p.equalities):
        lhs = dot(row, x)
        if lhs != rhs:
            problems.append(f"equality {i}: {lhs} != {rhs}")
    for i, (row, rhs) in enumerate(p.inequalities):
        lhs = dot(row, x)
        if lhs > rhs:
            problems.append(f"inequality {i}: {lhs} > {rhs}")
    for j, v in enumerate(x):
        if v < 0:
            problems.append(f"variable {j} is negative: {v}")
    return problems


def dual_problem(p: LpProblem) -> LpProblem:
    """The dual in the same standard form, negated to a maximization.

    Variables: (y+, y-) per equality row, then z per <= row. Constraints:
    A_eq^T y + A_in^T z >= c, written as <= rows. Its optimum is minus the
    primal optimum. A primal without rows gets the redundant row 0 <= 0,
    so that its dual has a variable.
    """
    p = dense_view(p)
    inequalities = p.inequalities or (((ZERO,) * p.num_vars, ZERO),)
    columns = [row for row, _ in p.equalities] * 2 + [row for row, _ in inequalities]
    signs = [ONE] * len(p.equalities) + [-ONE] * len(p.equalities) + [ONE] * len(inequalities)
    rhs = [b for _, b in p.equalities] * 2 + [b for _, b in inequalities]
    rows = tuple(
        (tuple(-s * col[j] for s, col in zip(signs, columns)), -p.objective[j])
        for j in range(p.num_vars)
    )
    return problem(len(columns), tuple(-s * b for s, b in zip(signs, rhs)), inequalities=rows)


def farkas_multipliers(p: LpProblem):
    """Multipliers (y_eq free, y_ineq >= 0, y_sign >= 0) for the rows of
    A_eq x = b_eq, A_in x <= b_in and -x <= 0 with y A = 0 and y . b = -1,
    found by the solver; None if that alternative system is infeasible."""
    p = dense_view(p)
    rows = [row for row, _ in p.equalities] * 2 + [row for row, _ in p.inequalities]
    rhs = [b for _, b in p.equalities] * 2 + [b for _, b in p.inequalities]
    n_eq, n = len(p.equalities), p.num_vars
    signs = [ONE] * n_eq + [-ONE] * n_eq + [ONE] * len(p.inequalities)
    k = len(rows) + n
    equalities = []
    for j in range(n):
        unit = [ZERO] * n
        unit[j] = -ONE
        equalities.append((tuple(s * r[j] for s, r in zip(signs, rows)) + tuple(unit), ZERO))
    equalities.append((tuple(s * b for s, b in zip(signs, rhs)) + (ZERO,) * n, -ONE))
    out = solve(problem(k, (ZERO,) * k, equalities=tuple(equalities)))
    if out.status != OPTIMAL:
        return None
    y = out.solution
    eq = tuple(y[i] - y[n_eq + i] for i in range(n_eq))
    return eq, y[2 * n_eq:2 * n_eq + len(p.inequalities)], y[2 * n_eq + len(p.inequalities):]


def proves_infeasible(p: LpProblem, y_eq, y_ineq, y_sign) -> bool:
    """Re-substitution: y A = 0 over every column and y . b < 0."""
    if any(v < 0 for v in y_ineq) or any(v < 0 for v in y_sign):
        return False
    p = dense_view(p)
    for j in range(p.num_vars):
        combined = sum(m * row[j] for m, (row, _) in zip(y_eq, p.equalities))
        combined += sum(m * row[j] for m, (row, _) in zip(y_ineq, p.inequalities))
        if combined - y_sign[j] != 0:
            return False
    value = sum(m * b for m, (_, b) in zip(y_eq, p.equalities))
    value += sum(m * b for m, (_, b) in zip(y_ineq, p.inequalities))
    return value < 0


def assert_sound(p: LpProblem, out, label: str):
    """Prove the outcome exactly, without trusting the solver's own word."""
    if out.status == OPTIMAL:
        assert check_feasible(p, out.solution) == [], label
        assert dot(p.objective, out.solution) == out.objective, label
        dual = dual_problem(p)
        dual_out = solve(dual)
        assert dual_out.status == OPTIMAL, f"{label}: dual ended {dual_out.status}"
        assert check_feasible(dual, dual_out.solution) == [], label
        assert dual_out.objective == -out.objective, f"{label}: duality gap"
    elif out.status == INFEASIBLE:
        cert = farkas_multipliers(p)
        assert cert is not None, f"{label}: no Farkas certificate exists"
        assert proves_infeasible(p, *cert), f"{label}: bad Farkas certificate"
    else:
        assert solve(dual_problem(p)).status == INFEASIBLE, f"{label}: unbounded but dual feasible"


class TestExamples:
    def test_one_variable_box(self):
        p = problem(1, (rat(1),), inequalities=(((rat(1),), rat(1)),))
        out = solve(p)
        assert out.status == OPTIMAL
        assert out.solution == (rat(1),)
        assert out.objective == rat(1)

    def test_box_as_rows(self):
        p = problem(
            1, (rat(1),),
            inequalities=(((rat(1),), rat(1)), ((rat(-1),), rat(0))),
        )
        out = solve(p)
        assert out.status == OPTIMAL and out.solution == (rat(1),)

    def test_contradictory_bounds_infeasible_with_certificate(self):
        p = problem(
            1, (rat(1),),
            inequalities=(((rat(-1),), rat(-2)), ((rat(1),), rat(1))),  # x >= 2, x <= 1
        )
        out = solve(p)
        assert out.status == INFEASIBLE
        cert = farkas_multipliers(p)
        assert cert is not None and proves_infeasible(p, *cert)

    def test_binomial_martingale_system(self):
        # maximize eps:  q1 + q2 = 1,  2 q1 + (1/2) q2 = 1,  q_i >= eps >= 0
        p = problem(
            3,
            (rat(0), rat(0), rat(1)),
            equalities=(
                ((rat(1), rat(1), rat(0)), rat(1)),
                ((rat(2), rat(1, 2), rat(0)), rat(1)),
            ),
            inequalities=(
                ((rat(-1), rat(0), rat(1)), rat(0)),
                ((rat(0), rat(-1), rat(1)), rat(0)),
            ),
        )
        out = solve(p)
        assert out.status == OPTIMAL
        assert out.objective == rat(1, 3)
        assert out.solution[:2] == (rat(1, 3), rat(2, 3))

    def test_unbounded(self):
        p = problem(1, (rat(1),))
        assert solve(p).status == UNBOUNDED

    def test_dimension_mismatch(self):
        # a column outside 0..num_vars-1, or rows whose columns do not increase
        with pytest.raises(ValueError):
            LpProblem(2, ((2, 1),))
        with pytest.raises(ValueError):
            LpProblem(1, (), equalities=((((0, 1), (1, 2)), 0),))
        with pytest.raises(ValueError):
            LpProblem(1, (), inequalities=((((-1, 1),), 0),))
        with pytest.raises(ValueError):
            LpProblem(2, ((1, 1), (0, 1)))
        LpProblem(2, ((0, 1), (1, 1)), inequalities=((((1, 1),), 0),))

    def test_zero_entry(self):
        # a row holds nonzero values only, which the sparse tableau relies on
        with pytest.raises(ValueError, match="zero"):
            LpProblem(2, ((1, 1),), equalities=((((0, 0), (1, 1)), 0),) * 2,
                      inequalities=((((0, 1),), 1),))
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
                LpProblem(2, (), equalities=((((0, 1), (1, bad)), 0),))
            with pytest.raises(TypeError):
                LpProblem(2, (), inequalities=((((1, bad),), 0),))
            with pytest.raises(TypeError):
                LpProblem(2, (), equalities=((((0, 1),), bad),))
            with pytest.raises(TypeError):
                LpProblem(2, (), inequalities=((((0, 1),), bad),))


class TestExactness:
    def test_optimal_solutions_resubstitute(self):
        for seed in range(40):
            p = random_problem(random.Random(f"resub:{seed}"))
            out = solve(p)
            if out.status == OPTIMAL:
                assert check_feasible(p, out.solution) == []
                assert dot(p.objective, out.solution) == out.objective

    def test_strong_duality_and_farkas_on_random_problems(self):
        statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        seed = 0
        while statuses[OPTIMAL] < 100 or statuses[INFEASIBLE] < 20:
            assert seed < 500, "random generator failed to produce enough cases"
            p = random_problem(random.Random(f"dual:{seed}"))
            out = solve(p)
            statuses[out.status] += 1
            assert_sound(p, out, f"seed {seed}")
            seed += 1
        assert statuses[UNBOUNDED] > 0

    def test_deterministic(self):
        p = random_problem(random.Random("det"))
        assert solve(p) == solve(p)

    def test_redundant_equalities_are_dropped_cleanly(self):
        # duplicated and linearly dependent rows exercise the
        # drive-out-artificials / drop-redundant-row path
        rng = random.Random("redundant")
        for _ in range(40):
            n = rng.randint(2, 4)
            base_rows = [
                tuple(rat(rng.randint(-3, 3)) for _ in range(n))
                for _ in range(rng.randint(1, 2))
            ]
            x_feasible = tuple(rat(rng.randint(0, 3)) for _ in range(n))
            equalities = []
            for row in base_rows:
                rhs = sum(c * v for c, v in zip(row, x_feasible))
                equalities.append((row, rhs))
                equalities.append((row, rhs))  # exact duplicate
            if len(base_rows) == 2:
                combo = tuple(a + b for a, b in zip(base_rows[0], base_rows[1]))
                equalities.append((combo, equalities[0][1] + equalities[2][1]))
            caps = tuple((tuple(ONE if k == j else ZERO for k in range(n)), rat(5)) for j in range(n))
            p = problem(
                n,
                tuple(rat(rng.randint(-3, 3)) for _ in range(n)),
                equalities=tuple(equalities),
                inequalities=caps,
            )
            out = solve(p)
            assert out.status == OPTIMAL
            assert_sound(p, out, "redundant")


def random_problem(rng: random.Random) -> LpProblem:
    n = rng.randint(1, 5)
    objective = tuple(rat(rng.randint(-5, 5)) for _ in range(n))
    equalities = []
    for _ in range(rng.randint(0, 2)):
        row = tuple(rat(rng.randint(-4, 4)) for _ in range(n))
        equalities.append((row, rat(rng.randint(-6, 6))))
    inequalities = []
    for _ in range(rng.randint(0, 4)):
        row = tuple(rat(rng.randint(-4, 4)) for _ in range(n))
        inequalities.append((row, rat(rng.randint(-4, 8))))
    for j in range(n):
        if rng.random() < 0.5:
            unit = tuple(ONE if k == j else ZERO for k in range(n))
            inequalities.append((unit, rat(rng.randint(1, 6))))
    return problem(
        n, objective,
        equalities=tuple(equalities),
        inequalities=tuple(inequalities),
    )


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
    zero coordinates (degenerate vertices and ratio ties), plus redundant
    equalities scaled by negative factors (artificials left basic at zero,
    negative right-hand sides) and, now and then, a contradictory one."""
    n = rng.randint(1, 5)

    def coeff():
        return rng.choice((0, 0, 1, -1, 2)) * rng.choice(MIXED)

    x0 = tuple(rng.choice((ZERO, ZERO, ONE, rat(2, 3))) for _ in range(n))
    equalities = []
    for _ in range(rng.randint(0, 3)):
        row = tuple(coeff() for _ in range(n))
        equalities.append((row, sum(c * v for c, v in zip(row, x0))))
    for _ in range(rng.randint(0, 2) if equalities else 0):
        (r1, b1), (r2, b2) = rng.choice(equalities), rng.choice(equalities)
        k1, k2 = rng.choice((-1, rat(-5, 7), 1)), rng.choice((0, 1, rat(11, 13)))
        equalities.append((tuple(k1 * u + k2 * v for u, v in zip(r1, r2)), k1 * b1 + k2 * b2))
    if equalities and rng.random() < 0.15:
        row, b = rng.choice(equalities)
        equalities.append((row, b + rng.choice(MIXED)))
    inequalities = []
    for _ in range(rng.randint(0, 4)):
        row = tuple(coeff() for _ in range(n))
        slack = rng.choice((ZERO, ZERO, rat(1, 3), -rat(5, 7)))
        inequalities.append((row, sum(c * v for c, v in zip(row, x0)) + slack))
    for j in range(n):
        if rng.random() < 0.6:
            unit = tuple(ONE if k == j else ZERO for k in range(n))
            inequalities.append((unit, rng.choice((ONE, rat(5, 7), rat(11, 13), 2 * ONE))))
    rng.shuffle(equalities)
    rng.shuffle(inequalities)
    return problem(n, tuple(coeff() for _ in range(n)),
                   equalities=tuple(equalities), inequalities=tuple(inequalities))


class TestMatchesReference:
    """The integer simplex and row basis against the Fraction code they
    replaced (tests/reference_lp.py): same outcome, same pivots, same basis."""

    def test_same_outcomes_and_pivots(self, monkeypatch):
        pivots = {"new": [], "ref": []}
        seen = {"negative drive-out": 0, "ratio tie": 0, "dropped row": 0}

        def recording(tableau, side):
            original = tableau.pivot

            def pivot(self, i, j):
                pivots[side].append((i, j))
                if side == "ref":
                    # a Bland pivot enters a column of positive cost; a drive-out
                    # pivot comes after phase 1 ended with no such column
                    if self.cost[j] > 0:
                        ratios = [self.rhs[r] / self.rows[r][j] for r in self.live if self.rows[r][j] > 0]
                        seen["ratio tie"] += ratios.count(min(ratios)) > 1
                    elif self.rows[i][j] < 0:
                        seen["negative drive-out"] += 1
                return original(self, i, j)
            monkeypatch.setattr(tableau, "pivot", pivot)

        recording(lp._Tableau, "new")
        recording(reference_lp._Tableau, "ref")
        statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        for seed in range(400):
            p = tangled_problem(random.Random(f"tangled:{seed}"))
            pivots["new"].clear()
            pivots["ref"].clear()
            out = solve(p)
            ref = reference_solve(dense_view(p))
            assert (out.status, out.solution, out.objective) == (ref.status, ref.solution, ref.objective), seed
            assert pivots["new"] == pivots["ref"], seed
            statuses[out.status] += 1
            if out.status != INFEASIBLE:
                rank = len(row_basis([row for row, _ in p.equalities]))
                seen["dropped row"] += rank < len(p.equalities)
        assert min(statuses.values()) >= 20, statuses
        assert min(seen.values()) >= 20, seen

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
