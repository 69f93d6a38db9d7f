"""Partition algebra, conditional expectation, and stopped sigma-fields."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction as rat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayedmarkets.probability import (
    Filtration,
    FiniteSpace,
    Partition,
    StoppingProcess,
    conditional_expectation,
    join_each,
    refines,
    sigma_join,
    sigma_meet,
    stopped_fields,
    stopped_sigma_field,
    validate_stopping_process,
)
from delayedmarkets.scenarios import _rng, gen_martingale_market, gen_random_delay

from conftest import discrete_partition, identity_delay
from reference_partition import reference_from_labels
from reference_stopping import reference_validate_stopping_process
from test_acceptance import DESK

STATES4 = ("1", "2", "3", "4")


def part(*atoms):
    return Partition.of(STATES4, atoms)


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def partitions(draw, states=STATES4):
    labels = [draw(st.integers(0, len(states) - 1)) for _ in states]
    return Partition(states, labels)


# label vectors of the kinds Partition is given: ints (scenarios), strings
# (state-name prefixes) and tuples (sigma_join, stopped_sigma_field)
LABELS = st.one_of(
    st.lists(st.integers(-2, 4), max_size=8),
    st.lists(st.text("ab", max_size=2), max_size=8),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=8),
)


ALL_PARTITIONS4 = tuple({
    p.atoms: p for p in (Partition(STATES4, labels) for labels in itertools.product(range(4), repeat=4))
}.values())


@st.composite
def rational_vectors(draw, length=4):
    return tuple(
        rat(draw(st.integers(-20, 20)), draw(st.integers(1, 9))) for _ in range(length)
    )


@st.composite
def positive_vectors(draw, length=4):
    return tuple(
        rat(draw(st.integers(1, 20)), draw(st.integers(1, 9))) for _ in range(length)
    )


class TestPartition:
    def test_canonical_ordering(self):
        p = Partition.of(STATES4, [("4", "3"), ("2",), ("1",)])
        assert p.atoms == (("1",), ("2",), ("3", "4"))

    def test_reject_overlap(self):
        with pytest.raises(ValueError):
            Partition.of(STATES4, [("1", "2"), ("2", "3", "4")])

    def test_reject_partial_cover(self):
        with pytest.raises(ValueError):
            Partition.of(STATES4, [("1", "2")])

    def test_reject_foreign_state(self):
        with pytest.raises(ValueError, match=r"^state 'c' is not in the state set$"):
            Partition.of(("a", "b"), [["a"], ["c"]])
        with pytest.raises(ValueError, match=r"^state '5' is not in the state set$"):
            Partition.of(STATES4, [("1", "2", "5"), ("3", "4")])
        with pytest.raises(ValueError, match=r"^state 'c' is not in the state set$"):
            Partition.of(("a", "b"), [["a"], ["b", "c"]])

    def test_of_words_the_first_problem(self):
        # a foreign state, then an empty atom, then a repeated state, then a gap
        with pytest.raises(ValueError, match=r"^state 'x' is not in the state set$"):
            Partition.of(STATES4, [(), ("1", "1"), ("x",)])
        with pytest.raises(ValueError, match=r"^empty atom$"):
            Partition.of(STATES4, [("1", "1"), ()])
        with pytest.raises(ValueError, match=r"^state '1' appears in two atoms$"):
            Partition.of(STATES4, [("1", "2"), ("1",)])
        with pytest.raises(ValueError, match=r"^atoms do not cover the state set$"):
            Partition.of(STATES4, [("1", "2"), ("3",)])

    def test_any_labels_are_renumbered_canonically(self):
        states = ("a", "b", "c")
        p = Partition(states, ["x", "x", "y"])
        assert p.labels == (0, 0, 1) and p.atoms == (("a", "b"), ("c",))
        assert p == Partition.of(states, [["c"], ["b", "a"]]) == Partition(states, (0, 0, 1))
        assert hash(p) == hash(Partition.of(states, [["c"], ["b", "a"]]))
        # labels are numbered in order of first appearance, whatever their kind
        for labels in [(1, 1, 0), (2, 2, 0), (0, 0, -1), (0, 0, 1.0), (0, 0, True), [0, 0, 1]]:
            assert Partition(states, labels).labels == (0, 0, 1)
            assert Partition(states, labels) == p
        assert Partition(states, (0, 2, 1)).labels == (0, 1, 2)
        assert Partition(("a", "b"), (("a",), ("b",))).labels == (0, 1)  # tuples are labels too
        with pytest.raises(ValueError, match=r"^one label per state required$"):
            Partition(states, (0, 1))
        with pytest.raises(ValueError, match=r"^duplicate state names$"):
            Partition(("a", "a"), (0, 1))

    @settings(max_examples=300, deadline=None)
    @given(labels=LABELS, spare=st.integers(-1, 1), duplicate=st.booleans())
    def test_one_pass_build_matches_the_two_step_build(self, labels, spare, duplicate):
        """Partition numbers the labels and groups the states in one pass,
        with the fields and the ValueErrors of the old two-step build, for
        the label kinds the package passes: ints, strings and tuples.
        `spare` states more or fewer than labels, and a duplicate name."""
        states = [f"s{i}" for i in range(max(len(labels) + spare, 0))]
        if duplicate and len(states) > 1:
            states[-1] = states[0]

        def outcome(build):
            try:
                return build(states, labels)
            except ValueError as exc:
                return str(exc)

        built = outcome(Partition)
        if isinstance(built, Partition):
            p, built = built, (built.states, built.labels, built.atoms, built.atom_positions)
            # the canonical labels build the same partition again, field by field
            again = Partition(p.states, p.labels)
            assert (again.states, again.labels, again.atoms, again.atom_positions) == built
        assert built == outcome(reference_from_labels)

    def test_atom_positions_are_built_with_the_partition(self):
        for labels in itertools.product(range(4), repeat=4):
            p = Partition(STATES4, labels)
            assert "atom_positions" in vars(p)
            grouped = tuple(tuple(i for i, label in enumerate(p.labels) if label == a) for a in range(len(p.atoms)))
            assert vars(p)["atom_positions"] == grouped
            assert all(tuple(STATES4[k] for k in pos) == atom for pos, atom in zip(grouped, p.atoms))
        assert "atom_positions" not in repr(p)


class TestRefines:
    def test_singleton_split_refines(self):
        assert refines(part(("1",), ("2",), ("3", "4")), part(("1", "2"), ("3", "4")))

    def test_reflexive(self):
        p = part(("1", "2"), ("3", "4"))
        assert refines(p, p)

    def test_crossing_blocks(self):
        assert not refines(part(("1", "2"), ("3", "4")), part(("1", "3"), ("2", "4")))

    def test_mismatched_states(self):
        with pytest.raises(ValueError):
            refines(part(("1", "2"), ("3", "4")), Partition.trivial(("1", "2")))

    @given(partitions(), partitions())
    def test_antisymmetric(self, p, q):
        if refines(p, q) and refines(q, p):
            assert p == q

    @given(partitions(), partitions(), partitions())
    def test_transitive(self, p, q, r):
        if refines(p, q) and refines(q, r):
            assert refines(p, r)


class TestSigmaJoin:
    def test_two_block_crossing(self):
        joined = sigma_join([part(("1", "2"), ("3", "4")), part(("1", "3"), ("2", "4"))])
        assert joined == discrete_partition(STATES4)

    def test_single_argument(self):
        p = part(("1", "2"), ("3", "4"))
        assert sigma_join([p]) == p

    def test_trivial_is_identity(self):
        p = part(("1", "2"), ("3", "4"))
        assert sigma_join([p, Partition.trivial(STATES4)]) == p

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sigma_join([])

    @given(partitions())
    def test_idempotent(self, p):
        assert sigma_join([p, p]) == p

    @given(partitions(), partitions())
    def test_commutative(self, p, q):
        assert sigma_join([p, q]) == sigma_join([q, p])

    @given(partitions(), partitions(), partitions())
    def test_associative(self, p, q, r):
        assert sigma_join([sigma_join([p, q]), r]) == sigma_join([p, sigma_join([q, r])])

    @given(partitions(), partitions())
    def test_join_refines_both(self, p, q):
        j = sigma_join([p, q])
        assert refines(j, p) and refines(j, q)

    def test_refining_input_is_the_join(self):
        """Over every pair of partitions of four states the join is the
        common refinement of their labels, and an input that refines the
        other is returned as it is."""
        for p, q in itertools.product(ALL_PARTITIONS4, repeat=2):
            joined = sigma_join([p, q])
            assert joined == Partition(STATES4, list(zip(p.labels, q.labels)))
            if refines(p, q):
                assert joined is p
            elif refines(q, p):
                assert joined is q
        for p in ALL_PARTITIONS4:
            assert sigma_join([p]) is p

    @given(partitions(), partitions())
    def test_meet_coarser_than_both(self, p, q):
        w = sigma_meet([p, q])
        assert refines(p, w) and refines(q, w)

    @given(partitions(), partitions(), partitions())
    def test_meet_is_the_finest_common_coarsening(self, p, q, r):
        pq, pr = sigma_join([p, q]), sigma_join([p, r])
        for parts in ([p, q], [p, q, r], [pq, p], [pr, p, pq], [pq, pr]):
            common = [c for c in ALL_PARTITIONS4 if all(refines(x, c) for x in parts)]
            assert sigma_meet(parts) == max(common, key=lambda c: len(c.atoms))
        assert sigma_meet([p, pr, pq]) is p  # an input every other input refines


class TestConditionalExpectation:
    def test_block_averages_uniform(self):
        x = (rat(4), rat(0), rat(2), rat(6))
        q = (rat(1, 4),) * 4
        out = conditional_expectation(x, part(("1", "2"), ("3", "4")), q)
        assert out == (rat(2), rat(2), rat(4), rat(4))

    def test_singletons_identity(self):
        x = (rat(4), rat(0), rat(2), rat(6))
        q = (rat(1, 4),) * 4
        assert conditional_expectation(x, discrete_partition(STATES4), q) == x

    def test_weighted_averages(self):
        # weights (1/2,1/6,1/6,1/6): block {1,2} -> (2+0)/(2/3)=3, block {3,4} -> 4
        x = (rat(4), rat(0), rat(2), rat(6))
        q = (rat(1, 2), rat(1, 6), rat(1, 6), rat(1, 6))
        out = conditional_expectation(x, part(("1", "2"), ("3", "4")), q)
        assert out == (rat(3), rat(3), rat(4), rat(4))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            conditional_expectation((rat(1),) * 4, part(("1", "2"), ("3", "4")), (rat(0),) * 4)

    @given(rational_vectors(), partitions(), positive_vectors())
    def test_projection(self, x, sigma, q):
        once = conditional_expectation(x, sigma, q)
        assert conditional_expectation(once, sigma, q) == once

    @given(rational_vectors(), partitions(), partitions(), positive_vectors())
    def test_tower_for_nested(self, x, fine, other, q):
        coarse = sigma_meet([fine, other])  # guaranteed coarser than fine
        through_fine = conditional_expectation(
            conditional_expectation(x, fine, q), coarse, q
        )
        assert through_fine == conditional_expectation(x, coarse, q)

    @given(rational_vectors(), partitions(), positive_vectors())
    def test_preserves_mean(self, x, sigma, q):
        out = conditional_expectation(x, sigma, q)
        assert sum(w * a for w, a in zip(q, x)) == sum(w * a for w, a in zip(q, out))


def ladder_filtration():
    """Trivial -> halves -> singletons over four states."""
    return Filtration((
        Partition.trivial(STATES4),
        part(("1", "2"), ("3", "4")),
        discrete_partition(STATES4),
    ))


class TestStoppedSigmaField:
    def test_spec_example(self):
        f = ladder_filtration()
        atoms = stopped_sigma_field(f, (1, 1, 2, 2)).atoms
        assert atoms == (("1", "2"), ("3",), ("4",))

    def test_constant_time(self):
        f = ladder_filtration()
        for t in range(3):
            assert stopped_sigma_field(f, (t,) * 4) == f.at(t)

    def test_degenerate_stop(self):
        f = ladder_filtration()
        assert stopped_sigma_field(f, (0, 0, 0, 0)) == f.at(0)

    def test_rejects_non_stopping_time(self):
        f = ladder_filtration()
        # {tau <= 1} = {"1"} cuts the atom {"1","2"} of f.at(1)
        with pytest.raises(ValueError):
            stopped_sigma_field(f, (1, 2, 2, 2))

    @pytest.mark.parametrize("tau, v", [((0, 1, 3, 1), 3), ((1, -1, 2, 2), -1)])
    def test_rejects_a_time_off_the_grid(self, tau, v):
        with pytest.raises(ValueError, match=rf"^stopped time {v} escapes the filtration grid$"):
            stopped_sigma_field(ladder_filtration(), tau)

    def test_monotone_in_tau(self):
        f = ladder_filtration()
        early, late = (1, 1, 1, 1), (1, 1, 2, 2)
        coarse = stopped_sigma_field(f, early)
        fine = stopped_sigma_field(f, late)
        assert refines(fine, coarse)


def brute_force_stopped_atoms(f: Filtration, tau) -> tuple:
    """Definitional computation over all candidate event sets."""
    states = f.states
    n = len(states)

    def measurable(event, partition):
        for atom in partition.atoms:
            inside = sum(1 for s in atom if s in event)
            if inside not in (0, len(atom)):
                return False
        return True

    events = []
    for mask in range(2 ** n):
        event = {states[i] for i in range(n) if mask >> i & 1}
        if all(
            measurable({s for s in event if tau[states.index(s)] <= u}, f.at(u))
            for u in range(len(f))
        ):
            events.append(event)
    atoms = []
    for s in states:
        atom = set(states)
        for event in events:
            if s in event:
                atom &= event
        atoms.append(frozenset(atom))
    return Partition.of(states, set(atoms)).atoms


def all_stopping_times(f: Filtration, top: int):
    """Every stopping time bounded by `top` for a small filtration."""
    states = f.states
    results = []

    def extend(s, assigned):
        if s > top:
            if len(assigned) == len(states):
                results.append(tuple(assigned[st] for st in states))
            return
        alive_atoms = [a for a in f.at(s).atoms if a[0] not in assigned]
        choices = (
            [tuple(alive_atoms)] if s == top
            else list(itertools.chain.from_iterable(
                itertools.combinations(alive_atoms, k) for k in range(len(alive_atoms) + 1)
            ))
        )
        for stopped in choices:
            new = dict(assigned)
            for atom in stopped:
                for st in atom:
                    new[st] = s
            extend(s + 1, new)

    extend(0, {})
    return results


def small_filtration_corpus(states) -> list[Filtration]:
    """Representative filtrations on up to six states over grid 0..3."""
    n = len(states)
    corpus = [Filtration.constant(Partition.trivial(states), 4)]
    if n >= 2:
        split = Partition.of(states, [states[: n // 2], states[n // 2:]])
        corpus.append(Filtration((
            Partition.trivial(states), split, discrete_partition(states),
            discrete_partition(states),
        )))
        corpus.append(Filtration((
            Partition.trivial(states), Partition.trivial(states), split, split,
        )))
    if n >= 3:
        thirds = Partition.of(states, [states[:1], states[1:2], states[2:]])
        corpus.append(Filtration((
            Partition.trivial(states), thirds, thirds, discrete_partition(states),
        )))
    if 2 <= n <= 4:
        corpus.append(Filtration.constant(discrete_partition(states), 4))
    return corpus


class TestStoppedAgainstBruteForce:
    @pytest.mark.parametrize("n_states", [1, 2, 3, 4, 5, 6])
    def test_exhaustive_small_spaces(self, n_states):
        states = tuple(str(i) for i in range(n_states))
        checked = 0
        for f in small_filtration_corpus(states):
            for tau in all_stopping_times(f, 3):
                assert stopped_sigma_field(f, tau).atoms == brute_force_stopped_atoms(f, tau)
                checked += 1
        assert checked > 0


def desk_draws(count=20):
    """Seeded desk markets with one information and one execution family each."""
    for i in range(count):
        rng = _rng(DESK.seed, "primitives", i)
        m = gen_martingale_market(DESK, rng=rng, min_extension=1)
        yield m, gen_random_delay(DESK, "information", m, rng=rng), gen_random_delay(DESK, "execution", m, rng=rng)


class TestDelayPrimitives:
    """stopped_fields and join_each against stopped_sigma_field and
    sigma_join, one position at a time."""

    def test_stopped_fields_stops_each_row(self):
        for m, info, execution in desk_draws():
            tables = [(m.trading_filtrations[a], sp) for a, sp in info.delays.items()]
            tables += [(m.grand_filtration, sp) for sp in execution.delays.values()]
            for f, sp in tables:
                assert stopped_fields(f, sp.values) == tuple(stopped_sigma_field(f, row) for row in sp.values)

    def test_join_each_joins_each_position(self):
        rng = random.Random(5)
        new_partitions = 0
        for m, info, execution in desk_draws():
            states = m.space.states
            trading = [f.partitions for f in m.trading_filtrations.values()]
            stopped = [stopped_fields(m.grand_filtration, sp.values) for sp in execution.delays.values()]
            # the generators' filtrations are mostly nested, random partitions rarely are
            crossing = [[Partition(states, [rng.randrange(3) for _ in states]) for _ in trading[0]]
                        for _ in range(2)]
            for seqs in (trading, stopped, crossing):
                joined = join_each(seqs)
                assert joined == tuple(sigma_join([s[t] for s in seqs]) for t in range(len(seqs[0])))
                new_partitions += sum(all(j is not s[t] for s in seqs) for t, j in enumerate(joined))
        assert new_partitions > 0

    def test_join_each_of_one_sequence_returns_its_partitions(self):
        for m, _, execution in desk_draws():
            seqs = [f.partitions for f in m.trading_filtrations.values()]
            seqs += [stopped_fields(m.grand_filtration, sp.values) for sp in execution.delays.values()]
            for seq in seqs:
                joined = join_each([seq])
                assert len(joined) == len(seq) and all(j is p for j, p in zip(joined, seq))


class TestValidateStoppingProcess:
    def test_zero_delay_valid(self):
        f = ladder_filtration()
        sp = identity_delay(3, f)
        assert validate_stopping_process(sp, "information") == []

    def test_lagged_delay_with_trivial_info(self):
        trivial = Filtration.constant(Partition.trivial(STATES4), 3)
        sp = StoppingProcess.deterministic([max(t - 1, 0) for t in range(3)], trivial)
        assert validate_stopping_process(sp, "information") == []

    def test_execution_bound_violation(self):
        trivial = Filtration.constant(Partition.trivial(STATES4), 3)
        sp = StoppingProcess.deterministic([max(t - 1, 0) for t in range(3)], trivial)
        report = validate_stopping_process(sp, "execution")
        assert any("execution bound violated" in p for p in report)

    def test_information_bound_violation(self):
        trivial = Filtration.constant(Partition.trivial(STATES4), 3)
        sp = StoppingProcess.deterministic([t + 1 for t in range(3)], trivial)
        report = validate_stopping_process(sp, "information")
        assert any("information bound violated" in p for p in report)

    def test_monotonicity_violation(self):
        trivial = Filtration.constant(Partition.trivial(STATES4), 3)
        sp = StoppingProcess.deterministic([0, 2, 1], trivial)
        report = validate_stopping_process(sp, "execution")
        assert any("monotonicity violated" in p for p in report)

    def test_stopping_property_violation(self):
        f = ladder_filtration()
        # stops state "1" at 1 but its time-1 atom is {"1","2"}: info too coarse
        sp = StoppingProcess(((0,) * 4, (1, 2, 2, 2), (2, 2, 2, 2)), f)
        report = validate_stopping_process(sp, "execution")
        assert any("stopping property violated" in p for p in report)

    @pytest.mark.parametrize("bad", [0.6, 1.9, True, rat(1)])
    def test_values_that_are_not_ints_are_refused(self, bad):
        """int() would truncate 0.6 to 0 and read True as 1; the table and
        a deterministic schedule refuse such a value instead."""
        trivial = Filtration.constant(Partition.trivial(STATES4), 3)
        with pytest.raises(TypeError, match=rf"^grid value {re.escape(repr(bad))} is not an int$"):
            StoppingProcess(((0,) * 4, (1, 1, bad, 1), (2,) * 4), trivial)
        with pytest.raises(TypeError, match=rf"^grid value {re.escape(repr(bad))} is not an int$"):
            StoppingProcess.deterministic([0, bad, 2], trivial)

    def test_unknown_mode_rejected(self):
        f = ladder_filtration()
        with pytest.raises(ValueError):
            validate_stopping_process(identity_delay(3, f), "both")

    def test_negative_value_cutting_an_atom_of_f0_is_reported(self):
        f = ladder_filtration()
        sp = StoppingProcess(((-1, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)), f)
        assert validate_stopping_process(sp, "information") == \
            reference_validate_stopping_process(sp, "information")
        sp = StoppingProcess(((-1, 1, 1, 1), (1, 1, 1, 1), (2, 2, 2, 2)), f)
        report = validate_stopping_process(sp, "information")
        assert report == reference_validate_stopping_process(sp, "information")
        assert "stopping property violated at t=0: {value <= 0} cuts atom ('1', '2', '3', '4') " \
            "of the information" in report


def _random_filtration(rng, states, length):
    """Each step splits every atom by a fresh random bit, or keeps it."""
    labels = [()] * len(states)
    partitions = []
    for _ in range(length):
        if rng.random() < 0.6:
            labels = [label + (rng.randint(0, 1),) for label in labels]
        partitions.append(Partition(states, labels))
    return Filtration(tuple(partitions))


def _random_row(rng, info):
    """A stopping time of info, that time with one entry moved (perhaps
    off the grid), or uniform noise on -2..top+2."""
    top = len(info) - 1
    kind = rng.random()
    if kind < 0.3:
        return [rng.randint(-2, top + 2) for _ in info.states]
    row = [None] * len(info.states)
    for s in range(top + 1):
        for positions in info.at(s).atom_positions:
            if row[positions[0]] is None and (s == top or rng.random() < 0.4):
                for k in positions:
                    row[k] = s
    if kind < 0.7:
        row[rng.randrange(len(row))] = rng.randint(-2, top + 2)
    return row


class TestStoppingMatchesReference:
    """Testing the stopping property at the row's values alone reports
    exactly what the test at every grid time reported."""

    def test_random_filtrations_and_tables(self):
        rng = random.Random(2024)
        reports = cuts = 0
        for _ in range(3000):
            states = tuple(f"s{k}" for k in range(rng.randint(1, 6)))
            info = _random_filtration(rng, states, rng.randint(1, 5))
            values = tuple(_random_row(rng, info) for _ in range(rng.randint(1, 5)))
            sp = StoppingProcess(values, info)
            for mode in ("information", "execution"):
                report = validate_stopping_process(sp, mode)
                assert report == reference_validate_stopping_process(sp, mode), (values, info)
                reports += 1
                cuts += any("stopping property violated" in p for p in report)
        assert reports == 6000 and cuts >= 1000


class TestFiltration:
    def test_rejects_non_refining(self):
        with pytest.raises(ValueError):
            Filtration((discrete_partition(STATES4), Partition.trivial(STATES4)))

    def test_extend_repeats_last(self):
        f = ladder_filtration().extend_to(5)
        assert len(f) == 5
        assert f.at(4) == discrete_partition(STATES4)

    def test_full_restriction_is_the_filtration_itself(self):
        f = ladder_filtration()
        assert f.restrict(len(f)) is f
        assert f.extend_to(len(f)) is f
        shorter = f.restrict(len(f) - 1)
        assert shorter is not f and shorter.partitions == f.partitions[:-1]

    def test_space_invariants(self):
        with pytest.raises(ValueError):
            FiniteSpace(("a", "b"), {"a": rat(1, 2), "b": rat(1, 3)}, 1, 1)
        with pytest.raises(ValueError):
            FiniteSpace(("a", "b"), {"a": rat(1), "b": rat(0)}, 1, 1)
        with pytest.raises(ValueError):
            FiniteSpace(("a", "b"), {"a": rat(1, 2), "b": rat(1, 2)}, 1, 0)

    def test_space_indexes_its_states_when_built(self):
        space = FiniteSpace.uniform(("b", "a", "c"), 1, 2)
        assert vars(space)["state_index"] == {"b": 0, "a": 1, "c": 2}
        with pytest.raises(ValueError, match=r"^duplicate state names$"):
            FiniteSpace(("a", "b", "a"), {"a": rat(1, 2), "b": rat(1, 2)}, 1, 1)

    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_space_bounds_that_are_not_ints_are_refused(self, bad):
        """int() would read True as 1 and truncate a float; a space whose
        grid bounds are not ints would fit no price table, so it is refused."""
        for horizon, extended in ((bad, 2), (1, bad)):
            with pytest.raises(TypeError, match=rf"^grid value {bad!r} is not an int$"):
                FiniteSpace.uniform(("a", "b"), horizon, extended)
