"""Delayed filtrations, delayed markets, inversion, superimposition, brokers."""

from __future__ import annotations

import gc
import itertools
import weakref
from fractions import Fraction as rat

import pytest

from delayedmarkets import delays

from delayedmarkets.delays import (
    DelayPreconditionError,
    ExecutionDelayFamily,
    InformationDelayFamily,
    delayed_market,
    enlarged_trading_filtrations,
    information_delayed_market,
    invert_delay,
    is_step_continuous,
    large_delayed_filtrations,
    min_delay,
    representation_check,
    superimpose_delays,
    validate_execution_family,
    validate_information_family,
)
from delayedmarkets.documents import parse_market_document, serialize_market_document
from delayedmarkets.markets import Market, is_measurable, validate_market
from delayedmarkets.probability import (
    Filtration,
    FiniteSpace,
    Partition,
    StoppingProcess,
    is_subfiltration,
    refines,
    stopped_fields,
)
from delayedmarkets.scenarios import (
    ScenarioConfig,
    _rng,
    gen_insider_execution_market,
    gen_insider_market,
    gen_martingale_market,
    gen_random_delay,
    run_experiment,
)

from conftest import discrete_partition, identity_delay
from test_acceptance import DESK


def ladder(states, length):
    """Trivial at 0, then split ever finer, frozen once discrete."""
    parts = [Partition.trivial(states)]
    for t in range(1, length):
        k = min(2 ** t, len(states))
        size = (len(states) + k - 1) // k
        blocks = [states[i: i + size] for i in range(0, len(states), size)]
        parts.append(Partition.of(states, blocks))
    return Filtration(tuple(parts))


class TestDelayedTradingFiltration:
    def test_zero_delay_returns_original(self):
        f = ladder(tuple("abcdefgh"), 4)
        triv = Filtration.constant(Partition.trivial(f.states), 4)
        delta = identity_delay(4, triv)
        assert Filtration(stopped_fields(f, delta.values)) == f

    def test_total_delay_freezes_time_zero(self):
        f = ladder(tuple("abcdefgh"), 4)
        triv = Filtration.constant(Partition.trivial(f.states), 4)
        delta = StoppingProcess.deterministic([0, 0, 0, 0], triv)
        out = Filtration(stopped_fields(f, delta.values))
        assert all(out.at(t) == f.at(0) for t in range(4))

    def test_insider_delay_never_anticipates(self):
        m, fam = gen_insider_market(3, 1)
        index_set = frozenset({"walk"})
        out = Filtration(stopped_fields(m.trading_filtrations[index_set], fam.delays[index_set].values))
        states = m.space.states

        def prefix(k):
            return Partition(states, [s[:k] for s in states])

        # the peeking filtration is (trivial, prefix 2, prefix 3, prefix 4);
        # the lag-1 delay rewinds it below the walk's natural information
        assert out.at(0) == prefix(0)
        assert out.at(1) == prefix(0)
        assert out.at(2) == prefix(2)
        assert out.at(3) == prefix(3)
        for t in range(4):
            assert refines(prefix(t), out.at(t))


def four_coin_market():
    """Four independent coins revealed at time 1, one asset each."""
    states = tuple("".join(p) for p in itertools.product("hd", repeat=4))
    space = FiniteSpace.uniform(states, 3, 3)
    trivial = Partition.trivial(states)
    discrete = discrete_partition(states)
    grand = Filtration((trivial, discrete, discrete, discrete))

    def reveal(coins):
        revealed = Partition(states, ["".join(s[i] for i in coins) for s in states])
        return Filtration((trivial, revealed, revealed, revealed))

    assets = {}
    for i in range(4):
        head = tuple(rat(1) if s[i] == "h" else rat(0) for s in states)
        assets[f"c{i + 1}"] = (tuple(rat(1, 2) for _ in states), head, head, head)
    fast = frozenset({"c1", "c2"})
    slow = frozenset({"c3"})
    comb = frozenset({"c1", "c2", "c3"})
    sslw = frozenset({"c1", "c2", "c3", "c4"})
    trading = {
        fast: reveal([0, 1]),
        slow: reveal([2]),
        comb: reveal([0, 1, 2]),
        sslw: reveal([0, 1, 2, 3]),
    }
    market = Market(space, assets, (fast, slow, comb, sslw), trading, grand)
    return market, fast, slow, comb, sslw


class TestLargeDelayedFiltrations:
    def test_singleton_base_case(self):
        m, fam = gen_insider_market(2, 1)
        index_set = frozenset({"walk"})
        large = large_delayed_filtrations(m, fam)
        direct = Filtration(stopped_fields(m.trading_filtrations[index_set], fam.delays[index_set].values))
        assert large[index_set] == direct

    def test_zero_delays_return_originals(self):
        m, *_ = four_coin_market()
        triv = Filtration.constant(Partition.trivial(m.space.states), 4)
        fam = InformationDelayFamily({
            a: identity_delay(4, triv) for a in m.index_system
        })
        large = large_delayed_filtrations(m, fam)
        assert large == dict(m.trading_filtrations)

    def test_tiered_speeds_reveal_assets_in_order(self):
        m, fast, slow, comb, sslw = four_coin_market()
        triv = Filtration.constant(Partition.trivial(m.space.states), 4)

        def lagged(h):
            return StoppingProcess.deterministic([max(t - h, 0) for t in range(4)], triv)

        fam = InformationDelayFamily({
            fast: lagged(0), slow: lagged(1), comb: lagged(1), sslw: lagged(2),
        })
        large = large_delayed_filtrations(m, fam)
        on_sslw = large[sslw]
        states = m.space.states
        assert on_sslw.at(0) == Partition.trivial(states)
        assert on_sslw.at(1) == Partition(states, [s[:2] for s in states])
        assert on_sslw.at(2) == Partition(states, [s[:3] for s in states])
        assert on_sslw.at(3) == discrete_partition(states)

    def test_fresher_superset_keeps_the_family_monotone(self):
        m, fast, slow, comb, sslw = four_coin_market()
        triv = Filtration.constant(Partition.trivial(m.space.states), 4)
        fam = InformationDelayFamily({
            fast: StoppingProcess.deterministic([0, 0, 0, 0], triv),
            slow: identity_delay(4, triv),
            comb: identity_delay(4, triv),
            sslw: identity_delay(4, triv),  # superset fresher than its subset fast
        })
        delayed = information_delayed_market(m, fam)
        assert validate_market(delayed) == []
        assert delayed.trading_filtrations[fast].at(3) == Partition.trivial(m.space.states)
        assert delayed.trading_filtrations[sslw] == m.trading_filtrations[sslw]


class TestValidatesOnce:
    def test_each_stopping_process_is_validated_once(self, monkeypatch):
        m, fast, slow, comb, sslw = four_coin_market()
        triv = Filtration.constant(Partition.trivial(m.space.states), 4)
        fam = InformationDelayFamily({a: identity_delay(4, triv) for a in m.index_system})
        validate = delays.validate_stopping_process
        seen = []
        monkeypatch.setattr(delays, "validate_stopping_process",
                            lambda sp, mode: seen.append(sp) or validate(sp, mode))
        information_delayed_market(m, fam)
        assert len(seen) == len(m.index_system) == 4
        assert {id(sp) for sp in seen} == {id(sp) for sp in fam.delays.values()}

    def test_invalid_family_reports_every_problem(self):
        m, fast, slow, comb, sslw = four_coin_market()
        triv = Filtration.constant(Partition.trivial(m.space.states), 4)
        fine = Filtration.constant(discrete_partition(m.space.states), 4)
        fam = InformationDelayFamily({
            fast: StoppingProcess.deterministic([0, 2, 2, 3], triv),  # anticipates at t=1
            slow: identity_delay(4, fine),  # finer than the trading filtration
            comb: StoppingProcess.deterministic([0, 1, 0, 3], triv),  # not monotone
            sslw: identity_delay(4, triv),
        })
        expected = validate_information_family(m, fam)
        for problem in ("information bound violated", "not coarser than the trading filtration",
                        "path-wise monotonicity violated"):
            assert any(problem in p for p in expected), problem
        with pytest.raises(DelayPreconditionError) as err:
            information_delayed_market(m, fam)
        assert err.value.problems == expected
        # every call checks the family again: the same problems, the same way
        with pytest.raises(DelayPreconditionError) as err:
            information_delayed_market(m, fam)
        assert err.value.problems == expected

    @staticmethod
    def _counting(monkeypatch):
        validate = delays.validate_stopping_process
        seen = []
        monkeypatch.setattr(delays, "validate_stopping_process",
                            lambda sp, mode: seen.append(sp) or validate(sp, mode))
        return seen

    def test_parsed_families_are_checked_once_per_call(self, monkeypatch):
        """The parse checked both families; each delay operation checks its
        family's stopping processes again, each exactly once."""
        cfg = ScenarioConfig(seed=5, num_states=8, grid=3, extension=5, num_assets=3, max_index_sets=4)
        for i in range(10):
            rng = _rng(cfg.seed, "validate-once", i)
            m = gen_martingale_market(cfg, rng=rng)
            info = gen_random_delay(cfg, "information", m, rng=rng)
            execution = gen_random_delay(cfg, "execution", m, rng=rng, capped=True)
            doc = parse_market_document(serialize_market_document(m, info_delays=info, exec_delays=execution))
            seen = self._counting(monkeypatch)
            information_delayed_market(doc.market, doc.info_delays)
            assert seen == list(doc.info_delays.delays.values())
            seen.clear()
            delayed_market(doc.market, doc.exec_delays)
            assert seen == list(doc.exec_delays.delays.values())
            monkeypatch.undo()

    def test_another_market_is_checked(self, monkeypatch):
        """As `check --apply-delay` does: the execution family, checked on
        the parsed market, is applied to the information-delayed one and
        checked there, on every call."""
        m, *_ = four_coin_market()
        triv = Filtration.constant(Partition.trivial(m.space.states), 4)
        info = InformationDelayFamily({a: identity_delay(4, triv) for a in m.index_system})
        execution = ExecutionDelayFamily({a: identity_delay(4, triv) for a in m.assets})
        doc = parse_market_document(serialize_market_document(m, info_delays=info, exec_delays=execution))
        seen = self._counting(monkeypatch)
        delayed = information_delayed_market(doc.market, doc.info_delays)
        assert seen == list(doc.info_delays.delays.values())
        seen.clear()
        delayed_market(delayed, doc.exec_delays)
        assert seen == list(doc.exec_delays.delays.values())
        delayed_market(delayed, doc.exec_delays)
        assert len(seen) == 2 * len(m.assets)

    def test_a_family_keeps_no_market(self):
        """A family that has passed its checks holds only its fields: once
        the document and the delayed markets are gone, so is the market."""
        cfg = ScenarioConfig(seed=5, num_states=8, grid=3, extension=5, num_assets=3, max_index_sets=4)
        rng = _rng(cfg.seed, "keeps-no-market", 0)
        m = gen_martingale_market(cfg, rng=rng)
        info = gen_random_delay(cfg, "information", m, rng=rng)
        execution = gen_random_delay(cfg, "execution", m, rng=rng, capped=True)
        doc = parse_market_document(serialize_market_document(m, info_delays=info, exec_delays=execution))
        information_delayed_market(doc.market, doc.info_delays)
        delayed_market(doc.market, doc.exec_delays)
        parsed, families = weakref.ref(doc.market), (doc.info_delays, doc.exec_delays)
        del doc
        gc.collect()
        assert parsed() is None
        for fam in families:
            assert tuple(vars(fam)) == fam._fields

    def test_invalid_family_raises_after_a_pass_elsewhere(self):
        m, *_ = four_coin_market()
        triv = Filtration.constant(Partition.trivial(m.space.states), 4)
        fam = InformationDelayFamily({a: StoppingProcess.deterministic([0, 1, 1, 2], triv) for a in m.index_system})
        assert validate_information_family(m, fam) == []
        short = Market(FiniteSpace.uniform(m.space.states, 2, 2), {a: t[:3] for a, t in m.assets.items()},
                       m.index_system, {a: f.restrict(3) for a, f in m.trading_filtrations.items()},
                       m.grand_filtration.restrict(3))
        expected = validate_information_family(short, fam)
        assert len(expected) == 4 and all("must cover grid times 0..2" in p for p in expected)
        with pytest.raises(DelayPreconditionError) as err:
            information_delayed_market(short, fam)
        assert err.value.problems == expected
        assert information_delayed_market(m, fam) == information_delayed_market(m, InformationDelayFamily(fam.delays))


class TestCoarseness:
    def test_zero_delay_equality(self):
        m, *_ = four_coin_market()
        triv = Filtration.constant(Partition.trivial(m.space.states), 4)
        fam = InformationDelayFamily({a: identity_delay(4, triv) for a in m.index_system})
        for a, f in large_delayed_filtrations(m, fam).items():
            original = m.trading_filtrations[a]
            assert is_subfiltration(f, original) and is_subfiltration(original, f)

    def test_insider_strictly_coarser_before_maturity(self):
        m, fam = gen_insider_market(2, 1)
        index_set = frozenset({"walk"})
        delayed = large_delayed_filtrations(m, fam)[index_set]
        original = m.trading_filtrations[index_set]
        assert is_subfiltration(delayed, original)
        assert len(delayed.at(1).atoms) < len(original.at(1).atoms)

    def test_random_families_always_coarser(self):
        cfg = ScenarioConfig(seed=77)
        for i in range(20):
            rng = _rng(cfg.seed, "coarse", i)
            m = gen_martingale_market(cfg, rng=rng)
            fam = gen_random_delay(cfg, "information", m, rng=rng)
            delayed = large_delayed_filtrations(m, fam)
            assert all(is_subfiltration(f, m.trading_filtrations[a]) for a, f in delayed.items())


class TestDelayedMarket:
    def test_identity_delay_restricts_to_trading_grid(self):
        m = gen_martingale_market(ScenarioConfig(seed=2), min_extension=1)
        horizon = m.space.horizon
        triv = Filtration.constant(Partition.trivial(m.space.states), m.space.extended_horizon + 1)
        fam = ExecutionDelayFamily({a: identity_delay(horizon + 1, triv) for a in m.assets})
        dm = delayed_market(m, fam)
        assert dm.space.extended_horizon == horizon
        for a in m.assets:
            assert dm.assets[a] == m.assets[a][: horizon + 1]
        for t in range(horizon + 1):
            assert dm.grand_filtration.at(t) == m.grand_filtration.at(t)

    def test_uniform_shift_shifts_the_walk(self):
        m, fam = gen_insider_execution_market(2, 1)
        dm = delayed_market(m, fam)
        for t in range(3):
            assert dm.assets["walk"][t] == m.assets["walk"][t + 1]

    def test_delayed_assets_adapted_to_delayed_grand(self):
        cfg = ScenarioConfig(seed=19)
        for i in range(15):
            rng = _rng(cfg.seed, "adapted", i)
            m = gen_martingale_market(cfg, rng=rng, min_extension=1)
            fam = gen_random_delay(cfg, "execution", m, rng=rng, capped=rng.random() < 0.5)
            for upto in range(m.space.horizon, m.space.extended_horizon + 1):
                dm = delayed_market(m, fam, extended_horizon=upto)
                assert dm.space.extended_horizon == upto and validate_market(dm) == []
                for a in dm.assets:
                    for t in range(upto + 1):
                        assert is_measurable(dm.assets[a][t], dm.grand_filtration.at(t))

    def test_delaying_a_market_with_declared_trading_extension(self):
        import sys
        from test_arbitrage import TestExtendedHorizon

        m = TestExtendedHorizon.flatline_market(declare_extension=True)
        triv = Filtration.constant(Partition.trivial(m.space.states), 4)
        fam = ExecutionDelayFamily({"flat": StoppingProcess.deterministic([1, 2], triv)})
        dm = delayed_market(m, fam)
        assert validate_market(dm) == []
        dm_ext = delayed_market(m, fam, extended_horizon=3)
        assert validate_market(dm_ext) == []
        assert len(dm_ext.trading_filtrations[frozenset({"flat"})]) == 4

    def test_drawn_information_delay_fits_a_declared_trading_extension(self):
        """gen_random_delay draws an information delay's information from the
        trading filtration over 0..n, however far the market declares it."""
        from test_arbitrage import TestExtendedHorizon

        m = TestExtendedHorizon.flatline_market(declare_extension=True)
        assert len(m.trading_filtrations[frozenset({"flat"})]) > m.space.horizon + 1
        for i in range(5):
            fam = gen_random_delay(DESK, "information", m, rng=_rng(DESK.seed, "declared", i))
            assert validate_information_family(m, fam) == []

    def test_delay_beyond_extended_grid_rejected(self):
        m = gen_martingale_market(ScenarioConfig(seed=2), min_extension=1)
        horizon, extended = m.space.horizon, m.space.extended_horizon
        triv = Filtration.constant(Partition.trivial(m.space.states), extended + 1)
        fam = ExecutionDelayFamily({
            a: StoppingProcess.deterministic([extended + 1] * (horizon + 1), triv)
            for a in m.assets
        })
        with pytest.raises((DelayPreconditionError, ValueError)):
            delayed_market(m, fam)

    def test_extended_horizon_outside_the_grid_rejected(self):
        m = gen_martingale_market(ScenarioConfig(seed=2), min_extension=1)
        horizon, extended = m.space.horizon, m.space.extended_horizon
        triv = Filtration.constant(Partition.trivial(m.space.states), extended + 1)
        fam = ExecutionDelayFamily({a: identity_delay(horizon + 1, triv) for a in m.assets})
        for upto in (horizon - 1, extended + 1):
            with pytest.raises(ValueError, match=rf"^extended horizon {upto} outside {horizon}\.\.{extended}$"):
                delayed_market(m, fam, extended_horizon=upto)


@pytest.mark.parametrize("bad", [2.7, 3.0, True])
def test_caps_that_are_not_ints_are_refused(bad):
    pi = StoppingProcess.deterministic([1, 2], Filtration.constant(Partition.trivial(("x", "y")), 4))
    with pytest.raises(TypeError, match=rf"^grid value {bad!r} is not an int$"):
        ExecutionDelayFamily({"walk": pi}, {"walk": bad})
    assert ExecutionDelayFamily({"walk": pi}, {"walk": 3}).caps == {"walk": 3}


def test_a_cap_without_its_delay_is_refused():
    """A cap bounds a delay of its asset; on any other asset it would
    validate and then be lost by a document round trip."""
    _, fam = gen_insider_execution_market(2, 1)
    with pytest.raises(ValueError, match=r"^cap for asset 'ghost', which has no execution delay$"):
        ExecutionDelayFamily(fam.delays, {**fam.caps, "zeta": 1, "ghost": 1})


def deterministic_exec(schedule, states, info_length):
    triv = Filtration.constant(Partition.trivial(states), info_length)
    return StoppingProcess.deterministic(schedule, triv)


class TestInvertDelay:
    STATES = ("x", "y")

    def test_spec_table(self):
        pi = deterministic_exec([1, 2, 3, 3], self.STATES, 4)
        assert invert_delay(pi).values == ((0,) * 2, (0,) * 2, (1,) * 2, (2,) * 2)

    def test_identity_inverts_to_identity(self):
        pi = deterministic_exec([0, 1, 2, 3], self.STATES, 4)
        assert invert_delay(pi).values == tuple((t, t) for t in range(4))

    def test_shift_inverts_to_lag(self):
        pi = deterministic_exec([min(t + 2, 5) for t in range(4)], self.STATES, 6)
        assert invert_delay(pi).values == tuple((max(t - 2, 0),) * 2 for t in range(4))

    def test_rejects_a_table_that_is_not_stopping(self):
        # {value <= 0} = {x} cuts the one atom of the trivial information at 0
        info = Filtration((Partition.trivial(self.STATES),) + (discrete_partition(self.STATES),) * 3)
        pi = StoppingProcess(((0, 1), (1, 1), (2, 2), (3, 3)), info)
        with pytest.raises(DelayPreconditionError) as err:
            invert_delay(pi)
        assert err.value.problems == ["stopping property violated at t=0: {value <= 0} cuts atom ('x', 'y') "
                                      "of the information"]

    def test_galois_inequalities_on_random_delays(self):
        cfg = ScenarioConfig(seed=59)
        for i in range(15):
            rng = _rng(cfg.seed, "galois", i)
            m = gen_martingale_market(cfg, rng=rng, min_extension=1)
            fam = gen_random_delay(cfg, "execution", m, rng=rng)
            for a, pi in fam.delays.items():
                delta = invert_delay(pi)
                for t in range(pi.grid_length()):
                    for w in range(len(pi.states)):
                        s_star = delta.values[t][w]
                        assert pi.values[s_star][w] >= t or s_star == pi.grid_length() - 1
                        assert delta.values[pi.values[t][w]][w] <= t if pi.values[t][w] < pi.grid_length() else True

    def test_inverse_passes_information_validation(self):
        cfg = ScenarioConfig(seed=61)
        from delayedmarkets.probability import validate_stopping_process

        for i in range(10):
            rng = _rng(cfg.seed, "inv-valid", i)
            m = gen_martingale_market(cfg, rng=rng, min_extension=1)
            fam = gen_random_delay(cfg, "execution", m, rng=rng, continuous=rng.random() < 0.5)
            for pi in fam.delays.values():
                assert validate_stopping_process(invert_delay(pi), "information") == []


class TestSuperimpose:
    STATES = ("x", "y")

    def test_identity_base_returns_stronger(self):
        base = deterministic_exec([0, 1, 2, 3], self.STATES, 6)
        strong = deterministic_exec([2, 2, 3, 5], self.STATES, 6)
        fam = ExecutionDelayFamily({"a": base})
        sfam = ExecutionDelayFamily({"a": strong}, {"a": 6})
        composed = superimpose_delays(fam, sfam)
        assert composed.delays["a"].values == strong.values
        assert composed.caps == {"a": 6}

    def test_self_superposition_is_identity(self):
        base = deterministic_exec([1, 2, 2, 3], self.STATES, 6)
        fam = ExecutionDelayFamily({"a": base})
        composed = superimpose_delays(fam, fam)
        assert composed.delays["a"].values == tuple((t, t) for t in range(4))

    def test_unit_shift_pair(self):
        n = 5
        base = deterministic_exec([t + 1 for t in range(n + 1)], self.STATES, n + 3)
        strong = deterministic_exec([t + 2 for t in range(n + 1)], self.STATES, n + 3)
        composed = superimpose_delays(
            ExecutionDelayFamily({"a": base}), ExecutionDelayFamily({"a": strong})
        )
        values = composed.delays["a"].values
        for t in range(n):
            assert values[t] == (t + 1, t + 1)
        # the final order time needs the extended part of the base delay
        assert values[n] == (n + 2, n + 2)

    def test_ordering_precondition_enforced(self):
        base = deterministic_exec([2, 2, 2, 3], self.STATES, 6)
        strong = deterministic_exec([0, 1, 2, 3], self.STATES, 6)
        with pytest.raises(DelayPreconditionError):
            superimpose_delays(ExecutionDelayFamily({"a": base}), ExecutionDelayFamily({"a": strong}))

    def test_discontinuous_base_rejected(self):
        base = deterministic_exec([0, 3, 3, 3], self.STATES, 6)
        strong = deterministic_exec([1, 4, 4, 4], self.STATES, 6)
        with pytest.raises(DelayPreconditionError):
            superimpose_delays(ExecutionDelayFamily({"a": base}), ExecutionDelayFamily({"a": strong}))

    @pytest.mark.parametrize("base_length, strong_length", [(4, 3), (3, 4)])
    def test_informations_on_different_grids_rejected(self, base_length, strong_length):
        """The residual delay is stopped on the stronger information along the
        base's extended rows, so both informations must cover one grid."""
        base = deterministic_exec([0, 1, 2], self.STATES, base_length)
        strong = deterministic_exec([0, 1, 2], self.STATES, strong_length)
        with pytest.raises(DelayPreconditionError) as caught:
            superimpose_delays(ExecutionDelayFamily({"a": base}), ExecutionDelayFamily({"a": strong}))
        assert caught.value.problems == ["asset 'a': delay informations cover different grids"]

    def test_preconditions_are_worded(self):
        identity = deterministic_exec([0, 1, 2, 3], self.STATES, 6)
        short = deterministic_exec([0, 1, 2], self.STATES, 6)
        fine = StoppingProcess.deterministic([0, 1, 2, 3], Filtration.constant(discrete_partition(self.STATES), 6))
        cases = [
            ({"a": identity}, {"b": identity}, "families delay different asset sets"),
            ({"a": short}, {"a": identity}, "asset 'a': delay tables cover different grids"),
            ({"a": fine}, {"a": identity}, "asset 'a': base delay information is not coarser than the stronger one"),
        ]
        for base, strong, problem in cases:
            with pytest.raises(DelayPreconditionError) as caught:
                superimpose_delays(ExecutionDelayFamily(base), ExecutionDelayFamily(strong))
            assert caught.value.problems == [problem]


class TestMinDelay:
    def test_single_family_unchanged(self):
        base = deterministic_exec([1, 2, 3, 4], ("x", "y"), 6)
        fam = ExecutionDelayFamily({"a": base}, {"a": 5})
        out = min_delay([fam])
        assert out.delays["a"].values == base.values
        assert out.caps == {"a": 5}

    def test_ordered_pair_takes_faster(self):
        fast = deterministic_exec([1, 2, 3, 4], ("x", "y"), 6)
        slow = deterministic_exec([2, 3, 4, 5], ("x", "y"), 6)
        out = min_delay([
            ExecutionDelayFamily({"a": fast}, {"a": 5}),
            ExecutionDelayFamily({"a": slow}, {"a": 6}),
        ])
        assert out.delays["a"].values == fast.values
        assert out.caps == {"a": 5}

    def test_random_families_pointwise_below_and_valid(self):
        cfg = ScenarioConfig(seed=67)
        from delayedmarkets.scenarios import _shared_info_families

        for i in range(10):
            rng = _rng(cfg.seed, "broker-min", i)
            m = gen_martingale_market(cfg, rng=rng, min_extension=1)
            families = _shared_info_families(m, rng.randint(2, 3), rng)
            fastest = min_delay(families)
            assert validate_execution_family(m, fastest) == []
            for fam in families:
                for a in fam.delays:
                    for t in range(fastest.delays[a].grid_length()):
                        for w in range(len(m.space.states)):
                            assert fastest.delays[a].values[t][w] <= fam.delays[a].values[t][w]

    def test_differing_information_rejected(self):
        states = ("x", "y")
        triv = Filtration.constant(Partition.trivial(states), 6)
        disc = Filtration.constant(discrete_partition(states), 6)
        f1 = ExecutionDelayFamily({"a": identity_delay(4, triv)})
        f2 = ExecutionDelayFamily({"a": identity_delay(4, disc)})
        with pytest.raises(DelayPreconditionError):
            min_delay([f1, f2])

    def test_preconditions_are_worded(self):
        with pytest.raises(ValueError, match=r"^min_delay of an empty list$"):
            min_delay([])
        identity = deterministic_exec([0, 1, 2, 3], ("x", "y"), 6)
        with pytest.raises(ValueError, match=r"^families delay different asset sets$"):
            min_delay([ExecutionDelayFamily({"a": identity}), ExecutionDelayFamily({"b": identity})])
        short = deterministic_exec([0, 1, 2], ("x", "y"), 6)
        with pytest.raises(DelayPreconditionError) as caught:
            min_delay([ExecutionDelayFamily({"a": identity}), ExecutionDelayFamily({"a": short})])
        assert caught.value.problems == ["asset 'a': broker delay tables cover different grids"]


class TestRepresentation:
    def test_identity_delays_reconstruct(self):
        m = gen_martingale_market(ScenarioConfig(seed=71), singletons=True)
        horizon = m.space.horizon
        triv = Filtration.constant(Partition.trivial(m.space.states), m.space.extended_horizon + 1)
        fam = ExecutionDelayFamily({a: identity_delay(horizon + 1, triv) for a in m.assets})
        assert representation_check(m, fam) is True

    def test_shift_reconstructs_on_its_range(self):
        """A delay that starts at 1 is inverted on order times 1..n."""
        for seed in range(71, 76):
            m = gen_martingale_market(ScenarioConfig(seed=seed), singletons=True, min_extension=1)
            horizon, extended = m.space.horizon, m.space.extended_horizon
            triv = Filtration.constant(Partition.trivial(m.space.states), extended + 1)
            fam = ExecutionDelayFamily({
                a: StoppingProcess.deterministic([min(t + 1, extended) for t in range(horizon + 1)], triv)
                for a in m.assets
            })
            assert representation_check(m, fam) is True, seed

    def test_late_inverse_is_caught(self, monkeypatch):
        """Negative control: an inverse one step later, capped at t, fails
        to reconstruct on some desk representation draw."""
        def late(pi):
            inverse = invert_delay(pi)
            values = tuple(tuple(min(v + 1, t) for v in row) for t, row in enumerate(inverse.values))
            return StoppingProcess(values, inverse.info)

        monkeypatch.setattr(delays, "invert_delay", late)
        report = run_experiment(DESK, "representation", 100)
        details = {f["detail"] for f in report.failures}
        assert details == {"reconstructed filtration differs from the original"}

    def test_empty_range_is_a_precondition_error(self):
        """A delay whose first execution lands after n leaves no order time
        to compare, which is an error, not a pass."""
        seeds = []
        for seed in range(71, 91):
            m = gen_martingale_market(ScenarioConfig(seed=seed), singletons=True, min_extension=1)
            horizon, extended = m.space.horizon, m.space.extended_horizon
            if extended < 2 * horizon + 1:
                continue
            seeds.append(seed)
            triv = Filtration.constant(Partition.trivial(m.space.states), extended + 1)
            fam = ExecutionDelayFamily({
                a: StoppingProcess.deterministic([t + horizon + 1 for t in range(horizon + 1)], triv)
                for a in m.assets
            })
            with pytest.raises(DelayPreconditionError) as caught:
                representation_check(m, fam)
            assert caught.value.problems == [
                f"index set {sorted(a)}: nothing to compare, its first execution lands at "
                f"{horizon + 1} > n = {horizon}"
                for a in m.index_system
            ], seed
        assert len(seeds) >= 5

    def test_gap_filtration_tolerates_shift(self):
        """Where the trading filtration is flat, a shifted delay still
        reconstructs it: the composition lands inside the flat stretch."""
        states = ("x", "y")
        space = FiniteSpace.uniform(states, 2, 3)
        trivial = Partition.trivial(states)
        discrete = discrete_partition(states)
        trading = Filtration((trivial, trivial, discrete))
        grand = Filtration((trivial, trivial, discrete, discrete))
        prices = {"a": tuple((rat(1), rat(1)) for _ in range(4))}
        iset = frozenset({"a"})
        m = Market(space, prices, (iset,), {iset: trading}, grand)
        triv_info = Filtration.constant(trivial, 4)
        pi = StoppingProcess.deterministic([1, 2, 3], triv_info)
        fam = ExecutionDelayFamily({"a": pi})
        enlarged = enlarged_trading_filtrations(m, fam)[iset]
        delta = invert_delay(pi)
        rebuilt = Filtration(stopped_fields(enlarged, delta.values))
        for t in range(3):
            assert rebuilt.at(t).atoms == trading.at(t).atoms

    @pytest.mark.parametrize("index_sets, grand_reveals_at, schedule, info_reveals_at, problems", [
        ([{"a", "b"}], 2, [0, 1, 2], 3, ["asset 'a' has no singleton index set",
                                         "asset 'b' has no singleton index set"]),
        ([{"a"}, {"b"}, {"a", "b"}], 2, [0, 2, 3], 3, ["asset 'a': delay is not step-continuous"]),
        ([{"a"}, {"b"}, {"a", "b"}], 1, [0, 1, 2], 1, [
            "asset 'a': delay information is not coarser than the trading filtration of ['a']",
            "asset 'a': delay information is not coarser than the trading filtration of ['a', 'b']"]),
    ], ids=["no-singleton", "not-step-continuous", "information-too-fine"])
    def test_preconditions_are_worded(self, index_sets, grand_reveals_at, schedule, info_reveals_at, problems):
        """Two constant assets on two states traded on information revealed
        at t=2; asset a's delay runs on `schedule` over an information
        revealed at `info_reveals_at`, asset b's is the identity."""
        states = ("x", "y")
        trivial, discrete = Partition.trivial(states), discrete_partition(states)

        def revealed_at(t, length):
            return Filtration(tuple(trivial if s < t else discrete for s in range(length)))

        space = FiniteSpace.uniform(states, 2, 3)
        prices = {a: tuple((rat(1), rat(1)) for _ in range(4)) for a in "ab"}
        trading = {frozenset(a): revealed_at(2, 3) for a in index_sets}
        m = Market(space, prices, tuple(map(frozenset, index_sets)), trading, revealed_at(grand_reveals_at, 4))
        assert validate_market(m) == []
        fam = ExecutionDelayFamily({
            "a": StoppingProcess.deterministic(schedule, revealed_at(info_reveals_at, 4)),
            "b": identity_delay(3, revealed_at(3, 4)),
        })
        with pytest.raises(DelayPreconditionError) as caught:
            representation_check(m, fam)
        assert caught.value.problems == problems


class TestFamilyValidation:
    def test_information_family_reports_problems(self):
        m, fam = gen_insider_market(2, 1)
        assert validate_information_family(m, fam) == []
        missing = InformationDelayFamily({})
        assert any("no information delay" in p for p in validate_information_family(m, missing))
        [(walk, sp)] = fam.delays.items()
        foreign = identity_delay(3, Filtration.constant(Partition.trivial(("x", "y")), 3))
        odd = InformationDelayFamily({walk: foreign, frozenset({"ghost"}): sp})
        assert validate_information_family(m, odd) == [
            "index set ['walk']: delay information lives on a different state set",
            "information delay for unknown index set ['ghost']",
        ]

    def test_information_family_input_errors(self):
        m, fam = gen_insider_market(2, 1)
        [(walk, sp)] = fam.delays.items()
        foreign = identity_delay(3, Filtration.constant(Partition.trivial(("x", "y")), 3))
        fine = Filtration.constant(discrete_partition(m.space.states), 3)
        cases = [
            ({}, ["no information delay for index set ['walk']"]),
            ({walk: sp, frozenset({"ghost"}): sp}, ["information delay for unknown index set ['ghost']"]),
            ({walk: foreign}, ["index set ['walk']: delay information lives on a different state set"]),
            ({walk: StoppingProcess(sp.values[:2], sp.info)}, ["index set ['walk']: delay table must cover grid times 0..2"]),
            ({walk: StoppingProcess(sp.values, sp.info.restrict(2))},
             ["index set ['walk']: delay information must cover grid times 0..2"]),
            ({walk: StoppingProcess.deterministic([0, 1, 0], sp.info)},
             [f"index set ['walk']: path-wise monotonicity violated at state {s}: value(1)=1 > value(2)=0"
              for s in m.space.states]),
            ({walk: StoppingProcess(sp.values, fine)},
             ["index set ['walk']: delay information is not coarser than the trading filtration"]),
        ]
        for family, problems in cases:
            assert validate_information_family(m, InformationDelayFamily(family)) == problems

    def test_execution_family_cap_violation(self):
        m, fam = gen_insider_execution_market(2, 1)
        assert validate_execution_family(m, fam) == []
        cases = [
            (2, ["asset 'walk': cap 2 violated at t=1 (value 2)"]),
            (0, ["asset 'walk': cap 0 outside 1..4", "asset 'walk': cap 0 violated at t=0 (value 1)"]),
            (5, ["asset 'walk': cap 5 outside 1..4"]),
        ]
        for cap, problems in cases:
            assert validate_execution_family(m, ExecutionDelayFamily(fam.delays, {"walk": cap})) == problems

    def test_execution_family_input_errors(self):
        m, fam = gen_insider_execution_market(2, 1)
        sp = fam.delays["walk"]
        foreign = identity_delay(3, Filtration.constant(Partition.trivial(("x", "y")), 4))
        fine = Filtration.constant(discrete_partition(m.space.states), 4)
        cases = [
            ({}, "no execution delay for asset 'walk'"),
            ({"walk": sp, "ghost": sp}, "execution delay for unknown asset 'ghost'"),
            ({"walk": foreign}, "asset 'walk': delay information lives on a different state set"),
            ({"walk": StoppingProcess(sp.values[:2], sp.info)}, "asset 'walk': delay table must cover grid times 0..2"),
            ({"walk": StoppingProcess(sp.values, sp.info.restrict(3))},
             "asset 'walk': delay information must cover grid times 0..3"),
            ({"walk": StoppingProcess(sp.values, fine)},
             "asset 'walk': delay information is not coarser than the grand filtration"),
        ]
        for family, problem in cases:
            assert validate_execution_family(m, ExecutionDelayFamily(family)) == [problem]
        unordered = ExecutionDelayFamily({"walk": StoppingProcess.deterministic([2, 1, 2], sp.info)})
        assert validate_execution_family(m, unordered) == [
            f"asset 'walk': path-wise monotonicity violated at state {s}: value(0)=2 > value(1)=1"
            for s in m.space.states
        ]

    def test_step_continuity_predicate(self):
        triv = Filtration.constant(Partition.trivial(("x", "y")), 6)
        assert is_step_continuous(StoppingProcess.deterministic([0, 1, 1, 2], triv))
        assert not is_step_continuous(StoppingProcess.deterministic([0, 2, 2, 3], triv))
