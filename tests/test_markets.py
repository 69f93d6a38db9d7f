"""Market invariants, terminal-wealth replay, and gain generators."""

from __future__ import annotations

import random
from fractions import Fraction as rat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayedmarkets.markets import (
    Market,
    Strategy,
    gain_generators,
    is_measurable,
    validate_market,
    validate_strategy,
)
from delayedmarkets.probability import Filtration, FiniteSpace, Partition
from delayedmarkets.arbitrage import FreeLunch, check_naflp, terminal_wealth, verify_certificate
from delayedmarkets.rationals import Rational
from delayedmarkets.scenarios import ScenarioConfig, _rng, gen_martingale_market, gen_random_market

from conftest import (
    binomial_market,
    dense,
    discrete_partition,
    in_span,
    reference_terminal_wealth,
    sparse,
    two_step_market,
)


class TestValidateMarket:
    def test_binomial_valid(self, no_arbitrage_binomial):
        assert validate_market(no_arbitrage_binomial) == []

    def test_missing_union_is_refining_violation(self):
        m = two_assets_market(index_sets=[{"a0"}, {"a1"}])
        report = validate_market(m)
        assert any("refining property" in p for p in report)

    def test_monotonicity_violation(self):
        m = two_assets_market(index_sets=[{"a0"}, {"a0", "a1"}], fine_small=True)
        report = validate_market(m)
        assert any("monotonicity property" in p for p in report)

    def test_not_adapted(self):
        states = ("u", "d")
        space = FiniteSpace.uniform(states, 1, 1)
        trivial = Partition.trivial(states)
        grand = Filtration((trivial, trivial))
        prices = {"stock": ((rat(1), rat(1)), (rat(2), rat(1)))}
        index_set = frozenset({"stock"})
        m = Market(space, prices, (index_set,), {index_set: grand}, grand)
        assert any("not adapted" in p for p in validate_market(m))


STOCK = frozenset({"stock"})
UD = ("u", "d")
UD_GRAND = Filtration((Partition.trivial(UD), discrete_partition(UD)))
UX_GRAND = Filtration((Partition.trivial(("u", "x")), discrete_partition(("u", "x"))))
UD_LONG = Filtration(UD_GRAND.partitions + (discrete_partition(UD),))
UD_PRICES = ((rat(1), rat(1)), (rat(2), rat(1, 2)))

# one malformed Market argument of the one-step binomial market, and the error it raises
MARKET_SHAPES = {
    "too-few-price-rows": ({"assets": {"stock": UD_PRICES[:1]}}, "asset 'stock': price table must have 2 time rows"),
    "long-price-row": ({"assets": {"stock": (UD_PRICES[0], UD_PRICES[1] + (rat(1),))}},
                       "asset 'stock': price rows must have 2 entries"),
    "long-grand-filtration": ({"grand": UD_LONG}, "grand filtration must span 0..1"),
    "grand-on-other-states": ({"grand": UX_GRAND}, "grand filtration state set differs from the space"),
    "trading-on-other-states": ({"trading": {STOCK: UX_GRAND}},
                                "trading filtration for ['stock'] has a different state set"),
    "long-trading-filtration": ({"trading": {STOCK: UD_LONG}},
                                "trading filtration for ['stock'] must span at least 0..1 and at most 0..1"),
}


class TestShapeErrors:
    """Market and Strategy raise on a malformed shape when built, and
    validate_strategy reports a strategy that does not fit the market."""

    @pytest.mark.parametrize("name", MARKET_SHAPES)
    def test_market(self, name):
        change, message = MARKET_SHAPES[name]
        args = dict(space=FiniteSpace.uniform(UD, 1, 1), assets={"stock": UD_PRICES}, index_system=(STOCK,),
                    trading={STOCK: UD_GRAND}, grand=UD_GRAND) | change
        with pytest.raises(ValueError) as err:
            Market(args["space"], args["assets"], args["index_system"], args["trading"], args["grand"])
        assert str(err.value) == message

    @pytest.mark.parametrize("dates, holdings, message", [
        ((0,), (), "a strategy needs at least two dates"),
        ((1, 0), ({},), "dates must be strictly increasing"),
        ((0, 1), (), "one holdings map per interval between consecutive dates"),
        ((0, 1), ({"bond": (rat(1),) * 2},), "holdings name assets outside the index set"),
    ])
    def test_strategy(self, dates, holdings, message):
        with pytest.raises(ValueError) as err:
            Strategy(STOCK, dates, holdings)
        assert str(err.value) == message

    @pytest.mark.parametrize("bad", [0.5, 1.0, True])
    def test_strategy_dates_that_are_not_ints_are_refused(self, bad):
        with pytest.raises(TypeError, match=rf"^grid value {bad!r} is not an int$"):
            Strategy(STOCK, (0, bad), ({"stock": (rat(1),) * 2},))

    @pytest.mark.parametrize("index_set, holding, problem", [
        (frozenset({"bond"}), {}, "index set ['bond'] is not in the index system"),
        (STOCK, {"stock": (rat(1),) * 3}, "holding vector for 'stock' has wrong length"),
    ])
    def test_strategy_against_the_market(self, index_set, holding, problem):
        m = binomial_market(1, 2, rat(1, 2))
        assert validate_strategy(m, Strategy(index_set, (0, 1), (holding,))) == [problem]


def two_assets_market(index_sets, fine_small=False):
    states = ("uu", "ud", "du", "dd")
    space = FiniteSpace.uniform(states, 1, 1)
    split = Partition.of(states, [("uu", "ud"), ("du", "dd")])
    grand = Filtration((Partition.trivial(states), discrete_partition(states)))
    prices = {
        "a0": ((rat(1),) * 4, (rat(2), rat(2), rat(0), rat(0))),
        "a1": ((rat(1),) * 4, (rat(2), rat(0), rat(2), rat(0))),
    }
    trading = {}
    for ids in index_sets:
        key = frozenset(ids)
        if fine_small and key == frozenset({"a0"}):
            trading[key] = Filtration((split, discrete_partition(states)))
        else:
            trading[key] = Filtration((Partition.trivial(states), split))
    return Market(space, prices, tuple(frozenset(i) for i in index_sets), trading, grand)


class TestWealthProcess:
    def test_buy_and_hold_gain(self):
        m = binomial_market(4, 8, 2)
        s = Strategy(frozenset({"stock"}), (0, 1), ({"stock": (rat(1), rat(1))},))
        assert terminal_wealth(m, s) == (rat(4), rat(-2))

    def test_zero_holdings(self):
        m = binomial_market(4, 8, 2)
        s = Strategy(frozenset({"stock"}), (0, 1), ({"stock": (rat(0), rat(0))},))
        assert all(v == 0 for v in terminal_wealth(m, s))

    def test_telescoping_identity(self):
        m = two_step_market()
        hold = (rat(3), rat(3), rat(3), rat(3))
        one_leg = Strategy(frozenset({"stock"}), (0, 2), ({"stock": hold},))
        two_legs = Strategy(frozenset({"stock"}), (0, 1, 2), ({"stock": hold}, {"stock": hold}))
        assert terminal_wealth(m, one_leg) == terminal_wealth(m, two_legs)

    def test_unmeasurable_holding_rejected(self):
        m = two_step_market()
        s = Strategy(frozenset({"stock"}), (0, 1), ({"stock": (rat(1), rat(1), rat(0), rat(0))},))
        assert any("not measurable" in p for p in validate_strategy(m, s))
        with pytest.raises(ValueError):
            terminal_wealth(m, s)

    def test_dates_outside_grid_rejected(self):
        m = two_step_market()
        s = Strategy(frozenset({"stock"}), (0, 3), ({"stock": (rat(1),) * 4},))
        assert any("leave the grid" in p for p in validate_strategy(m, s))

    def test_intermediate_value_uses_running_price(self):
        # 1 * (S_1 - S_0) + h * (S_2 - S_1): with h != 1 the t = 1 price stays in the sum
        m = two_step_market()
        hold = (rat(2), rat(2), rat(0), rat(0))
        s = Strategy(frozenset({"stock"}), (0, 1, 2), ({"stock": (rat(1),) * 4}, {"stock": hold}))
        assert terminal_wealth(m, s) == (rat(20), rat(-4), rat(-2), rat(-2))
        assert terminal_wealth(m, s) == reference_terminal_wealth(m, s)


@st.composite
def strategies_on_markets(draw):
    """A small desk market with n_ext up to 2 past n, a replay horizon in
    n..n_ext, and a strategy with mixed-denominator, negative and zero
    holdings whose dates need not start at 0."""
    seed = draw(st.integers(0, 10 ** 6))
    cfg = ScenarioConfig(seed=seed, num_states=5, grid=3, extension=5, num_assets=3, max_index_sets=4)
    rng = _rng(seed, "wealth")
    m = gen_martingale_market(cfg, rng=rng) if draw(st.booleans()) else gen_random_market(cfg, rng=rng)
    horizon = draw(st.one_of(st.none(), st.integers(m.space.horizon, m.space.extended_horizon)))
    top = m.space.horizon if horizon is None else horizon
    index_set = draw(st.sampled_from(m.index_system))
    dates = sorted(draw(st.lists(st.integers(0, top), min_size=2, max_size=top + 1, unique=True)))
    filtration = m.at_horizon(top).trading_filtrations[index_set]
    values = st.one_of(st.just(rat(0)), st.fractions(min_value=-6, max_value=6, max_denominator=12))
    holdings = []
    for t in dates[:-1]:
        h = {}
        for asset in sorted(index_set):
            if draw(st.booleans()):
                vec = [rat(0)] * len(m.space.states)
                for positions in filtration.at(t).atom_positions:
                    value = draw(values)
                    for k in positions:
                        vec[k] = value
                h[asset] = tuple(vec)
        holdings.append(h)
    return m, Strategy(index_set, tuple(dates), tuple(holdings)), horizon


class TestIntegerWealthReplay:
    @settings(max_examples=300, deadline=None)
    @given(strategies_on_markets())
    def test_matches_the_fraction_replay(self, case):
        m, s, horizon = case
        wealth = terminal_wealth(m.at_horizon(horizon), s)
        assert wealth == reference_terminal_wealth(m, s, horizon)
        assert all(type(v) is Rational for v in wealth)

    def test_never_reads_the_price_scale(self, monkeypatch):
        def refuse(self):
            raise AssertionError("terminal_wealth read Market.price_scale")

        m = binomial_market(1, 2, 1)
        verdict = check_naflp(m)
        assert isinstance(verdict, FreeLunch)
        monkeypatch.setattr(Market, "price_scale", property(refuse))
        s = verdict.certificate.strategy
        assert terminal_wealth(m, s) == reference_terminal_wealth(m, s)
        assert verify_certificate(m, verdict)


class TestGainGenerators:
    def test_one_step_binomial(self):
        m = binomial_market(4, 8, 2)
        gens = gain_generators(m)
        assert len(gens) == 1
        assert gens[0].deltas == ((0, rat(4)), (1, rat(-2)))
        assert gens[0].atom == ("u", "d")

    def test_enlarged_initial_information_splits_generators(self):
        states = ("u", "d")
        space = FiniteSpace.uniform(states, 1, 1)
        disc = discrete_partition(states)
        grand = Filtration((disc, disc))
        prices = {"stock": ((rat(4), rat(4)), (rat(8), rat(2)))}
        index_set = frozenset({"stock"})
        m = Market(space, prices, (index_set,), {index_set: grand}, grand)
        gens = gain_generators(m)
        assert {g.deltas for g in gens} == {((0, rat(4)),), ((1, rat(-2)),)}

    def test_generators_measurable_at_right_endpoint(self):
        m = gen_martingale_market(ScenarioConfig(seed=5))
        for g in gain_generators(m):
            assert is_measurable(dense(g.deltas, len(m.space.states)), m.grand_filtration.at(g.step + 1))

    def test_zero_vectors_dropped(self):
        m = binomial_market(4, 4, 4)
        assert gain_generators(m) == []

    def test_superset_never_shrinks_span(self):
        small = two_assets_market(index_sets=[{"a0"}])
        big = two_assets_market(index_sets=[{"a0"}, {"a1"}, {"a0", "a1"}])
        big_rows = [g.deltas for g in gain_generators(big)]
        for g in gain_generators(small):
            assert in_span(big_rows, g.deltas)


class TestSpanProperty:
    def test_random_strategy_terminal_in_generator_span(self):
        cfg = ScenarioConfig(seed=13)
        checked = 0
        for i in range(100):
            rng = _rng(cfg.seed, "span", i)
            m = gen_random_market(cfg, rng=rng) if rng.random() < 0.5 else gen_martingale_market(cfg, rng=rng)
            strategy = random_strategy(m, rng)
            if strategy is None:
                continue
            terminal = terminal_wealth(m, strategy)
            rows = [g.deltas for g in gain_generators(m)]
            if all(v == 0 for v in terminal):
                continue
            assert in_span(rows, sparse(terminal)), f"trial {i}: terminal wealth escaped the generator span"
            checked += 1
        assert checked >= 40


def random_strategy(m: Market, rng: random.Random) -> Strategy | None:
    if not m.index_system:
        return None
    index_set = rng.choice(list(m.index_system))
    horizon = m.space.horizon
    n_dates = rng.randint(2, horizon + 1)
    dates = tuple(sorted(rng.sample(range(horizon + 1), n_dates)))
    filtration = m.trading_filtrations[index_set]
    holdings = []
    for i in range(len(dates) - 1):
        sigma = filtration.at(dates[i])
        h = {}
        for asset in sorted(index_set):
            if rng.random() < 0.3:
                continue
            vec = [rat(0)] * len(m.space.states)
            for atom in sigma.atoms:
                value = rat(rng.randint(-3, 3), rng.choice((1, 2)))
                for s in atom:
                    vec[m.space.state_index[s]] = value
            h[asset] = tuple(vec)
        holdings.append(h)
    return Strategy(index_set, dates, tuple(holdings))
