"""FTAP oracles, certificates, verification, and canonical rendering."""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction as rat
from itertools import islice
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayedmarkets import arbitrage, lp
from delayedmarkets.cli import main
from delayedmarkets.arbitrage import (
    FreeLunch,
    FreeLunchCertificate,
    MartingaleMeasureCertificate,
    NoFreeLunch,
    OracleDisagreementError,
    check_naflp,
    find_free_lunch,
    find_martingale_measure,
    render_verdict,
    terminal_wealth,
    verify_certificate,
)
from delayedmarkets.delays import delayed_market, information_delayed_market
from delayedmarkets.documents import parse_market_document, serialize_market_document
from delayedmarkets.markets import GainGenerator, Market, Strategy, gain_generators, validate_market
from delayedmarkets.probability import Filtration, FiniteSpace, Partition, conditional_expectation
from delayedmarkets.rationals import ZERO, Rational
from delayedmarkets.scenarios import (
    ScenarioConfig,
    _rng,
    gen_insider_execution_market,
    gen_insider_market,
    gen_martingale_market,
    gen_random_market,
)

from conftest import ONE, binomial_market, discrete_partition, one_certificate, reference_terminal_wealth, single_signed
from reference_check import reference_check_naflp, reference_find_martingale_measure, reference_projection
from reference_free_lunch import reference_find_free_lunch
from reference_verify import reference_verify_measure

GOLDEN = Path(__file__).parent / "golden"


class TestBinomialOracles:
    def test_no_arbitrage_measure(self, no_arbitrage_binomial):
        gens = gain_generators(no_arbitrage_binomial)
        cert = find_martingale_measure(no_arbitrage_binomial, gens)
        assert cert is not None
        assert cert.q == {"u": rat(1, 3), "d": rat(2, 3)}
        # the measure is unique, so the free-lunch LP's duals give it too
        assert find_free_lunch(no_arbitrage_binomial, gens) == cert

    def test_dominating_asset_free_lunch(self, dominated_binomial):
        gens = gain_generators(dominated_binomial)
        cert = find_free_lunch(dominated_binomial, gens)
        assert cert is not None
        assert cert.terminal_wealth == (rat(1), rat(0))
        assert find_martingale_measure(dominated_binomial, gens) is None

    def test_verdicts(self, no_arbitrage_binomial, dominated_binomial):
        assert isinstance(check_naflp(no_arbitrage_binomial), NoFreeLunch)
        assert isinstance(check_naflp(dominated_binomial), FreeLunch)


class TestVerifyCertificate:
    def test_tampered_measure_rejected(self, no_arbitrage_binomial):
        bad = MartingaleMeasureCertificate({"u": rat(4, 3), "d": rat(-1, 3)})
        assert not verify_certificate(no_arbitrage_binomial, NoFreeLunch(bad))

    def test_wrong_measure_rejected(self, no_arbitrage_binomial):
        bad = MartingaleMeasureCertificate({"u": rat(1, 2), "d": rat(1, 2)})
        assert not verify_certificate(no_arbitrage_binomial, NoFreeLunch(bad))

    def test_valid_measure_accepted(self, no_arbitrage_binomial):
        good = MartingaleMeasureCertificate({"u": rat(1, 3), "d": rat(2, 3)})
        assert verify_certificate(no_arbitrage_binomial, NoFreeLunch(good))

    def test_strategy_certificate_recomputed_independently(self, dominated_binomial):
        cert = find_free_lunch(dominated_binomial, gain_generators(dominated_binomial))
        assert terminal_wealth(dominated_binomial, cert.strategy) == cert.terminal_wealth
        assert verify_certificate(dominated_binomial, FreeLunch(cert))

    def test_tampered_terminal_rejected(self, dominated_binomial):
        cert = find_free_lunch(dominated_binomial, gain_generators(dominated_binomial))
        forged = FreeLunchCertificate(cert.strategy, (rat(2), rat(0)))
        assert not verify_certificate(dominated_binomial, FreeLunch(forged))

    def test_zero_claim_rejected(self, dominated_binomial):
        cert = find_free_lunch(dominated_binomial, gain_generators(dominated_binomial))
        zero = FreeLunchCertificate(cert.strategy, (rat(0), rat(0)))
        assert not verify_certificate(dominated_binomial, FreeLunch(zero))

    def test_strategy_mutants_accepted_iff_the_reference_replays_the_claim(self):
        """Tamper with the strategy of the first 60 seed-2024 desk free
        lunches, keeping the claimed terminal wealth: one holding entry or
        one atom's entries moved by 1 either way, the last interval dropped,
        the index set swapped for another that holds the traded assets."""
        rng = random.Random(2024)
        lunches, accepted, rejected = 0, 0, 0
        for label, m in islice(desk_and_walks(500), 500):
            verdict = check_naflp(m)
            if not isinstance(verdict, FreeLunch):
                continue
            cert = verdict.certificate
            for mutant in strategy_mutants(m, cert.strategy, rng):
                try:
                    expected = reference_terminal_wealth(m, mutant) == cert.terminal_wealth
                except ValueError:
                    expected = False
                forged = FreeLunch(FreeLunchCertificate(mutant, cert.terminal_wealth))
                assert verify_certificate(m, forged) is expected, (label, mutant)
                accepted += expected
                rejected += not expected
            lunches += 1
            if lunches == 60:
                break
        assert lunches == 60
        assert accepted >= 20 and rejected >= 200, (accepted, rejected)


def strategy_mutants(m: Market, s: Strategy, rng: random.Random):
    """Strategies that pass Strategy's constructor and differ from s in one
    holding entry or one atom's entries (by +1 and -1, at a drawn interval
    and asset), in the missing last interval, or in the index set."""
    for i in sorted({rng.randrange(len(s.holdings)) for _ in range(2)}):
        h = s.holdings[i]
        asset = rng.choice(sorted(h))
        atoms = m.trading_filtrations[s.index_set].at(s.dates[i]).atom_positions
        for positions in ((rng.randrange(len(m.space.states)),), rng.choice(atoms)):
            for step in (1, -1):
                vec = list(h[asset])
                for k in positions:
                    vec[k] += step
                changed = s.holdings[:i] + ({**h, asset: tuple(vec)},) + s.holdings[i + 1:]
                yield Strategy(s.index_set, s.dates, changed)
    if len(s.dates) > 2:
        yield Strategy(s.index_set, s.dates[:-1], s.holdings[:-1])
    traded = {aid for h in s.holdings for aid in h}
    for index_set in m.index_system:
        if index_set != s.index_set and traded <= index_set:
            yield Strategy(index_set, s.dates, s.holdings)


def desk_market(seed: int, i: int) -> Market:
    """Criterion-1 desk market i of a seed."""
    desk = ScenarioConfig(seed=seed, num_states=12, grid=4, extension=6,
                          num_assets=3, max_index_sets=4, brokers=3)
    rng = _rng(seed, "ftap", i)
    gen = gen_martingale_market if rng.random() < 0.45 else gen_random_market
    return gen(desk, rng=rng)


def desk_and_walks(count):
    """The first count criterion-1 desk markets, then the information and
    execution insider walks of 2 to 4 steps, plain and delayed."""
    for i in range(count):
        yield f"desk {i}", desk_market(2024, i)
    for steps in (2, 3, 4):
        m, fam = gen_insider_market(steps, 1)
        yield f"information walk {steps}", m
        yield f"delayed information walk {steps}", information_delayed_market(m, fam)
        m, fam = gen_insider_execution_market(steps, 1)
        yield f"execution walk {steps}", m
        yield f"delayed execution walk {steps}", delayed_market(m, fam)


class TestPriceScale:
    SCENARIOS = Path(__file__).parent.parent / "scenarios"

    def test_deltas_are_price_scale_times_price_changes(self):
        scales = set()
        for label, m in desk_and_walks(500):
            scale = m.price_scale
            scales.add(scale)
            assert all((scale * v).denominator == 1 for t in m.assets.values() for row in t for v in row), label
            for g in gain_generators(m):
                now, nxt = m.assets[g.asset][g.step], m.assets[g.asset][g.step + 1]
                positions = sorted(m.space.state_index[s] for s in g.atom)
                expected = tuple((k, scale * (nxt[k] - now[k])) for k in positions if nxt[k] != now[k])
                assert g.deltas == expected, label
                assert all(type(d) is int for _, d in g.deltas), label
        assert 1 in scales and len(scales) > 5

    def test_price_scale_is_computed_on_first_use_only(self):
        for name in ("insider_information.json", "insider_execution.json"):
            doc = parse_market_document((self.SCENARIOS / name).read_text())
            if doc.info_delays is not None:
                delayed = information_delayed_market(doc.market, doc.info_delays)
            else:
                delayed = delayed_market(doc.market, doc.exec_delays)
            again = parse_market_document(serialize_market_document(delayed))
            markets = (doc.market, delayed, again.market)
            assert all("price_scale" not in vars(m) for m in markets), name
            gain_generators(again.market)
            assert "price_scale" in vars(again.market)

    def test_verifier_ignores_the_price_scale(self, monkeypatch, tmp_path, capsys):
        """With a price scale of 0 every generator vanishes and the uniform
        measure is proposed; re-verification, which scales m.assets itself,
        must reject it."""
        m = binomial_market(1, 2, rat(1, 2))
        path = tmp_path / "binomial.json"
        path.write_text(serialize_market_document(m))
        monkeypatch.setattr(Market, "price_scale", 0)
        assert gain_generators(m) == []
        verdict = check_naflp(m)
        assert verdict.certificate.q == {"u": rat(1, 2), "d": rat(1, 2)}
        assert not verify_certificate(m, verdict)
        assert main(["check", str(path)]) == 4
        assert capsys.readouterr().err == "internal error: certificate failed independent re-verification\n"


class TestOracleConsistency:
    def test_exactly_one_certificate_on_random_markets(self):
        cfg = ScenarioConfig(seed=23)
        for i in range(40):
            rng = _rng(cfg.seed, "consistency", i)
            m = gen_martingale_market(cfg, rng=rng) if rng.random() < 0.4 else gen_random_market(cfg, rng=rng)
            verdict = one_certificate(m)
            assert verify_certificate(m, verdict)

    def test_exactly_one_certificate_on_walks(self):
        for label, m in desk_and_walks(0):
            assert verify_certificate(m, one_certificate(m)), label

    def test_disagreement_raises(self, dominated_binomial, monkeypatch):
        """The free-lunch LP proves neither side: it ends unbounded, or its
        zero optimum has a nonzero dual on a v <= 1 row."""
        def zero_optimum(p):
            duals = (ZERO,) * (len(p.inequalities) - 1) + (ONE,)
            return lp.LpOutcome(lp.OPTIMAL, (ZERO,) * p.num_vars, ZERO, duals)

        for fake, message in ((lambda p: lp.LpOutcome(lp.UNBOUNDED), "free-lunch search ended unbounded"),
                              (zero_optimum, "oracles disagree: zero free-lunch optimum")):
            monkeypatch.setattr(lp, "solve", fake)
            with pytest.raises(OracleDisagreementError, match=message):
                check_naflp(dominated_binomial)

    def test_measure_certificate_skips_free_lunch_lp(self, monkeypatch):
        def refuse(m, gens):
            raise AssertionError("free-lunch LP ran after the projection certified")

        monkeypatch.setattr(arbitrage, "find_free_lunch", refuse)
        certified = 0
        for label, m in desk_and_walks(160):
            if find_martingale_measure(m, gain_generators(m)) is not None:
                assert isinstance(check_naflp(m), NoFreeLunch), label
                certified += 1
        assert certified >= 50

    def test_single_signed_generator_skips_the_measure_lp(self, monkeypatch):
        def refuse(m, gens):
            raise AssertionError("projection ran on a market with a single-signed generator")

        monkeypatch.setattr(arbitrage, "find_martingale_measure", refuse)
        signed = 0
        for label, m in desk_and_walks(160):
            if any(single_signed(g) for g in gain_generators(m)):
                verdict = check_naflp(m)
                assert isinstance(verdict, FreeLunch) and verify_certificate(m, verdict), label
                signed += 1
        assert signed >= 50

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), st.booleans())
    def test_single_signed_generator_leaves_no_measure(self, seed, martingale):
        """A single-signed generator g is a free lunch (g or -g) in the span,
        so no strictly positive measure annihilates it."""
        cfg = ScenarioConfig(seed=seed, num_states=5, grid=2, extension=3, num_assets=2, max_index_sets=3)
        rng = _rng(seed, "signed")
        m = gen_martingale_market(cfg, rng=rng) if martingale else gen_random_market(cfg, rng=rng)
        gens = gain_generators(m)
        if any(single_signed(g) for g in gens):
            assert find_martingale_measure(m, gens) is None
            assert isinstance(find_free_lunch(m, gens), FreeLunchCertificate)

    def test_matches_the_reference_decision_order(self):
        """Equal verdicts and rendered bytes to the measure-LP-first order,
        computed by the Fraction references, on the desk markets, random
        markets and the insider walks."""
        cfg = ScenarioConfig(seed=23)
        random_markets = []
        for i in range(100):
            rng = _rng(cfg.seed, "consistency", i)
            gen = gen_martingale_market if rng.random() < 0.4 else gen_random_market
            random_markets.append((f"random {i}", gen(cfg, rng=rng)))
        kinds = set()
        for label, m in [*desk_and_walks(500), *random_markets]:
            verdict, expected = check_naflp(m), reference_check_naflp(m)
            assert verdict == expected, label
            assert render_verdict(verdict, m.space.states) == render_verdict(expected, m.space.states), label
            kinds.add(verdict.kind)
        assert kinds == {"free-lunch", "no-free-lunch"}

    def test_generators_are_built_once_per_check(self, monkeypatch, no_arbitrage_binomial, dominated_binomial):
        build = arbitrage.gain_generators
        calls = []
        monkeypatch.setattr(arbitrage, "gain_generators", lambda m: calls.append(m) or build(m))
        oracles = []
        for name in ("find_martingale_measure", "find_free_lunch"):
            oracle = getattr(arbitrage, name)
            monkeypatch.setattr(arbitrage, name, lambda m, gens, name=name, oracle=oracle:
                                oracles.append(name) or oracle(m, gens))
        im, fam = gen_insider_market(2, 1)
        reached = [
            (no_arbitrage_binomial, ["find_martingale_measure"]),
            (dominated_binomial, ["find_free_lunch"]),  # its one generator is single-signed
            (im, ["find_free_lunch"]),
            (information_delayed_market(im, fam), ["find_martingale_measure"]),  # the uniform projection
        ]
        for m, expected in reached:
            calls.clear()
            oracles.clear()
            check_naflp(m)
            assert calls == [m]
            assert oracles == expected

    def test_at_most_one_lp_per_check(self, monkeypatch):
        """check_naflp solves no LP where the projection certifies and
        otherwise the free-lunch LP alone, which decides either side."""
        solve, calls = lp.solve, []
        monkeypatch.setattr(lp, "solve", lambda p: calls.append(p) or solve(p))
        ran = 0
        for label, m in desk_and_walks(500):
            calls.clear()
            check_naflp(m)
            assert len(calls) <= 1, label
            ran += len(calls)
        assert ran >= 200, ran

    def test_measure_valid_for_all_date_pairs(self):
        m = gen_martingale_market(ScenarioConfig(seed=31))
        verdict = check_naflp(m)
        assert isinstance(verdict, NoFreeLunch)
        q = verdict.certificate.vector(m.space.states)
        horizon = m.space.horizon
        for index_set in m.index_system:
            f = m.trading_filtrations[index_set]
            for asset in sorted(index_set):
                for t in range(horizon + 1):
                    for u in range(t, horizon + 1):
                        lhs = conditional_expectation(m.assets[asset][u], f.at(t), q)
                        rhs = conditional_expectation(m.assets[asset][t], f.at(t), q)
                        assert lhs == rhs


class TestDualMeasure:
    """The measure that the free-lunch LP reads off its duals at a zero
    optimum: q = 1 + w over the duals w of the rows -v <= 0."""

    # the (desk market, horizon) pairs of seed 2718 where no free lunch
    # exists and the projection is not strictly positive
    PAIRS = ((429, 2), (429, 3), (445, 1))

    def test_seed_2718_pairs_are_decided_by_the_duals(self):
        """Each pair gets the LP's dual measure, and it re-verifies. At
        (429, 2) and (445, 1) it is the measure that the Fraction measure
        LP finds; at (429, 3) the market has more than one, and the duals
        give another."""
        for i, h in self.PAIRS:
            m = desk_market(2718, i)
            at = m.at_horizon(h)
            gens = gain_generators(at)
            assert find_martingale_measure(at, gens) is None, (i, h)
            cert = find_free_lunch(at, gens)
            assert isinstance(cert, MartingaleMeasureCertificate), (i, h)
            verdict = check_naflp(m, h)
            assert verdict == NoFreeLunch(cert) and verify_certificate(at, verdict), (i, h)
            expected = reference_check_naflp(m, h)
            assert isinstance(expected, NoFreeLunch) and verify_certificate(at, expected), (i, h)
            assert (verdict == expected) == ((i, h) != (429, 3)), (i, h)


def random_consistency_markets(count):
    """The seed-23 random and martingale-built markets of the consistency tests."""
    cfg = ScenarioConfig(seed=23)
    for i in range(count):
        rng = _rng(cfg.seed, "consistency", i)
        gen = gen_martingale_market if rng.random() < 0.4 else gen_random_market
        yield f"random {i}", gen(cfg, rng=rng)


def large_literal_markets(count, digits):
    """Seeded one-asset markets on 6 states and 3 steps whose prices are
    random literals of up to `digits` digits over as many, so the price
    scale D is far longer than any literal. Trading sees nothing at t = 0,
    then two halves, then every state; the grand filtration is discrete
    from t = 1."""
    states = tuple(f"s{i}" for i in range(6))
    space = FiniteSpace.uniform(states, 3, 3)
    trivial, discrete = Partition.trivial(states), discrete_partition(states)
    halves = Partition.of(states, [states[:3], states[3:]])
    trading = Filtration((trivial, halves, halves, discrete))
    grand = Filtration((trivial, discrete, discrete, discrete))
    index_set = frozenset({"a"})
    for i in range(count):
        rng = random.Random(f"large:{digits}:{i}")
        top = 10 ** digits

        def literal():
            return rat(rng.randrange(-top + 1, top), rng.randrange(1, top))

        rows = [(literal(),) * len(states), *(tuple(literal() for _ in states) for _ in range(3))]
        yield f"{digits}-digit market {i}", Market(space, {"a": tuple(rows)}, (index_set,),
                                                   {index_set: trading}, grand)


def projected(m, gens) -> list[int]:
    """The int multiple of the projection that find_martingale_measure
    computes, from the generators' own normal equations."""
    return arbitrage._projection(gens, len(m.space.states))


def normalized(values) -> tuple:
    """values divided by their sum, or values as they are if it is 0."""
    total = sum(values)
    return tuple(rat(v) / total for v in values) if total else tuple(values)


class TestProjection:
    """find_martingale_measure's projected measure p / sum(p), with
    p = 1 - P_K 1 for K the span of the gain generators."""

    def test_matches_the_fraction_normal_equations(self):
        """The int projection is a positive multiple of the dense Fraction
        reference on every market, and zero exactly where it is."""
        positive = 0
        for label, m in [*desk_and_walks(500), *random_consistency_markets(100)]:
            gens = gain_generators(m)
            p, expected = projected(m, gens), reference_projection(len(m.space.states), gens)
            assert normalized(p) == normalized(expected), label
            assert sum(p) > 0 if any(expected) else not any(p), label
            positive += min(p) > 0
        assert positive >= 250, positive

    def test_certifies_only_where_the_measure_lp_finds_a_measure(self):
        """Where the projection is strictly positive, find_martingale_measure
        returns it normalized, the Fraction measure LP also finds a measure,
        and the certificate re-verifies; elsewhere it returns None."""
        projected_count = fallback = 0
        for label, m in [*desk_and_walks(500), *random_consistency_markets(100)]:
            gens = gain_generators(m)
            p, cert = projected(m, gens), find_martingale_measure(m, gens)
            if min(p) > 0:
                assert cert.vector(m.space.states) == normalized(p), label
                assert reference_find_martingale_measure(m, gens) is not None, label
                assert verify_certificate(m, NoFreeLunch(cert)), label
                projected_count += 1
            else:
                assert cert is None, label
                fallback += 1
        assert projected_count >= 250 and fallback >= 250, (projected_count, fallback)

    def test_balanced_markets_project_to_uniform(self, monkeypatch):
        """When every generator's changes sum to 0, 1 is orthogonal to K, so
        p = 1: the measure is exactly uniform, from the normal equations
        too, and no LP runs."""
        monkeypatch.setattr(lp, "solve", lambda p: pytest.fail("an LP ran on a balanced market"))
        balanced = []
        for label, m in desk_and_walks(160):
            gens = gain_generators(m)
            if any(sum(d for _, d in g.deltas) for g in gens):
                continue
            states = m.space.states
            uniform = {s: rat(1, len(states)) for s in states}
            assert find_martingale_measure(m, gens).q == uniform, label
            assert check_naflp(m).certificate.q == uniform, label
            assert len(set(projected(m, gens))) == 1, label
            balanced.append(label)
        assert len(balanced) >= 10 and "delayed information walk 4" in balanced

    def test_moved_mass_is_rejected(self):
        """Negative control: part of one state's projected mass moved to a
        state of another final grand atom fails re-verification on most
        seeded markets, so the projection's certificates are not accepted
        for free."""
        moved = rejected = 0
        for label, m in [*desk_and_walks(500), *random_consistency_markets(100)]:
            gens = gain_generators(m)
            if min(projected(m, gens)) <= 0:
                continue
            q = find_martingale_measure(m, gens).q
            forged = TestMatchesReferenceVerifier.moved_mass(_rng(2024, "moved", label), m, q)
            if forged is None:
                continue
            moved += 1
            rejected += not verify_certificate(m, NoFreeLunch(MartingaleMeasureCertificate(forged)))
        assert moved >= 200 and rejected >= 0.9 * moved, (rejected, moved)


def hand_generators(*rows) -> list[GainGenerator]:
    """Generators of one asset from sparse int delta rows; the projection
    reads only their deltas."""
    index_set = frozenset({"a"})
    return [GainGenerator(index_set, "a", 0, (), tuple(row)) for row in rows]


class TestSparseNormalEquations:
    """_projection builds G G^T y = G 1 from the generators' own deltas and
    solves it with one lp.row_basis call."""

    def test_projects_a_1024_state_walk_quickly(self):
        """The plain 1024-state information walk, whose 1021 generators a
        dense r x r system took seconds to project. Its peek makes the
        constant 1 attainable, so p is exactly 0. Every second generator
        alone leaves 1 outside the span, and there p is not constant.
        Each p annihilates its generators on ints."""
        m = gen_insider_market(9, 1)[0]
        gens = gain_generators(m)
        assert len(m.space.states) == 1024 and len(gens) == 1021
        for subset, zero in ((gens, True), (gens[::2], False)):
            start = time.perf_counter()
            p = arbitrage._projection(subset, 1024)
            assert time.perf_counter() - start < 2
            assert not any(p) if zero else len(set(p)) > 1
            for g in subset:
                assert sum(d * p[w] for w, d in g.deltas) == 0

    @pytest.mark.parametrize("label, rows", [
        # g0 . g1 = 1 - 1 = 0: a cancelled Gram entry left of g1's diagonal
        ("cancelling", [((0, 1), (1, 1)), ((0, 1), (1, -1), (2, 1)), ((2, 2), (3, -1))]),
        # g2 = g0 + g1 and g4 = g3 - g0: two free unknowns
        ("singular", [((0, 1), (1, 2)), ((1, -1), (2, 3)), ((0, 1), (1, 1), (2, 3)),
                      ((2, 1), (3, 1)), ((0, -1), (1, -2), (2, 1), (3, 1))]),
        # g1 = -g0 on shared states, and g0 . g2 cancels
        ("both", [((0, 2), (1, -1)), ((0, -2), (1, 1)), ((0, 1), (1, 2), (3, 1))]),
    ])
    def test_singular_and_cancelling_systems(self, label, rows):
        """Cancelled Gram entries and dependent generators give the dense
        Fraction reference's projection."""
        gens = hand_generators(*rows)
        p, expected = arbitrage._projection(gens, 4), reference_projection(4, gens)
        assert normalized(p) == normalized(expected), label
        assert sum(p) > 0 if any(expected) else not any(p), label

    def test_random_small_systems(self):
        """Random sign patterns on five states, where cancelled Gram
        entries and dependent generators are common."""
        rng = random.Random(2024)
        singular = 0
        for _ in range(300):
            rows = [[(w, d) for w in range(5) if (d := rng.choice((-1, 0, 0, 1, 2)))]
                    for _ in range(rng.randint(1, 6))]
            gens = hand_generators(*filter(None, rows))
            if not gens:
                continue
            p, expected = arbitrage._projection(gens, 5), reference_projection(5, gens)
            assert normalized(p) == normalized(expected), rows
            singular += len(lp.row_basis([g.deltas for g in gens])) < len(gens)
        assert singular >= 30, singular

    def test_one_elimination_per_projection(self, monkeypatch):
        """A market that reaches the projection makes exactly one
        lp.row_basis call; a balanced market and one with a one-sign
        generator make none."""
        calls = []
        row_basis = lp.row_basis
        monkeypatch.setattr(lp, "row_basis", lambda rows: calls.append(1) or row_basis(rows))
        seen = set()
        for label, m in desk_and_walks(60):
            gens = gain_generators(m)
            if any(single_signed(g) for g in gens):
                kind = "one-sign"
            elif any(sum(d for _, d in g.deltas) for g in gens):
                kind = "projected"
            else:
                kind = "balanced"
            calls.clear()
            check_naflp(m)
            assert len(calls) == (kind == "projected"), label
            seen.add(kind)
        assert seen == {"one-sign", "projected", "balanced"}, seen


class TestIntegerFreeLunch:
    def test_matches_the_fraction_assembly(self):
        """Equal certificates and rendered bytes to the Fraction sums of the
        terminal wealth and the holdings, with every entry a Rational."""
        found = 0
        large = [market for digits in (20, 60, 100) for market in large_literal_markets(8, digits)]
        for label, m in [*desk_and_walks(500), *random_consistency_markets(100), *large]:
            gens = gain_generators(m)
            cert, expected = find_free_lunch(m, gens), reference_find_free_lunch(m, gens)
            if expected is None:
                assert isinstance(cert, MartingaleMeasureCertificate), label
                assert verify_certificate(m, NoFreeLunch(cert)), label
                continue
            assert cert == expected, label
            found += 1
            states = m.space.states
            assert render_verdict(FreeLunch(cert), states) == render_verdict(FreeLunch(expected), states), label
            entries = [*cert.terminal_wealth, *(v for h in cert.strategy.holdings for vec in h.values() for v in vec)]
            assert all(type(v) is Rational for v in entries), label
        assert found >= 300

    def test_free_lunch_lp_is_all_int_and_never_scaled(self, monkeypatch):
        """The free-lunch LP of a desk market holds only ints, which the LP
        takes as they are: it has no path that scales a row."""
        solve, problems = lp.solve, []
        monkeypatch.setattr(lp, "solve", lambda p: problems.append(p) or solve(p))
        found = solved = 0
        for _, m in desk_and_walks(40):
            gens = gain_generators(m)
            solved += bool(gens)
            found += isinstance(find_free_lunch(m, gens), FreeLunchCertificate)
        assert found >= 15 and len(problems) == solved >= 40
        for p in problems:
            rows = [p.objective, *(row for row, _ in p.inequalities)]
            assert all(type(v) is int for row in rows for _, v in row)
            assert all(type(b) is int for _, b in p.inequalities)

    def test_free_lunch_lp_columns_are_primitive(self, monkeypatch):
        """Each column of the free-lunch LP holds its generator's deltas
        divided by their gcd, so its entries have gcd 1: no column carries
        a common factor such as the price scale D into the tableau."""
        solve, problems = lp.solve, []
        monkeypatch.setattr(lp, "solve", lambda p: problems.append(p) or solve(p))
        for _, m in [*desk_and_walks(40), *large_literal_markets(4, 100)]:
            find_free_lunch(m, gain_generators(m))
        assert len(problems) >= 44
        for p in problems:
            columns: dict[int, int] = {}
            for row, _ in p.inequalities:
                for k, v in row:
                    columns[k] = gcd(columns.get(k, 0), v)
            assert len(columns) == p.num_vars and set(columns.values()) == {1}


class TestScalingInvariance:
    @pytest.mark.parametrize("factor", [rat(3), rat(1, 7), rat(5, 2)])
    def test_price_scaling_keeps_verdict(self, factor):
        cfg = ScenarioConfig(seed=41)
        for i in range(10):
            rng = _rng(cfg.seed, "scale", i)
            m = gen_random_market(cfg, rng=rng)
            scaled = Market(
                m.space,
                {a: tuple(tuple(factor * v for v in row) for row in t) for a, t in m.assets.items()},
                m.index_system,
                m.trading_filtrations,
                m.grand_filtration,
            )
            assert type(check_naflp(m)) is type(check_naflp(scaled))

    def test_reference_measure_reweighting_keeps_verdict(self):
        cfg = ScenarioConfig(seed=43)
        for i in range(10):
            rng = _rng(cfg.seed, "reweight", i)
            m = gen_random_market(cfg, rng=rng)
            n = len(m.space.states)
            weights = [rat(rng.randint(1, 7)) for _ in range(n)]
            total = sum(weights)
            reweighted = Market(
                type(m.space)(
                    m.space.states,
                    {s: w / total for s, w in zip(m.space.states, weights)},
                    m.space.horizon,
                    m.space.extended_horizon,
                ),
                m.assets, m.index_system, m.trading_filtrations, m.grand_filtration,
            )
            assert type(check_naflp(m)) is type(check_naflp(reweighted))


class TestExtendedHorizon:
    @staticmethod
    def flatline_market(declare_extension: bool) -> Market:
        """Price only moves on the last extended step; whether trading
        information sees that move depends on the declared extension."""
        from delayedmarkets.probability import Filtration, FiniteSpace, Partition

        states = ("g", "h")
        space = FiniteSpace.uniform(states, 1, 3)
        trivial, discrete = Partition.trivial(states), discrete_partition(states)
        grand = Filtration((trivial, trivial, discrete, discrete))
        trading = Filtration((trivial, trivial, discrete, discrete)) if declare_extension \
            else Filtration((trivial, trivial))
        zero = (rat(0), rat(0))
        prices = {"flat": (zero, zero, zero, (rat(1), rat(-1)))}
        index_set = frozenset({"flat"})
        return Market(space, prices, (index_set,), {index_set: trading}, grand)

    def test_declared_extension_changes_extended_verdict(self):
        declared = self.flatline_market(declare_extension=True)
        frozen = self.flatline_market(declare_extension=False)
        assert validate_market(declared) == [] and validate_market(frozen) == []
        # at maturity nothing moves: both are safe
        assert isinstance(check_naflp(declared), NoFreeLunch)
        assert isinstance(check_naflp(frozen), NoFreeLunch)
        # on the extended horizon, declared information sees the split price
        assert isinstance(check_naflp(declared, 3), FreeLunch)
        # the frozen default keeps trading blind past maturity
        assert isinstance(check_naflp(frozen, 3), NoFreeLunch)

    def test_trading_filtration_extension_rules(self):
        declared = self.flatline_market(declare_extension=True)
        frozen = self.flatline_market(declare_extension=False)
        iset = frozenset({"flat"})
        from delayedmarkets.probability import Partition

        disc = discrete_partition(("g", "h"))
        triv = Partition.trivial(("g", "h"))
        assert declared.at_horizon(3).trading_filtrations[iset].at(2) == disc
        assert frozen.at_horizon(3).trading_filtrations[iset].at(2) == triv
        assert len(declared.at_horizon(2).trading_filtrations[iset]) == 3  # restricted to 0..2
        assert len(frozen.at_horizon(2).trading_filtrations[iset]) == 3  # repeated to 0..2

    def test_at_horizon_trades_the_same_market_over_a_longer_grid(self):
        m = self.flatline_market(declare_extension=False)
        assert m.at_horizon(None) is m and m.at_horizon(1) is m
        for h in (2, 3):
            longer = m.at_horizon(h)
            assert longer.space.horizon == h and longer.space.extended_horizon == 3
            assert longer.space.states == m.space.states and longer.space.probability == m.space.probability
            assert longer.assets == m.assets and longer.index_system == m.index_system
            assert longer.grand_filtration is m.grand_filtration
            assert all(len(f) == h + 1 for f in longer.trading_filtrations.values())
        for h in (0, 4):
            with pytest.raises(ValueError, match=r"^horizon must lie in 1\.\.3$"):
                m.at_horizon(h)
            with pytest.raises(ValueError, match=r"^horizon must lie in 1\.\.3$"):
                check_naflp(m, h)

    @pytest.mark.parametrize("market, horizon", [
        (gen_insider_execution_market(2, 1)[0], 2.0),
        (gen_insider_execution_market(2, 1)[0], 3.0),
        (gen_insider_market(1, 1)[0], True),
    ])
    def test_a_horizon_that_is_not_an_int_is_refused(self, market, horizon):
        with pytest.raises(TypeError, match=rf"^grid value {horizon!r} is not an int$"):
            market.at_horizon(horizon)
        with pytest.raises(TypeError, match=rf"^grid value {horizon!r} is not an int$"):
            check_naflp(market, horizon)


class TestGoldenFiles:
    def render_all(self):
        out = {}
        m = binomial_market(1, 2, rat(1, 2))
        out["binomial_no_free_lunch"] = render_verdict(check_naflp(m), m.space.states)
        m2 = binomial_market(1, 2, 1)
        out["binomial_free_lunch"] = render_verdict(check_naflp(m2), m2.space.states)
        im, ifam = gen_insider_market(2, 1)
        out["insider_undelayed"] = render_verdict(check_naflp(im), im.space.states)
        dm = information_delayed_market(im, ifam)
        out["insider_delayed"] = render_verdict(check_naflp(dm), dm.space.states)
        return out

    def test_byte_stable_across_runs(self):
        first = self.render_all()
        second = self.render_all()
        assert first == second
        for name, text in first.items():
            assert (GOLDEN / f"{name}.txt").read_text() == text, f"golden drift in {name}"

    def test_rendered_verdicts_are_pinned(self):
        """Every verdict of the criterion-1 sweep and of the insider walks,
        rendered and joined, hashes to the value the Fraction simplex gave:
        a solver change that moves one pivot moves some certificate."""
        desk = ScenarioConfig(seed=2024, num_states=12, grid=4, extension=6,
                              num_assets=3, max_index_sets=4, brokers=3)
        markets = []
        for i in range(500):
            rng = _rng(desk.seed, "ftap", i)
            gen = gen_martingale_market if rng.random() < 0.45 else gen_random_market
            markets.append(gen(desk, rng=rng))
        for steps in (2, 3, 5):
            m, fam = gen_insider_market(steps, 1)
            markets += [m, information_delayed_market(m, fam)]
        for steps in (2, 3, 5):
            m, fam = gen_insider_execution_market(steps, 1)
            markets += [m, delayed_market(m, fam)]
        digest = hashlib.sha256()
        for m in markets:
            verdict = check_naflp(m)
            assert verify_certificate(m, verdict)
            digest.update(render_verdict(verdict, m.space.states).encode())
        assert digest.hexdigest() == "917167e313e5dc6cd3549d0c5b3df6dd663889a03f66fdd007a6c62140c90772"

    def test_held_out_desk_and_large_walk_verdicts_are_pinned(self):
        """The verdicts of the held-out desk seed and of the larger insider
        walks, each market taken through serialize -> parse first, rendered
        and joined, hash to a pinned value: a solver change that moves one
        pivot moves some certificate. With the pin above this covers every
        verdict of the benchmark's desk and walk inputs."""
        desk = ScenarioConfig(seed=2718, num_states=12, grid=4, extension=6,
                              num_assets=3, max_index_sets=4, brokers=3)
        markets = []
        for i in range(500):
            rng = _rng(desk.seed, "ftap", i)
            gen = gen_martingale_market if rng.random() < 0.45 else gen_random_market
            markets.append(parse_market_document(serialize_market_document(gen(desk, rng=rng))).market)
        for steps in (6, 7):
            m, fam = gen_insider_market(steps, 1)
            doc = parse_market_document(serialize_market_document(m, info_delays=fam))
            markets += [doc.market, information_delayed_market(doc.market, doc.info_delays)]
        m, fam = gen_insider_execution_market(5, 1)
        doc = parse_market_document(serialize_market_document(m, exec_delays=fam))
        markets += [doc.market, delayed_market(doc.market, doc.exec_delays)]
        digest = hashlib.sha256()
        for m in markets:
            verdict = check_naflp(m)
            assert verify_certificate(m, verdict)
            digest.update(render_verdict(verdict, m.space.states).encode())
        assert digest.hexdigest() == "fabbc4a8ad725858d769acad05ca7e5acbc8030588b967914d68e02f11d92f60"

    def test_horizon_sweep_verdicts_are_pinned(self):
        """The criterion-1 desk markets checked at every horizon from n to
        n_ext: each verdict re-verifies at its horizon, equals the reference
        decision order's there, and all of them, rendered and joined, hash
        to a pinned value. The 895 verdicts past maturity read prices that
        the default horizon never reaches."""
        count, past = 0, 0
        digest = hashlib.sha256()
        for label, m in islice(desk_and_walks(500), 500):  # the desk markets only
            for h in range(m.space.horizon, m.space.extended_horizon + 1):
                verdict, expected = check_naflp(m, h), reference_check_naflp(m, h)
                assert verify_certificate(m.at_horizon(h), verdict), f"{label} at {h}"
                rendered = render_verdict(verdict, m.space.states)
                assert verdict == expected and rendered == render_verdict(expected, m.space.states), \
                    f"{label} at {h}"
                digest.update(rendered.encode())
                count += 1
                past += h > m.space.horizon
        assert (count, past) == (1395, 895)
        assert digest.hexdigest() == "9fddb197dd0493417776ad705b12350f16d4c7eeda77d2e8020420eec0303838"


class TestMatchesReferenceVerifier:
    """The integer atom-sum check accepts exactly the measures that the
    Fraction conditional-expectation check accepts."""

    @staticmethod
    def random_measure(rng, states):
        weights = [rat(rng.randint(1, 9), rng.randint(1, 7)) for _ in states]
        total = sum(weights)
        return {s: w / total for s, w in zip(states, weights)}

    @staticmethod
    def moved_mass(rng, m, q):
        """q with part of one state's mass moved to a state of another
        atom of the grand filtration at the horizon, or None if it has one atom."""
        atoms = m.grand_filtration.at(m.space.horizon).atoms
        if len(atoms) < 2:
            return None
        a, b = rng.sample(atoms, 2)
        give, take = rng.choice(a), rng.choice(b)
        moved = q[give] * rat(rng.randint(1, 3), 4)
        return dict(q, **{give: q[give] - moved, take: q[take] + moved})

    @staticmethod
    def shifted_market(rng, m):
        """m with one traded asset's price at the horizon shifted on one atom
        of the grand filtration there, so the copy stays adapted."""
        horizon = m.space.horizon
        asset = rng.choice(sorted(frozenset().union(*m.index_system)))
        atom = set(rng.choice(m.grand_filtration.at(horizon).atoms))
        shift = rng.choice([rat(1), rat(-2), rat(1, 3), rat(5, 7)])
        table = [list(row) for row in m.assets[asset]]
        table[horizon] = [v + shift if s in atom else v for s, v in zip(m.space.states, table[horizon])]
        assets = dict(m.assets, **{asset: table})
        shifted = Market(m.space, assets, m.index_system, m.trading_filtrations, m.grand_filtration)
        assert validate_market(shifted) == []
        return shifted

    def test_agrees_with_reference_on_four_groups(self):
        groups = {"certified": [], "random": [], "moved mass": [], "shifted price": []}
        for label, m in desk_and_walks(160):
            rng = _rng(2024, "verify", label)
            states = m.space.states
            groups["random"].append((label, m, self.random_measure(rng, states)))
            cert = find_martingale_measure(m, gain_generators(m))
            if cert is None:
                continue
            groups["certified"].append((label, m, cert.q))
            moved = self.moved_mass(rng, m, cert.q)
            if moved is not None:
                groups["moved mass"].append((label, m, moved))
            groups["shifted price"].append((label, self.shifted_market(rng, m), cert.q))
        for name, pairs in groups.items():
            rejected = 0
            for label, m, q in pairs:
                cert = MartingaleMeasureCertificate(q)
                assert all(w > 0 for w in cert.q.values()) and sum(cert.q.values()) == ONE
                expected = reference_verify_measure(m, cert, m.space.horizon)
                assert verify_certificate(m, NoFreeLunch(cert)) == expected, f"{name}: {label}"
                rejected += not expected
            if name == "certified":
                assert rejected == 0
            else:
                assert rejected >= 50, f"{name}: only {rejected} of {len(pairs)} rejected"
        assert sum(len(pairs) for pairs in groups.values()) >= 300
