"""Generator validity and the experiment harnesses."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
import time
from fractions import Fraction
from fractions import Fraction as rat
from pathlib import Path

import pytest

import delayedmarkets
from delayedmarkets.arbitrage import FreeLunch, NoFreeLunch, check_naflp, verify_certificate
from delayedmarkets.delays import (
    large_delayed_filtrations,
    representation_check,
    validate_execution_family,
    validate_information_family,
)
from delayedmarkets.documents import parse_market_document, serialize_market_document
from delayedmarkets.markets import validate_market
from delayedmarkets.probability import Partition, conditional_expectation, validate_stopping_process
from delayedmarkets.scenarios import (
    _SMALL_RATIONALS,
    WALK_STATE_CAP,
    ScenarioConfig,
    _random_split,
    _rng,
    _union_closed_index_system,
    gen_insider_execution_market,
    gen_insider_market,
    gen_martingale_market,
    gen_random_delay,
    gen_random_market,
    run_experiment,
)

from conftest import one_certificate
from reference_scenarios import _random_split as reference_split
from reference_scenarios import _union_closed_index_system as reference_index_system
from test_acceptance import DESK

# sha256 over the text of every item that perfbench/workloads.py generates and
# serializes at full size, in order, per workload and seed
BENCH_INPUT_PINS = {
    ("desk-sweep", 2024): "4842cb65d27db9668cecc69dc9013bddf600dabf598fe1f82e0e3d4e2e4319a1",
    ("desk-sweep", 2718): "dc3684d0581a7be8062dc0614768926fa586fddf90de16adce6bd7044101325c",
    ("delay-roundtrip", 2024): "d825b671aad6b86e0076a98e0abbd7aaf8c178886f42152205e9bd67fa591976",
    ("delay-roundtrip", 2718): "48f85bd93c98ef3642286af422f5e5d6ea945ddb27f348f2a6527d0209068fda",
}


class TestGenerators:
    def test_generated_markets_and_delays_always_validate(self):
        cfg = ScenarioConfig(seed=101)
        for i in range(20):
            rng = _rng(cfg.seed, "gen-valid", i)
            m = gen_martingale_market(cfg, rng=rng, min_extension=1)
            assert validate_market(m) == []
            info = gen_random_delay(cfg, "information", m, rng=rng)
            assert validate_information_family(m, info) == []
            for sp in info.delays.values():
                assert validate_stopping_process(sp, "information") == []
            execf = gen_random_delay(cfg, "execution", m, rng=rng,
                                     continuous=rng.random() < 0.5, capped=rng.random() < 0.5)
            assert validate_execution_family(m, execf) == []
            for sp in execf.delays.values():
                assert validate_stopping_process(sp, "execution") == []

    def test_martingale_market_is_never_a_free_lunch(self):
        cfg = ScenarioConfig(seed=103)
        for i in range(10):
            m = gen_martingale_market(cfg, rng=_rng(cfg.seed, "mart", i))
            assert isinstance(check_naflp(m), NoFreeLunch)

    def test_constructing_measure_verifies(self):
        cfg = ScenarioConfig(seed=107)
        for i in range(10):
            m, q = gen_martingale_market(cfg, rng=_rng(cfg.seed, "mart-q", i), with_measure=True)
            assert verify_certificate(m.at_horizon(m.space.extended_horizon), NoFreeLunch(q))

    def test_single_backward_step_matches_average(self):
        cfg = ScenarioConfig(seed=109, grid=1, extension=1)
        m, q = gen_martingale_market(cfg, with_measure=True)
        qv = q.vector(m.space.states)
        for aid, table in m.assets.items():
            for atom in m.grand_filtration.at(0).atoms:
                idx = [m.space.state_index[s] for s in atom]
                mass = sum(qv[i] for i in idx)
                avg = sum(qv[i] * table[1][i] for i in idx) / mass
                for i in idx:
                    assert table[0][i] == avg

    @pytest.mark.parametrize("cfg, options", [
        (ScenarioConfig(seed=113, num_states=12, grid=4, extension=6, num_assets=3, max_index_sets=4), {}),
        (ScenarioConfig(seed=127, grid=1, extension=1), {}),
        (ScenarioConfig(seed=131), {"min_extension": 1}),
        (ScenarioConfig(seed=137), {"singletons": True}),
    ], ids=["desk", "one-step", "min-extension", "singletons"])
    def test_each_row_is_the_conditional_expectation_of_the_next(self, cfg, options):
        """The rows computed on ints from the terminal payoffs equal the
        backward recursion of rational conditional expectations."""
        for i in range(25):
            m, q = gen_martingale_market(cfg, rng=_rng(cfg.seed, "tower", i), with_measure=True, **options)
            qv = q.vector(m.space.states)
            for table in m.assets.values():
                assert all(type(v) is Fraction for row in table for v in row)
                for t in range(m.space.extended_horizon):
                    assert table[t] == conditional_expectation(table[t + 1], m.grand_filtration.at(t), qv)

    def test_distinct_seeds_give_distinct_markets(self):
        a = serialize_market_document(gen_martingale_market(ScenarioConfig(seed=1)))
        b = serialize_market_document(gen_martingale_market(ScenarioConfig(seed=2)))
        assert a != b

    def test_same_seed_reproduces(self):
        cfg = ScenarioConfig(seed=5)
        assert serialize_market_document(gen_martingale_market(cfg)) == \
            serialize_market_document(gen_martingale_market(cfg))

    def test_insider_state_cap(self):
        assert 2 ** 15 > WALK_STATE_CAP
        with pytest.raises(ValueError, match="over the cap"):
            gen_insider_market(8, 7)
        with pytest.raises(ValueError, match="over the cap"):
            gen_insider_execution_market(5, 5)

    def test_zero_lookahead_is_fair(self):
        m, fam = gen_insider_market(2, 0)
        assert isinstance(check_naflp(m), NoFreeLunch)
        m2, fam2 = gen_insider_execution_market(2, 0)
        assert isinstance(check_naflp(m2), NoFreeLunch)

    @pytest.mark.parametrize("size", ["num_states", "grid", "extension", "num_assets", "max_index_sets", "brokers"])
    @pytest.mark.parametrize("bad", [True, 2.5])
    def test_config_sizes_that_are_not_ints_are_refused(self, size, bad):
        """A float size would fail each trial inside randrange, and a bool
        would pass as 1; the config refuses both. The seed is any value."""
        with pytest.raises(TypeError, match=rf"^grid value {bad!r} is not an int$"):
            ScenarioConfig(**{size: bad})
        assert ScenarioConfig(seed=bad).seed is bad


class TestDraws:
    def test_splits_match_the_reference(self):
        """Equal partitions and an equal generator state after every split of
        a chain that starts from the trivial partition, over 2 to 16 states."""
        for n in range(2, 17):
            states = tuple(f"s{i}" for i in range(n))
            for chain in range(12):
                seed = f"split:{n}:{chain}"
                ours, ref = random.Random(seed), random.Random(seed)
                part = expected = Partition.trivial(states)
                for step in range(8):
                    part, expected = _random_split(ours, part), reference_split(ref, expected)
                    assert part == expected, (n, chain, step)
                    assert ours.getstate() == ref.getstate(), (n, chain, step)

    def test_shared_rationals_are_the_drawn_values(self):
        assert len(_SMALL_RATIONALS) == 19 * 3
        for (n, d), value in _SMALL_RATIONALS.items():
            assert type(value) is Fraction and value == rat(n, d)


class TestIndexSystems:
    def test_draws_match_the_reference(self):
        """Equal families and an equal generator state after every draw.
        The singletons branch ignores max_sets and closes to all 2^n - 1
        nonempty sets, which the reference takes seconds to reach past 9 assets."""
        cases = [(n, k, False) for n in range(1, 13) for k in range(2, 17)]
        cases += [(n, 4, True) for n in range(1, 10)]
        for n, k, singletons in cases:
            ids = [f"a{i}" for i in range(n)]
            seed = f"index:{n}:{k}:{singletons}"
            ours, ref = random.Random(seed), random.Random(seed)
            for draw in range(3):
                family = _union_closed_index_system(ours, ids, k, singletons)
                assert family == reference_index_system(ref, ids, k, singletons), (n, k, singletons, draw)
                assert ours.getstate() == ref.getstate(), (n, k, singletons, draw)

    @pytest.mark.parametrize("n, k", [(32, 64), (100, 128)])
    def test_large_draws_stay_fast(self, n, k):
        rng = random.Random(f"scale:{n}:{k}")
        ids = [f"a{i}" for i in range(n)]
        start = time.perf_counter()
        for _ in range(10):
            family = _union_closed_index_system(rng, ids, k, False)
            assert 1 <= len(family) <= k
            assert all(a | b in family for a in family for b in family)
        assert time.perf_counter() - start < 10


@pytest.fixture(scope="module")
def bench_workloads():
    """perfbench/workloads.py, loaded read-only under its own module name."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("pinned_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, seed", list(BENCH_INPUT_PINS))
def test_bench_inputs_are_pinned(bench_workloads, name, seed):
    workload = bench_workloads.WORKLOADS[name]
    digest = hashlib.sha256()
    for i, entry in enumerate(workload.generate(delayedmarkets, seed, workload.size)):
        for item in workload.serialize(delayedmarkets, i, entry):
            digest.update(item.text.encode())
    assert digest.hexdigest() == BENCH_INPUT_PINS[name, seed]


class TestExperiments:
    @pytest.fixture(autouse=True)
    def both_oracles_on_every_trial_market(self, monkeypatch):
        """Every market a trial checks must get exactly one certificate."""
        import delayedmarkets.scenarios as sc

        monkeypatch.setattr(sc, "check_naflp", one_certificate)

    def test_information_inheritance_smoke(self):
        report = run_experiment(ScenarioConfig(seed=211), "information", 10)
        assert report.passed and report.trials == 10

    def test_information_trial_delays_each_market_once(self, monkeypatch):
        """A trial builds the delayed filtrations once, for the delayed
        market, and checks their coarseness on that market."""
        import delayedmarkets.delays as delays

        calls = []

        def counting(m, fam):
            calls.append(m)
            return large_delayed_filtrations(m, fam)

        monkeypatch.setattr(delays, "large_delayed_filtrations", counting)
        report = run_experiment(ScenarioConfig(seed=7), "information", 30)
        assert report.passed and len(calls) == 30

    def test_execution_inheritance_smoke(self):
        report = run_experiment(ScenarioConfig(seed=223), "execution", 10)
        assert report.passed

    def test_broker_smoke(self):
        report = run_experiment(ScenarioConfig(seed=227), "broker", 10)
        assert report.passed

    def test_superimpose_smoke(self):
        report = run_experiment(ScenarioConfig(seed=229), "superimpose", 8)
        assert report.passed

    def test_representation_smoke(self):
        report = run_experiment(ScenarioConfig(seed=233), "representation", 8)
        assert report.passed

    def test_representation_inverts_non_identity_delays(self, monkeypatch):
        """At least half the desk representation trials invert a delay
        table that is not the identity."""
        import delayedmarkets.scenarios as sc

        shifted = []

        def recording(m, fam):
            shifted.append(any(v != t for sp in fam.delays.values()
                               for t, row in enumerate(sp.values) for v in row))
            return representation_check(m, fam)

        monkeypatch.setattr(sc, "representation_check", recording)
        report = run_experiment(DESK, "representation", 100)
        assert report.passed and len(shifted) == 100
        assert sum(shifted) >= 50

    def test_representation_detail_counts_what_was_compared(self, monkeypatch):
        """A passing representation record names the (index set, time) pairs
        it compared and how many of its delays are not the identity."""
        import delayedmarkets.scenarios as sc

        expected = []

        def recording(m, fam):
            n = m.space.horizon
            pairs = sum(n + 1 - max(max(fam.delays[a].values[0]) for a in index_set)
                        for index_set in m.index_system)
            moved = sum(any(v != t for t, row in enumerate(sp.values) for v in row) for sp in fam.delays.values())
            expected.append(f"reconstruction exact; (index set, time) pairs compared: {pairs}; "
                            f"delays not the identity: {moved} of {len(fam.delays)}")
            return representation_check(m, fam)

        monkeypatch.setattr(sc, "representation_check", recording)
        report = run_experiment(DESK, "representation", 30)
        assert report.passed and [r.detail for r in report.records] == expected

    def test_insider_demo_shows_converse_failure(self):
        report = run_experiment(ScenarioConfig(seed=1), "insider-demo", 2)
        assert report.passed
        assert all("undelayed=free-lunch" in r.detail and "delayed=no-free-lunch" in r.detail
                   for r in report.records)

    def test_report_serializes(self):
        report = run_experiment(ScenarioConfig(seed=239), "information", 3)
        payload = json.loads(report.to_json())
        assert payload["format_version"] == 1
        assert payload["passed"] is True
        assert len(payload["records"]) == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(ScenarioConfig(seed=1), "sideways", 1)

    def test_failures_carry_reproduction(self, monkeypatch):
        # force a failing verdict to confirm the report captures a repro document
        import delayedmarkets.scenarios as sc

        def always_lunch(m, horizon=None):
            raise AssertionError("forced")

        monkeypatch.setattr(sc, "check_naflp", always_lunch)
        report = run_experiment(ScenarioConfig(seed=241), "information", 2)
        assert not report.passed
        assert len(report.failures) == 2
        assert [f["reproduction"] for f in report.failures] == [
            {"seed": 241, "kind": "information", "index": i} for i in range(2)
        ]

    def test_failed_check_carries_the_market_document(self, monkeypatch):
        """A trial whose base check fails reproduces by the market and delay
        family it drew: the document parses and writes back to the same bytes."""
        import delayedmarkets.scenarios as sc

        monkeypatch.setattr(sc, "check_naflp", lambda m, horizon=None: None)
        cfg = ScenarioConfig(seed=241)
        report = run_experiment(cfg, "information", 2)
        assert len(report.failures) == 2
        for i, failure in enumerate(report.failures):
            assert failure["detail"] == "martingale-built market showed a free lunch"
            rng = _rng(cfg.seed, "information", i)
            m = gen_martingale_market(cfg, rng=rng)
            fam = gen_random_delay(cfg, "information", m, rng=rng)
            doc = parse_market_document(json.dumps(failure["reproduction"]))
            assert serialize_market_document(doc.market, info_delays=doc.info_delays) == \
                serialize_market_document(m, info_delays=fam)

    REVERIFIED = {
        "information": "martingale-built market",
        "execution": "martingale-built market",
        "broker": "fastest broker's market",
        "superimpose": "base-delayed market",
    }

    @pytest.mark.parametrize("kind", [*REVERIFIED, "insider-demo"])
    def test_rejected_certificate_fails_the_trial(self, kind, monkeypatch):
        """Every certificate a trial relies on is re-verified: when
        re-verification rejects them all, every trial fails and its detail
        names the market whose certificate was rejected."""
        import delayedmarkets.scenarios as sc

        monkeypatch.setattr(sc, "verify_certificate", lambda m, v: False)
        if kind == "insider-demo":
            report = run_experiment(ScenarioConfig(seed=1), kind, 2)
            assert [f["detail"] for f in report.failures] == [
                "undelayed=free-lunch, delayed=no-free-lunch, "
                "undelayed market failed re-verification of its certificate, "
                "delayed market failed re-verification of its certificate"
            ] * 2
            return
        report = run_experiment(ScenarioConfig(seed=251), kind, 3)
        assert len(report.failures) == 3
        for failure in report.failures:
            assert failure["detail"] == f"{self.REVERIFIED[kind]} failed re-verification of its measure certificate"
            parse_market_document(json.dumps(failure["reproduction"]))

    @pytest.mark.parametrize("kind", REVERIFIED)
    def test_invalid_market_fails_the_trial(self, kind, monkeypatch):
        """Every market a delay trial checks is validated first."""
        import delayedmarkets.scenarios as sc

        monkeypatch.setattr(sc, "validate_market", lambda m: ["forced problem"])
        report = run_experiment(ScenarioConfig(seed=251), kind, 3)
        assert [f["detail"] for f in report.failures] == \
            [f"{self.REVERIFIED[kind]} failed validation: forced problem"] * 3
