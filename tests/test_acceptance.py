"""Acceptance suite: one test per criterion, exact tolerances, desk scale.

Every check here is certificate-based and exact in rational arithmetic;
the only numeric tolerance anywhere is the wall-clock budget of the
duality sweep. Run with `pytest tests/test_acceptance.py -v -s` to see one
status line per criterion.
"""

from __future__ import annotations

import time
from fractions import Fraction as rat
from pathlib import Path

from delayedmarkets.arbitrage import (
    FreeLunch,
    MartingaleMeasureCertificate,
    NoFreeLunch,
    check_naflp,
    render_verdict,
    verify_certificate,
)
from delayedmarkets.delays import delayed_market, information_delayed_market, large_delayed_filtrations
from delayedmarkets.markets import validate_market
from delayedmarkets.probability import is_subfiltration, refines
from delayedmarkets.scenarios import (
    ScenarioConfig,
    _rng,
    gen_insider_execution_market,
    gen_insider_market,
    gen_martingale_market,
    gen_random_delay,
    gen_random_market,
    run_experiment,
)

GOLDEN = Path(__file__).parent / "golden"

# criterion 1 pins these sizes; the other harnesses reuse them as desk scale
DESK = ScenarioConfig(seed=2024, num_states=12, grid=4, extension=6,
                      num_assets=3, max_index_sets=4, brokers=3)


def _report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_ftap_duality_500_markets():
    from conftest import one_certificate

    trials = 500
    markets = []
    start = time.monotonic()
    for i in range(trials):
        rng = _rng(DESK.seed, "ftap", i)
        if rng.random() < 0.45:
            m = gen_martingale_market(DESK, rng=rng)
        else:
            m = gen_random_market(DESK, rng=rng)
        verdict = check_naflp(m)
        assert verify_certificate(m, verdict), f"market {i}: certificate failed re-verification"
        markets.append(m)
    elapsed = time.monotonic() - start
    # the Stiemke alternative, outside the timed sweep: both oracles on
    # every market, exactly one certificate, and it is the verdict's
    for m in markets:
        one_certificate(m)
    _report(1, elapsed < 120.0,
            f"exactly one certificate on {trials}/{trials} markets in {elapsed:.1f}s (< 120s)")


def test_criterion_02_information_delay_inheritance():
    report = run_experiment(DESK, "information", 200)
    ok = report.passed and report.trials == 200 and all(r.ok for r in report.records)
    _report(2, ok, f"information-delay inheritance in {sum(r.ok for r in report.records)}/200 trials")


def test_criterion_03_insider_converse_failure():
    m, fam = gen_insider_market(2, 1)
    assert len(m.space.states) == 8
    verdict = check_naflp(m)
    assert isinstance(verdict, FreeLunch), "peeking market must show a free lunch"
    ones = tuple(rat(1) for _ in m.space.states)
    assert verdict.certificate.terminal_wealth == ones, "sure win of one on every path"
    assert verify_certificate(m, verdict)

    delayed = information_delayed_market(m, fam)
    uniform = MartingaleMeasureCertificate({s: rat(1, 8) for s in m.space.states})
    assert verify_certificate(delayed, NoFreeLunch(uniform)), "uniform measure certifies the delayed market"
    assert not verify_certificate(m, NoFreeLunch(uniform)), "uniform must fail on the undelayed market"
    oracle = check_naflp(delayed)
    assert isinstance(oracle, NoFreeLunch) and oracle.certificate.q == uniform.q
    _report(3, True, "insider: sure win of 1 on all 8 states undelayed, uniform measure once delayed")


def test_criterion_04_execution_delay_inheritance():
    report = run_experiment(DESK, "execution", 200)
    ok = report.passed and report.trials == 200 and all(r.ok for r in report.records)
    _report(4, ok, f"execution-delay inheritance in {sum(r.ok for r in report.records)}/200 trials")


def test_criterion_05_execution_insider_converse_failure():
    m, fam = gen_insider_execution_market(2, 1)
    undelayed = check_naflp(m)
    assert isinstance(undelayed, FreeLunch) and verify_certificate(m, undelayed)
    dm = delayed_market(m, fam)
    delayed = check_naflp(dm)
    assert isinstance(delayed, NoFreeLunch) and verify_certificate(dm, delayed)
    _report(5, True, "shifted walk: free lunch undelayed, none under the deferred execution")


def test_criterion_06_superimposition():
    report = run_experiment(DESK, "superimpose", 100)
    ok = report.passed and all(r.ok for r in report.records)
    _report(6, ok, "price identity and inheritance on 100/100 composed delay pairs")


def test_criterion_07_multi_broker():
    report = run_experiment(DESK, "broker", 100)
    ok = report.passed and all(r.ok for r in report.records)
    _report(7, ok, "fast-broker safety implies every broker's safety, 100/100 draws")


def test_criterion_08_representation_theorem():
    report = run_experiment(DESK, "representation", 100)
    ok = report.passed and all(r.ok for r in report.records)
    _report(8, ok, "inverse delays reconstruct trading filtrations atom-for-atom on each delay's range, 100/100")


def test_criterion_09_coarseness_and_filtration_laws():
    for i in range(60):
        rng = _rng(DESK.seed, "laws", i)
        m = gen_martingale_market(DESK, rng=rng)
        fam = gen_random_delay(DESK, "information", m, rng=rng)
        assert all(is_subfiltration(f, m.trading_filtrations[a])
                   for a, f in large_delayed_filtrations(m, fam).items()), \
            f"instance {i}: delayed field finer than original"
        delayed = information_delayed_market(m, fam)
        assert validate_market(delayed) == []
        for small in delayed.index_system:
            for big in delayed.index_system:
                if small < big:
                    fs = delayed.trading_filtrations[small]
                    fb = delayed.trading_filtrations[big]
                    for t in range(len(fs)):
                        assert refines(fb.at(t), fs.at(t)), \
                            f"instance {i}: delayed family not monotone at t={t}"

    # exhaustive agreement of the stopped-field construction with its definition
    from test_probability import all_stopping_times, brute_force_stopped_atoms, small_filtration_corpus
    from delayedmarkets.probability import stopped_sigma_field

    compared = 0
    for n_states in range(1, 7):
        states = tuple(str(k) for k in range(n_states))
        for f in small_filtration_corpus(states):
            for tau in all_stopping_times(f, 3):
                assert stopped_sigma_field(f, tau).atoms == brute_force_stopped_atoms(f, tau)
                compared += 1
    _report(9, compared > 500,
            f"coarseness and monotonicity on 60 instances; stopped fields match brute force "
            f"on {compared} stopping times")


def test_criterion_10_solver_soundness_and_golden_files():
    from conftest import binomial_market

    renders = {}
    m = binomial_market(1, 2, rat(1, 2))
    v = check_naflp(m)
    assert verify_certificate(m, v)
    renders["binomial_no_free_lunch"] = render_verdict(v, m.space.states)

    m2 = binomial_market(1, 2, 1)
    v2 = check_naflp(m2)
    assert verify_certificate(m2, v2)
    renders["binomial_free_lunch"] = render_verdict(v2, m2.space.states)

    im, ifam = gen_insider_market(2, 1)
    v3 = check_naflp(im)
    assert verify_certificate(im, v3)
    renders["insider_undelayed"] = render_verdict(v3, im.space.states)

    dm = information_delayed_market(im, ifam)
    v4 = check_naflp(dm)
    assert verify_certificate(dm, v4)
    renders["insider_delayed"] = render_verdict(v4, dm.space.states)

    # byte stability: a second run from scratch and the committed golden files
    again = {
        "binomial_no_free_lunch": render_verdict(check_naflp(binomial_market(1, 2, rat(1, 2))),
                                                 m.space.states),
        "insider_delayed": render_verdict(check_naflp(information_delayed_market(
            *gen_insider_market(2, 1))), dm.space.states),
    }
    for name, text in again.items():
        assert renders[name] == text, f"{name}: render drifted between runs"
    for name, text in renders.items():
        assert (GOLDEN / f"{name}.txt").read_text() == text, f"{name}: golden file drift"
    _report(10, True, "all certificates re-verified independently; golden files byte-stable")
