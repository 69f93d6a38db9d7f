"""Smoke test of the benchmark at tiny sizes.

Every metric BENCHMARK.json declares comes out with its unit, a corrupted
certificate or a raising oracle is counted as a failed item instead of
ending the run, an untraced run leaves no wrapper behind, and `--seconds`,
not the program's speed, sets the number of passes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

import run
from spans import TARGETS
from workloads import WORKLOADS

TINY = {
    "desk-sweep": 6,
    "walk-ladder": (("information", 2, 1), ("execution", 2, 1)),
    "delay-roundtrip": 3,
}
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def pkg():
    return run.load_package()


def _bench(pkg, name, trace):
    return run.bench(pkg, name, 2024, 0, trace, TINY[name], reps=2)


def _targets(pkg):
    return {(module, attr): getattr(getattr(pkg, module), attr) for module, attr, _, _ in TARGETS}


def test_cli_preflight_passes(pkg):
    assert run.cli_smoke(pkg) == []


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_declared_metric_prints_with_its_unit(pkg, name, trace):
    before = _targets(pkg)
    lines, result = _bench(pkg, name, trace)
    assert _targets(pkg) == before, "a wrapper outlived the run"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = json.loads(json.dumps(result))["metrics"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in printed.items()}
    assert all(isinstance(v["value"], float) for v in printed.values())
    if not trace:
        for m in declared:
            assert any(line.startswith(f"metric {m['name']} ") and line.split()[3] == m["unit"]
                       for line in lines), m["name"]
        assert any(line.startswith("metric failed_share 0 ratio") for line in lines)
        assert any(line.startswith("metric item_p98_ms not reported") for line in lines)
    record = json.loads(lines[0].removeprefix("record "))
    assert record["backend"].endswith(("Fraction", "mpq")) and record["seed"] == 2024
    assert record["item_samples"] == result["attempted"]


def test_pass_count_is_set_by_seconds_not_by_speed(pkg):
    seconds = 3 * WORKLOADS["desk-sweep"].pass_s   # three passes, far below the cap on a tiny input
    lines, result = run.bench(pkg, "desk-sweep", 2024, seconds, False, TINY["desk-sweep"], reps=2)
    record = json.loads(lines[0].removeprefix("record "))
    assert record["passes"] == record["passes_planned"] == 3 and record["setup_reps"] == 2
    assert result["attempted"] == 3 * TINY["desk-sweep"]
    assert "each item's time is its fastest of 3 runs" in lines[2]


def test_p98_is_reported_from_500_items_with_its_sample_count():
    phase = run.Phase(500, [1_000_000 * (i + 1) for i in range(500)] * 2)
    gate = run.Gate()
    gate.attempted = 1000
    _, lines = run.end_to_end(phase, 1.0, gate)
    assert "metric item_p98_ms 490 ms (n=500 items, 10 above)" in lines


def test_corrupted_certificate_is_counted_as_failed(pkg, monkeypatch):
    arbitrage = pkg.arbitrage
    honest = arbitrage.check_naflp

    def corrupted(market, horizon=None):
        verdict = honest(market, horizon)
        cert = verdict.certificate
        if isinstance(verdict, arbitrage.NoFreeLunch):
            q = dict(cert.q)
            q[market.space.states[0]] += 1  # the measure no longer sums to one
            return arbitrage.NoFreeLunch(arbitrage.MartingaleMeasureCertificate(q))
        wealth = (cert.terminal_wealth[0] - 1,) + cert.terminal_wealth[1:]
        return arbitrage.FreeLunch(arbitrage.FreeLunchCertificate(cert.strategy, wealth))

    monkeypatch.setattr(arbitrage, "check_naflp", corrupted)
    lines, result = _bench(pkg, "desk-sweep", False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == TINY["desk-sweep"]
    assert any(line.startswith("failed item desk-0: certificate failed re-verification") for line in lines)


def test_raising_oracle_is_counted_in_trace(pkg, monkeypatch):
    def disagree(market, horizon=None):
        raise pkg.arbitrage.OracleDisagreementError("both oracles certified")

    monkeypatch.setattr(pkg.arbitrage, "check_naflp", disagree)
    lines, result = _bench(pkg, "walk-ladder", True)
    assert result["failed"] == result["attempted"] == 8  # 4 items, one untraced and one traced pass
    assert result["metrics"]["arbitrage.disagreements"]["value"] == 4
    assert pkg.arbitrage.check_naflp is disagree
