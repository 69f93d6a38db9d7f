"""CLI commands and the exit-code contract."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as rat
from pathlib import Path
from types import SimpleNamespace

import pytest

from delayedmarkets import cli, scenarios
from delayedmarkets.arbitrage import OracleDisagreementError
from delayedmarkets.cli import main
from delayedmarkets.documents import parse_market_document, serialize_market_document
from delayedmarkets.rationals import ZERO
from delayedmarkets.scenarios import gen_insider_execution_market, gen_insider_market

from conftest import ONE, binomial_market, identity_delay

SCENARIOS = Path(__file__).parent.parent / "scenarios"
DELAY_VALUE_ERROR = ValueError("index out of range in stopped field")

# sha256 of each kind's seed-7 report (30 trials; insider-demo's fixed pair)
REPORT_PINS = {
    "information": "72e4df44b02fb4e91340150949a6560c095c4c353e2f58ee2142675a728543aa",
    "execution": "48bd4a16e96b7750f4933cdf9cfa4ccae94f20779b8dc59f106ba830b4469a33",
    "broker": "2b8b5815eb12c11d98ae3ac644afe4270dcc73726c7ad48644659d472d78b368",
    "superimpose": "977fbc62b24fbc0cad3294f584d3274b1ad3873f02a42006c1be030be3a6e162",
    "representation": "16a2f5c0e3ab015b6ac4c52d636cfbf85489a4d6ed4a471c28987ac0cdc9f5c4",
    "insider-demo": "b7607fb1c040c579788425043413d6de6154d01a9cc95e7e9b3936ecdcf47294",
}
# sha256 of the markets and delay families each kind draws in those 30 trials
TRIAL_MARKET_PINS = {
    "information": "ebe3c22a8a11ea0324d4f80245334bece11b4eb8fabe4e4a93420ff4de58d149",
    "execution": "99b2e60337a95997b424b3956b497daf788f5b83f06e40e37d823f2c6609ef88",
    "broker": "ab8c9181e47cacad00fa223f2a9652d946b762b6ca831d04decd0d619f8fa291",
    "superimpose": "ae7e0f284358d62dbf9704febdc458413494fcea83577b87994840d5efff041e",
    "representation": "f770b0a35318c68c9c92ced5c329b05641aa3f438a5da6db2af149f417b95106",
}


@pytest.fixture
def binomial_path(tmp_path):
    m = binomial_market(1, 2, rat(1, 2))
    path = tmp_path / "binomial.json"
    path.write_text(serialize_market_document(m))
    return path


@pytest.fixture
def dominated_path(tmp_path):
    m = binomial_market(1, 2, 1)
    path = tmp_path / "dominated.json"
    path.write_text(serialize_market_document(m))
    return path


@pytest.fixture
def insider_path(tmp_path):
    m, fam = gen_insider_market(2, 1)
    path = tmp_path / "insider.json"
    path.write_text(serialize_market_document(m, info_delays=fam))
    return path


class TestValidate:
    def test_valid_document(self, binomial_path, capsys):
        assert main(["validate", str(binomial_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_unnormalized_measure(self, tmp_path, binomial_path, capsys):
        doc = json.loads(binomial_path.read_text())
        doc["states"][0]["probability"] = "9/10"
        doc["states"][1]["probability"] = "2/10"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        assert "measure not normalized" in capsys.readouterr().out

    def test_zero_probability(self, tmp_path, binomial_path, capsys):
        doc = json.loads(binomial_path.read_text())
        doc["states"][0]["probability"] = "1/1"
        doc["states"][1]["probability"] = "0/1"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        assert "probability must be strictly positive" in capsys.readouterr().out

    @pytest.mark.parametrize("past_top, code", [(1, 0), (2, 1)])
    def test_execution_cap_bound(self, tmp_path, capsys, past_top, code):
        """A cap may be at most n_ext + 1: every delayed order is then
        priced on the extended grid 0..n_ext."""
        doc = json.loads((SCENARIOS / "insider_execution.json").read_text())
        n_ext = doc["grid"]["n_ext"]
        doc["delays"]["execution"][0]["cap"] = n_ext + past_top
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == code
        out = capsys.readouterr().out
        if code == 0:
            assert parse_market_document(path.read_text()).exec_delays.reach(n_ext) == n_ext
        else:
            assert f"cap {n_ext + 2} outside 1..{n_ext + 1}" in out

    def test_monotonicity_is_checked_past_a_short_declaration(self, tmp_path, capsys):
        """{a} declares its filtration to n_ext and {a, b} only to n; a check
        at n_ext pads {a, b} with its final partition, so monotonicity is
        compared there too."""
        whole, split = [["u", "d"]], [["u"], ["d"]]
        doc = {
            "format_version": 1,
            "states": [{"name": "u", "probability": "1/2"}, {"name": "d", "probability": "1/2"}],
            "grid": {"n": 1, "n_ext": 2},
            "assets": {"a": [["1", "1"]] * 3, "b": [["1", "1"]] * 3},
            "index_system": [["a"], ["a", "b"]],
            "filtrations": {
                "grand": [whole, whole, split],
                "trading": [
                    {"index_set": ["a"], "partitions": [whole, whole, split]},
                    {"index_set": ["a", "b"], "partitions": [whole, whole]},
                ],
            },
        }
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        problem = "monotonicity property violated: filtration of ['a'] is not coarser than that of ['a', 'b'] at t=2"
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == f"invalid: {problem}\n"
        assert main(["check", str(path), "--horizon", "2"]) == 1
        assert capsys.readouterr() == ("", f"error: {problem}\n")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 1

    def test_problem_order_does_not_depend_on_the_hash_seed(self, tmp_path):
        """Every missing information delay is reported in index-system
        order, so the output is the same under any PYTHONHASHSEED (seeds 1
        and 2 gave two orders when the index sets were walked as a set)."""
        whole, split = [["u", "d"]], [["u"], ["d"]]
        index_system = [["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]]
        doc = {
            "format_version": 1,
            "states": [{"name": "u", "probability": "1/2"}, {"name": "d", "probability": "1/2"}],
            "grid": {"n": 1, "n_ext": 1},
            "assets": {a: [["1", "1"]] * 2 for a in "abc"},
            "index_system": index_system,
            "filtrations": {"grand": [whole, split],
                            "trading": [{"index_set": a, "partitions": [whole, split]} for a in index_system]},
            "delays": {"information": []},
        }
        path = tmp_path / "undelayed.json"
        path.write_text(json.dumps(doc))
        root = Path(__file__).parent.parent
        expected = "".join(f"invalid: no information delay for index set {a}\n" for a in index_system)
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-m", "delayedmarkets", "validate", str(path)],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert (done.returncode, done.stdout) == (1, expected), seed


class TestCheck:
    def test_no_free_lunch_exit_zero(self, binomial_path, capsys):
        assert main(["check", str(binomial_path)]) == 0
        out = capsys.readouterr().out
        assert "no-free-lunch" in out and "1/3" in out and "2/3" in out

    def test_free_lunch_exit_two(self, dominated_path, capsys):
        assert main(["check", str(dominated_path)]) == 2
        assert "free-lunch" in capsys.readouterr().out

    def test_oracle_disagreement_exit_four(self, dominated_path, monkeypatch, capsys):
        import delayedmarkets.lp as lp

        # a zero free-lunch optimum whose v <= 1 rows carry a nonzero dual proves neither side
        def zero_optimum(p):
            duals = (ZERO,) * (len(p.inequalities) - 1) + (ONE,)
            return lp.LpOutcome(lp.OPTIMAL, (ZERO,) * p.num_vars, ZERO, duals)

        monkeypatch.setattr(lp, "solve", zero_optimum)
        assert main(["check", str(dominated_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: oracles disagree")

    def test_failed_reverification_exit_four(self, binomial_path, monkeypatch, capsys):
        import delayedmarkets.cli as cli

        monkeypatch.setattr(cli, "verify_certificate", lambda m, verdict: False)
        assert main(["check", str(binomial_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: certificate failed independent re-verification\n"

    @pytest.mark.parametrize("target, fault", [
        ("delayedmarkets.lp.solve", ValueError("value in column 3 is zero")),
        ("delayedmarkets.lp.solve", AssertionError("tableau row lost its basic column")),
        ("delayedmarkets.cli.verify_certificate", KeyError("s0")),
        ("delayedmarkets.cli.render_verdict", ValueError("line one\nline two")),
    ], ids=["solve-value-error", "solve-assertion", "verify-key-error", "render-value-error"])
    def test_fault_after_reading_is_internal(self, dominated_path, monkeypatch, capsys, target, fault):
        """A fault of the oracles, the verifier or the renderer is exit 4, not an input error."""
        def broken(*args, **kwargs):
            raise fault

        monkeypatch.setattr(target, broken)
        assert main(["check", str(dominated_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {fault!r}\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("scenario", ["insider_information.json", "insider_execution.json"])
    def test_fault_while_delaying_is_internal(self, scenario, monkeypatch, capsys):
        """A fault of the delay step is the program's, not the document's: exit 4."""
        fault = AssertionError("stopped field of a non-stopping time")

        def broken(*args, **kwargs):
            raise fault

        monkeypatch.setattr("delayedmarkets.probability.stopped_sigma_field", broken)
        assert main(["check", str(SCENARIOS / scenario), "--apply-delay"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {fault!r}\n"
        assert "Traceback" not in captured.err

    def test_insider_delay_flag_flips_verdict(self, insider_path, capsys):
        assert main(["check", str(insider_path)]) == 2
        assert main(["check", str(insider_path), "--apply-delay"]) == 0

    def test_apply_delay_without_delays(self, binomial_path):
        assert main(["check", str(binomial_path), "--apply-delay"]) == 1

    def test_bad_horizon(self, binomial_path, capsys):
        for horizon in ("9", "0", "2"):
            assert main(["check", str(binomial_path), "--horizon", horizon]) == 1
            assert capsys.readouterr() == ("", "error: horizon must lie in 1..1\n")

    def test_fault_while_extending_the_horizon_is_internal(self, monkeypatch, capsys):
        """Only a horizon outside n..n_ext is an input error: a ValueError
        raised while extending the market to a valid horizon is exit 4."""
        fault = ValueError("boom")

        def broken(*args, **kwargs):
            raise fault

        monkeypatch.setattr("delayedmarkets.probability.Filtration.extend_to", broken)
        assert main(["check", str(SCENARIOS / "insider_execution.json"), "--horizon", "3"]) == 4
        assert capsys.readouterr() == ("", f"internal error: {fault!r}\n")


class TestDelay:
    def test_info_mode_writes_revalidating_document(self, insider_path, tmp_path, capsys):
        out_path = tmp_path / "delayed.json"
        assert main(["delay", str(insider_path), "--mode", "info", "--out", str(out_path)]) == 0
        delayed = parse_market_document(out_path.read_text())
        assert delayed.info_delays is None
        assert main(["check", str(out_path)]) == 0

    def test_exec_mode(self, tmp_path, capsys):
        m, fam = gen_insider_execution_market(2, 1)
        path = tmp_path / "exec.json"
        path.write_text(serialize_market_document(m, exec_delays=fam))
        out_path = tmp_path / "exec_delayed.json"
        assert main(["check", str(path)]) == 2
        assert main(["delay", str(path), "--mode", "exec", "--out", str(out_path)]) == 0
        assert main(["check", str(out_path)]) == 0

    def test_missing_block(self, binomial_path, tmp_path, capsys):
        out_path = tmp_path / "x.json"
        for mode, block in (("info", "information"), ("exec", "execution")):
            assert main(["delay", str(binomial_path), "--mode", mode, "--out", str(out_path)]) == 1
            assert capsys.readouterr() == ("", f"error: document has no {block}-delay block\n")
            assert not out_path.exists()

    def test_output_that_does_not_reparse_is_internal(self, insider_path, tmp_path, monkeypatch, capsys):
        """delay re-parses what it wrote; a failure there is its own fault, exit 4."""
        import delayedmarkets.cli as cli

        monkeypatch.setattr(cli, "serialize_market_document", lambda market, **family: "{}")
        out_path = tmp_path / "delayed.json"
        assert main(["delay", str(insider_path), "--mode", "info", "--out", str(out_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: DocumentError(")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize("scenario, mode", [
        ("insider_information.json", "info"),
        ("insider_execution.json", "exec"),
    ])
    def test_fault_while_delaying_is_internal(self, scenario, mode, tmp_path, monkeypatch, capsys):
        """A fault of the delay step itself is exit 4 and writes nothing."""
        fault = AssertionError("stopped field of a non-stopping time")

        def broken(*args, **kwargs):
            raise fault

        monkeypatch.setattr("delayedmarkets.probability.stopped_sigma_field", broken)
        out_path = tmp_path / "delayed.json"
        assert main(["delay", str(SCENARIOS / scenario), "--mode", mode, "--out", str(out_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {fault!r}\n"
        assert "Traceback" not in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv, code, err", [
        (["check", "insider_information.json", "--apply-delay"], 4, f"internal error: {DELAY_VALUE_ERROR!r}\n"),
        (["delay", "insider_execution.json", "--mode", "exec"], 4, f"internal error: {DELAY_VALUE_ERROR!r}\n"),
        (["check", "binomial.json", "--horizon", "99"], 1, "error: horizon must lie in 1..1\n"),
    ], ids=["check-apply-delay", "delay-exec", "check-bad-horizon"])
    def test_value_error_is_input_error_only_for_the_horizon(self, argv, code, err, monkeypatch, capsys):
        """A ValueError of the delay step is the program's fault, exit 4;
        a horizon outside n..n_ext stays an input error, exit 1."""
        def broken(*args, **kwargs):
            raise DELAY_VALUE_ERROR

        monkeypatch.setattr("delayedmarkets.probability.stopped_sigma_field", broken)
        command, name, *options = argv
        assert main([command, str(SCENARIOS / name), *options]) == code
        assert capsys.readouterr() == ("", err)

    def test_identity_delay_round_trips_semantically(self, tmp_path):
        m, _ = gen_insider_market(2, 1)
        from delayedmarkets.delays import InformationDelayFamily
        from delayedmarkets.probability import Filtration, Partition, StoppingProcess

        triv = Filtration.constant(Partition.trivial(m.space.states), 3)
        fam = InformationDelayFamily({
            a: identity_delay(3, triv) for a in m.index_system
        })
        path = tmp_path / "zero.json"
        path.write_text(serialize_market_document(m, info_delays=fam))
        out_path = tmp_path / "zero_out.json"
        assert main(["delay", str(path), "--mode", "info", "--out", str(out_path)]) == 0
        assert parse_market_document(out_path.read_text()).market == m


class TestShippedScenarios:
    REPO = __import__("pathlib").Path(__file__).parent.parent / "scenarios"

    def test_all_shipped_documents_validate(self):
        files = sorted(self.REPO.glob("*.json"))
        assert len(files) == 4
        for path in files:
            assert main(["validate", str(path)]) == 0, path.name

    def test_insider_documents_are_the_generators_output(self):
        m, fam = gen_insider_market(2, 1)
        assert (self.REPO / "insider_information.json").read_bytes() == \
            serialize_market_document(m, info_delays=fam).encode("utf-8")
        m, fam = gen_insider_execution_market(2, 1)
        assert (self.REPO / "insider_execution.json").read_bytes() == \
            serialize_market_document(m, exec_delays=fam).encode("utf-8")

    def test_shipped_verdicts(self):
        assert main(["check", str(self.REPO / "binomial.json")]) == 0
        assert main(["check", str(self.REPO / "dominated_binomial.json")]) == 2
        assert main(["check", str(self.REPO / "insider_information.json")]) == 2
        assert main(["check", str(self.REPO / "insider_information.json"), "--apply-delay"]) == 0
        assert main(["check", str(self.REPO / "insider_execution.json")]) == 2
        assert main(["check", str(self.REPO / "insider_execution.json"), "--apply-delay"]) == 0


class TestExperiment:
    def test_insider_demo_report(self, tmp_path):
        out_path = tmp_path / "report.json"
        assert main(["experiment", "insider-demo", "--seed", "4", "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is True and payload["kind"] == "insider-demo"

    def test_insider_demo_rejects_trials(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["experiment", "insider-demo", "--trials", "30", "--out", str(out_path)]) == 1
        assert "fixed pair of walks" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("target, fault", [
        ("delayedmarkets.lp.solve", AssertionError("tableau row lost its basic column")),
        ("delayedmarkets.scenarios.check_naflp", OracleDisagreementError("oracles disagree")),
    ], ids=["solve-assertion", "oracle-disagreement"])
    def test_insider_demo_fault_fails_its_trials(self, target, fault, tmp_path, monkeypatch, capsys):
        """A fault in an insider walk is a failing trial with its replay key, exit 3."""
        def broken(*args, **kwargs):
            raise fault

        monkeypatch.setattr(target, broken)
        out_path = tmp_path / "report.json"
        assert main(["experiment", "insider-demo", "--seed", "5", "--out", str(out_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is False and payload["trials"] == 2
        assert [f["detail"] for f in payload["failures"]] == [f"exception: {fault!r}"] * 2
        assert [f["reproduction"] for f in payload["failures"]] == [
            {"seed": 5, "kind": "insider-demo", "index": i} for i in range(2)
        ]

    def test_trials_default_to_one_hundred(self, monkeypatch, capsys):
        import delayedmarkets.cli as cli

        calls = []
        report = SimpleNamespace(passed=True, to_json=lambda: "{}")
        monkeypatch.setattr(cli, "run_experiment", lambda cfg, kind, trials: calls.append(trials) or report)
        assert main(["experiment", "representation", "--seed", "4"]) == 0
        assert main(["experiment", "representation", "--seed", "4", "--trials", "3"]) == 0
        assert calls == [100, 3]

    def test_information_experiment(self, tmp_path):
        out_path = tmp_path / "report.json"
        assert main(["experiment", "information", "--seed", "4", "--trials", "5",
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["trials"] == 5 and payload["failures"] == []

    def test_reports_are_pinned(self, capsys):
        """The seed-7 JSON report of each experiment kind hashes to its own
        pinned value, so a generator change that moves a random draw shows
        in the kind whose trial details it changes."""
        digests = {}
        for kind in REPORT_PINS:
            trials = [] if kind == "insider-demo" else ["--trials", "30"]
            assert main(["experiment", kind, "--seed", "7", *trials]) == 0
            digests[kind] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == REPORT_PINS

    def test_trial_markets_are_pinned(self, monkeypatch, capsys):
        """The markets and delay families each trial kind draws at seed 7,
        serialized in draw order, hash to that kind's pinned value: a report
        records little per trial, so a changed draw can leave it as it was."""
        digests = {}
        drawn = []

        def market_drawer(gen):
            def draw(*args, **kwargs):
                m = gen(*args, **kwargs)
                drawn.append(m)
                digest.update(serialize_market_document(m).encode())
                return m
            return draw

        def family_builder(cls, key):
            def build(*args, **kwargs):
                fam = cls(*args, **kwargs)
                digest.update(serialize_market_document(drawn[-1], **{key: fam}).encode())
                return fam
            return build

        for name in ("gen_martingale_market", "gen_random_market"):
            monkeypatch.setattr(scenarios, name, market_drawer(getattr(scenarios, name)))
        monkeypatch.setattr(scenarios, "InformationDelayFamily",
                            family_builder(scenarios.InformationDelayFamily, "info_delays"))
        monkeypatch.setattr(scenarios, "ExecutionDelayFamily",
                            family_builder(scenarios.ExecutionDelayFamily, "exec_delays"))
        for kind in TRIAL_MARKET_PINS:
            digest = hashlib.sha256()
            assert main(["experiment", kind, "--seed", "7", "--trials", "30"]) == 0
            digests[kind] = digest.hexdigest()
        capsys.readouterr()
        assert len(drawn) == 150
        assert digests == TRIAL_MARKET_PINS

    @pytest.mark.parametrize("kind, trials", [("information", "-3"), ("superimpose", "0")])
    def test_nonpositive_trials_rejected(self, kind, trials, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["experiment", kind, "--trials", trials, "--out", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_path.exists()


class TestUnwritableOutput:
    def test_experiment_report(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "report.json"
        assert main(["experiment", "information", "--seed", "4", "--trials", "2", "--out", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out_path}: ")

    @pytest.mark.parametrize("kind", ["information", "superimpose", "insider-demo"])
    def test_experiment_fails_before_any_trial(self, kind, tmp_path, monkeypatch, capsys):
        import delayedmarkets.cli as cli

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran although --out cannot be written")

        monkeypatch.setattr(cli, "run_experiment", no_trials)
        out_path = tmp_path / "missing" / "report.json"
        assert main(["experiment", kind, "--out", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out_path}: ")

    def test_writable_probe_leaves_no_file(self, tmp_path, monkeypatch):
        import delayedmarkets.cli as cli

        out_path = tmp_path / "report.json"
        seen = []
        report = SimpleNamespace(passed=True, to_json=lambda: "{}")
        monkeypatch.setattr(cli, "run_experiment",
                            lambda cfg, kind, trials: seen.append(out_path.exists()) or report)
        assert main(["experiment", "representation", "--trials", "1", "--out", str(out_path)]) == 0
        assert seen == [False] and out_path.read_text() == "{}\n"

    def test_delayed_document(self, insider_path, tmp_path, capsys):
        out_path = tmp_path / "missing" / "delayed.json"
        assert main(["delay", str(insider_path), "--mode", "info", "--out", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out_path}: ")


COMMANDS = (["validate"], ["check"], ["delay", "--mode", "info"])


# command lines argparse rejects, with a word of the message each prints
USAGE_ERRORS = (
    (["check", str(SCENARIOS / "binomial.json"), "--horizon", "abc"], "invalid int value: 'abc'"),
    (["check"], "the following arguments are required: path"),
    (["nosuchcommand"], "invalid choice: 'nosuchcommand'"),
    (["experiment", "nosuchkind"], "invalid choice: 'nosuchkind'"),
    (["experiment", "information", "--trials", "x"], "invalid int value: 'x'"),
    (["delay", str(SCENARIOS / "binomial.json")], "the following arguments are required: --mode"),
)


class TestUsageErrors:
    """A bad command line is an input error, exit 1: argparse's own exit 2
    would read as a free lunch found."""

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS)
    def test_usage_error_exits_one(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: delayedmarkets")
        last = captured.err.splitlines()[-1]
        assert ": error: " in last and message in last

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: delayedmarkets")


class TestUnreadableDocuments:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_utf8_file_names_the_path(self, command, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert f"cannot read {path}: 'utf-8' codec can't decode" in captured.out + captured.err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_deep_nesting_is_an_input_error(self, command, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert "document nests too deeply" in captured.out + captured.err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_over_long_json_integer_is_located(self, command, tmp_path, capsys):
        text = (SCENARIOS / "binomial.json").read_text(encoding="utf-8")
        start = text.index('"n": 1,') + len('"n": ')
        line, column = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
        path = tmp_path / "long.json"
        path.write_text(text[:start] + "1" * 5000 + text[start + 1:])
        assert main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert (f"parse error at line {line}, column {column}: integer too long: 5000 digits, "
                f"over the limit of {sys.get_int_max_str_digits()} for an integer read from text"
                in captured.out + captured.err)
        assert "set_int_max_str_digits" not in captured.out + captured.err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_over_long_literal_names_its_field(self, command, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "binomial.json").read_text(encoding="utf-8"))
        doc["assets"]["stock"][1][0] = "1/" + "3" * 5000
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        assert main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert (f"assets[stock][t=1]: rational literal too long: 5000 digits, "
                f"over the limit of {sys.get_int_max_str_digits()} for an integer read from text"
                in captured.out + captured.err)
        assert "set_int_max_str_digits" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["validate", "check"])
@pytest.mark.parametrize("constructor", ["FiniteSpace", "Market"])
def test_constructor_fault_while_parsing_is_internal(command, constructor, monkeypatch, capsys):
    """The parser makes every check of FiniteSpace and Market before it
    calls them, so a ValueError from either is a fault of the program, not
    of the document: exit 4, not an input error."""
    fault = ValueError(f"{constructor} rejected what the parser accepted")

    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(f"delayedmarkets.documents.{constructor}", broken)
    assert main([command, str(SCENARIOS / "binomial.json")]) == 4
    assert capsys.readouterr() == ("", f"internal error: {fault!r}\n")


# each shipped scenario command, its exit code and its golden stdout
ENTRY_RUNS = (
    (["binomial.json"], 0, "binomial_no_free_lunch"),
    (["dominated_binomial.json"], 2, "binomial_free_lunch"),
    (["insider_information.json"], 2, "insider_undelayed"),
    (["insider_information.json", "--apply-delay"], 0, "insider_delayed"),
)


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    """`python -m delayedmarkets check` prints each golden file with its exit
    code, and the console-script hook exits with main's code. A usage error
    exits 1 there too."""
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    for (name, *options), code, golden in ENTRY_RUNS:
        argv = ["check", str(SCENARIOS / name), *options]
        done = subprocess.run([sys.executable, "-m", "delayedmarkets", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == code, done.stderr
        assert done.stdout == (root / "tests" / "golden" / f"{golden}.txt").read_text(), golden
        monkeypatch.setattr(sys, "argv", ["delayedmarkets", *argv])
        with pytest.raises(SystemExit) as exited:
            cli.entry()
        assert exited.value.code == code
        assert capsys.readouterr().out == done.stdout
    done = subprocess.run([sys.executable, "-m", "delayedmarkets", "check"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.endswith("delayedmarkets check: error: the following arguments are required: path\n")
