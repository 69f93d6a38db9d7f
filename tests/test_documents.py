"""Document parsing, validation reporting, and canonical round trips."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from delayedmarkets.cli import main
from delayedmarkets.documents import DocumentError, parse_market_document, serialize_market_document
from delayedmarkets.rationals import parse_rational, rat
from delayedmarkets.scenarios import ScenarioConfig, _rng, gen_insider_market, gen_martingale_market, gen_random_delay

from conftest import binomial_market


def doc_dict(market, **kw):
    return json.loads(serialize_market_document(market, **kw))


class TestRoundTrip:
    def test_market_round_trip_identity(self):
        m = gen_martingale_market(ScenarioConfig(seed=301))
        text = serialize_market_document(m)
        parsed = parse_market_document(text)
        assert parsed.market == m
        assert serialize_market_document(parsed.market) == text

    def test_delay_round_trip_identity(self):
        cfg = ScenarioConfig(seed=307)
        m = gen_martingale_market(cfg, min_extension=1)
        info = gen_random_delay(cfg, "information", m)
        execf = gen_random_delay(cfg, "execution", m, capped=True)
        text = serialize_market_document(m, info_delays=info, exec_delays=execf)
        parsed = parse_market_document(text)
        assert parsed.info_delays == info
        assert parsed.exec_delays == execf
        assert serialize_market_document(parsed.market, parsed.info_delays, parsed.exec_delays) == text

    def test_insider_document_round_trip(self):
        m, fam = gen_insider_market(2, 1)
        text = serialize_market_document(m, info_delays=fam)
        parsed = parse_market_document(text)
        assert parsed.market == m and parsed.info_delays == fam


class TestRejection:
    def test_unknown_field(self, no_arbitrage_binomial):
        doc = doc_dict(no_arbitrage_binomial)
        doc["surprise"] = 1
        with pytest.raises(DocumentError) as err:
            parse_market_document(json.dumps(doc))
        assert any("unknown field 'surprise'" in p for p in err.value.problems)

    def test_unnormalized_measure(self, no_arbitrage_binomial):
        doc = doc_dict(no_arbitrage_binomial)
        doc["states"][0]["probability"] = "2/5"
        with pytest.raises(DocumentError) as err:
            parse_market_document(json.dumps(doc))
        assert any("measure not normalized" in p for p in err.value.problems)

    def test_non_union_closed_index_system(self):
        from conftest import two_step_market
        from delayedmarkets.markets import Market
        from test_markets import two_assets_market

        m = two_assets_market(index_sets=[{"a0"}, {"a1"}])
        with pytest.raises(DocumentError) as err:
            parse_market_document(serialize_market_document(m))
        assert any("refining property" in p for p in err.value.problems)

    def test_parse_error_carries_position(self):
        with pytest.raises(DocumentError) as err:
            parse_market_document('{"format_version": 1,,}')
        assert any("line 1" in p for p in err.value.problems)

    def test_float_rationals_rejected(self, no_arbitrage_binomial):
        doc = doc_dict(no_arbitrage_binomial)
        doc["assets"]["stock"][0][0] = "0.5"
        with pytest.raises(DocumentError) as err:
            parse_market_document(json.dumps(doc))
        assert any("exact p/q" in p for p in err.value.problems)

    def test_bad_filtration_rejected(self, no_arbitrage_binomial):
        doc = doc_dict(no_arbitrage_binomial)
        doc["filtrations"]["grand"][1] = [["u"]]  # drops state d
        with pytest.raises(DocumentError) as err:
            parse_market_document(json.dumps(doc))
        assert any("partition the state set" in p for p in err.value.problems)

    def test_wrong_version_rejected(self, no_arbitrage_binomial):
        doc = doc_dict(no_arbitrage_binomial)
        doc["format_version"] = 9
        with pytest.raises(DocumentError):
            parse_market_document(json.dumps(doc))


@pytest.mark.parametrize("text, value", [
    ("3/4", rat(3, 4)),
    ("-3/4", rat(-3, 4)),
    ("+3", rat(3)),
    ("3/-4", rat(-3, 4)),
    (" -3 / 4 ", rat(-3, 4)),
    ("10/4", rat(5, 2)),
    ("0003/06", rat(1, 2)),
    ("-0/5", rat(0)),
    ("\u2003 7\t", rat(7)),
    ("1_000/3", None),
    ("1/3_0", None),
    ("\u0661\u0662/5", None),
    ("\uff13", None),
    ("1/0", None),
    ("1/2/3", None),
    ("/3", None),
    ("3/", None),
    ("- 3", None),
    ("+-3", None),
    ("3 4", None),
    ("0.5", None),
    ("1e3", None),
    ("", None),
])
def test_parse_rational_is_strict(text, value):
    if value is None:
        with pytest.raises(ValueError):
            parse_rational(text)
    else:
        assert parse_rational(text) == value


BINOMIAL = Path(__file__).parent.parent / "scenarios" / "binomial.json"
INFO_DELAY = {"index_set": ["stock"], "values": [[0, 0], [0, 0]], "info": "trivial"}
EXEC_DELAY = {"asset": "stock", "values": [[0, 0], [1, 1]], "info": "grand"}

# malformed variants of scenarios/binomial.json: a mistyped field must be
# reported, never end in a traceback or be accepted because bool is an int
MUTANTS = {
    "integer-state-name": lambda d: d["states"][0].update(name=1),
    "list-state-name": lambda d: d["states"][0].update(name=["u"]),
    "integer-state-in-grand-atom": lambda d: d["filtrations"]["grand"][0][0].__setitem__(0, 1),
    "integer-index-system": lambda d: d.update(index_system=5),
    "nested-list-index-set": lambda d: d.update(index_system=[[["x"]]]),
    "integer-trading-index-set": lambda d: d["filtrations"]["trading"][0].update(index_set=5),
    "integer-information-delay-index-set":
        lambda d: d.update(delays={"information": [dict(INFO_DELAY, index_set=5)]}),
    "boolean-grid": lambda d: d.update(grid={"n": True, "n_ext": True}),
    "boolean-information-delay-values":
        lambda d: d.update(delays={"information": [dict(INFO_DELAY, values=[[False, False], [False, False]])]}),
    "delays-as-list": lambda d: d.update(delays=[]),
    "integer-execution-asset": lambda d: d.update(delays={"execution": [dict(EXEC_DELAY, asset=5)]}),
    "boolean-execution-cap": lambda d: d.update(delays={"execution": [dict(EXEC_DELAY, cap=True)]}),
    "boolean-format-version": lambda d: d.update(format_version=True),
}


@pytest.mark.parametrize("mutate", MUTANTS.values(), ids=MUTANTS.keys())
def test_mistyped_field_is_a_document_error(mutate, tmp_path, capsys):
    doc = json.loads(BINOMIAL.read_text())
    parse_market_document(json.dumps(doc))  # the unmutated document is valid
    mutate(doc)
    text = json.dumps(doc)
    with pytest.raises(DocumentError):
        parse_market_document(text)
    path = tmp_path / "mutant.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


class TestInfoReferences:
    def test_trivial_and_grand_references(self, no_arbitrage_binomial):
        doc = doc_dict(no_arbitrage_binomial)
        doc["delays"] = {
            "information": [
                {"index_set": ["stock"], "values": [[0, 0], [0, 0]], "info": "trivial"}
            ],
            "execution": [
                {"asset": "stock", "values": [[0, 0], [1, 1]], "info": "grand", "cap": 2}
            ],
        }
        parsed = parse_market_document(json.dumps(doc))
        assert parsed.info_delays is not None and parsed.exec_delays is not None
        assert parsed.exec_delays.caps == {"stock": 2}

    def test_invalid_delay_reported(self, no_arbitrage_binomial):
        doc = doc_dict(no_arbitrage_binomial)
        doc["delays"] = {
            "information": [
                {"index_set": ["stock"], "values": [[1, 1], [1, 1]], "info": "trivial"}
            ]
        }
        with pytest.raises(DocumentError) as err:
            parse_market_document(json.dumps(doc))
        assert any("information bound violated" in p for p in err.value.problems)
