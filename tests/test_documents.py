"""Document parsing, validation reporting, and canonical round trips."""

from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import json
import sys
import tempfile
from fractions import Fraction as rat
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delayedmarkets.cli import main
from delayedmarkets.delays import (
    ExecutionDelayFamily,
    InformationDelayFamily,
    delayed_market,
    information_delayed_market,
    validate_execution_family,
    validate_information_family,
)
from delayedmarkets import documents
from delayedmarkets.documents import DocumentError, parse_market_document, serialize_market_document
from delayedmarkets.markets import Market
from delayedmarkets.probability import Filtration, FiniteSpace, Partition, StoppingProcess
from delayedmarkets.rationals import parse_rational
from delayedmarkets.scenarios import (
    ScenarioConfig,
    _rng,
    gen_insider_execution_market,
    gen_insider_market,
    gen_martingale_market,
    gen_random_delay,
    gen_random_market,
)

from conftest import binomial_market, discrete_partition, identity_delay
from test_acceptance import DESK
from reference_documents import parse_rational as reference_parse_rational
from reference_documents import reference_parse_market_document
from reference_serialize import reference_serialize_market_document


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


def _literal_outcome(parse, text):
    """The parsed rational, or the message of the ValueError raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


# one digit past what int() reads from text
OVER_LONG = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("text", [
    "007/010", "-0", "+3/4", " 3/4 ", "3/-4", "-3/-4", "3/0", "\u0663/4", "1_0", "-", "",
    pytest.param(OVER_LONG + "/3", id="over-long"),
])
def test_literal_accept_path_matches_the_reference(text):
    """parse_rational accepts on str builtins and int() alone; each edge of
    that path gives the reference's value or message. An over-long side is
    the one exception: the reference passes on int()'s own message, which
    parse_rational words as too many digits."""
    outcome = _literal_outcome(parse_rational, text)
    if text.startswith(OVER_LONG):
        assert outcome == f"rational literal too long: {len(OVER_LONG)} digits, over the limit of " \
                          f"{sys.get_int_max_str_digits()} for an integer read from text"
        with pytest.raises(ValueError):
            reference_parse_rational(text)
    else:
        assert outcome == _literal_outcome(reference_parse_rational, text)


# signs, digits of both kinds, separators, float syntax and whitespace
LITERALS = st.text(st.sampled_from("0123456789+-/ ._eE\t\n\u2003\u00a0\u0661\uff13"), max_size=12)


# one side of a well-formed literal: 1-3 ASCII digits with an optional sign and whitespace
SIDES = st.builds("{}{}{}{}".format, st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "+", "-"]),
                  st.text("0123456789", min_size=1, max_size=3), st.sampled_from(["", " ", "\n"]))
# a bare side or p/q, so that a signed denominator such as "3/-4" is drawn often
SIGNED_LITERALS = SIDES | st.builds("{}/{}".format, SIDES, SIDES)

# a numerator, a denominator and a bare literal each one digit too long
OVER_LONG_LITERALS = [OVER_LONG + "/3", "3/" + OVER_LONG, OVER_LONG]


@settings(max_examples=500, deadline=None)
@given(LITERALS | SIGNED_LITERALS
       | st.sampled_from(["", " ", "1/0", "-0/5", "0003/06", 1, None, ["1"], *OVER_LONG_LITERALS]))
def test_parse_rational_matches_the_reference(text):
    """Equal values or messages. An over-long literal is compared by
    outcome class, both sides raising ValueError: the reference passes on
    int()'s own message there."""
    outcome = _literal_outcome(parse_rational, text)
    expected = _literal_outcome(reference_parse_rational, text)
    if text in OVER_LONG_LITERALS:
        assert type(outcome) is type(expected) is str
    else:
        assert outcome == expected


def test_over_long_literal_is_worded():
    with pytest.raises(ValueError) as err:
        parse_rational("-" + "7" * 5000 + "/3")
    assert str(err.value) == (f"rational literal too long: 5000 digits, over the limit of "
                              f"{sys.get_int_max_str_digits()} for an integer read from text")


BINOMIAL = Path(__file__).parent.parent / "scenarios" / "binomial.json"
INFO_DELAY = {"index_set": ["stock"], "values": [[0, 0], [0, 0]], "info": "trivial"}
EXEC_DELAY = {"asset": "stock", "values": [[0, 0], [1, 1]], "info": "grand"}

# malformed variants of scenarios/binomial.json: a mistyped field or an
# empty atom must be reported, never end in a traceback or be accepted
# because bool is an int
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
    "empty-grand-atom": lambda d: d["filtrations"]["grand"][0].append([]),
    "empty-trading-atom": lambda d: d["filtrations"]["trading"][0]["partitions"][1].insert(0, []),
    "empty-information-delay-atom": lambda d: d.update(delays={"information": [
        dict(INFO_DELAY, info=[[["u", "d"], []], [["u", "d"]]])]}),
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
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.startswith("invalid: ")


def _trivial_trading_entry(d):
    states = [s["name"] for s in d["states"]]
    d["filtrations"]["trading"].append({"index_set": ["walk"], "partitions": [[states]] * (d["grid"]["n"] + 1)})


# a second entry for a key the document already declares, and the problem that names it
DUPLICATES = {
    "trading-filtration": ("insider_execution.json", _trivial_trading_entry,
                           "duplicate trading filtration for index set ['walk']"),
    "information-delay": ("insider_information.json",
                          lambda d: d["delays"]["information"].append(copy.deepcopy(d["delays"]["information"][0])),
                          "duplicate information delay for index set ['walk']"),
    "execution-delay": ("insider_execution.json",
                        lambda d: d["delays"]["execution"].append(copy.deepcopy(d["delays"]["execution"][0])),
                        "duplicate execution delay for asset 'walk'"),
}


@pytest.mark.parametrize("name", DUPLICATES)
def test_duplicate_declaration_is_a_document_error(name, tmp_path, capsys):
    scenario, duplicate, problem = DUPLICATES[name]
    doc = json.loads((BINOMIAL.parent / scenario).read_text())
    duplicate(doc)
    with pytest.raises(DocumentError) as err:
        parse_market_document(json.dumps(doc))
    assert any(problem in p for p in err.value.problems)
    path = tmp_path / scenario
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert problem in capsys.readouterr().out
    assert main(["check", str(path)]) == 1
    assert problem in capsys.readouterr().err


def _ghost_index_set(d):
    d["index_system"].append(["ghost", "walk"])
    d["filtrations"]["trading"].append(dict(d["filtrations"]["trading"][0], index_set=["ghost", "walk"]))


def _two_unjoined_assets(d):
    stock = d["assets"].pop("stock")
    trading = d["filtrations"]["trading"].pop()
    d["assets"].update(a=stock, b=stock)
    d["index_system"] = [["a"], ["b"]]
    d["filtrations"]["trading"] = [dict(trading, index_set=["a"]), dict(trading, index_set=["b"])]


# an edit of a shipped scenario (returning the new document, or None when
# it edits in place) and the exact problems the document then has
WORDED_PROBLEMS = {
    "root-not-object": ("binomial.json", lambda d: [d], ["document root must be an object"]),
    "trading-not-a-list": ("binomial.json", lambda d: d["filtrations"].update(trading={}),
                           ["filtrations.trading: expected a list"]),
    "trading-entry-not-an-object": ("binomial.json", lambda d: d["filtrations"]["trading"].__setitem__(0, []),
                                    ["filtrations.trading[0]: expected an object"]),
    "information-delays-not-a-list": ("binomial.json", lambda d: d.update(delays={"information": {}}),
                                      ["delays.information: expected a list"]),
    "information-delay-not-an-object": ("binomial.json", lambda d: d.update(delays={"information": [[]]}),
                                        ["delays.information[0]: expected an object"]),
    "execution-delays-not-a-list": ("binomial.json", lambda d: d.update(delays={"execution": {}}),
                                    ["delays.execution: expected a list"]),
    "execution-delay-not-an-object": ("binomial.json", lambda d: d.update(delays={"execution": [[]]}),
                                      ["delays.execution[0]: expected an object"]),
    "unknown-information-reference": (
        "binomial.json", lambda d: d.update(delays={"information": [dict(INFO_DELAY, info="sometimes")]}),
        ["delays.information[0].info: delay information must be 'trivial', 'grand', or an inline filtration"]),
    "coarsening-grand-filtration": (
        "insider_information.json", lambda d: d["filtrations"]["grand"].__setitem__(3, d["filtrations"]["grand"][1]),
        ["filtrations.grand: partition at time 3 does not refine time 2"]),
    "index-set-of-unknown-assets": ("insider_information.json", _ghost_index_set,
                                    ["index set ['ghost', 'walk'] names unknown assets"]),
    "index-system-missing-a-union": (
        "binomial.json", _two_unjoined_assets,
        ["refining property violated: union of ['a'] and ['b'] is not in the index system"]),
}


@pytest.mark.parametrize("name", WORDED_PROBLEMS)
def test_malformed_document_reports_exactly_its_problems(name, tmp_path, capsys):
    scenario, edit, problems = WORDED_PROBLEMS[name]
    doc = json.loads((BINOMIAL.parent / scenario).read_text())
    doc = edit(doc) or doc
    text = json.dumps(doc)
    with pytest.raises(DocumentError) as err:
        parse_market_document(text)
    assert err.value.problems == problems
    path = tmp_path / scenario
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "".join(f"invalid: {p}\n" for p in problems)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {'; '.join(problems)}\n"


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


SCENARIOS = sorted((Path(__file__).parent.parent / "scenarios").glob("*.json"))


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_shipped_scenario_reserializes_byte_for_byte(path):
    text = path.read_text(encoding="utf-8")
    doc = parse_market_document(text)
    assert serialize_market_document(doc.market, doc.info_delays, doc.exec_delays) == text


def _pinned_markets():
    """Desk markets, both delay modes, and the insider walks, from fixed
    seeds, each as (market, delay families)."""
    cfg = ScenarioConfig(seed=11, num_states=12, grid=4, extension=6, num_assets=3, max_index_sets=4, brokers=3)
    for i in range(40):
        gen = gen_martingale_market if i % 2 else gen_random_market
        yield gen(cfg, rng=_rng(11, "ftap", i)), {}
    for i in range(20):
        rng = _rng(11, "roundtrip", i)
        m = gen_martingale_market(cfg, rng=rng)
        info = gen_random_delay(cfg, "information", m, rng=rng)
        execution = gen_random_delay(cfg, "execution", m, rng=rng, capped=True)
        yield m, {"info_delays": info, "exec_delays": execution}
        yield information_delayed_market(m, info), {"exec_delays": execution}
        yield delayed_market(m, execution), {"info_delays": info}
    m, fam = gen_insider_market(3, 1)
    yield m, {"info_delays": fam}
    yield information_delayed_market(m, fam), {}
    m, fam = gen_insider_execution_market(3, 1)
    yield m, {"exec_delays": fam}
    yield delayed_market(m, fam), {}


def _pinned_documents():
    for m, families in _pinned_markets():
        yield serialize_market_document(m, **families)


def test_serialized_bytes_are_pinned():
    # taken from the json.dumps-based serializer that the reference's `_dump` replaced
    digest = hashlib.sha256()
    count = 0
    for text in _pinned_documents():
        digest.update(text.encode("utf-8"))
        count += 1
    assert count == 104
    assert digest.hexdigest() == "e3fdcf6b4d1db1cbf6e4653a0cd0680be4eff1b125342f2aee30adab783d567c"


# names with quotes, backslashes, control characters and non-ASCII text
NAMES = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6) | st.sampled_from(
    ['"', "\\", "\n", "\x00\x1f", "\u00e9", "\u2028", "\U0001f600", "a\"b\\c"])
PAYLOADS = st.recursive(
    NAMES | st.integers(-10 ** 30, 10 ** 30),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(NAMES, inner, max_size=4),
    max_leaves=20,
)


def test_pinned_documents_serialize_as_the_reference():
    """The 104 pinned markets, and each as parsed back from its document,
    whose equal literals and partitions are shared objects."""
    count = 0
    for m, families in _pinned_markets():
        text = serialize_market_document(m, **families)
        assert text == reference_serialize_market_document(m, **families)
        doc = parse_market_document(text)
        again = {"info_delays": doc.info_delays, "exec_delays": doc.exec_delays}
        assert serialize_market_document(doc.market, **again) == text
        assert reference_serialize_market_document(doc.market, **again) == text
        count += 1
    assert count == 104


def _named_market(states, asset_ids, prices, times):
    """A one-step market on the given names with prices cycled from
    `prices`, adapted to a grand filtration that splits off the first state
    at t = 1 and is discrete at t = 2, with an information and an execution
    delay family over it whose values are taken from `times`."""
    states = tuple(states)
    space = FiniteSpace.uniform(states, 1, 2)
    grand = Filtration((Partition.trivial(states), Partition.of(states, [states[:1], states[1:]]),
                        discrete_partition(states)))
    cycle = iter(prices * (3 * len(states) * len(asset_ids)))
    assets = {}
    for aid in asset_ids:
        first, rest, last = next(cycle), next(cycle), [next(cycle) for _ in states]
        assets[aid] = ((first,) * len(states), (first,) + (rest,) * (len(states) - 1), tuple(last))
    index_set = frozenset(asset_ids)
    market = Market(space, assets, (index_set,), {index_set: grand.restrict(2)}, grand)
    lag, start, step = times
    info = InformationDelayFamily({index_set: StoppingProcess.deterministic(
        [0, lag], Filtration.constant(Partition.trivial(states), 2))})
    execution = ExecutionDelayFamily(
        {aid: StoppingProcess.deterministic([start, max(start, 1) + step], grand) for aid in asset_ids},
        {asset_ids[0]: 3})
    return market, info, execution


@settings(max_examples=60, deadline=None)
@given(st.lists(NAMES, min_size=2, max_size=4, unique=True), st.lists(NAMES, min_size=1, max_size=2, unique=True),
       st.lists(st.integers(-3, 9) | st.fractions(-3, 9, max_denominator=6), min_size=1, max_size=5),
       st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 1)).filter(lambda t: max(t[1], 1) + t[2] <= 2))
def test_delayed_markets_serialize_as_the_reference(states, asset_ids, prices, times):
    """Names with quotes, backslashes, control characters and non-ASCII
    text, int and Fraction prices, and markets delayed in both modes."""
    m, info, execution = _named_market(states, asset_ids, prices, times)
    for market, families in ((m, {"info_delays": info, "exec_delays": execution}),
                             (information_delayed_market(m, info), {"exec_delays": execution}),
                             (delayed_market(m, execution), {"info_delays": info})):
        text = serialize_market_document(market, **families)
        assert text == reference_serialize_market_document(market, **families)
        doc = parse_market_document(text)
        again = {"info_delays": doc.info_delays, "exec_delays": doc.exec_delays}
        assert reference_serialize_market_document(doc.market, **again) == text


def test_memos_tell_equal_objects_apart():
    """Equal partitions and filtrations that are distinct objects, one
    filtration written at two depths, and an int, a Fraction and a float of
    equal value in one price row: each is written where it stands."""
    states = ("u", "m", "d")
    space = FiniteSpace.uniform(states, 2, 2)
    split = [("u",), ("m", "d")]
    grand = Filtration((Partition.trivial(states), Partition.of(states, split), discrete_partition(states)))
    twin = Filtration((Partition.trivial(states), Partition.of(states, split), Partition.of(states, split)))
    one, half = rat(1), rat(1, 2)
    assets = {"x": ((1, one, 1.0), (rat(2), rat(1, 1), rat(1)), (half, rat(1, 2), 0.5)),
              "y": ((one, one, one), (one, half, half), (rat(3, 4), half, 2))}
    index = (frozenset({"x"}), frozenset({"x", "y"}))
    market = Market(space, assets, index, {index[0]: twin, index[1]: Filtration(twin.partitions)}, grand)
    info = InformationDelayFamily({a: identity_delay(3, Filtration(twin.partitions)) for a in index})
    execution = ExecutionDelayFamily({a: identity_delay(3, grand) for a in assets})
    assert twin.at(2) == Partition.of(states, split) and twin.at(2) is not twin.at(1)
    for families in ({}, {"info_delays": info}, {"info_delays": info, "exec_delays": execution}):
        assert serialize_market_document(market, **families) == reference_serialize_market_document(market, **families)


def test_each_literal_object_is_formatted_once(monkeypatch):
    calls = []
    real = documents.format_rational
    monkeypatch.setattr(documents, "format_rational", lambda v: calls.append(v) or real(v))
    for m, families in itertools.islice(_pinned_markets(), 40, 70):
        calls.clear()
        serialize_market_document(m, **families)
        literals = {id(v): v for table in m.assets.values() for row in table for v in row}
        literals.update((id(v), v) for v in m.space.probability.values())
        assert sorted(map(id, calls)) == sorted(literals)


def test_each_partition_object_is_formatted_once_per_depth(monkeypatch):
    """A grand partition is written at depth 3, a trading or delay
    information partition at depth 5; each object's atoms are laid out once
    per depth it is written at, however many times it is written there."""
    calls = []
    real = documents._names
    monkeypatch.setattr(documents, "_names", lambda names, depth: calls.append((names, depth)) or real(names, depth))
    for m, families in itertools.islice(_pinned_markets(), 40, 70):
        calls.clear()
        serialize_market_document(m, **families)
        written = {(id(p), 3): p for p in m.grand_filtration.partitions}
        infos = [sp.info for family in families.values() for sp in family.delays.values()]
        written.update(((id(p), 5), p) for f in (*m.trading_filtrations.values(), *infos) for p in f.partitions)
        atoms = [(atom, depth + 1) for (_, depth), p in written.items() for atom in p.atoms]
        # an atom is written from its tuple, an index set from a sorted list
        assert sorted(c for c in calls if type(c[0]) is tuple) == sorted(atoms)


def test_each_partition_entry_is_built_once(monkeypatch):
    """Each distinct partition entry is checked and built once per parse:
    the grand, trading and delay-information filtrations that repeat it,
    within one filtration too, all hold that one Partition. Filtration
    entries are not kept, so equal entries give equal, distinct objects."""
    built = []
    real = Partition.__init__

    def counted(self, states, labels):
        built.append(labels)
        real(self, states, labels)

    monkeypatch.setattr(Partition, "__init__", counted)
    doc = json.loads(BINOMIAL.read_text())
    grand = doc["filtrations"]["grand"]
    assert doc["filtrations"]["trading"][0]["partitions"] == grand
    doc["delays"] = {"information": [dict(INFO_DELAY, info=[grand[0], grand[0]])],
                     "execution": [dict(EXEC_DELAY, info=grand)]}
    parsed = parse_market_document(json.dumps(doc))
    assert built == [(0, 0), (0, 1)]
    market = parsed.market
    coarse, fine = market.grand_filtration.partitions
    filtrations = (market.grand_filtration, market.trading_filtrations[frozenset({"stock"})],
                   parsed.info_delays.delays[frozenset({"stock"})].info, parsed.exec_delays.delays["stock"].info)
    assert [list(map(id, f.partitions)) for f in filtrations] == [[id(coarse), id(fine)]] * 2 + [
        [id(coarse), id(coarse)], [id(coarse), id(fine)]]
    assert filtrations[3] == filtrations[0] and filtrations[3] is not filtrations[0]


def _family_variants(m, rng):
    """A desk market's drawn information and execution families, each as
    drawn and with one delay's information one time longer or shorter."""
    info = gen_random_delay(DESK, "information", m, rng=rng)
    execution = gen_random_delay(DESK, "execution", m, rng=rng, capped=True)
    for fam, rebuild in ((info, InformationDelayFamily),
                         (execution, lambda delays: ExecutionDelayFamily(delays, execution.caps))):
        yield fam
        key = sorted(fam.delays, key=sorted)[0]
        sp = fam.delays[key]
        for info_f in (sp.info.extend_to(len(sp.info) + 1), sp.info.restrict(len(sp.info) - 1)):
            yield rebuild({**fam.delays, key: StoppingProcess(sp.values, info_f)})


def test_validators_agree_with_the_document_format():
    """A family validates on a market exactly when the document that holds
    both parses: the validators ask the information of a delay to cover the
    grid the format writes for it (0..n or 0..n_ext)."""
    outcomes = set()
    for i in range(12):
        rng = _rng(DESK.seed, "agree", i)
        m = gen_martingale_market(DESK, rng=rng)
        for fam in _family_variants(m, rng):
            if isinstance(fam, InformationDelayFamily):
                valid, text = not validate_information_family(m, fam), serialize_market_document(m, info_delays=fam)
            else:
                valid, text = not validate_execution_family(m, fam), serialize_market_document(m, exec_delays=fam)
            try:
                parse_market_document(text)
                parses = True
            except DocumentError:
                parses = False
            assert valid == parses, (i, fam)
            outcomes.add(valid)
    assert outcomes == {True, False}


def _depth(node) -> int:
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    return 1 + max(map(_depth, children), default=0) if isinstance(node, (list, dict)) else 0


def _emit(node, depth: int = 0) -> str:
    """A JSON tree written with the emitter's layout pieces only."""
    if type(node) is str:
        return documents._quote(node)
    if type(node) is int:
        return int.__repr__(node)
    if type(node) is list:
        return documents._array([_emit(v, depth + 1) for v in node], depth)
    return documents._object([(k, _emit(v, depth + 1)) for k, v in node.items()], depth)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS.filter(lambda payload: _depth(payload) <= 7))
def test_emitter_matches_json_dumps(payload):
    """The emitter's lists and objects, empty ones included, at every depth
    a document reaches (seven nested levels, down to a delay's atoms), are
    laid out as json.dumps lays them out."""
    assert _emit(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("value", [1.5, True, None, ("a",), [1, False], {"k": None}, {1: "a"}])
def test_emitter_rejects_other_types(value):
    """An asset id that is not a str, or a price that is not a number,
    raises TypeError, as it did in the reference serializer. A hashable
    value is put in as an asset id, any other as a price."""
    try:
        hash(value)
        aid, price = value, rat(1)
    except TypeError:
        aid, price = "stock", value
    market = binomial_market(1, 2, 1)
    grand = market.grand_filtration
    market = Market(market.space, {aid: ((price, rat(1)), (rat(2), rat(1)))}, (frozenset({aid}),),
                    {frozenset({aid}): grand}, grand)
    for serialize in (serialize_market_document, reference_serialize_market_document):
        with pytest.raises(TypeError):
            serialize(market)


@settings(max_examples=60, deadline=None)
@given(st.lists(NAMES, min_size=2, max_size=4, unique=True), st.lists(NAMES, min_size=1, max_size=2, unique=True))
def test_documents_with_any_names_serialize_as_json_dumps(states, asset_ids):
    states = tuple(states)
    space = FiniteSpace.uniform(states, 1, 2)
    grand = Filtration((Partition.trivial(states), Partition.of(states, [states[:1], states[1:]]),
                        discrete_partition(states)))
    flat = tuple(rat(1) for _ in states)
    assets = {aid: (flat, flat, tuple(rat(i + k, 3) for i in range(len(states)))) for k, aid in enumerate(asset_ids)}
    index_set = frozenset(asset_ids)
    market = Market(space, assets, (index_set,), {index_set: grand.restrict(2)}, grand)
    text = serialize_market_document(market)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert parse_market_document(text).market == market


def _nodes(node, path=()):
    """Every position below the root of a JSON tree, as (key path, value)."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _is_list_of_lists(node) -> bool:
    return isinstance(node, list) and bool(node) and all(isinstance(v, list) for v in node)


def _is_partition_site(path) -> bool:
    """A per-time position of the grand, a trading or a delay-information filtration."""
    if not isinstance(path[-1], int):
        return False
    return (len(path) == 3 and path[:2] == ("filtrations", "grand")
            or len(path) == 5 and (path[0], path[3]) in {("filtrations", "partitions"), ("delays", "info")})


TARGETS = {
    "drop": lambda path, node: True,
    "retype": lambda path, node: True,
    "empty": lambda path, node: isinstance(node, (list, dict, str)),
    "duplicate": lambda path, node: isinstance(path[-1], int),   # a repeated partition, atom or row
    "add-empty": lambda path, node: _is_list_of_lists(node),     # an empty atom, row or partition
    "transplant": lambda path, node: _is_partition_site(path),   # one site's partition, valid or not, at another
}


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, op: str, pick: int, junk) -> None:
    """Apply `op` in place at the pick-th position of doc that suits it."""
    targets = [path for path, node in _nodes(doc) if TARGETS[op](path, node)]
    if not targets:
        return
    *head, key = targets[pick % len(targets)]
    parent = _at(doc, head)
    node = parent[key]
    if op == "drop":
        del parent[key]
    elif op == "retype":
        parent[key] = copy.deepcopy(junk)
    elif op == "empty":
        parent[key] = type(node)()
    elif op == "duplicate":
        parent.insert(key, copy.deepcopy(node))
    elif op == "transplant":
        parent[key] = copy.deepcopy(_at(doc, targets[pick // len(targets) % len(targets)]))
    else:
        node.insert(pick % (len(node) + 1), [])


JUNK = st.sampled_from([0, 1, -1, 7, True, None, 1.5, "", "x", "1/2", [], {}, [[]], ["u"], {"u": 1}])
MUTATION = st.tuples(st.sampled_from(sorted(TARGETS)), st.integers(min_value=0, max_value=10 ** 6), JUNK)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SCENARIOS), st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_scenarios_never_crash(path, mutations):
    doc = json.loads(path.read_text(encoding="utf-8"))
    for op, pick, junk in mutations:
        _mutate(doc, op, pick, junk)
    text = json.dumps(doc)
    try:
        parse_market_document(text)
    except DocumentError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        mutant = Path(tmp) / "mutant.json"
        mutant.write_text(text, encoding="utf-8")
        out = str(Path(tmp) / "delayed.json")
        for argv in (["validate", str(mutant)],
                     ["check", str(mutant)], ["check", str(mutant), "--apply-delay"],
                     ["delay", str(mutant), "--mode", "info", "--out", out],
                     ["delay", str(mutant), "--mode", "exec", "--out", out]):
            assert main(argv) in (0, 1, 2), argv


def _outcome(parse, text):
    """("ok", the parsed document's canonical bytes) or ("error", its problems)."""
    try:
        doc = parse(text)
    except DocumentError as exc:
        return "error", exc.problems
    return "ok", serialize_market_document(doc.market, doc.info_delays, doc.exec_delays)


@functools.cache
def _differential_sources() -> tuple[str, ...]:
    return tuple(p.read_text(encoding="utf-8") for p in SCENARIOS) + tuple(_pinned_documents())


def test_pinned_documents_parse_as_the_reference():
    for text in _differential_sources():
        outcome = _outcome(parse_market_document, text)
        assert outcome == ("ok", text)
        assert outcome == _outcome(reference_parse_market_document, text)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10 ** 6), st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_documents_parse_as_the_reference(pick, mutations):
    sources = _differential_sources()
    doc = json.loads(sources[pick % len(sources)])
    for op, where, junk in mutations:
        _mutate(doc, op, where, junk)
    text = json.dumps(doc)
    assert _outcome(parse_market_document, text) == _outcome(reference_parse_market_document, text)


# partitions that are not lists of lists of names, put where an equal-keyed
# valid one was read before: the atoms of a flat list of strings are its
# characters, and a list or an object in an atom makes its key unhashable
MALFORMED_PARTITIONS = {
    "nested-list-in-atom": [["u", ["d"]]],
    "object-in-atom": [["u", {"d": 1}]],
    "integer-in-atom": [["u", 1]],
    "flat-names": ["u", "d"],
    "flat-joined-names": ["ud"],
}


def _grand_site(d, bad):
    d["filtrations"]["grand"][1] = bad


def _trading_site(d, bad):
    d["filtrations"]["trading"][0]["partitions"][1] = bad


def _information_site(d, bad):
    d["delays"] = {"information": [dict(INFO_DELAY, info=[[["u", "d"]], bad])]}


def _execution_site(d, bad):
    d["delays"] = {"execution": [dict(EXEC_DELAY, info=[[["u", "d"]], bad])]}


PARTITION_SITES = {"filtrations.grand": _grand_site, "filtrations.trading[0]": _trading_site,
                   "delays.information[0].info": _information_site, "delays.execution[0].info": _execution_site}


@pytest.mark.parametrize("site", PARTITION_SITES)
@pytest.mark.parametrize("kind", MALFORMED_PARTITIONS)
def test_malformed_partition_is_reported_as_before(site, kind, tmp_path, capsys):
    doc = json.loads(BINOMIAL.read_text())
    PARTITION_SITES[site](doc, copy.deepcopy(MALFORMED_PARTITIONS[kind]))
    text = json.dumps(doc)
    expected = _outcome(reference_parse_market_document, text)
    assert expected == ("error", [f"{site}[t=1]: a partition must be a list of atoms (lists of state names)"])
    assert _outcome(parse_market_document, text) == expected
    path = tmp_path / "malformed.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "".join(f"invalid: {p}\n" for p in expected[1])
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {'; '.join(expected[1])}\n"
