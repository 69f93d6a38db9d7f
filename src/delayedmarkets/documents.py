"""Market documents: exact JSON serialization of markets and delay families.

Rationals travel as "p/q" strings, filtrations as explicit per-time atom
lists of state names, so documents are diff-stable and self-validating
without reconstruction logic. Parsing is strict: unknown fields are
rejected and each problem is reported with the invariant it violates, an
over-long integer included. Problems are collected in stages, and parsing
stops after the first stage that has any. One reader, `_objects`, reads
every object list (the states, the trading filtrations and both delay
tables); within a list, the entries after the first problem are checked
for their fields only. Each parse keeps its own rational literals and
partitions by content, so each distinct literal is parsed and each
distinct partition entry checked once per document, on C
builtins where the check succeeds; the per-item loops run only to word a
failure, and a location such as states[3] or filtrations.grand[t=2] is
worded only when a problem there is reported. A partition entry is looked
up by the JSON entry itself, and built by the Partition constructor in
one pass; every filtration entry is a new Filtration of the shared partitions.
Serialization is canonical, so parse -> serialize -> parse is the
identity. The canonical bytes are the json.dumps layout at indent=2 plus
a final newline, written directly in the document's layout by
`serialize_market_document`, which formats each distinct literal and
partition object once per call.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain, repeat

from .delays import (
    ExecutionDelayFamily,
    InformationDelayFamily,
    validate_execution_family,
    validate_information_family,
)
from .frozen import Frozen
from .markets import Market, validate_market
from .probability import Filtration, FiniteSpace, Partition, StoppingProcess
from .rationals import Rational, format_rational, parse_rational, sums_to_one, too_many_digits

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """A document failed to parse or validate; carries every problem found."""

    def __init__(self, problems):
        problems = [problems] if isinstance(problems, str) else list(problems)
        super().__init__("; ".join(problems))
        self.problems = problems


class MarketDocument(Frozen):
    _fields = ("market", "info_delays", "exec_delays")

    def __init__(self, market: Market, info_delays: InformationDelayFamily | None = None,
                 exec_delays: ExecutionDelayFamily | None = None):
        self.__dict__.update(market=market, info_delays=info_delays, exec_delays=exec_delays)


class _Literals(dict):
    """One document's rational literals by text. A missing literal is
    parsed and kept, so a row of prices is one map over the dict; a bad
    one raises ValueError from parse_rational and is not kept."""

    __slots__ = ()

    def __missing__(self, text) -> Rational:
        value = self[text] = parse_rational(text)
        return value

    def one(self, text) -> Rational:
        try:
            return self[text]
        except TypeError:  # unhashable, so not a string: parse_rational words it
            return parse_rational(text)

    def row(self, texts) -> tuple[Rational, ...]:
        try:
            return tuple(map(self.__getitem__, texts))
        except TypeError:
            return tuple(map(self.one, texts))


# the fields each object of a document may hold, and must
_DOCUMENT_FIELDS = frozenset({"format_version", "states", "grid", "assets", "index_system", "filtrations", "delays"})
_REQUIRED_DOCUMENT_FIELDS = _DOCUMENT_FIELDS - {"delays"}
_STATE_FIELDS = frozenset({"name", "probability"})
_GRID_FIELDS = frozenset({"n", "n_ext"})
_FILTRATIONS_FIELDS = frozenset({"grand", "trading"})
_TRADING_FIELDS = frozenset({"index_set", "partitions"})
_DELAYS_FIELDS = frozenset({"information", "execution"})
_INFO_DELAY_FIELDS = frozenset({"index_set", "values", "info"})
_EXEC_DELAY_FIELDS = frozenset({"asset", "values", "info", "cap"})
_REQUIRED_EXEC_DELAY_FIELDS = _EXEC_DELAY_FIELDS - {"cap"}


def _require_keys(obj: dict, allowed: frozenset[str], required: frozenset[str], where: str, problems: list[str],
                  index: int | None = None):
    """Report obj's unknown and missing fields, if any, at where, or at
    where[index] for an entry of a list."""
    keys = obj.keys()
    if keys <= allowed and keys >= required:
        return
    if index is not None:
        where = f"{where}[{index}]"
    unknown = set(obj) - allowed
    for key in sorted(unknown):
        problems.append(f"{where}: unknown field {key!r}")
    for key in sorted(required - set(obj)):
        problems.append(f"{where}: missing field {key!r}")


def _objects(entries, where: str, allowed: frozenset[str], required: frozenset[str], problems: list[str]):
    """Yield (i, entry) for each entry of the list `where` that is an object
    with every required field and no other. Once any problem is on record,
    later entries are checked for their fields only and not yielded."""
    if not isinstance(entries, list):
        problems.append(f"{where}: expected a list")
        return
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            problems.append(f"{where}[{i}]: expected an object")
            continue
        _require_keys(entry, allowed, required, where, problems, i)
        if not problems:
            yield i, entry


# a JSON integer is exactly an int: bool is an int subclass, but true is not a grid time
_INT = frozenset({int})
_NOT_ASSET_IDS = "expected a non-empty list of asset ids"


def _asset_ids(entry) -> frozenset[str] | None:
    """The index set a JSON entry names, or None: the caller words _NOT_ASSET_IDS."""
    if isinstance(entry, list) and entry and all(map(isinstance, entry, repeat(str))):
        return frozenset(entry)
    return None


# The readers below return what they read or, as a str, the problem with it
# located relative to the caller's entry, which the caller then names.

def _parse_partition(entry, states, known: list[tuple[list, Partition]]) -> Partition | str:
    """A partition entry, kept in `known` with its JSON entry once it parses.
    Only successes are kept, so a malformed entry is reported at every place
    it occurs. A later entry equal to a kept one is the same Partition: only
    a list of lists of the same names equals it, since a name is a str and a
    str equals nothing but a str."""
    for raw, partition in known:
        if raw == entry:
            return partition
    if (isinstance(entry, list) and all(map(isinstance, entry, repeat(list)))
            and all(map(isinstance, chain.from_iterable(entry), repeat(str)))):
        # each name numbered by its atom: a repeated or a missing name shows
        number = {s: i for i, atom in enumerate(entry) for s in atom}
        if len(number) != sum(map(len, entry)) or number.keys() != set(states):
            return ": atoms must partition the state set"
        if not all(entry):
            return ": empty atom"
        partition = Partition(states, tuple(map(number.__getitem__, states)))
        known.append((entry, partition))
        return partition
    return ": a partition must be a list of atoms (lists of state names)"


def _parse_filtration(entry, states, length: int, known: list) -> Filtration | str:
    if not isinstance(entry, list) or len(entry) != length:
        return f": expected {length} per-time partitions"
    parts = []
    for t, p in enumerate(entry):
        p = _parse_partition(p, states, known)
        if type(p) is str:
            return f"[t={t}]{p}"
        parts.append(p)
    try:
        return Filtration(tuple(parts))
    except ValueError as exc:
        return f": {exc}"


def _resolve_info(entry, states, length: int, grand: Filtration, known: list) -> Filtration | str:
    if entry == "trivial":
        return Filtration.constant(Partition.trivial(states), length)
    if entry == "grand":
        return grand.extend_to(length)
    if isinstance(entry, list):
        return _parse_filtration(entry, states, length, known)
    return ": delay information must be 'trivial', 'grand', or an inline filtration"


def _parse_values(entry, length: int, n_states: int) -> list | str:
    if not isinstance(entry, list) or len(entry) != length:
        return f": expected {length} time rows of grid values"
    for t, row in enumerate(entry):
        if not isinstance(row, list) or len(row) != n_states or not _INT.issuperset(map(type, row)):
            return f"[t={t}]: expected {n_states} integer grid values"
    return entry  # StoppingProcess turns each row into an int tuple


# a JSON string, or a JSON number split as json.scanner.NUMBER_RE splits it;
# compiled on first use, since only a failed parse needs it
_TOKEN = r'"(?:[^"\\]|\\.)*"|(-?(?:0|[1-9][0-9]*))(\.[0-9]+)?([eE][-+]?[0-9]+)?'


def _long_integer(text: str) -> str:
    """The problem behind json.loads's plain ValueError: an integer with
    more digits than int() reads from text, located as a parse error."""
    for match in re.finditer(_TOKEN, text):
        integer, fraction, exponent = match.groups()
        if integer and fraction is None and exponent is None:
            digits = len(integer.lstrip("-"))
            if digits > sys.get_int_max_str_digits():
                pos = match.start()
                line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
                return f"parse error at line {line}, column {column}: integer too long: {too_many_digits(digits)}"
    return "parse error: integer too long"


def parse_market_document(text: str) -> MarketDocument:
    """Parse and fully validate a JSON market document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError([f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]) from None
    except RecursionError:
        raise DocumentError(["document nests too deeply"]) from None
    except ValueError:  # json reads an integer with int(), which caps its digits
        raise DocumentError([_long_integer(text)]) from None
    if not isinstance(doc, dict):
        raise DocumentError(["document root must be an object"])
    problems: list[str] = []
    literals = _Literals()
    known: list[tuple[list, Partition]] = []  # each partition parsed so far, with its JSON entry
    _require_keys(doc, _DOCUMENT_FIELDS, _REQUIRED_DOCUMENT_FIELDS, "document", problems)
    if problems:
        raise DocumentError(problems)
    if type(doc["format_version"]) is not int or doc["format_version"] != FORMAT_VERSION:
        raise DocumentError([f"unsupported format_version {doc['format_version']!r}"])

    entries = doc["states"]
    if not isinstance(entries, list) or not entries:
        raise DocumentError(["states: expected a non-empty list"])
    states: list[str] = []
    probability = {}
    for i, entry in _objects(entries, "states", _STATE_FIELDS, _STATE_FIELDS, problems):
        name = entry["name"]
        if not isinstance(name, str):
            problems.append(f"states[{i}]: name must be a string")
            continue
        states.append(name)
        try:
            p = literals.one(entry["probability"])
            if p.numerator <= 0:
                problems.append(f"states[{i}]: probability must be strictly positive")
            probability[name] = p
        except ValueError as exc:
            problems.append(f"states[{i}]: {exc}")
    if len(set(states)) != len(states):
        problems.append("states: duplicate names")
    if not problems and not sums_to_one(probability.values()):
        problems.append("measure not normalized: probabilities must sum to exactly 1")

    grid = doc["grid"]
    _require_keys(grid if isinstance(grid, dict) else {}, _GRID_FIELDS, _GRID_FIELDS, "grid", problems)
    if problems:
        raise DocumentError(problems)
    horizon, extended = grid["n"], grid["n_ext"]
    if not (type(horizon) is int and type(extended) is int and 1 <= horizon <= extended):
        raise DocumentError(["grid: need integers 1 <= n <= n_ext"])
    # every check of FiniteSpace is made above, so a ValueError from it is the program's fault
    space = FiniteSpace(tuple(states), probability, horizon, extended)
    states = space.states

    assets = {}
    if not isinstance(doc["assets"], dict) or not doc["assets"]:
        raise DocumentError(["assets: expected a non-empty object"])
    for aid, table in doc["assets"].items():
        if not isinstance(table, list) or len(table) != extended + 1:
            problems.append(f"assets[{aid}]: expected {extended + 1} time rows")
            continue
        rows = []
        for t, row in enumerate(table):
            if not isinstance(row, list) or len(row) != len(states):
                problems.append(f"assets[{aid}][t={t}]: expected {len(states)} entries")
                break
            try:
                rows.append(literals.row(row))
            except ValueError as exc:
                problems.append(f"assets[{aid}][t={t}]: {exc}")
                break
        else:
            assets[aid] = tuple(rows)
    if problems:
        raise DocumentError(problems)

    if not isinstance(doc["index_system"], list):
        raise DocumentError(["index_system: expected a list of index sets"])
    index_system = []
    for i, ids in enumerate(doc["index_system"]):
        index_set = _asset_ids(ids)
        if index_set is None:
            problems.append(f"index_system[{i}]: {_NOT_ASSET_IDS}")
        else:
            index_system.append(index_set)

    filt = doc["filtrations"]
    _require_keys(filt if isinstance(filt, dict) else {}, _FILTRATIONS_FIELDS, _FILTRATIONS_FIELDS,
                  "filtrations", problems)
    if problems:
        raise DocumentError(problems)
    grand = _parse_filtration(filt["grand"], states, extended + 1, known)
    if type(grand) is str:
        problems.append(f"filtrations.grand{grand}")
    trading = {}
    where = "filtrations.trading"
    for i, entry in _objects(filt["trading"], where, _TRADING_FIELDS, _TRADING_FIELDS, problems):
        index_set = _asset_ids(entry["index_set"])
        if index_set is None:
            problems.append(f"{where}[{i}].index_set: {_NOT_ASSET_IDS}")
        declared = entry["partitions"]
        if not isinstance(declared, list) or not horizon + 1 <= len(declared) <= extended + 1:
            problems.append(f"{where}[{i}]: expected between {horizon + 1} and {extended + 1} per-time partitions")
            continue
        f = _parse_filtration(declared, states, len(declared), known)
        if type(f) is str:
            problems.append(f"{where}[{i}]{f}")
        elif index_set is not None:
            if index_set in trading:
                problems.append(f"{where}[{i}]: duplicate trading filtration for index set {sorted(index_set)}")
            trading[index_set] = f
    if problems:
        raise DocumentError(problems)

    # every check of Market is made above, so a ValueError from it is the program's fault
    market = Market(space, assets, tuple(index_system), trading, grand)
    report = validate_market(market)
    if report:
        raise DocumentError(report)

    info_fam = exec_fam = None
    delays = doc.get("delays")
    if delays is not None:
        if not isinstance(delays, dict):
            raise DocumentError(["delays: expected an object"])
        _require_keys(delays, _DELAYS_FIELDS, frozenset(), "delays", problems)
        if "information" in delays:
            info_fam = _parse_info_delays(delays["information"], market, problems, known)
        if "execution" in delays:
            exec_fam = _parse_exec_delays(delays["execution"], market, problems, known)
        if problems:
            raise DocumentError(problems)
    return MarketDocument(market, info_fam, exec_fam)


def _parse_info_delays(entries, market: Market, problems: list[str], known: list):
    space = market.space
    delays = {}
    where = "delays.information"
    for i, entry in _objects(entries, where, _INFO_DELAY_FIELDS, _INFO_DELAY_FIELDS, problems):
        index_set = _asset_ids(entry["index_set"])
        if index_set is None:
            problems.append(f"{where}[{i}].index_set: {_NOT_ASSET_IDS}")
        values = _parse_values(entry["values"], space.horizon + 1, len(space.states))
        if type(values) is str:
            problems.append(f"{where}[{i}]{values}")
        info = _resolve_info(entry["info"], space.states, space.horizon + 1, market.grand_filtration, known)
        if type(info) is str:
            problems.append(f"{where}[{i}].info{info}")
        elif index_set is not None and type(values) is not str:
            if index_set in delays:
                problems.append(f"{where}[{i}]: duplicate information delay for index set {sorted(index_set)}")
            delays[index_set] = StoppingProcess(values, info)
    if problems:
        return None
    fam = InformationDelayFamily(delays)
    problems.extend(validate_information_family(market, fam))
    return fam if not problems else None


def _parse_exec_delays(entries, market: Market, problems: list[str], known: list):
    space = market.space
    delays = {}
    caps = {}
    where = "delays.execution"
    for i, entry in _objects(entries, where, _EXEC_DELAY_FIELDS, _REQUIRED_EXEC_DELAY_FIELDS, problems):
        asset = entry["asset"]
        if not isinstance(asset, str):
            problems.append(f"{where}[{i}]: asset must be a string")
            continue
        values = _parse_values(entry["values"], space.horizon + 1, len(space.states))
        if type(values) is str:
            problems.append(f"{where}[{i}]{values}")
        info = _resolve_info(entry["info"], space.states, space.extended_horizon + 1, market.grand_filtration, known)
        if type(info) is str:
            problems.append(f"{where}[{i}].info{info}")
        if type(values) is str or type(info) is str:
            continue
        if asset in delays:
            problems.append(f"{where}[{i}]: duplicate execution delay for asset {asset!r}")
        delays[asset] = StoppingProcess(values, info)
        if "cap" in entry:
            if type(entry["cap"]) is not int:
                problems.append(f"{where}[{i}]: cap must be an integer")
            else:
                caps[asset] = entry["cap"]
    if problems:
        return None
    fam = ExecutionDelayFamily(delays, caps)
    problems.extend(validate_execution_family(market, fam))
    return fam if not problems else None


_quote = json.encoder.encode_basestring_ascii
# json.dumps's indent=2 layout: the newline and indentation before a line at
# each depth, and the text that opens, separates and closes a non-empty list
_INDENT = tuple("\n" + "  " * depth for depth in range(8))
_OPEN = tuple("[" + inner for inner in _INDENT[1:])
_NEXT = tuple("," + inner for inner in _INDENT[1:])
_CLOSE = tuple(indent + "]" for indent in _INDENT)


def _array(texts: list[str], depth: int) -> str:
    """A JSON list at `depth` of items already laid out one depth deeper."""
    if not texts:
        return "[]"
    return _OPEN[depth] + _NEXT[depth].join(texts) + _CLOSE[depth]


def _object(fields: list[tuple[str, str]], depth: int) -> str:
    """A JSON object at `depth` of (key, value text) pairs, laid out as `_array` does."""
    if not fields:
        return "{}"
    inner = _INDENT[depth + 1]
    return "{" + inner + _NEXT[depth].join([_quote(k) + ": " + v for k, v in fields]) + _INDENT[depth] + "}"


def _fields(depth: int, *keys: str) -> str:
    """A %-template of a JSON object at `depth` with these keys, in order."""
    return _object([(k, "%s") for k in keys], depth)


# the objects a document holds one of per state, index set or asset
_STATE = _fields(2, "name", "probability")
_TRADING = _fields(3, "index_set", "partitions")
_INFO_DELAY = _fields(3, "index_set", "values", "info")
_EXEC_DELAY = _fields(3, "asset", "values", "info")
_CAPPED_EXEC_DELAY = _fields(3, "asset", "values", "info", "cap")


def _names(names, depth: int) -> str:
    return _array(list(map(_quote, names)), depth)


def _values(sp: StoppingProcess) -> str:
    """A delay table, the value of a delay entry's "values" field."""
    return _array([_array(list(map(int.__repr__, row)), 5) for row in sp.values], 4)


class _Writer:
    """One serialization's memos, keyed by object identity: the quoted text
    of each price or probability, and the text of each Partition at each
    depth. Every keyed object is reachable from the serialized market and
    families for the whole call, so no id is reused within it; a memo keyed
    by value would hash each Fraction in Python. A filtration is laid out
    from its partitions' texts each time it is written.
    """

    __slots__ = ("values", "partitions")

    def __init__(self):
        self.values: dict[int, str] = {}
        self.partitions: dict[int, dict[int, str]] = {}

    def value(self, v) -> str:
        text = self.values.get(id(v))
        if text is None:
            text = self.values[id(v)] = _quote(format_rational(v))
        return text

    def prices(self, row) -> str:
        """A price row, at depth 3."""
        return _array(list(map(self.value, row)), 3)

    def partition(self, p: Partition, depth: int) -> str:
        memo = self.partitions.setdefault(depth, {})
        text = memo.get(id(p))
        if text is None:
            text = memo[id(p)] = _array([_names(atom, depth + 1) for atom in p.atoms], depth)
        return text

    def filtration(self, f: Filtration, depth: int) -> str:
        return _array([self.partition(p, depth + 1) for p in f.partitions], depth)


def serialize_market_document(
    market: Market,
    info_delays: InformationDelayFamily | None = None,
    exec_delays: ExecutionDelayFamily | None = None,
) -> str:
    """Canonical JSON for a market and optional delay families: the
    json.dumps layout at indent=2 plus a final newline, written directly,
    with each distinct literal and partition object formatted once."""
    w = _Writer()
    space = market.space
    states = [_STATE % (_quote(s), w.value(space.probability[s])) for s in space.states]
    assets = [(aid, _array(list(map(w.prices, market.assets[aid])), 2)) for aid in sorted(market.assets)]
    trading = [_TRADING % (_names(sorted(a), 4), w.filtration(market.trading_filtrations[a], 4))
               for a in market.index_system]
    fields = [
        ("format_version", int.__repr__(FORMAT_VERSION)),
        ("states", _array(states, 1)),
        ("grid", _object([("n", int.__repr__(space.horizon)), ("n_ext", int.__repr__(space.extended_horizon))], 1)),
        ("assets", _object(assets, 1)),
        ("index_system", _array([_names(sorted(a), 2) for a in market.index_system], 1)),
        ("filtrations", _object([("grand", w.filtration(market.grand_filtration, 2)),
                                 ("trading", _array(trading, 2))], 1)),
    ]
    delays = []
    if info_delays is not None:
        entries = sorted(info_delays.delays.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        delays.append(("information", _array(
            [_INFO_DELAY % (_names(sorted(a), 4), _values(sp), w.filtration(sp.info, 4)) for a, sp in entries], 2)))
    if exec_delays is not None:
        entries = []
        for asset in sorted(exec_delays.delays):
            sp = exec_delays.delays[asset]
            head = (_quote(asset), _values(sp), w.filtration(sp.info, 4))
            if asset in exec_delays.caps:
                entries.append(_CAPPED_EXEC_DELAY % (*head, int.__repr__(exec_delays.caps[asset])))
            else:
                entries.append(_EXEC_DELAY % head)
        delays.append(("execution", _array(entries, 2)))
    if delays:
        fields.append(("delays", _object(delays, 1)))
    return _object(fields, 0) + "\n"
