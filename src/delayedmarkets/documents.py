"""Market documents: exact JSON serialization of markets and delay families.

Rationals travel as "p/q" strings, filtrations as explicit per-time atom
lists of state names, so documents are diff-stable and self-validating
without reconstruction logic. Parsing is strict: unknown fields are
rejected and every structural problem is reported with the invariant it
violates. Each parse keeps its own caches of rational literals and
partitions, so a repeated literal or partition is parsed and checked
once per document. Serialization is canonical, so parse -> serialize ->
parse is the identity. The canonical bytes are the json.dumps layout at
indent=2 plus a final newline, produced by `_dump`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat

from .delays import ExecutionDelayFamily, InformationDelayFamily
from .markets import Market, validate_market
from .probability import Filtration, FiniteSpace, Partition, StoppingProcess
from .rationals import Rational, format_rational, parse_rational, sums_to_one

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """A document failed to parse or validate; carries every problem found."""

    def __init__(self, problems):
        problems = [problems] if isinstance(problems, str) else list(problems)
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class MarketDocument:
    market: Market
    info_delays: InformationDelayFamily | None = None
    exec_delays: ExecutionDelayFamily | None = None


class _Interner:
    """One document's parsed rational literals and partitions, by content.

    Only successes are kept, so a malformed entry is reported at every
    place it occurs, with the same wording as without the cache.
    """

    __slots__ = ("rationals", "partitions")

    def __init__(self):
        self.rationals: dict[str, Rational] = {}
        self.partitions: dict[tuple[tuple[str, ...], ...], Partition] = {}

    def rational(self, text) -> Rational:
        value = self.rationals.get(text) if type(text) is str else None
        if value is None:
            value = self.rationals[text] = parse_rational(text)
        return value


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str, problems: list[str]):
    unknown = set(obj) - allowed
    for key in sorted(unknown):
        problems.append(f"{where}: unknown field {key!r}")
    for key in sorted(required - set(obj)):
        problems.append(f"{where}: missing field {key!r}")


def _is_int(value) -> bool:
    """JSON integers only: bool is an int subclass, but true is not a grid time."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_names(entry) -> bool:
    return isinstance(entry, list) and all(map(isinstance, entry, repeat(str)))


def _parse_asset_ids(entry, where: str, problems: list[str]) -> frozenset[str] | None:
    if not _is_names(entry) or not entry:
        problems.append(f"{where}: expected a non-empty list of asset ids")
        return None
    return frozenset(entry)


def _parse_partition(entry, states, where: str, problems: list[str], cache: _Interner) -> Partition | None:
    if not isinstance(entry, list) or not all(map(_is_names, entry)):
        problems.append(f"{where}: a partition must be a list of atoms (lists of state names)")
        return None
    # keyed only once every atom is a list of names: a flat list of
    # strings would give the same key as the atoms of its characters
    key = tuple(map(tuple, entry))
    partition = cache.partitions.get(key)
    if partition is None:
        seen = [s for atom in entry for s in atom]
        if sorted(seen) != sorted(states):
            problems.append(f"{where}: atoms must partition the state set")
            return None
        try:
            partition = Partition.of(states, entry)
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            return None
        cache.partitions[key] = partition
    return partition


def _parse_filtration(entry, states, length: int, where: str, problems: list[str],
                      cache: _Interner) -> Filtration | None:
    if not isinstance(entry, list) or len(entry) != length:
        problems.append(f"{where}: expected {length} per-time partitions")
        return None
    parts = []
    for t, sub in enumerate(entry):
        p = _parse_partition(sub, states, f"{where}[t={t}]", problems, cache)
        if p is None:
            return None
        parts.append(p)
    try:
        return Filtration(tuple(parts))
    except ValueError as exc:
        problems.append(f"{where}: {exc}")
        return None


def _resolve_info(entry, states, length: int, grand: Filtration, where: str, problems: list[str],
                  cache: _Interner):
    if entry == "trivial":
        return Filtration.constant(Partition.trivial(states), length)
    if entry == "grand":
        return grand.extend_to(length) if len(grand) < length else grand.restrict(length)
    if isinstance(entry, list):
        return _parse_filtration(entry, states, length, where, problems, cache)
    problems.append(f"{where}: delay information must be 'trivial', 'grand', or an inline filtration")
    return None


def parse_market_document(text: str) -> MarketDocument:
    """Parse and fully validate a JSON market document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError([f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]) from None
    except RecursionError:
        raise DocumentError(["document nests too deeply"]) from None
    if not isinstance(doc, dict):
        raise DocumentError(["document root must be an object"])
    problems: list[str] = []
    cache = _Interner()
    _require_keys(
        doc,
        {"format_version", "states", "grid", "assets", "index_system", "filtrations", "delays"},
        {"format_version", "states", "grid", "assets", "index_system", "filtrations"},
        "document", problems,
    )
    if problems:
        raise DocumentError(problems)
    if not _is_int(doc["format_version"]) or doc["format_version"] != FORMAT_VERSION:
        raise DocumentError([f"unsupported format_version {doc['format_version']!r}"])

    entries = doc["states"]
    if not isinstance(entries, list) or not entries:
        raise DocumentError(["states: expected a non-empty list"])
    states: list[str] = []
    probability = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            problems.append(f"states[{i}]: expected an object")
            continue
        _require_keys(entry, {"name", "probability"}, {"name", "probability"}, f"states[{i}]", problems)
        if problems:
            continue
        if not isinstance(entry["name"], str):
            problems.append(f"states[{i}]: name must be a string")
            continue
        states.append(entry["name"])
        try:
            p = cache.rational(entry["probability"])
            if p <= 0:
                problems.append(f"states[{i}]: probability must be strictly positive")
            probability[entry["name"]] = p
        except ValueError as exc:
            problems.append(f"states[{i}]: {exc}")
    if len(set(states)) != len(states):
        problems.append("states: duplicate names")
    if not problems and not sums_to_one(probability.values()):
        problems.append("measure not normalized: probabilities must sum to exactly 1")

    grid = doc["grid"]
    _require_keys(grid if isinstance(grid, dict) else {}, {"n", "n_ext"}, {"n", "n_ext"}, "grid", problems)
    if problems:
        raise DocumentError(problems)
    horizon, extended = grid["n"], grid["n_ext"]
    if not (_is_int(horizon) and _is_int(extended) and 1 <= horizon <= extended):
        raise DocumentError(["grid: need integers 1 <= n <= n_ext"])
    try:
        space = FiniteSpace(tuple(states), probability, horizon, extended)
    except ValueError as exc:
        raise DocumentError([f"states: {exc}"]) from None

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
                rows.append(tuple(map(cache.rational, row)))
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
        index_set = _parse_asset_ids(ids, f"index_system[{i}]", problems)
        if index_set is not None:
            index_system.append(index_set)

    filt = doc["filtrations"]
    _require_keys(filt if isinstance(filt, dict) else {}, {"grand", "trading"}, {"grand", "trading"},
                  "filtrations", problems)
    if problems:
        raise DocumentError(problems)
    grand = _parse_filtration(filt["grand"], tuple(states), extended + 1, "filtrations.grand", problems, cache)
    trading = {}
    if not isinstance(filt["trading"], list):
        problems.append("filtrations.trading: expected a list")
    else:
        for i, entry in enumerate(filt["trading"]):
            where = f"filtrations.trading[{i}]"
            if not isinstance(entry, dict):
                problems.append(f"{where}: expected an object")
                continue
            _require_keys(entry, {"index_set", "partitions"}, {"index_set", "partitions"}, where, problems)
            if problems:
                continue
            index_set = _parse_asset_ids(entry["index_set"], f"{where}.index_set", problems)
            declared = entry["partitions"]
            if not isinstance(declared, list) or not horizon + 1 <= len(declared) <= extended + 1:
                problems.append(f"{where}: expected between {horizon + 1} and {extended + 1} per-time partitions")
                continue
            f = _parse_filtration(declared, tuple(states), len(declared), where, problems, cache)
            if f is not None and index_set is not None:
                if index_set in trading:
                    problems.append(f"{where}: duplicate trading filtration for index set {sorted(index_set)}")
                trading[index_set] = f
    if problems or grand is None:
        raise DocumentError(problems or ["filtrations.grand unreadable"])

    try:
        market = Market(space, assets, tuple(index_system), trading, grand)
    except ValueError as exc:
        raise DocumentError([str(exc)]) from None
    report = validate_market(market)
    if report:
        raise DocumentError(report)

    info_fam = exec_fam = None
    delays = doc.get("delays")
    if delays is not None:
        if not isinstance(delays, dict):
            raise DocumentError(["delays: expected an object"])
        _require_keys(delays, {"information", "execution"}, set(), "delays", problems)
        if "information" in delays:
            info_fam = _parse_info_delays(delays["information"], market, problems, cache)
        if "execution" in delays:
            exec_fam = _parse_exec_delays(delays["execution"], market, problems, cache)
        if problems:
            raise DocumentError(problems)
    return MarketDocument(market, info_fam, exec_fam)


def _parse_values(entry, length: int, n_states: int, where: str, problems: list[str]):
    if not isinstance(entry, list) or len(entry) != length:
        problems.append(f"{where}: expected {length} time rows of grid values")
        return None
    rows = []
    for t, row in enumerate(entry):
        if not isinstance(row, list) or len(row) != n_states or not all(_is_int(v) for v in row):
            problems.append(f"{where}[t={t}]: expected {n_states} integer grid values")
            return None
        rows.append(tuple(row))
    return tuple(rows)


def _parse_info_delays(entries, market: Market, problems: list[str], cache: _Interner):
    if not isinstance(entries, list):
        problems.append("delays.information: expected a list")
        return None
    space = market.space
    delays = {}
    for i, entry in enumerate(entries):
        where = f"delays.information[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: expected an object")
            continue
        _require_keys(entry, {"index_set", "values", "info"}, {"index_set", "values", "info"}, where, problems)
        if problems:
            continue
        index_set = _parse_asset_ids(entry["index_set"], f"{where}.index_set", problems)
        values = _parse_values(entry["values"], space.horizon + 1, len(space.states), where, problems)
        info = _resolve_info(entry["info"], space.states, space.horizon + 1,
                             market.grand_filtration, f"{where}.info", problems, cache)
        if index_set is None or values is None or info is None:
            continue
        if index_set in delays:
            problems.append(f"{where}: duplicate information delay for index set {sorted(index_set)}")
        delays[index_set] = StoppingProcess(values, info)
    if problems:
        return None
    from .delays import validate_information_family

    fam = InformationDelayFamily(delays)
    problems.extend(validate_information_family(market, fam))
    return fam if not problems else None


def _parse_exec_delays(entries, market: Market, problems: list[str], cache: _Interner):
    if not isinstance(entries, list):
        problems.append("delays.execution: expected a list")
        return None
    space = market.space
    delays = {}
    caps = {}
    for i, entry in enumerate(entries):
        where = f"delays.execution[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: expected an object")
            continue
        _require_keys(entry, {"asset", "values", "info", "cap"}, {"asset", "values", "info"}, where, problems)
        if problems:
            continue
        if not isinstance(entry["asset"], str):
            problems.append(f"{where}: asset must be a string")
            continue
        values = _parse_values(entry["values"], space.horizon + 1, len(space.states), where, problems)
        info = _resolve_info(entry["info"], space.states, space.extended_horizon + 1,
                             market.grand_filtration, f"{where}.info", problems, cache)
        if values is None or info is None:
            continue
        if entry["asset"] in delays:
            problems.append(f"{where}: duplicate execution delay for asset {entry['asset']!r}")
        delays[entry["asset"]] = StoppingProcess(values, info)
        if "cap" in entry:
            if not _is_int(entry["cap"]):
                problems.append(f"{where}: cap must be an integer")
            else:
                caps[entry["asset"]] = entry["cap"]
    if problems:
        return None
    from .delays import validate_execution_family

    fam = ExecutionDelayFamily(delays, caps)
    problems.extend(validate_execution_family(market, fam))
    return fam if not problems else None


_quote = json.encoder.encode_basestring_ascii


def _dump(value, newline: str = "\n") -> str:
    """The text json.dumps gives at indent=2, for dicts with str keys,
    lists, strs and ints; anything else raises TypeError.

    json.dumps runs its pure-Python encoder whenever indent is set. This
    quotes with the same C escaper (ASCII-only, as ensure_ascii=True does)
    and joins a flat list of strs or of ints in one call.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    inner = newline + "  "
    sep = "," + inner
    if kind is list:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {str}:
            body = sep.join(map(_quote, value))
        elif kinds == {int}:
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_dump(v, inner) for v in value])
        return "[" + inner + body + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        body = sep.join([_quote(k) + ": " + _dump(v, inner) for k, v in value.items()])
        return "{" + inner + body + newline + "}"
    raise TypeError(f"cannot serialize a {kind.__name__} in a market document")


def _filtration_payload(f: Filtration):
    return [list(map(list, p.atoms)) for p in f.partitions]


def serialize_market_document(
    market: Market,
    info_delays: InformationDelayFamily | None = None,
    exec_delays: ExecutionDelayFamily | None = None,
) -> str:
    """Canonical JSON for a market and optional delay families."""
    space = market.space
    doc = {
        "format_version": FORMAT_VERSION,
        "states": [
            {"name": s, "probability": format_rational(space.probability[s])}
            for s in space.states
        ],
        "grid": {"n": space.horizon, "n_ext": space.extended_horizon},
        "assets": {
            aid: [list(map(format_rational, row)) for row in market.assets[aid]]
            for aid in sorted(market.assets)
        },
        "index_system": [sorted(a) for a in market.index_system],
        "filtrations": {
            "grand": _filtration_payload(market.grand_filtration),
            "trading": [
                {"index_set": sorted(a), "partitions": _filtration_payload(market.trading_filtrations[a])}
                for a in market.index_system
            ],
        },
    }
    delays = {}
    if info_delays is not None:
        delays["information"] = [
            {
                "index_set": sorted(a),
                "values": list(map(list, sp.values)),
                "info": _filtration_payload(sp.info),
            }
            for a, sp in sorted(info_delays.delays.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        ]
    if exec_delays is not None:
        entries = []
        for asset in sorted(exec_delays.delays):
            sp = exec_delays.delays[asset]
            entry = {
                "asset": asset,
                "values": list(map(list, sp.values)),
                "info": _filtration_payload(sp.info),
            }
            if asset in exec_delays.caps:
                entry["cap"] = exec_delays.caps[asset]
            entries.append(entry)
        delays["execution"] = entries
    if delays:
        doc["delays"] = delays
    return _dump(doc) + "\n"
