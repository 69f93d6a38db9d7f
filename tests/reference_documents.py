"""The document parser that `delayedmarkets.documents.parse_market_document`
replaced, kept unchanged as the reference that `test_documents.py` compares
it against, with the `parse_rational` it called: literals parsed through a
plain dict, each partition entry checked name by name before its cache
lookup, and each filtration's refinement checked wherever it occurs. On
any document the two must both succeed, with equal re-serializations, or
both raise `DocumentError` with equal problem lists.
"""

from __future__ import annotations

import json
from itertools import repeat

from delayedmarkets.delays import (
    ExecutionDelayFamily,
    InformationDelayFamily,
    validate_execution_family,
    validate_information_family,
)
from delayedmarkets.documents import FORMAT_VERSION, DocumentError, MarketDocument
from delayedmarkets.markets import Market, validate_market
from delayedmarkets.probability import Filtration, FiniteSpace, Partition, StoppingProcess
from delayedmarkets.rationals import Rational, sums_to_one


def parse_rational(text: str) -> Rational:
    """Parse a "p/q" (or bare "p") string of ASCII digits, each side with an
    optional sign and surrounding whitespace; rejects floats, "_" digit
    separators, non-ASCII digits and empty input."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"expected a rational string, got {text!r}")
    if "." in text or "e" in text.lower():
        raise ValueError(f"rationals must be exact p/q strings, got {text!r}")
    if "/" not in text:
        return Rational(_integer(text, text))
    num, _, den = text.partition("/")
    try:
        return Rational(_integer(num, text), _integer(den, text))
    except ZeroDivisionError as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


def _integer(part: str, text: str) -> int:
    """One side of a "p/q" literal. int() alone would also take "_"
    separators and non-ASCII digits."""
    part = part.strip()
    digits = part[1:] if part[:1] in ("+", "-") else part
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad rational literal {text!r}: expected ASCII digits with an optional sign")
    return int(part)


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


def reference_parse_market_document(text: str) -> MarketDocument:
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
    fam = ExecutionDelayFamily(delays, caps)
    problems.extend(validate_execution_family(market, fam))
    return fam if not problems else None
