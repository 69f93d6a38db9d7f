"""The serializer that `delayedmarkets.documents.serialize_market_document`
replaced, kept unchanged as the reference that `test_documents.py` compares
it against, with the recursive `_dump` it wrote through: a document built as
nested dicts and lists, each price formatted where it occurs and each
distinct partition written once per call. On any market and delay families
the two must give the same bytes.
"""

from __future__ import annotations

import json

from delayedmarkets.delays import ExecutionDelayFamily, InformationDelayFamily
from delayedmarkets.documents import FORMAT_VERSION
from delayedmarkets.markets import Market
from delayedmarkets.probability import Partition
from delayedmarkets.rationals import Rational, format_rational

_quote = json.encoder.encode_basestring_ascii
_RATIONAL = frozenset({Rational})  # whose str() is format_rational's "p/q"


def _dump(value, newline: str = "\n", partitions: dict | None = None) -> str:
    """The text json.dumps gives at indent=2, for dicts with str keys,
    lists, strs and ints; anything else raises TypeError.

    json.dumps runs its pure-Python encoder whenever indent is set. This
    quotes with the same C escaper (ASCII-only, as ensure_ascii=True does)
    and joins a flat list of strs or of ints in one call. Given a
    `partitions` memo, a list of Partitions is written as lists of atoms,
    and the text of each distinct one at each depth is built once and
    kept there.
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
        elif kinds == {Partition} and partitions is not None:
            texts = []
            for p in value:
                key = (p.atoms, inner)
                text = partitions.get(key)
                if text is None:
                    text = partitions[key] = _dump(list(map(list, p.atoms)), inner)
                texts.append(text)
            body = sep.join(texts)
        else:
            body = sep.join([_dump(v, inner, partitions) for v in value])
        return "[" + inner + body + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        body = sep.join([_quote(k) + ": " + (_quote(v) if type(v) is str else _dump(v, inner, partitions))
                         for k, v in value.items()])
        return "{" + inner + body + newline + "}"
    raise TypeError(f"cannot serialize a {kind.__name__} in a market document")


def reference_serialize_market_document(
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
            aid: [list(map(str if _RATIONAL.issuperset(map(type, row)) else format_rational, row))
                  for row in market.assets[aid]]
            for aid in sorted(market.assets)
        },
        "index_system": [sorted(a) for a in market.index_system],
        "filtrations": {
            "grand": list(market.grand_filtration.partitions),
            "trading": [
                {"index_set": sorted(a), "partitions": list(market.trading_filtrations[a].partitions)}
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
                "info": list(sp.info.partitions),
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
                "info": list(sp.info.partitions),
            }
            if asset in exec_delays.caps:
                entry["cap"] = exec_delays.caps[asset]
            entries.append(entry)
        delays["execution"] = entries
    if delays:
        doc["delays"] = delays
    return _dump(doc, "\n", {}) + "\n"
