"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces the public functions listed in TARGETS with
wrappers that record one span per call: name, item id, parent span,
start, end, a note about the call and the exception it raised, if any.
A function imported by name into other modules (`gain_generators` into
`arbitrage`, say) is replaced there too. `uninstall` puts every original
back. Spans stay in memory until `summarize` turns them into per-layer
metrics at the end of the run. Nothing here is installed on an untraced
run.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# span fields
NAME, ITEM, PARENT, START, END, NOTE, ERROR = range(7)


def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


def _lp_size(problem) -> tuple[int, int, int]:
    """Rows, columns and nonzeros. Counted at the call, so that no problem
    outlives it: kept problems would slow every later garbage collection."""
    rows = problem.equalities + problem.inequalities
    nonzeros = sum(1 for coeffs, _ in rows for v in coeffs if v != 0)
    return len(rows), problem.num_vars, nonzeros


# (module, public name, span name, note kept from (args, result))
TARGETS = (
    ("documents", "parse_market_document", "documents.parse", lambda a, r: _utf8_len(a[0])),
    ("documents", "serialize_market_document", "documents.serialize", lambda a, r: _utf8_len(r)),
    ("delays", "information_delayed_market", "delays.information", None),
    ("delays", "delayed_market", "delays.execution", None),
    ("markets", "gain_generators", "markets.gain_generators", lambda a, r: len(r)),
    ("lp", "LpProblem", "lp.build", lambda a, r: _lp_size(r)),
    ("lp", "row_basis", "lp.row_basis", lambda a, r: (len(a[0]), len(r))),
    ("lp", "solve", "lp.solve", lambda a, r: r.status),
    ("arbitrage", "check_naflp", "arbitrage.check", None),
    ("arbitrage", "find_free_lunch", "arbitrage.free_lunch", None),
    ("arbitrage", "find_martingale_measure", "arbitrage.measure", None),
    ("arbitrage", "verify_certificate", "arbitrage.verify", lambda a, r: (a[1].kind, r)),
    ("arbitrage", "render_verdict", "arbitrage.render", None),
    ("probability", "conditional_expectation", "probability.conditional_expectation", None),
)

# the layers whose self time is reported; scenarios is timed in set-up and
# rationals only names the backend
LAYERS = ("documents", "delays", "markets", "lp", "arbitrage", "probability")

LP_STATUSES = ("optimal", "infeasible", "unbounded")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item = None            # id shared by every span of the current item
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, self.item, stack[-1] if stack else None, 0, 0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    def install(self, pkg):
        loaded = [m for k, m in sys.modules.items()
                  if m is not None and (k == "delayedmarkets" or k.startswith("delayedmarkets."))]
        for module_name, attr, name, note in TARGETS:
            original = getattr(getattr(pkg, module_name), attr)
            wrapper = self._wrap(name, original, note)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


def summarize(spans, passes: int, item_ns: int):
    """Per-layer metrics per pass of the workload's input, with the self
    time of each layer and the item time no span covers."""
    dur = [s[END] - s[START] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            child[s[PARENT]] += dur[i]
    total = defaultdict(int)
    own = defaultdict(int)
    calls = Counter()
    for i, s in enumerate(spans):
        total[s[NAME]] += dur[i]
        own[s[NAME]] += dur[i] - child[i]
        calls[s[NAME]] += 1

    def by(name, pick):
        return sum(d for s, d in zip(spans, dur) if s[NAME] == name and pick(s))

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] is not None else None

    notes = defaultdict(list)
    for s in spans:
        if s[NOTE] is not None:
            notes[s[NAME]].append(s[NOTE])
    sizes = notes["lp.build"]
    basis = notes["lp.row_basis"]
    generators_in = sum(g for g, _ in basis)
    rank = sum(r for _, r in basis)
    statuses = Counter(notes["lp.solve"])
    errors = Counter((s[NAME], s[ERROR]) for s in spans if s[ERROR] is not None)
    top_ns = sum(d for s, d in zip(spans, dur) if s[PARENT] is None)

    per = 1.0 / passes
    ns = 1e-9 * per
    return {
        "lp.solve_measure_s": ns * by("lp.solve", lambda s: parent_name(s) == "arbitrage.measure"),
        "lp.solve_free_lunch_s": ns * by("lp.solve", lambda s: parent_name(s) == "arbitrage.free_lunch"),
        "lp.solve_calls": per * calls["lp.solve"],
        "lp.build_s": ns * total["lp.build"],
        "lp.rows": per * sum(r for r, _, _ in sizes),
        "lp.cols": per * sum(c for _, c, _ in sizes),
        "lp.nonzeros": per * sum(z for _, _, z in sizes),
        **{f"lp.status.{k}": per * statuses[k] for k in LP_STATUSES},
        "lp.row_basis_s": ns * total["lp.row_basis"],
        "lp.rank": per * rank,
        "lp.rank_ratio": rank / generators_in if generators_in else 0.0,
        "markets.gain_generators_s": ns * total["markets.gain_generators"],
        "markets.gain_generators_calls_per_check":
            calls["markets.gain_generators"] / calls["arbitrage.check"] if calls["arbitrage.check"] else 0.0,
        "markets.generators": per * sum(notes["markets.gain_generators"]),
        "arbitrage.free_lunch_self_s": ns * own["arbitrage.free_lunch"],
        "arbitrage.measure_self_s": ns * own["arbitrage.measure"],
        "arbitrage.verify_measure_s": ns * by("arbitrage.verify", lambda s: s[NOTE] and s[NOTE][0] == "no-free-lunch"),
        "arbitrage.verify_strategy_s": ns * by("arbitrage.verify", lambda s: s[NOTE] and s[NOTE][0] == "free-lunch"),
        "probability.conditional_expectation_calls": per * calls["probability.conditional_expectation"],
        "arbitrage.render_s": ns * total["arbitrage.render"],
        "documents.parse_s": ns * total["documents.parse"],
        "documents.serialize_s": ns * total["documents.serialize"],
        "documents.bytes_in": per * sum(notes["documents.parse"]),
        "documents.bytes_out": per * sum(notes["documents.serialize"]),
        "documents.errors": per * errors[("documents.parse", "DocumentError")],
        "delays.information_s": ns * total["delays.information"],
        "delays.execution_s": ns * total["delays.execution"],
        "arbitrage.disagreements": per * errors[("arbitrage.check", "OracleDisagreementError")],
        "arbitrage.verify_failures": per * sum(1 for _, ok in notes["arbitrage.verify"] if ok is False),
        **{f"{layer}.self_s": ns * sum(v for k, v in own.items() if k.split(".")[0] == layer)
           for layer in LAYERS},
        "trace.uncovered_s": ns * (item_ns - top_ns),
    }

