"""Seeded benchmark of the whole path from market document to re-verified verdict.

    python3 perfbench/run.py --workload desk-sweep --seed 2024 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.
One process, one thread. First a pre-flight runs six shipped scenario
commands through `cli.main` and checks their exit codes and one golden
verdict. The timed phase then runs a fixed number of whole passes over
the workload's input, in a closed loop: `--seconds` divided by the
workload's reference pass time, so that a run takes about `--seconds`
at the first baseline and every commit takes the same number of runs
per item. Each item's time is the fastest of its runs (see Phase).

Set-up is repeated SETUP_REPS times, spread over the run: each time an
import of the package in a fresh interpreter, then generation and
serialization of the input. `setup_s` is the fastest import plus the
sum over input entries of each entry's fastest generation and
serialization.

`--trace 0` installs no wrapper and ends with the end-to-end metrics.
`--trace 1` alternates untraced passes with passes in which each layer's
public functions are wrapped (see spans.py), and ends with the per-layer
metrics per traced pass and the tracing overhead.

Every item is checked (see workloads.py). The last line of standard
output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
The exit code is 1 if any item failed, and 2, with no result printed, if
the package source is missing or the pre-flight fails.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

from spans import LAYERS, Tracer, summarize
from workloads import HELD_OUT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("arbitrage", "cli", "delays", "documents", "lp", "markets", "probability", "rationals", "scenarios")
SETUP_REPS = 6
# passes stop once they have taken this many times --seconds
CAP_FACTOR = 2
# a 98th percentile needs at least ten samples above it
P98_MIN_SAMPLES = 500

CLI_SMOKE = (
    (("check", "scenarios/binomial.json"), 0),
    (("check", "scenarios/dominated_binomial.json"), 2),
    (("check", "scenarios/insider_information.json"), 2),
    (("check", "scenarios/insider_information.json", "--apply-delay"), 0),
    (("check", "scenarios/insider_execution.json"), 2),
    (("check", "scenarios/insider_execution.json", "--apply-delay"), 0),
)
GOLDEN = {("check", "scenarios/insider_information.json", "--apply-delay"): "tests/golden/insider_delayed.txt"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_check", ".overhead")):
        return "ratio"
    if ".bytes_" in name:
        return "bytes"
    return "count"


class PreflightError(Exception):
    pass


def load_package():
    """Import the package from this checkout's `src/`."""
    init = SRC / "delayedmarkets" / "__init__.py"
    if not init.is_file():
        raise PreflightError(f"no package source at {init.relative_to(ROOT)}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"delayedmarkets.{name}") for name in MODULES}
    if Path(modules["arbitrage"].__file__).resolve().parent != init.parent.resolve():
        raise PreflightError(f"delayedmarkets was imported from {modules['arbitrage'].__file__}, not {SRC}")
    return SimpleNamespace(**modules)


# run in a fresh interpreter: the time to import every module of the package
IMPORT_PROBE = """\
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module("delayedmarkets." + name)
print(time.perf_counter() - start)
"""


def fresh_import_s() -> float:
    """Seconds to import the package in a fresh interpreter, standard
    library modules it needs included. Where Python writes bytecode, the
    cache is warm by then: the benchmark's own import wrote it."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), *MODULES],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def cli_smoke(pkg) -> list[str]:
    """Run the shipped scenario commands through cli.main; reads files, writes none."""
    problems = []
    for argv, code in CLI_SMOKE:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                got = pkg.cli.main([argv[0], str(ROOT / argv[1]), *argv[2:]])
            except SystemExit as exc:
                got = exc.code
        if got != code:
            problems.append(f"{' '.join(argv)}: exit {got}, expected {code}")
        if argv in GOLDEN and out.getvalue().encode("utf-8") != (ROOT / GOLDEN[argv]).read_bytes():
            problems.append(f"{' '.join(argv)}: output differs from {GOLDEN[argv]}")
    return problems


def commit() -> str:
    """The checked-out commit, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Gate:
    """Counts failed items by reason. An item fails if it raises, if its
    own check fails, or if its verdict kind differs from the expected one;
    without an expectation, from the kind the item reached on its first run."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.examples: list[str] = []
        self.kinds: dict[int, str] = {}     # item index -> kind of its first run

    def check(self, index, item, reason, kind):
        self.attempted += 1
        if reason is None and kind is not None:
            first = self.kinds.setdefault(index, kind)
            expected = item.expected or first
            if kind != expected:
                reason = f"verdict {kind}, expected {expected}"
        if reason is not None:
            self.failures[reason.partition(":")[0]] += 1
            if len(self.examples) < 5:
                self.examples.append(f"{item.label}: {reason}")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


@dataclass
class Phase:
    """Item times of whole passes over a fixed input of `size` items.

    An item's time is the fastest of its runs, one per pass. On a shared
    machine the host takes the processor away in bursts, which only ever
    adds time, and the fastest run is the one it disturbed least. Every
    commit makes the same number of passes, so the fastest is taken over
    the same number of runs. Each pass starts from `gc.collect()`, which
    resets the collector's counters: the collections a pass triggers fall
    on the same items in every pass, so their cost stays in the fastest
    run. The cost of the `gc.collect()` itself is left out.
    """

    size: int
    times: list[int] = field(default_factory=list)   # ns per item, in run order

    @property
    def passes(self) -> int:
        return len(self.times) // self.size

    @property
    def best(self) -> list[int]:
        return [min(self.times[i::self.size]) for i in range(self.size)]

    @property
    def items_per_s(self) -> float:
        return self.size / (sum(self.best) * 1e-9)


def run_pass(pkg, workload, items, gate: Gate, phase: Phase, tracer: Tracer | None = None):
    gc.collect()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = len(phase.times)  # so an item's id is its place in phase.times
        t0 = perf_counter_ns()
        try:
            reason, kind = workload.run_item(pkg, item)
        except Exception as exc:  # a failed item is counted, never fatal
            reason, kind = f"raised {type(exc).__name__}: {exc}", None
        phase.times.append(perf_counter_ns() - t0)
        gate.check(index, item, reason, kind)


class SetUp:
    """Repeated set-ups of one workload's input. Each rep imports the
    package in a fresh interpreter, then generates the input and
    serializes it to documents, timing each input entry on its own; the
    first rep's documents are the input."""

    def __init__(self, pkg, workload, seed: int, size):
        self.pkg, self.workload, self.seed, self.size = pkg, workload, seed, size
        self.items = None
        self.import_s: list[float] = []
        self.generate_ns: list[list[int]] = []   # per rep, per entry
        self.build_ns: list[list[int]] = []      # generation and serialization

    def rep(self):
        self.import_s.append(fresh_import_s())
        gc.collect()
        items, generate, build = [], [], []
        entries = self.workload.generate(self.pkg, self.seed, self.size)
        t0 = perf_counter_ns()
        for i, entry in enumerate(entries):
            t1 = perf_counter_ns()
            items += self.workload.serialize(self.pkg, i, entry)
            t2 = perf_counter_ns()
            generate.append(t1 - t0)
            build.append(t2 - t0)
            t0 = t2
        self.generate_ns.append(generate)
        self.build_ns.append(build)
        if self.items is None:
            self.items = items

    @property
    def reps(self) -> int:
        return len(self.build_ns)

    @staticmethod
    def _fastest_s(reps) -> float:
        """Each entry's fastest time over the reps, summed, in seconds."""
        return sum(map(min, zip(*reps))) * 1e-9

    @property
    def generate_s(self) -> float:
        return self._fastest_s(self.generate_ns)

    @property
    def build_s(self) -> float:
        return self._fastest_s(self.build_ns)

    @property
    def best_s(self) -> float:
        """The fastest import plus the input's generation and serialization."""
        return min(self.import_s) + self.build_s


def measure(pkg, workload, setup: SetUp, passes: int, reps: int, cap_s: float, gate: Gate,
            tracer: Tracer | None = None):
    """`passes` untraced passes over the input, with `reps` set-ups spread
    evenly over them, the first before the first pass.

    With a tracer, each untraced pass is followed by a traced one, so that
    drifts in the speed of a shared machine reach both alike. Passes stop
    early once they have taken `cap_s` seconds, so that a much slower
    program still ends in time. Returns the untraced and the traced phase.
    """
    reps_before = Counter(i * passes // reps for i in range(reps))
    untraced = traced = None
    for k in range(passes):
        for _ in range(reps_before[k]):
            setup.rep()
        if untraced is None:
            untraced, traced = Phase(len(setup.items)), Phase(len(setup.items))
        run_pass(pkg, workload, setup.items, gate, untraced)
        if tracer is not None:
            tracer.install(pkg)
            try:
                run_pass(pkg, workload, setup.items, gate, traced, tracer)
            finally:
                tracer.uninstall()
        if (sum(untraced.times) + sum(traced.times)) * 1e-9 >= cap_s:
            break
    while setup.reps < reps:
        setup.rep()
    return untraced, traced


def _nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(untraced: Phase, setup_s: float, gate: Gate):
    """The end-to-end metrics of an untraced run, and their report lines.

    `item_p98_ms` and `failed_share` are report lines only: the p98 of 500
    items moves by 0.16 (quartile spread) from seed to seed on desk-sweep
    alone, and `failed_share` reads 0 on every run that passes.
    """
    best = sorted(untraced.best)
    values = {
        "setup_s": setup_s,
        "items_per_s": untraced.items_per_s,
        "item_p50_ms": statistics.median(best) * 1e-6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [f"measured: {untraced.passes} passes of {untraced.size} items in "
             f"{sum(untraced.times) * 1e-9:.3f} s; each item's time is its fastest of {untraced.passes} runs"]
    lines += [f"metric {k} {v:.6g} {END_TO_END_UNITS[k]}" for k, v in values.items()]
    if len(best) >= P98_MIN_SAMPLES:
        lines.append(f"metric item_p98_ms {_nearest_rank(best, 0.98) * 1e-6:.6g} ms "
                     f"(n={len(best)} items, {len(best) - math.ceil(0.98 * len(best))} above)")
    else:
        lines.append(f"metric item_p98_ms not reported: {len(best)} items, fewer than {P98_MIN_SAMPLES}")
    lines.append(f"metric failed_share {gate.failed / gate.attempted:.6g} ratio "
                 f"({gate.failed} of {gate.attempted} items)")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, lines


def per_layer(tracer: Tracer, untraced: Phase, traced: Phase, generate_s: float):
    """The per-layer metrics of a traced run, and the report: self time by
    layer, the time no span covers and the tracing overhead."""
    values = summarize(tracer.spans, traced.passes, sum(traced.times))
    values["scenarios.generate_s"] = generate_s
    values["trace.overhead"] = untraced.items_per_s / traced.items_per_s - 1
    item_s = sum(traced.times) * 1e-9 / traced.passes
    lines = [f"traced: {traced.passes} passes at {traced.items_per_s:.2f} items/s, alternating with untraced "
             f"passes at {untraced.items_per_s:.2f} (overhead {values['trace.overhead']:+.1%})",
             f"per traced pass: {item_s:.4f} s in items; self time by layer, then no span:"]
    for layer in LAYERS:
        own = values[f"{layer}.self_s"]
        lines.append(f"  {layer:<12} {own:.4f} s  {own / item_s:6.1%}")
    lines.append(f"  {'(uncovered)':<12} {values['trace.uncovered_s']:.4f} s  "
                 f"{values['trace.uncovered_s'] / item_s:6.1%}")
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}, lines


def bench(pkg, name: str, seed: int, seconds: float, trace: bool, size=None, reps: int = SETUP_REPS):
    """Set up, measure and check one workload; returns report lines and the result."""
    workload = WORKLOADS[name]
    # a traced run makes half as many passes of each kind, so that it takes about as long
    passes = max(1, round(seconds / workload.pass_s / (2 if trace else 1)))
    setup = SetUp(pkg, workload, seed, workload.size if size is None else size)
    gate = Gate()
    tracer = Tracer() if trace else None
    untraced, traced = measure(pkg, workload, setup, passes, reps, CAP_FACTOR * seconds, gate, tracer)
    if trace:
        metrics, lines = per_layer(tracer, untraced, traced, setup.generate_s)
    else:
        metrics, lines = end_to_end(untraced, setup.best_s, gate)
    rational = pkg.rationals.Rational
    record = {
        "workload": name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": int(trace),
        "backend": f"{rational.__module__}.{rational.__qualname__}",
        "python": platform.python_version(),
        "commit": commit(),
        "setup_reps": setup.reps,
        "items_per_pass": len(setup.items),
        "passes_planned": passes,
        "passes": untraced.passes,
        "traced_passes": traced.passes,
        "item_samples": gate.attempted,
        "verdicts_per_pass": dict(sorted(Counter(gate.kinds.values()).items())),
        "failures": dict(gate.failures),
    }
    lines[:0] = ["record " + json.dumps(record, sort_keys=True),
                 f"setup: fastest of {setup.reps} fresh-interpreter imports {min(setup.import_s):.4f} s + "
                 f"generation and serialization {setup.build_s:.4f} s (generation {setup.generate_s:.4f} s), "
                 f"each input entry's fastest of {setup.reps} reps"]
    if untraced.passes < passes:
        lines.insert(1, f"capped: {untraced.passes} of {passes} passes fit in {CAP_FACTOR * seconds:g} s")
    lines.extend(f"failed item {example}" for example in gate.examples)
    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="sizes the run: passes = seconds / the workload's reference pass time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pkg = load_package()
        problems = cli_smoke(pkg)
        if problems:
            raise PreflightError("cli pre-flight failed: " + "; ".join(problems))
    except PreflightError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    lines, result = bench(pkg, args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
