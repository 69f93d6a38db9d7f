"""Command-line entry point.

Commands: validate (invariant report), check (free-lunch verdict with
certificate), delay (apply a document's delay family and write the
transformed document), experiment (seeded theorem harnesses).

Exit codes: 0 success or no free lunch, 1 input error, 2 free lunch
found, 3 experiment failure (a trial of any kind failed or raised), 4
internal error: a fault of the program, not of its input (neither oracle
produced a certificate, a certificate fails independent re-verification,
delay wrote a document that does not re-parse, or a command raised
anything but an input error). Each command reports its own input errors;
main catches every other fault and prints it on one line. A bad command
line is an input error too.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .arbitrage import FreeLunch, OracleDisagreementError, check_naflp, render_verdict, verify_certificate
from .delays import DelayPreconditionError, delayed_market, information_delayed_market
from .documents import DocumentError, parse_market_document, serialize_market_document
from .scenarios import EXPERIMENTS, INSIDER_DEMO, INSIDER_WALKS, ScenarioConfig, run_experiment

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_FREE_LUNCH = 2
EXIT_EXPERIMENT_FAILED = 3
EXIT_INTERNAL_ERROR = 4
DEFAULT_TRIALS = 100


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error as an input error: exit 1, not 2,
    which here means a free lunch was found. Subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="delayedmarkets",
        description="finite markets with delays: validation, free-lunch verdicts, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every invariant of a market document")
    p.add_argument("path")

    p = sub.add_parser("check", help="decide free lunch vs martingale measure")
    p.add_argument("path")
    p.add_argument("--horizon", type=int, default=None, help="check up to this grid time (default: n)")
    p.add_argument("--apply-delay", action="store_true",
                   help="apply the document's delay families before checking")

    p = sub.add_parser("delay", help="apply a delay family and write the delayed document")
    p.add_argument("path")
    p.add_argument("--mode", choices=("info", "exec"), required=True)
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("experiment", help="run a seeded theorem harness")
    p.add_argument("kind", choices=EXPERIMENTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None,
                   help=f"trial count (default: {DEFAULT_TRIALS}); {INSIDER_DEMO} runs a fixed pair of walks")
    p.add_argument("--out", default=None, help="report path (default: stdout)")

    return parser


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError([f"cannot read {path}: {exc}"]) from None
    return parse_market_document(text)


def _input_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _emit(text: str, out: str | None) -> int:
    """Write text to the out path, or to stdout; exit 1 if the path cannot be written."""
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        return _input_error(f"cannot write {out}: {exc}")
    return EXIT_OK


def _probe_out(out: str | None) -> int:
    """Open the out path for appending and close it again, so that an
    unwritable path fails before a long run; a file it created is removed."""
    if out is None:
        return EXIT_OK
    path = Path(out)
    existed = path.exists()
    try:
        with path.open("a", encoding="utf-8"):
            pass
    except OSError as exc:
        return _input_error(f"cannot write {out}: {exc}")
    if not existed:
        path.unlink()
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        _load(args.path)
    except DocumentError as exc:
        for problem in exc.problems:
            print(f"invalid: {problem}")
        return EXIT_INPUT_ERROR
    print("ok")
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        doc = _load(args.path)
        market = doc.market
        if args.apply_delay:
            if doc.info_delays is None and doc.exec_delays is None:
                return _input_error("--apply-delay but the document carries no delays")
            if doc.info_delays is not None:
                market = information_delayed_market(market, doc.info_delays)
            if doc.exec_delays is not None:
                market = delayed_market(market, doc.exec_delays)
    except (DocumentError, DelayPreconditionError) as exc:
        return _input_error(exc)
    n, n_ext = market.space.horizon, market.space.extended_horizon
    if args.horizon is not None and not n <= args.horizon <= n_ext:
        return _input_error(f"horizon must lie in {n}..{n_ext}")
    market = market.at_horizon(args.horizon)
    verdict = check_naflp(market)
    if not verify_certificate(market, verdict):
        print("internal error: certificate failed independent re-verification", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    sys.stdout.write(render_verdict(verdict, market.space.states))
    return EXIT_FREE_LUNCH if isinstance(verdict, FreeLunch) else EXIT_OK


def cmd_delay(args) -> int:
    try:
        doc = _load(args.path)
        if args.mode == "info":
            if doc.info_delays is None:
                return _input_error("document has no information-delay block")
            market = information_delayed_market(doc.market, doc.info_delays)
            out = serialize_market_document(market, exec_delays=doc.exec_delays)
        else:
            if doc.exec_delays is None:
                return _input_error("document has no execution-delay block")
            market = delayed_market(doc.market, doc.exec_delays)
            out = serialize_market_document(market, info_delays=doc.info_delays)
    except (DocumentError, DelayPreconditionError) as exc:
        return _input_error(exc)
    parse_market_document(out)  # the transformed document must re-validate
    return _emit(out, args.out)


def cmd_experiment(args) -> int:
    if args.kind == INSIDER_DEMO:
        if args.trials is not None:
            return _input_error(f"{INSIDER_DEMO} runs a fixed pair of walks and takes no --trials")
        trials = len(INSIDER_WALKS)
    else:
        trials = DEFAULT_TRIALS if args.trials is None else args.trials
    if trials < 1:
        return _input_error(f"--trials must be at least 1, got {trials}")
    if _probe_out(args.out) != EXIT_OK:
        return EXIT_INPUT_ERROR
    report = run_experiment(ScenarioConfig(seed=args.seed), args.kind, trials)
    if _emit(report.to_json() + "\n", args.out) != EXIT_OK:
        return EXIT_INPUT_ERROR
    return EXIT_OK if report.passed else EXIT_EXPERIMENT_FAILED


def _internal_error(exc: Exception) -> int:
    """Report a fault of the program, not of its input, on one stderr line."""
    detail = str(exc) if isinstance(exc, OracleDisagreementError) else repr(exc)
    print(f"internal error: {detail}", file=sys.stderr)
    return EXIT_INTERNAL_ERROR


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "check": cmd_check,
        "delay": cmd_delay,
        "experiment": cmd_experiment,
    }
    # each handler reports its own input errors; anything else it raises is a fault of the program
    try:
        return handlers[args.command](args)
    except Exception as exc:
        return _internal_error(exc)


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
