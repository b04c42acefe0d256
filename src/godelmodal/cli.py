"""Command line interface.

Exit codes: 0 valid / no countermodel / evaluation done, 1 countermodel
found, 2 search exhausted without an answer, 3 bad usage or input, 4
internal error, with a traceback on stderr.  A formula is never refused for
its nesting depth: parsing and every walk over it are iterative.
Machine-readable results go to stdout, diagnostics to stderr.
``godelmodal --help`` and ``godelmodal <command> --help`` print usage to
stdout and exit 0.

A command's own parser reads its arguments: when the first argument names a
command, the rest goes straight to that command's parser.  The top-level
parser reads only argv that names no command (none, ``--help``, an unknown
word, a flag first), where it prints help or reports the usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .algebra import format_rational
from .decider import (
    MODES,
    Refuted,
    SearchConfig,
    Unknown,
    Valid,
    _decide,
    random_search,
    verdict_to_json,
)
from .semantics import (
    _check_world,
    _evaluate,
    frame_report,
    model_from_json,
)
from .syntax import LogicId, _parse_ops, corpus

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser, and each command's parser by command name."""
    parser = _Parser(
        prog="godelmodal",
        description="Possibilistic semantics and validity checking for Godel modal logics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--logic", default="k45", choices=[l.value for l in LogicId])
        p.add_argument("--mode", default="hybrid", choices=MODES)
        p.add_argument("--budget", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-worlds", type=int, default=None)
        p.add_argument("--max-truth", type=int, default=None)
        p.add_argument("formula")

    check = sub.add_parser("check", help="decide validity of a formula")
    add_search_args(check)
    check.set_defaults(handler=lambda args: _run_check(args, minimize=False))

    cm = sub.add_parser("countermodel", help="like check, but shrink any countermodel")
    add_search_args(cm)
    cm.set_defaults(handler=lambda args: _run_check(args, minimize=True))

    ev = sub.add_parser("eval", help="evaluate a formula in a model file")
    ev.add_argument("--model", required=True)
    ev.add_argument("--world", default=None)
    ev.add_argument("formula")
    ev.set_defaults(handler=_run_eval)

    co = sub.add_parser("corpus", help="random-search the named schemes of a logic")
    co.add_argument("--logic", default="k45", choices=[l.value for l in LogicId])
    co.add_argument("--budget", type=int, default=10_000)
    co.add_argument("--seed", type=int, default=0)
    co.set_defaults(handler=_run_corpus)

    fr = sub.add_parser("frame", help="report frame properties of a model file")
    fr.add_argument("--model", required=True)
    fr.set_defaults(handler=_run_frame)

    return parser, {"check": check, "countermodel": cm, "eval": ev, "corpus": co, "frame": fr}


def _print_json(doc: dict) -> None:
    # every document is a plain tree, so the circular-reference check finds nothing
    print(json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False, check_circular=False))


def _load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except (OSError, ValueError) as exc:  # read, decode and JSON errors
            raise ValueError(f"{path}: {exc}") from None
    return model_from_json(doc)


def _run_check(args: argparse.Namespace, minimize: bool) -> int:
    compiled = _parse_ops(args.formula)
    logic = LogicId(args.logic)
    cfg = SearchConfig(
        mode=args.mode,
        budget=args.budget,
        seed=args.seed,
        max_worlds=args.max_worlds,
        max_truth=args.max_truth,
    )
    # countermodel shrinks on the search's codes, and builds only the model it prints
    verdict = _decide(compiled, logic, cfg, minimize)
    _print_json(verdict_to_json(verdict))
    if isinstance(verdict, Valid):
        return EXIT_OK
    if isinstance(verdict, Refuted):
        return EXIT_FOUND
    return EXIT_UNKNOWN


def _run_eval(args: argparse.Namespace) -> int:
    compiled = _parse_ops(args.formula)
    model = _load_model(args.model)
    if args.world is not None:
        _check_world(model.worlds, args.world)
    for world, value in zip(model.worlds, _evaluate(model, compiled)):
        if args.world is None:
            print(f"{world}\t{format_rational(value)}")
        elif world == args.world:
            print(format_rational(value))
    return EXIT_OK


def _run_corpus(args: argparse.Namespace) -> int:
    logic = LogicId(args.logic)
    cfg = SearchConfig(mode="random", budget=args.budget, seed=args.seed)
    schemes = corpus(logic)
    refuted = 0
    for name, formula in schemes:
        found = random_search(formula, logic, cfg)
        if found is None:
            print(f"{name}\tok")
        else:
            refuted += 1
            model, world, value = found
            print(f"{name}\trefuted\t{world}\t{format_rational(value)}")
    print(
        f"checked {len(schemes)} schemes, {refuted} refuted",
        file=sys.stderr,
    )
    return EXIT_FOUND if refuted else EXIT_OK


def _run_frame(args: argparse.Namespace) -> int:
    report = frame_report(_load_model(args.model))
    _print_json(
        {
            "transitive": report.transitive,
            "euclidean": report.euclidean,
            "serial": report.serial,
            # json writes the witness tuples as lists
            "witnesses": {
                "transitivity": report.transitivity_witnesses,
                "euclidean": report.euclidean_witnesses,
                "seriality": report.seriality_witnesses,
            },
        }
    )
    return EXIT_OK


_PARSER, _COMMANDS = _build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """_PARSER.parse_args(argv) without the command's name: when argv[0]
    names a command, its own parser reads the rest in one pass, where the
    top-level parser would classify every argument before handing them all
    to it."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    return command.parse_args(argv[1:])


def run(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit:  # only -h/--help exits, once argparse has printed the help
        return EXIT_OK
    try:
        return args.handler(args)
    except (ValueError, KeyError) as exc:  # ParseError is a ValueError
        # str() of a KeyError adds quotes; args[0] of a UnicodeDecodeError is a codec
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # args[0] would be the bare errno
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:  # a safety net: no known input recurses this deep
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
