"""Command-line front end: the parser, the dataset loader, the process entry.

Every command validates its dataset, runs one analysis, and writes two
files into the output directory: ``<command>.json`` with machine-readable
records and ``<command>.txt`` with a rendered table.  Reports contain no
timestamps and all orderings are fixed (pools by id, addresses
lexicographically), so a command rerun on the same inputs produces
byte-identical output.

Exit codes: 0 success; 2 input or schema error, or a file that cannot be
read or written; 3 mode error (an analysis that needs ground truth ran
against a dataset without it); 4 when ``--strict`` is set and every
solver run came back inconclusive.

Each command's body is a module of ``anonset.commands``, and ``main``
imports only the one it runs, with the analysis modules that one
imports, so a process compiles no other command's code.  A data command
reads its dataset through :func:`ingest`, which ``main`` hands it; only a
data command loads ``dataset``, so ``synth`` compiles no ingest code.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from importlib import import_module
from types import MethodType
from typing import NoReturn, Sequence

from .errors import EXIT_INPUT, EXIT_MODE, AnalysisError, ModeError, _at_least, _say


def main(argv: Sequence[str] | None = None) -> int:
    # records are acyclic, freed by reference counting; the collector only rescans them
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        if "data" in args:
            # ingest's modules first, the largest a data command compiles:
            # the smaller ones after it reuse their compile memory
            import_module(".dataset", __package__)
        command = import_module(f".commands.{args.command.replace('-', '_')}", __package__)
        return command.run(args, ingest)
    except (AnalysisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODE if isinstance(exc, ModeError) else EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


def run() -> NoReturn:
    """The process entry: run :func:`main`, flush stdout and stderr, and end
    the process with no interpreter teardown, as every report is closed by
    then and no command leaves an ``atexit`` handler or a thread.  The
    ``SystemExit`` of a usage error or ``--help`` ends the same way, with
    argparse's code.  A stream that cannot be flushed exits 2, unless the
    command failed already: its code and its one error line stand.  An
    uncaught exception leaves the normal way."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's, whose code is an int
        code = exc.code
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except OSError as exc:
        # a command that failed has printed its one error line, which names
        # a stdout that cannot be written
        if not code and sys.stderr is not None:
            try:
                print(f"error: cannot write output: {exc}", file=sys.stderr, flush=True)
            except OSError:  # stderr is gone too; the exit code still tells
                pass
        code = code or EXIT_INPUT
    os._exit(code)


def _heuristic_list(text: str) -> tuple[str, ...]:
    """The ``--heuristics`` type: a comma list naming at least one known tag."""
    from . import heuristics
    tags = tuple(dict.fromkeys(tag.strip() for tag in text.split(",") if tag.strip()))
    unknown = set(tags) - set(heuristics.HEURISTICS)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown heuristics: {sorted(unknown)}")
    if not tags:
        raise argparse.ArgumentTypeError("names no heuristic")
    return tags


def _print_message(self, message, file=None):
    # argparse's drops a failed write, so a help that cannot reach an
    # unbuffered stdout would exit 0
    if file is sys.stdout:
        _say(message)
    else:
        argparse.ArgumentParser._print_message(self, message, file)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anonset",
        description="Anonymity-set analytics for fixed-denomination mixer pools.")
    sub = parser.add_subparsers(dest="command", required=True)

    def data_command(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True, help="dataset directory")
        p.add_argument("--out", required=True, help="report output directory")
        return p

    p = data_command("anonymity", "observed and reduced anonymity sets per pool")
    p.add_argument("--pool", help="restrict to one pool id")
    p.add_argument("--at", type=int, help="block-height cut (default: last block)")
    p.add_argument("--heuristics", type=_heuristic_list,
                   help="comma list, e.g. h1,h2,h3,h4,h5")
    p.add_argument("--combine", action="store_true", help="also combine the heuristics")
    p.add_argument("--tas", action="store_true",
                   help="include the true anonymity set (needs ground truth)")

    p = data_command("clusters", "linked-address clusters and their size histogram")
    p.add_argument("--at", type=int)
    p.add_argument("--heuristics", type=_heuristic_list, help="default: h2,h3,h4,h5")

    data_command("relayers", "relayer usage per pool")

    p = data_command("flows", "distance-n extensions and coin-flow aggregation")
    p.add_argument("--at", type=int)
    p.add_argument("--distance", type=_at_least(1), default=2)

    p = data_command("flags", "withdraw-first addresses re-depositing large volume")
    p.add_argument("--threshold", type=_at_least(0),
                   help="minimum deposited volume in base units")

    p = data_command("am-link", "classify reward claimants and solve their timing")
    p.add_argument("--search-cap", type=_at_least(1))
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when every solver run is inconclusive")

    p = data_command("validate", "score heuristic links against side-channel truth")
    p.add_argument("--gt", required=True,
                   choices=("airdrop", "ens", "intersection", "debank"))
    p.add_argument("--heuristics", type=_heuristic_list, help="default: h2,h3,h4,h5")
    p.add_argument("--at", type=int)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="dataset output directory")
    p.add_argument("--profile", default="disciplined",
                   help="behavior name, or comma list name:weight")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--users", type=int, default=120)
    p.add_argument("--blocks", type=int, default=8_000)

    for p in (parser, *sub.choices.values()):
        p._print_message = MethodType(_print_message, p)
    return parser


def ingest(path, hold):
    """:func:`anonset.dataset.ingest`, imported on first use; ``main``
    hands this name to a command, so a wrapper installed on it sees the call."""
    from .dataset import ingest
    return ingest(path, hold)


if __name__ == "__main__":
    run()
