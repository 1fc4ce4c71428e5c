"""Each data command parses only the record files its report reads.

``ingest(path, hold)`` reads and checks the files named in ``hold`` and
only counts every other one: its lines that hold more than JSON
whitespace, with no record parsed.  So a malformed file a command does not
hold leaves its exit code, its ``loaded …`` lines and its reports as they
were, while a missing or undecodable one still fails it, and a malformed
file it holds fails it as a full read does.  These tests pin that, that
each command's declared files are complete and each one needed, that no
unheld file is parsed, that the counts are the benchmark's, and that an
unheld file's records are not held."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest

import anonset.cli as cli_module
import anonset.dataset as dataset_module
import anonset.lines as lines_module
from anonset.cli import main
from anonset.dataset import RECORD_FILES, Dataset, ingest
from anonset.errors import IngestError
from anonset.synth import write_dataset
from perfbench.oracles import DatasetFacts, check_descriptors

from .test_dataset_cli import mixed_trace, write_side_channels
from .test_ingest import respell

RELAYERS = importlib.import_module("anonset.commands.relayers").FILES

# every data command, with the argument lists that together read every file
# it declares
COMMANDS = {
    "anonymity": [["anonymity", "--combine", "--tas"], ["anonymity", "--heuristics", "h1,h2"]],
    "clusters": [["clusters"]],
    "relayers": [["relayers"]],
    "flows": [["flows", "--distance", "2"]],
    "flags": [["flags", "--threshold", "0"]],
    "am-link": [["am-link"]],
    "validate": [["validate", "--gt", gt] for gt in ("airdrop", "ens", "intersection", "debank")],
}
RUNS = {" ".join(argv): argv for runs in COMMANDS.values() for argv in runs}


def _dump(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


def outcome(data: Path) -> dict[str, int] | str:
    """What ``ingest`` makes of ``data`` holding every file: its counts, or its error."""
    try:
        return dict(ingest(data).counts)
    except IngestError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def small_dir(tmp_path_factory) -> Path:
    data = tmp_path_factory.mktemp("small") / "data"
    write_dataset(mixed_trace(seed=5, users=64), data)
    write_side_channels(data)
    return data


@pytest.fixture(scope="module")
def command_dir(tmp_path_factory) -> Path:
    """A ``synth`` dataset with every file non-empty, ground truth included."""
    data = tmp_path_factory.mktemp("command") / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(data), "--profile", "mixed", "--seed", "7",
                     "--users", "150", "--blocks", "3000"]) == 0
    # side-channel evidence joining the dataset's own depositors and withdrawers
    events = [json.loads(line) for line in (data / "pool_events.jsonl").read_text().splitlines()]
    depositors = sorted({e["actor"] for e in events if e["kind"] == "deposit"})[:6]
    withdrawers = sorted({e["actor"] for e in events if e["kind"] == "withdrawal"})[:6]
    block = json.loads((data / "manifest.json").read_text())["first_block"]
    side = {
        "ens_transfers": [{"name": f"n{i}.eth", "sender": d, "recipient": w, "block": block,
                           "expiry": 10 ** 9}
                          for i, (d, w) in enumerate(zip(depositors, withdrawers))],
        "ens_subdomains": [{"owner": d, "assignee": w, "subdomain": f"s{i}.eth"}
                           for i, (d, w) in enumerate(zip(depositors, withdrawers[1:]))],
        "airdrop_claims": [{"block": block, "sender": d, "recipient": w, "amount": "5",
                            "coin": "DROP"} for d, w in zip(depositors, withdrawers)],
        "follow_edges": [{"follower": d, "followed": w}
                         for d, w in zip(depositors[::2], withdrawers)],
    }
    for name, rows in side.items():
        (data / f"{name}.jsonl").write_text("".join(map(_dump, rows)))
    assert all((data / f"{name}.jsonl").stat().st_size for name in RECORD_FILES)
    return data


class Run(NamedTuple):
    code: int
    stdout: str
    stderr: str
    reports: dict[str, bytes]
    hold: frozenset[str]  # the files ingest was asked to hold, pools included


def run_command(argv: list[str], data: Path, out: Path, drop: str | None = None) -> Run:
    """Run ``argv`` on ``data`` in-process, with ``drop`` taken out of the
    files its command asks ``ingest`` to hold."""
    shutil.rmtree(out, ignore_errors=True)
    held = []

    def holding(path, hold):
        held.append(frozenset({"pools", *hold}) - {drop})
        return dataset_module.ingest(path, held[-1])

    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        patch.setattr(cli_module, "ingest", holding)
        code = main([*argv, "--data", str(data), "--out", str(out)])
    reports = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    (hold,) = held
    return Run(code, stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue(), reports,
               hold)


# --- what a dataset holds ------------------------------------------------------


def test_every_field_of_an_unheld_file_is_none(small_dir):
    full = ingest(small_dir)
    held = ingest(small_dir, RELAYERS)
    assert held.counts == full.counts
    assert (held.pools, held.events, held.manifest) == (full.pools, full.events, full.manifest)
    for field in Dataset._fields:
        if field not in ("manifest", "pools", "events", "counts"):
            assert getattr(held, field) is None, field
    # an undeclared read fails loudly instead of reading as empty
    with pytest.raises(TypeError):
        held.build_index(held.manifest.last_block)


def test_pools_are_held_and_the_label_book_needs_both_its_files(small_dir):
    nothing = ingest(small_dir, ())
    assert nothing.pools == ingest(small_dir).pools and nothing.events is None
    assert ingest(small_dir, ("labels",)).labels is None
    assert ingest(small_dir, ("relayers",)).labels is None
    book = ingest(small_dir, ("labels", "relayers")).labels
    assert book._labels == ingest(small_dir).labels._labels


# --- each command's declared files ----------------------------------------------


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_reports_the_same_holding_only_its_files(command, command_dir, tmp_path,
                                                          monkeypatch):
    declared = [run_command(argv, command_dir, tmp_path / "out")[:4]
                for argv in COMMANDS[command]]
    assert all(code == 0 for code, *_ in declared)
    monkeypatch.setattr(dataset_module, "ingest", lambda path, hold: ingest(path))
    assert [run_command(argv, command_dir, tmp_path / "out")[:4]
            for argv in COMMANDS[command]] == declared


@pytest.mark.parametrize("command", COMMANDS)
def test_each_declared_file_is_needed(command, command_dir, tmp_path):
    # argument lists that hold the same files must need each of them
    # together; validate holds each --gt source's files apart
    runs: dict[frozenset[str], list] = {}
    for argv in COMMANDS[command]:
        run = run_command(argv, command_dir, tmp_path / "out")
        assert run.code == 0 and run.hold <= set(RECORD_FILES)
        runs.setdefault(run.hold, []).append((argv, run))
    if command == "validate":
        assert len(runs) == 4
    for hold, declared in runs.items():
        for name in sorted(hold - {"pools"}):  # always held: pool events are checked against it
            try:
                fewer = [run_command(argv, command_dir, tmp_path / "out", drop=name)
                         for argv, _run in declared]
            except (TypeError, AttributeError):
                continue
            assert [run[:4] for run in fewer] != [run[:4] for _argv, run in declared], \
                f"{command} {sorted(hold)} reads nothing of {name}"


# --- a corrupt file ------------------------------------------------------------------


def _corruptions(lines: list[str], last_block: int):
    """Variants of a record file's lines, each with its kind, made without
    randomness: only those that change the file."""
    i = len(lines) // 2
    row = json.loads(lines[i])
    address = next((key for key, value in sorted(row.items())
                    if isinstance(value, str) and value.startswith("0x") and len(value) == 42),
                   None)
    yield "bad JSON line", lines[:i] + ["{not json\n"] + lines[i + 1:]
    yield "repeated line", lines[:i + 1] + [lines[i]] + lines[i + 1:]
    if "block" in row:
        yield "height out of range", lines[:i] + [_dump({**row, "block": last_block + 1})] \
            + lines[i + 1:]
    if address:
        yield "malformed address", lines[:i] + [_dump({**row, address: "0x12345"})] \
            + lines[i + 1:]
    if len(set(lines)) > 1:
        yield "reversed lines", lines[::-1]


def non_blank(path: Path) -> int:
    with path.open() as handle:
        return sum(1 for line in handle if line.strip())


@pytest.mark.parametrize("argv", RUNS.values(), ids=RUNS)
def test_a_corrupt_file_fails_only_a_command_that_holds_it(argv, command_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(command_dir, data)
    base = run_command(argv, data, tmp_path / "out")
    assert base.code == 0
    last_block = json.loads((data / "manifest.json").read_text())["last_block"]
    failed = passed = 0
    for name in RECORD_FILES:
        path = data / f"{name}.jsonl"
        original, before = path.read_text(), f"{non_blank(path):>7} records from {name}\n"
        for kind, lines in _corruptions(original.splitlines(keepends=True), last_block):
            path.write_text("".join(lines))
            run = run_command(argv, data, tmp_path / "out")
            where = f"{name}: {kind}"
            if name in base.hold:
                error = outcome(data)
                if isinstance(error, str):
                    assert (run.code, run.stderr, run.reports) == (2, f"error: {error}\n", {}), \
                        where
                    failed += 1
                else:
                    assert run.code == 0, where
            else:
                count = f"{non_blank(path):>7} records from {name}\n"
                stdout = base.stdout.replace(before, count)
                assert count in stdout, where
                assert (run.code, run.stdout, run.stderr, run.reports) == \
                    (0, stdout, "", base.reports), where
                passed += 1
        path.write_text(original)
    # every command holds a file a corruption fails and leaves one unheld
    assert failed and passed


@pytest.mark.parametrize("argv", RUNS.values(), ids=RUNS)
def test_a_missing_or_undecodable_unheld_file_still_fails(argv, command_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(command_dir, data)
    hold = run_command(argv, data, tmp_path / "out").hold
    unheld = [name for name in RECORD_FILES if name not in hold]
    assert unheld
    for name in unheld:
        path = data / f"{name}.jsonl"
        original = path.read_bytes()
        for kind in ("missing", "undecodable"):
            if kind == "missing":
                path.unlink()
            else:
                path.write_bytes(original + b'{"x": "\xff"}\n')
            error = outcome(data)
            assert isinstance(error, str) and f"file={name}.jsonl" in error, (name, kind)
            run = run_command(argv, data, tmp_path / "out")
            assert (run.code, run.stderr, run.reports) == (2, f"error: {error}\n", {}), \
                (name, kind)
            path.write_bytes(original)


class _Seen(dict):
    """A line-pattern table that adds each file it is asked for to ``seen``."""

    def __init__(self, table: dict, seen: set[str]):
        super().__init__(table)
        self.seen = seen

    def __getitem__(self, name):
        self.seen.add(name)
        return super().__getitem__(name)


@pytest.mark.parametrize("argv", RUNS.values(), ids=RUNS)
def test_no_unheld_file_is_parsed(argv, command_dir, tmp_path, monkeypatch):
    # clock-free: every record _Row reads, every text _loads decodes and
    # every line-pattern scan names its file
    parsed: set[str] = set()
    row, loads = dataset_module._Row, dataset_module._loads

    def seen_row(file, *args):
        parsed.add(file)
        return row(file, *args)

    def seen_loads(text, file, *args):
        parsed.add(file)
        return loads(text, file, *args)

    patterns = _Seen(lines_module._LINE_PATTERNS, parsed)
    monkeypatch.setattr(dataset_module, "_Row", seen_row)
    monkeypatch.setattr(dataset_module, "_loads", seen_loads)
    for module in (dataset_module, lines_module):
        monkeypatch.setattr(module, "_LINE_PATTERNS", patterns)
    run = run_command(argv, command_dir, tmp_path / "out")
    assert run.code == 0
    files = {name.removesuffix(".jsonl") for name in parsed - {"manifest.json"}}
    assert files - run.hold == set()
    assert "pool_events" in files


# --- the benchmark's count rule ----------------------------------------------------


def test_each_loaded_count_is_the_files_non_blank_line_count(tmp_path):
    canonical = tmp_path / "canonical"
    write_dataset(mixed_trace(seed=13, users=80), canonical)
    write_side_channels(canonical)
    mixed_case = tmp_path / "mixed-case"
    respell(canonical, mixed_case, seed=13)
    # JSON whitespace alone on a line is skipped by both rules
    blank = tmp_path / "blank-lines"
    shutil.copytree(mixed_case, blank)
    for name in RECORD_FILES:
        path = blank / f"{name}.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line + pad for line, pad in
                                zip(lines, ["\n", " \t\n", "\r\n", "  \n"] * len(lines))))
    for data in (canonical, mixed_case, blank):
        facts = DatasetFacts(data)
        assert sorted(facts.record_counts) == sorted(RECORD_FILES)
        for argv in (["relayers"], ["am-link"], ["flags"]):
            run = run_command(argv, data, tmp_path / "out")
            assert run.code == 0 and set(RECORD_FILES) - run.hold, argv
            assert check_descriptors(facts, run.stdout) == [], (data.name, argv)


# --- memory -----------------------------------------------------------------------


def test_an_unheld_transfer_file_costs_no_record_memory(tmp_path):
    data = tmp_path / "data"
    write_dataset(mixed_trace(seed=11, users=400), data)

    def traced_peak(hold) -> tuple[int, Dataset]:
        tracemalloc.start()
        try:
            dataset = ingest(data, hold)
            return tracemalloc.get_traced_memory()[1], dataset
        finally:
            tracemalloc.stop()

    full_peak, full = traced_peak(RECORD_FILES)
    records = sum(sys.getsizeof(records) + sum(map(sys.getsizeof, records))
                  for records in (full.transfers, full.token_transfers))
    assert len(full.transfers) > 300
    del full
    held_peak, held = traced_peak(RELAYERS)
    assert held.transfers is None
    assert full_peak - held_peak >= records, (full_peak, held_peak, records)
