"""Each data command holds only the record files its report reads.

``ingest(path, hold)`` still reads, checks and counts every file, so the
``loaded …`` lines and every error stay as they were; it keeps records only
for the files named in ``hold``.  An unheld transfer file is proved by its
positions alone, with the full read as its fallback.  These tests pin that
the proof finds what the full read finds, that each command's declared
files are complete and each one needed, and that an unheld file's records
are not held."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import shutil
import sys
import tracemalloc
from pathlib import Path

import pytest

import anonset.cli as cli_module
import anonset.dataset as dataset_module
from anonset.cli import main
from anonset.dataset import RECORD_FILES, Dataset, ingest
from anonset.errors import IngestError
from anonset.ledger import transfer_order
from anonset.synth import write_dataset

from .test_dataset_cli import mixed_trace, write_side_channels

RELAYERS = importlib.import_module("anonset.commands.relayers").FILES
TRANSFER_FILES = ("transfers", "token_transfers")

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


def module_of(command: str):
    return importlib.import_module(f"anonset.commands.{command.replace('-', '_')}")


def outcome(data: Path, hold) -> dict[str, int] | str:
    """What ``ingest`` makes of ``data`` holding ``hold``: its counts, or its error."""
    try:
        return dict(ingest(data, hold).counts)
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


# --- the position proof against the full read -------------------------------


def _dump(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


def _mutants(lines: list[str], rng: random.Random, first: int, last: int):
    """Seeded variants of a transfer file's lines, each with its kind."""
    n = len(lines)
    i, j = sorted(rng.sample(range(n), 2))
    row = json.loads(lines[i])

    def with_row(**changes) -> list[str]:
        return lines[:i] + [_dump({**row, **changes})] + lines[i + 1:]

    def spelled(text: str) -> str:
        body = "".join(c.upper() if rng.random() < 0.5 else c for c in text[2:])
        return rng.choice(["0x", "0X", ""]) + body

    yield "swapped", lines[:i] + [lines[j]] + lines[i + 1:j] + [lines[i]] + lines[j + 1:]
    yield "repeated", lines[:j] + [lines[i]] + lines[j:]
    yield "repeated next", lines[:i + 1] + [lines[i]] + lines[i + 1:]
    yield "above the range", with_row(block=last + rng.randint(1, 50))
    yield "below the range", with_row(block=max(0, first - rng.randint(1, 50)))
    yield "at the range's ends", (
        [_dump({**json.loads(lines[0]), "block": first})] + lines[1:-1]
        + [_dump({**json.loads(lines[-1]), "block": last})])
    yield "same position", with_row(**{k: json.loads(lines[i - 1] if i else lines[i + 1])[k]
                                       for k in ("block", "tx_index", "log_index")})
    yield "blank line", lines[:i] + ["\n"] + lines[i:]
    yield "respelled", [_dump({**json.loads(line), "sender": spelled(json.loads(line)["sender"]),
                               "recipient": spelled(json.loads(line)["recipient"])})
                        for line in lines]
    yield "internal key", with_row(internal=True)
    yield "malformed amount", with_row(amount=rng.choice(["1.5", "-3", "12a", ""]))
    yield "negative position", lines[:i] + [lines[i].replace('"tx_index":', '"tx_index":-', 1)] \
        + lines[i + 1:]
    yield "empty", []


@pytest.mark.parametrize("name", TRANSFER_FILES)
@pytest.mark.parametrize("seed", range(4))
def test_the_position_proof_finds_what_the_full_read_finds(small_dir, tmp_path, name, seed):
    manifest = json.loads((small_dir / "manifest.json").read_text())
    lines = (small_dir / f"{name}.jsonl").read_text().splitlines(keepends=True)
    assert len(lines) >= 2
    rng = random.Random(seed)
    seen = set()
    for kind, mutant in _mutants(lines, rng, manifest["first_block"], manifest["last_block"]):
        data = tmp_path / kind.replace(" ", "-")
        shutil.copytree(small_dir, data)
        (data / f"{name}.jsonl").write_text("".join(mutant))
        full = outcome(data, RECORD_FILES)
        assert outcome(data, RELAYERS) == full, kind
        seen.add(type(full))
    # the mutants reach both a count and an error
    assert seen == {dict, str}


def test_positions_rise_across_batch_boundaries(small_dir, tmp_path):
    # a repeat or a step back right at a batch boundary, with each batch in
    # order: the proof must compare the batch's first position with the last
    # one before it
    name = "transfers"
    lines = (small_dir / f"{name}.jsonl").read_text().splitlines(keepends=True)
    sizes = [len(batch) for _first, batch in dataset_module._batches(small_dir, f"{name}.jsonl")]
    assert len(sizes) > 1
    boundary = sizes[0]
    stepped_back = [_dump({**json.loads(lines[boundary]), "block": json.loads(lines[0])["block"],
                           "tx_index": 0, "log_index": 0})]
    for kind, mutant in {
        "repeat": lines[:boundary] + [lines[boundary - 1]] + lines[boundary:],
        "step back": lines[:boundary] + stepped_back + lines[boundary:],
    }.items():
        data = tmp_path / kind.replace(" ", "-")
        shutil.copytree(small_dir, data)
        (data / f"{name}.jsonl").write_text("".join(mutant))
        assert next(dataset_module._batches(data, f"{name}.jsonl"))[1] == lines[:boundary]
        full = outcome(data, RECORD_FILES)
        assert outcome(data, RELAYERS) == full, kind
        assert isinstance(full, str) if kind == "repeat" else full[name] == len(lines) + 1


def test_a_file_in_the_emitted_layout_is_not_read_in_full(small_dir, tmp_path, monkeypatch):
    respelled = tmp_path / "respelled"
    shutil.copytree(small_dir, respelled)
    for name in TRANSFER_FILES:
        path = respelled / f"{name}.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(_dump({**r, "sender": r["sender"][2:].upper()}) for r in rows))
    orders = []
    original = dataset_module._in_record_order

    def recorded(records, order):
        orders.append(order)
        return original(records, order)

    monkeypatch.setattr(dataset_module, "_in_record_order", recorded)
    for data in (small_dir, respelled):
        orders.clear()
        assert ingest(data, RELAYERS).counts == ingest(data).counts
        # the held read above set up the order of the pool events alone
        assert orders.count(transfer_order) == 2


def test_a_file_out_of_order_falls_back_to_the_full_read(small_dir, tmp_path, monkeypatch):
    data = tmp_path / "shuffled"
    shutil.copytree(small_dir, data)
    path = data / "transfers.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(reversed(lines)))
    reads = []
    original = dataset_module._in_record_order

    def recorded(records, order):
        reads.append((order, len(records)))
        return original(records, order)

    monkeypatch.setattr(dataset_module, "_in_record_order", recorded)
    dataset = ingest(data, RELAYERS)
    assert (transfer_order, len(lines)) in reads
    assert dataset.counts["transfers"] == len(lines)
    assert dataset.transfers is None


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


def test_an_unheld_file_is_still_checked(small_dir, tmp_path):
    for name in RECORD_FILES:
        data = tmp_path / name
        shutil.copytree(small_dir, data)
        path = data / f"{name}.jsonl"
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(IngestError) as full:
            ingest(data)
        with pytest.raises(IngestError) as held:
            ingest(data, ())
        assert str(held.value) == str(full.value), name


# --- each command's declared files ----------------------------------------------


def run_command(argv: list[str], data: Path, out: Path) -> tuple[str, dict[str, bytes]]:
    shutil.rmtree(out, ignore_errors=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*argv, "--data", str(data), "--out", str(out)]) == 0
    reports = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return stdout.getvalue().replace(str(out), "OUT"), reports


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_reports_the_same_holding_only_its_files(command, command_dir, tmp_path,
                                                          monkeypatch):
    declared = [run_command(argv, command_dir, tmp_path / "out") for argv in COMMANDS[command]]
    monkeypatch.setattr(cli_module, "ingest", lambda path, hold: ingest(path))
    assert [run_command(argv, command_dir, tmp_path / "out")
            for argv in COMMANDS[command]] == declared


@pytest.mark.parametrize("command", COMMANDS)
def test_each_declared_file_is_needed(command, command_dir, tmp_path, monkeypatch):
    module = module_of(command)
    files = module.FILES
    assert set(files) <= set(RECORD_FILES) and len(set(files)) == len(files)
    declared = [run_command(argv, command_dir, tmp_path / "out") for argv in COMMANDS[command]]
    for name in files:
        if name == "pools":  # always held: the pool events are checked against it
            continue
        monkeypatch.setattr(module, "FILES", tuple(f for f in files if f != name))
        try:
            fewer = [run_command(argv, command_dir, tmp_path / "out")
                     for argv in COMMANDS[command]]
        except (TypeError, AttributeError):
            continue
        assert fewer != declared, f"{command} reads nothing of {name}"


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
