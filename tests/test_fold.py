"""Folding pool events as ingest reads them reports what holding them does.

``relayers``, ``flags`` and ``am-link`` hand ``ingest`` a fold for their
pool events, so no event tuple is held.  Each is run here twice on the
same data: as it is, and as a reference run that reads each file in one
batch, holds the tuple of events and calls the one-shot functions the
commands called before they folded (copied below, as they were).  Exit
code, stdout (its ``loaded …`` lines), stderr and reports must be equal,
on two ``synth`` profiles, each canonical and re-spelled, and with a
fault in a late batch of ``pool_events.jsonl``, after earlier batches
were folded: lines out of order across a batch boundary, a line repeated
across one, a height above the range on the last line and a line of bad
JSON.  The repeat spans a boundary inside which each batch is in order,
so only the check of each batch against the one before it finds it."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import anonset.cli as cli_module
import anonset.commands.am_link as am_link_module
import anonset.dataset as dataset_module
import anonset.lines as lines_module
import anonset.metrics as metrics_module
from anonset.cli import main
from anonset.errors import InputError
from anonset.ledger import DEPOSIT, WITHDRAWAL, position
from anonset.metrics import FundThenDepositFlag, RelayerUsage
from anonset.synth import write_dataset

from .test_dataset_cli import mixed_trace
from .test_ingest import respell

RELAYERS = ("pools", "pool_events")  # what ``relayers`` reads


# --- the one-shot functions, as the commands called them on the held tuple -------


def held_relayer_usage(pools, events):
    withdrawals = {pool.pool_id: [] for pool in pools}
    try:
        for e in events:
            if e.kind == WITHDRAWAL:
                withdrawals[e.pool_id].append(e)
            elif e.pool_id not in withdrawals:
                raise KeyError(e.pool_id)
    except KeyError as exc:
        raise InputError(f"event for pool {exc.args[0]!r} passed to pool "
                         f"{', '.join(map(repr, withdrawals))}") from None
    usage = []
    for pool_id, pool_withdrawals in withdrawals.items():
        relayed = [e for e in pool_withdrawals if e.relayer is not None]
        usage.append(RelayerUsage(
            pool_id=pool_id, relayers=len({e.relayer for e in relayed}),
            withdrawals=len(pool_withdrawals), relayed_withdrawals=len(relayed),
            withdrawers=len({e.actor for e in pool_withdrawals}),
            relayed_withdrawers=len({e.actor for e in relayed})))
    return tuple(usage)


def held_fund_then_deposit_flags(pools, events, labels, min_deposit):
    pool_by_id = {p.pool_id: p for p in pools}
    first_wd, first_dep, volume = {}, {}, {}
    for e in events:
        pool = pool_by_id.get(e.pool_id)
        if pool is None:
            raise InputError(f"event for unknown pool {e.pool_id!r}")
        if e.kind == WITHDRAWAL:
            first_wd.setdefault(e.actor, e)
        else:
            first_dep.setdefault(e.actor, e)
            volume.setdefault(e.actor, Counter())[pool.coin] += pool.denomination
    flags = []
    for addr, wd in first_wd.items():
        dep = first_dep.get(addr)
        if dep is None or position(wd) >= position(dep):
            continue
        total = max(volume[addr].values())
        if total < min_deposit:
            continue
        flags.append(FundThenDepositFlag(
            address=addr, first_withdrawal=wd, first_deposit=dep,
            total_deposited=total, labels=labels.labels_for(addr)))
    return tuple(sorted(flags, key=lambda f: f.address))


def held_claim_events(events):
    events = tuple(events)  # the tuple, held whole
    deposits_by_actor, withdrawal_blocks = {}, {}
    for e in events:
        if e.kind == DEPOSIT:
            deposits_by_actor.setdefault(e.actor, []).append(e)
        else:
            withdrawal_blocks.setdefault(e.pool_id, []).append(e.height)
    return deposits_by_actor, withdrawal_blocks


# per command: its arguments, its fold, and what the reference run puts in place
COMMANDS = {
    "relayers": (["relayers"], (metrics_module, "count_relayers"), [
        (metrics_module, "count_relayers", tuple),
        (metrics_module, "relayer_usage", held_relayer_usage)]),
    "flags": (["flags", "--threshold", "0"], (metrics_module, "withdraw_first"), [
        (metrics_module, "withdraw_first", tuple),
        (metrics_module, "fund_then_deposit_flags", held_fund_then_deposit_flags)]),
    "am-link": (["am-link"], (am_link_module, "_claim_events"), [
        (am_link_module, "_claim_events", held_claim_events)]),
}

PROFILES = {"mixed": "mixed",
            "speculators": "am-speculator:2,attacker-fund-then-deposit:1,disciplined:1"}


# --- the datasets and their faults ------------------------------------------------


def batch_starts(path: Path) -> list[int]:
    """The index of the first line of each batch ``ingest`` reads ``path`` in."""
    return [first - 1 for first, _lines in lines_module._batches(path.parent, path.name)]


def _dump(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


def faulted(lines: list[str], path: Path, fault: str, last_block: int) -> int:
    """Write ``lines`` with ``fault`` in the last third of ``path``, and
    return the index of the first line of the batch that holds it, which no
    batch before it does."""
    if fault == "height out of range":
        # the last line: in a file in order, a height above the range can
        # stand nowhere else, so only the range check finds it
        path.write_text("".join(lines[:-1] + [_dump({**json.loads(lines[-1]),
                                                     "block": last_block + 1})]))
        return batch_starts(path)[-1]
    for i in batch_starts(path):
        if i < 2 * len(lines) // 3:
            continue
        if fault == "lines out of order":
            # two lines swapped across a boundary, each batch in order
            changed = lines[:i - 1] + [lines[i], lines[i - 1]] + lines[i + 1:]
        elif fault == "repeated line":
            # the last line of a batch again as the first of the next
            changed = lines[:i] + [lines[i - 1]] + lines[i:]
        else:
            changed = lines[:i] + ["{not json\n"] + lines[i:]
        path.write_text("".join(changed))
        if i in batch_starts(path):
            return i
    raise AssertionError(f"no late boundary for {fault}")


FAULTS = (None, "lines out of order", "repeated line", "height out of range", "bad JSON")


@pytest.fixture(scope="module")
def datasets(tmp_path_factory) -> dict[tuple[str, str | None], tuple[Path, int]]:
    """Each profile's dataset, canonical and re-spelled, as written and with
    each fault, by ``(name, fault)``: its path and the fault batch's first line."""
    root = tmp_path_factory.mktemp("fold")
    made = {}
    for profile, spec in PROFILES.items():
        canonical = root / profile
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", str(canonical), "--profile", spec, "--seed", "5",
                         "--users", "48", "--blocks", "4000"]) == 0
        respelled = root / f"{profile}-respelled"
        respell(canonical, respelled, seed=17, pad=profile == "speculators")
        for data in (canonical, respelled):
            made[data.name, None] = data, 0
            events = data / "pool_events.jsonl"
            lines = events.read_text().splitlines(keepends=True)
            assert len(batch_starts(events)) >= 12
            last_block = json.loads((data / "manifest.json").read_text())["last_block"]
            for fault in FAULTS[1:]:
                copy = root / f"{data.name}-{fault.replace(' ', '-')}"
                shutil.copytree(data, copy)
                made[data.name, fault] = copy, faulted(lines, copy / events.name, fault,
                                                       last_block)
    return made


def run(argv: list[str], data: Path, out: Path) -> tuple[int, str, str, dict[str, bytes]]:
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--data", str(data), "--out", str(out)])
    reports = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, stdout.getvalue(), stderr.getvalue(), reports


DATASETS = [f"{profile}{spelling}" for profile in PROFILES for spelling in ("", "-respelled")]


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault or "valid")
@pytest.mark.parametrize("name", DATASETS)
@pytest.mark.parametrize("command", COMMANDS)
def test_folding_reports_what_holding_reports(command, name, fault, datasets, tmp_path,
                                              monkeypatch):
    argv, (module, attr), reference = COMMANDS[command]
    data, late = datasets[name, fault]
    fold, folded = getattr(module, attr), Counter()

    def counted(events):
        def each():
            for event in events:
                folded["events"] += 1
                yield event
        return fold(each())

    with monkeypatch.context() as patch:
        patch.setattr(module, attr, counted)
        folding = run(argv, data, tmp_path / "out")
    with monkeypatch.context() as patch:
        patch.setattr(lines_module, "_BATCH", 1 << 30)  # one batch a file
        for target, attribute, replacement in reference:
            patch.setattr(target, attribute, replacement)
        holding = run(argv, data, tmp_path / "out")
    assert folding == holding
    code, _stdout, stderr, reports = folding
    if fault in (None, "lines out of order"):
        assert code == 0 and len(reports) == 2
    else:
        assert code == 2 and stderr.startswith("error: ") and "pool_events.jsonl" in stderr
        assert not reports
    # every batch before the fault's reached the fold before the fault did
    assert folded["events"] >= late > 0 or fault is None


def test_a_folding_ingest_holds_no_event_record(tmp_path, monkeypatch):
    data = tmp_path / "data"
    write_dataset(mixed_trace(seed=11, users=400), data)
    peaks = []

    def traced(path, hold):
        tracemalloc.start()
        try:
            dataset = dataset_module.ingest(path, hold)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return dataset
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli_module, "ingest", traced)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["relayers", "--data", str(data), "--out", str(tmp_path / "out")]) == 0
    held = traced(data, RELAYERS)
    fold_peak, held_peak = peaks
    records = sys.getsizeof(held.events) + sum(map(sys.getsizeof, held.events))
    assert len(held.events) > 1000
    assert held_peak - fold_peak >= records, (held_peak, fold_peak, records)


def test_a_folded_read_holds_one_small_batch(tmp_path, monkeypatch):
    # past 1 MB a batch stops growing with its file, so a fold's peak above
    # what it keeps does not grow with it either: one batch of 1/64 of this
    # file is twice the cap
    data = tmp_path / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(data), "--profile", "mixed", "--seed", "5",
                     "--users", "2000", "--blocks", "24000"]) == 0
    size = (data / "pool_events.jsonl").stat().st_size
    assert size > 2 << 20 and size // 64 > 2 * lines_module._CAP
    batches = []

    def recorded(path, file):
        for first, lines in lines_module._batches(path, file):
            if file == "pool_events.jsonl":
                batches.append(lines)
            yield first, lines

    def above_kept() -> int:
        """``relayers``' ingest: its tracemalloc peak above what it keeps."""
        hold = {"pools": None, "pool_events": metrics_module.count_relayers}
        tracemalloc.start()
        try:
            dataset_module.ingest(data, hold)  # kept until the reading below
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - kept

    monkeypatch.setattr(dataset_module, "_batches", recorded)
    above_kept()  # so the first run's imports and caches are not counted
    capped = above_kept()
    cap = lines_module._CAP
    # no batch is over the cap by more than its last line
    assert batches and all(sum(map(len, lines)) - len(lines[-1]) < cap for lines in batches)
    monkeypatch.setattr(lines_module, "_CAP", 1 << 30)  # 1/64 of every file, as before the cap
    # the cap saves at least the text of a batch it leaves unread
    assert above_kept() - capped >= size // 64 - cap
