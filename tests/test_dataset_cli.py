from __future__ import annotations

import io
import json
import re
import shutil
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from anonset import heuristics, ledger, metrics
from anonset.cli import main
from anonset.commands import anonymity as anonymity_command
from anonset.commands.anonymity import read_true_set_sizes
from anonset.dataset import RECORD_FILES, Dataset, Manifest, ingest
from anonset.errors import IngestError
from anonset.heuristics import (
    h1_reuse,
    h2_improper_sender,
    h3_related_pair,
    h5_cross_pool,
    pool_view,
)
from anonset.ledger import position, reduced_set
from anonset.synth import (
    ATTACKER,
    BEHAVIORS,
    DISCIPLINED,
    AmRecord,
    BehaviorProfile,
    GeneratorConfig,
    Prng,
    generate_trace,
    standard_pools,
    write_dataset,
)

from .conftest import reduced

A1, A2 = "0x" + "a" * 40, "0x" + "b" * 40

# one valid row for each record file that ``write_dataset`` leaves empty
SIDE_CHANNEL_ROWS = {
    "ens_transfers": {"name": "a.eth", "sender": A1, "recipient": A2,
                      "block": 10, "expiry": 10 ** 9},
    "ens_subdomains": {"owner": A1, "assignee": A2, "subdomain": "pay.a.eth"},
    "airdrop_claims": {"block": 10, "sender": A1, "recipient": A2,
                       "amount": "5", "coin": "DROP"},
    "follow_edges": {"follower": A1, "followed": A2},
}


def write_side_channels(data: Path) -> None:
    for name, row in SIDE_CHANNEL_ROWS.items():
        (data / f"{name}.jsonl").write_text(json.dumps(row) + "\n")


def read_sidecar(data: Path) -> dict:
    """The decoded ``ground_truth.json`` of ``data``: the planted truth."""
    return json.loads((data / "ground_truth.json").read_text())


def mixed_trace(seed: int = 3, users: int = 64):
    profile = BehaviorProfile.from_weights({b: 1 for b in BEHAVIORS})
    cfg = GeneratorConfig(profile=profile, pools=standard_pools(),
                          user_count=users, block_span=6000)
    return generate_trace(cfg, seed)


def write_trace(data: Path, profile: BehaviorProfile, seed: int, users: int):
    """Write the dataset ``synth`` writes for these options (its default
    block span) to ``data`` and return the trace, whose planted truth is
    more than the sidecar keeps."""
    cfg = GeneratorConfig(profile=profile, pools=standard_pools(),
                          user_count=users, block_span=8_000)
    trace = generate_trace(cfg, seed)
    write_dataset(trace, data)
    return trace


def write_multi_deposit_claimants(data: Path) -> None:
    """Write a speculator dataset whose reward claims are only those of
    multi-deposit claimants, so the solver searches for every one; with
    ``--search-cap 1`` each run is inconclusive."""
    main(["synth", "--profile", "am-speculator", "--seed", "8",
          "--users", "10", "--out", str(data)])
    multi = {r["recipient"] for r in read_sidecar(data)["am_truth"]
             if len(r["deposit_blocks"]) > 1}
    if not multi:
        pytest.skip("seed produced no multi-deposit speculators")
    path = data / "ap_claims.jsonl"
    keep = [line for line in path.read_text().splitlines()
            if json.loads(line)["recipient"] in multi]
    path.write_text("\n".join(keep) + "\n")


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    write_dataset(mixed_trace(), out)
    return out


class TestRoundTrip:
    def test_ingest_matches_trace(self, dataset_dir):
        trace = mixed_trace()
        dataset = ingest(dataset_dir)
        assert sorted(dataset.events, key=lambda e: (position(e), e.pool_id, e.actor)) == \
            sorted(trace.events, key=lambda e: (position(e), e.pool_id, e.actor))
        assert set(dataset.transfers) == set(trace.transfers)
        assert set(dataset.token_transfers) == set(trace.token_transfers)
        assert {c for c in dataset.ap_claims} == set(trace.ap_claims)
        assert read_true_set_sizes(dataset_dir) == {
            pool: len(active) for pool, active in trace.ground_truth.active_depositors.items()}
        assert dataset.manifest == Manifest(trace.first_block, trace.last_block)
        assert dataset.counts["pool_events"] == len(trace.events)
        assert dataset.counts["transfers"] == len(trace.transfers)
        assert dataset.counts["ap_claims"] == len(trace.ap_claims)

    def test_analysis_equal_in_memory_and_reingested(self, dataset_dir):
        trace = mixed_trace()
        dataset = ingest(dataset_dir)
        t = trace.last_block
        from anonset.indexing import build_index

        mem_index = build_index(trace.transfers, trace.token_transfers,
                                trace.events, dict(trace.labels))
        disk_index = dataset.build_index(t)
        for pool in trace.pools:
            mem_view = pool_view(mem_index, pool)
            disk_view = pool_view(disk_index, pool)
            mem = h3_related_pair(mem_view)
            disk = h3_related_pair(disk_view)
            assert mem.link_pairs == disk.link_pairs
            assert reduced(mem_view, mem.link_pairs) == reduced(disk_view, disk.link_pairs)
            mem2 = h2_improper_sender(mem_view)
            disk2 = h2_improper_sender(disk_view)
            assert reduced(mem_view, mem2.link_pairs) == reduced(disk_view, disk2.link_pairs)

    def test_emission_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_dataset(mixed_trace(), a)
        write_dataset(mixed_trace(), b)
        for file in sorted(a.iterdir()):
            assert file.read_bytes() == (b / file.name).read_bytes()


class TestIngestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(IngestError, match="manifest"):
            ingest(tmp_path)

    def test_missing_file_named(self, dataset_dir):
        (dataset_dir / "pool_events.jsonl").unlink()
        with pytest.raises(IngestError, match="pool_events"):
            ingest(dataset_dir)

    def test_malformed_address_names_line_and_field(self, dataset_dir):
        path = dataset_dir / "pool_events.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["actor"] = "not-an-address"
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match=r"line=1.*field=actor"):
            ingest(dataset_dir)

    @pytest.mark.parametrize("name, row, field, value", [
        ("pool_events", lambda r: True, "kind", "depozit"),
        ("pools", lambda r: True, "am_weight", 0),
        ("pools", lambda r: True, "denomination", "0"),
        ("pool_events", lambda r: r["kind"] == "deposit", "relayer", A1),
        ("pool_events", lambda r: r["relayer"] is not None, "tx_sender", A1),
    ], ids=["kind", "am_weight", "denomination", "deposit-relayer", "unsigned-relayed"])
    def test_record_check_names_the_field(self, dataset_dir, name, row, field, value):
        # the first row ``row`` accepts moves to line 1 and gets the edit
        path = dataset_dir / f"{name}.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        record = records.pop(next(i for i, r in enumerate(records) if row(r)))
        record[field] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in [record] + records))
        with pytest.raises(IngestError) as info:
            ingest(dataset_dir)
        assert str(info.value).endswith(f" [file={name}.jsonl, line=1, field={field}]")

    @pytest.mark.parametrize("name", [n for n in RECORD_FILES if n != "labels"])
    def test_duplicate_record_rejected(self, dataset_dir, name):
        write_side_channels(dataset_dir)
        path = dataset_dir / f"{name}.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[0]]) + "\n")
        with pytest.raises(IngestError, match=re.escape(
                f"duplicate record (first seen on line 1) "
                f"[file={name}.jsonl, line={len(lines) + 1}]")):
            ingest(dataset_dir)

    @pytest.mark.parametrize("name, field", [("pool_events", "actor"), ("transfers", "sender")])
    def test_duplicate_names_the_first_equal_line(self, dataset_dir, name, field):
        # the copy is spelled otherwise, and blank lines are counted
        path = dataset_dir / f"{name}.jsonl"
        lines = path.read_text().splitlines()
        copy = json.loads(lines[2])
        copy[field] = copy[field][2:].upper()
        path.write_text("\n".join(["", *lines[:2], "", *lines[2:], json.dumps(copy)]) + "\n")
        with pytest.raises(IngestError, match=re.escape(
                f"duplicate record (first seen on line 5) "
                f"[file={name}.jsonl, line={len(lines) + 3}]")):
            ingest(dataset_dir)

    def test_repeated_label_row_is_accepted(self, dataset_dir):
        path = dataset_dir / "labels.jsonl"
        lines = path.read_text().splitlines()
        before = ingest(dataset_dir).labels
        path.write_text("\n".join(lines + [lines[0]]) + "\n")
        after = ingest(dataset_dir)
        assert after.counts["labels"] == len(lines) + 1
        address = json.loads(lines[0])["address"]
        assert after.labels.labels_for(address) == before.labels_for(address)

    def test_block_outside_range_rejected(self, dataset_dir):
        path = dataset_dir / "transfers.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["block"] = 10 ** 9
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match="block range"):
            ingest(dataset_dir)

    def test_unknown_pool_in_events_rejected(self, dataset_dir):
        path = dataset_dir / "pool_events.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["pool_id"] = "P404"
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match="unknown pool"):
            ingest(dataset_dir)

    @pytest.mark.parametrize("name, field", [("transfers", "amount"),
                                             ("pools", "denomination")],
                             ids=["transfers", "pools"])
    @pytest.mark.parametrize("value, message", [
        (125, "decimal strings"),
        ("\u00b2", "decimal strings"),
        ("\u0661\u0662\u0663", "decimal strings"),  # Arabic-Indic 123
        ("9" * 4301, "too many digits"),
    ], ids=["int", "super", "arabic", "long"])
    def test_amounts_must_be_decimal_strings(self, dataset_dir, name, field,
                                             value, message):
        path = dataset_dir / f"{name}.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record[field] = value
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match=rf"{message} .*file={name}.jsonl, "
                                              rf"line=1, field={field}\]"):
            ingest(dataset_dir)

    @pytest.mark.parametrize("users", [64, 300])
    def test_ingest_peak_memory_is_near_what_it_keeps(self, tmp_path, users):
        # records are built one small batch of lines at a time, so ingest
        # never holds the raw rows of a whole file beside the records made
        # from them
        data = tmp_path / "data"
        write_dataset(mixed_trace(users=users), data)
        tracemalloc.start()
        try:
            dataset = ingest(data)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dataset.counts["pool_events"] > 0
        assert peak / held < 1.5


class TestAnonymityMemory:
    @pytest.mark.parametrize("users", [300, 900])
    def test_heuristics_peak_memory_is_near_what_they_keep(self, tmp_path, monkeypatch,
                                                           users):
        # h5 builds per-address tables only for addresses that use two
        # pools of one coin, so running the heuristics adds little above
        # what they return; ``--tas`` keeps only the true-set sizes
        data = tmp_path / "data"
        write_dataset(mixed_trace(users=users), data)
        readings = []
        run_heuristics = anonymity_command._run_heuristics

        def measured(*args):
            result = run_heuristics(*args)
            readings.append(tracemalloc.get_traced_memory())
            return result

        argv = ["anonymity", "--combine", "--tas", "--data", str(data),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0  # so the modules the command imports are not counted
        monkeypatch.setattr(anonymity_command, "_run_heuristics", measured)
        tracemalloc.start()
        try:
            assert main(argv) == 0
        finally:
            tracemalloc.stop()
        ((held, peak),) = readings
        assert peak / held < 1.1


class TestAnonymityBalances:
    def test_one_pools_balances_at_a_time(self, dataset_dir, tmp_path, monkeypatch):
        # no view holds its pool's balances: ``anonymity_sets`` builds each
        # pool's once, where it reduces that pool, after the pool before
        # it let go of its own
        assert "state" not in heuristics.PoolView._fields
        built, balances = [], heuristics.balances

        class Balances(dict):  # a dict a weak reference can watch
            pass

        def watched(pool, deposits, withdrawals):
            assert all(ref() is None for _pool_id, ref in built), "two pools' balances held"
            state = Balances(balances(pool, deposits, withdrawals))
            built.append((pool.pool_id, weakref.ref(state)))
            return state

        monkeypatch.setattr(heuristics, "balances", watched)
        out = tmp_path / "out"
        assert main(["anonymity", "--combine", "--tas", "--data", str(dataset_dir),
                     "--out", str(out)]) == 0
        pools = json.loads((out / "anonymity.json").read_text())["pools"]
        assert [pool_id for pool_id, _ref in built] == [p["pool_id"] for p in pools]


class TestAnonymityLineGrowth:
    """A guard that needs no clock: the Python lines ``anonymity --combine
    --tas`` runs in ``anonset`` grow linearly in the records, so twice the
    users run at most 2.2 times the lines."""

    @staticmethod
    def lines(tmp_path, users: int) -> int:
        data, out = tmp_path / f"data{users}", tmp_path / f"out{users}"
        assert main(["synth", "--profile", "mixed", "--seed", "5", "--users", str(users),
                     "--blocks", str(12 * users), "--out", str(data)]) == 0
        count = 0

        def in_anonset(frame, event, arg):
            nonlocal count
            if event == "line":
                count += 1
            return in_anonset

        def calls(frame, event, arg):
            name = frame.f_globals.get("__name__") or ""
            return in_anonset if name.startswith("anonset.") else None

        previous = sys.gettrace()
        sys.settrace(calls)
        try:
            code = main(["anonymity", "--combine", "--tas", "--data", str(data),
                         "--out", str(out)])
        finally:
            sys.settrace(previous)
        assert code == 0
        return count

    def test_lines_grow_linearly_in_users(self, tmp_path):
        small, large = self.lines(tmp_path, 150), self.lines(tmp_path, 300)
        assert 0 < large <= 2.2 * small, (small, large)


_ADDRESS = re.compile(r"(0x)?[0-9a-f]{40}\Z", re.IGNORECASE)


def _edit(kind: str, line: str, prng: Prng, last_block: int) -> bytes | None:
    """The bytes of ``line`` after one edit of ``kind``, or None when the
    record has no field that ``kind`` edits."""
    record = json.loads(line)
    fields = sorted(record)
    field = None
    if kind == "dropped field":
        field = prng.choice(fields)
        return json.dumps({k: v for k, v in record.items() if k != field}).encode()
    if kind == "wrong type":
        field = prng.choice(fields)
        value = 12 if isinstance(record[field], str) else "12"
    elif kind == "bad hex address":
        addresses = [f for f in fields
                     if isinstance(record[f], str) and _ADDRESS.match(record[f])]
        field = prng.choice(addresses) if addresses else None
        value = "0x" + "g" * 40
    elif kind == "truncated JSON":
        return line[:prng.randint(1, len(line) - 1)].encode()
    elif kind == "0xff byte":
        raw = line.encode()
        cut = prng.randint(0, len(raw))
        return raw[:cut] + b"\xff" + raw[cut:]
    elif kind == "out-of-range block":
        field, value = "block", last_block + 1
    elif kind == "duplicated line":
        return f"{line}\n{line}".encode()
    elif kind == "superscript amount":
        field = next((f for f in ("amount", "denomination") if f in record), None)
        value = "\u00b2"
    elif kind == "constructor violation":
        if "denomination" in record:
            field, value = "denomination", "0"
        elif record.get("kind") == "deposit":  # deposits carry no relayer
            field, value = "relayer", record["tx_sender"]
    if field not in record:
        return None
    return json.dumps({**record, field: value}).encode()


EDITS = ("dropped field", "wrong type", "bad hex address", "truncated JSON",
         "0xff byte", "out-of-range block", "duplicated line",
         "superscript amount", "constructor violation")


class TestSeededEdits:
    """One-line edits to each record file never crash a command: it exits 0,
    or 2 naming the edited file."""

    @pytest.mark.parametrize("name", RECORD_FILES)
    def test_edit_exits_0_or_2_naming_the_file(self, dataset_dir, tmp_path,
                                               capsys, name):
        write_side_channels(dataset_dir)
        last_block = json.loads((dataset_dir / "manifest.json").read_text())["last_block"]
        path = dataset_dir / f"{name}.jsonl"
        original = path.read_bytes()
        lines = original.decode().splitlines()
        prng = Prng(RECORD_FILES.index(name))
        edited = 0
        for kind in EDITS:
            candidates = range(len(lines))
            if kind == "constructor violation" and name == "pool_events":
                candidates = [i for i in candidates if '"deposit"' in lines[i]]
            i = prng.choice(candidates)
            new = _edit(kind, lines[i], prng, last_block)
            if new is None:
                continue
            edited += 1
            encoded = [line.encode() for line in lines]
            encoded[i] = new
            path.write_bytes(b"\n".join(encoded) + b"\n")
            try:
                code = main(["relayers", "--data", str(dataset_dir),
                             "--out", str(tmp_path / "out")])
            except Exception as exc:
                pytest.fail(f"{kind} on line {i + 1} raised {exc!r}")
            finally:
                path.write_bytes(original)
            err = capsys.readouterr().err
            assert code in (0, 2), f"{kind} on line {i + 1}: exit {code}"
            if code == 2:
                assert f"file={name}.jsonl" in err, f"{kind} on line {i + 1}: {err}"
        assert edited >= 5


# the sidecar keys no command reads (the benchmark and the tests do)
UNREAD_KEYS = ("am_truth",)
# the keys older sidecars held besides those two; a dataset written then
# must still read
LEGACY_KEYS = ("links_by_heuristic", "user_links", "reusers",
               "fully_withdrawn_reusers", "attackers", "true_balances", "behaviors")

AM_RECORD = {"recipient": A1, "pool_id": "P1", "deposit_blocks": [1],
             "withdrawal_blocks": [2], "ap": 4, "claim_block": 3}


class TestGroundTruthSidecar:
    """``read_true_set_sizes`` reads and checks ``active_depositors``
    alone; ``am_truth`` is written but never read, and any other key is
    ignored."""

    def edit(self, data: Path, change) -> None:
        raw = read_sidecar(data)
        change(raw)
        (data / "ground_truth.json").write_text(json.dumps(raw))

    def test_generated_sidecar_has_every_key(self, dataset_dir):
        assert set(read_sidecar(dataset_dir)) == {"active_depositors", "am_truth"}

    def test_sidecar_am_truth_matches_trace(self, dataset_dir):
        # the benchmark's am-link check reads this key; nothing else pins it
        records = [AmRecord(**{**r, "deposit_blocks": tuple(r["deposit_blocks"]),
                               "withdrawal_blocks": tuple(r["withdrawal_blocks"])})
                   for r in read_sidecar(dataset_dir)["am_truth"]]
        planted = mixed_trace().ground_truth.am_truth
        assert planted
        assert records == sorted(planted, key=lambda r: (r.claim_block, r.recipient))

    @pytest.mark.parametrize("key", ["active_depositors"])
    def test_missing_key_names_the_field(self, dataset_dir, key):
        self.edit(dataset_dir, lambda raw: raw.pop(key))
        with pytest.raises(IngestError, match=rf"missing field \[file=ground_truth.json, field={key}\]"):
            read_true_set_sizes(dataset_dir)

    @pytest.mark.parametrize("key, value", [
        ("active_depositors", {"P1": A1}),
        ("active_depositors", [[A1]]),
        ("active_depositors", {"P1": [A1, 1]}),
        ("active_depositors", None),
    ])
    def test_wrong_type_names_the_field(self, dataset_dir, key, value):
        self.edit(dataset_dir, lambda raw: raw.__setitem__(key, value))
        with pytest.raises(IngestError, match=rf"expected .*\[file=ground_truth.json, field={key}\]"):
            read_true_set_sizes(dataset_dir)

    @pytest.mark.parametrize("key", UNREAD_KEYS + LEGACY_KEYS)
    def test_missing_unread_key_is_ignored(self, dataset_dir, key):
        expected = read_true_set_sizes(dataset_dir)

        def older_layout_without_key(raw):
            raw.update(dict.fromkeys(LEGACY_KEYS, []))
            del raw[key]

        self.edit(dataset_dir, older_layout_without_key)
        assert read_true_set_sizes(dataset_dir) == expected

    # malformed values of the key no command reads, and of the keys older
    # sidecars held
    @pytest.mark.parametrize("key, value", [
        ("links_by_heuristic", [[A1, A2]]),
        ("links_by_heuristic", {"h2": [[A1]]}),
        ("user_links", {"h2": [A1, A2, "h2"]}),
        ("user_links", [[A1, A2]]),
        ("user_links", [[A1, A2, 3]]),
        ("user_links", [[A1, A1, "h2"]]),
        ("reusers", A1),
        ("fully_withdrawn_reusers", [1]),
        ("attackers", None),
        ("am_truth", {}),
        ("am_truth", [{k: v for k, v in AM_RECORD.items() if k != "ap"}]),
        ("am_truth", [{**AM_RECORD, "ap": "4"}]),
        ("am_truth", [{**AM_RECORD, "deposit_blocks": [True]}]),
        ("true_balances", {"P1": {A1: "100"}}),
        ("true_balances", {"P1": [A1]}),
        ("behaviors", {A1: 1}),
    ])
    def test_malformed_unread_key_is_ignored(self, dataset_dir, key, value):
        expected = read_true_set_sizes(dataset_dir)
        self.edit(dataset_dir, lambda raw: raw.__setitem__(key, value))
        assert read_true_set_sizes(dataset_dir) == expected

    def test_repeated_address_counts_once(self, dataset_dir):
        self.edit(dataset_dir, lambda raw: raw.__setitem__(
            "active_depositors", {"P1": [A1, A2, A1], "P2": [A2, A2], "P3": []}))
        assert read_true_set_sizes(dataset_dir) == {"P1": 2, "P2": 1, "P3": 0}

    def test_sidecar_not_an_object(self, dataset_dir):
        (dataset_dir / "ground_truth.json").write_text("[]")
        with pytest.raises(IngestError, match="file=ground_truth.json"):
            read_true_set_sizes(dataset_dir)

    def test_cli_exits_2_without_traceback(self, dataset_dir, tmp_path, capsys):
        self.edit(dataset_dir, lambda raw: raw.pop("active_depositors"))
        code = main(["anonymity", "--tas", "--data", str(dataset_dir),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "field=active_depositors" in err and "Traceback" not in err


class TestSidecarContract:
    """Only ``anonymity --tas`` reads ``ground_truth.json``; every other
    command ignores it, valid or not."""

    COMMANDS = [["relayers"], ["flows"], ["flags"], ["am-link"], ["clusters"],
                ["validate", "--gt", "debank"], ["anonymity", "--combine"]]

    @staticmethod
    def reports(data: Path, out: Path, command) -> dict[str, bytes]:
        assert main([command[0], "--data", str(data), "--out", str(out), *command[1:]]) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    @staticmethod
    def replace_sidecar(data: Path, sidecar: str) -> None:
        path = data / "ground_truth.json"
        if sidecar == "deleted":
            path.unlink()
        else:
            path.write_text(sidecar)

    def test_dataset_holds_no_sidecar(self):
        assert not set(Dataset._fields) & {"path", "relayers", "ground_truth"}

    @pytest.mark.parametrize("sidecar", ["deleted", "[]"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_other_commands_ignore_the_sidecar(self, dataset_dir, tmp_path, command, sidecar):
        before = self.reports(dataset_dir, tmp_path / "before", command)
        self.replace_sidecar(dataset_dir, sidecar)
        assert self.reports(dataset_dir, tmp_path / "after", command) == before

    @pytest.mark.parametrize("sidecar, code", [
        ("deleted", 3), ("[]", 2), ("{", 2),
        pytest.param("[" * 200_000, 2, id="nested"),
        pytest.param('{"active_depositors": {}, "reusers": ' + "1" * 5000 + "}", 2,
                     id="long-int")])
    def test_tas_reads_the_sidecar(self, dataset_dir, tmp_path, capsys, sidecar, code):
        self.replace_sidecar(dataset_dir, sidecar)
        assert main(["anonymity", "--tas", "--data", str(dataset_dir),
                     "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("file=ground_truth.json" in err) == (code == 2)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sidecar, code", [("deleted", 3), ("[]", 2)])
    def test_tas_reads_the_sidecar_before_the_records(self, dataset_dir, tmp_path, capsys,
                                                      sidecar, code):
        # a sidecar fault wins over a record fault: the sidecar is read,
        # and fails, before ingest opens a record file
        self.replace_sidecar(dataset_dir, sidecar)
        (dataset_dir / "pool_events.jsonl").write_text("{not json\n")
        assert main(["anonymity", "--tas", "--data", str(dataset_dir),
                     "--out", str(tmp_path / "out")]) == code
        out, err = capsys.readouterr()
        assert "loaded" not in out and "pool_events.jsonl" not in err
        assert ("file=ground_truth.json" in err) == (code == 2)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("unread", ["deleted", "null"])
    def test_tas_reads_only_active_depositors(self, dataset_dir, tmp_path, unread):
        command = ["anonymity", "--combine", "--tas"]
        before = self.reports(dataset_dir, tmp_path / "before", command)
        raw = read_sidecar(dataset_dir)
        for key in UNREAD_KEYS:
            if unread == "deleted":
                del raw[key]
            else:
                raw[key] = None
        self.replace_sidecar(dataset_dir, json.dumps(raw))
        assert self.reports(dataset_dir, tmp_path / "after", command) == before


def older_layout(src: Path, dst: Path) -> None:
    """Copy a dataset into the older layout: a manifest with ``coin`` and
    ``am_launch``, and an ``internal`` flag on every transfer line."""
    shutil.copytree(src, dst)
    manifest = json.loads((src / "manifest.json").read_text())
    manifest.update(coin="ETH", am_launch=manifest["last_block"])
    (dst / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
    for name in ("transfers", "token_transfers"):
        records = [json.loads(line) for line in (src / f"{name}.jsonl").read_text().splitlines()]
        (dst / f"{name}.jsonl").write_text("".join(
            json.dumps({**r, "internal": False}, sort_keys=True, separators=(",", ":")) + "\n"
            for r in records))


class TestOlderLayout:
    """The manifest holds the block range alone and a transfer carries no
    ``internal`` flag; a dataset that still has them reads the same."""

    def test_manifest_of_the_block_range_alone(self, dataset_dir):
        path = dataset_dir / "manifest.json"
        assert json.loads(path.read_text()).keys() == {"first_block", "last_block"}
        path.write_text('{"first_block":1000,"last_block":7000}')
        assert ingest(dataset_dir).manifest == Manifest(first_block=1000, last_block=7000)

    def test_older_layout_reads_the_same(self, dataset_dir, tmp_path):
        older = tmp_path / "older"
        older_layout(dataset_dir, older)
        assert '"internal":false' in (older / "transfers.jsonl").read_text()
        new, old = ingest(dataset_dir), ingest(older)
        for name in Dataset._fields:
            if name != "labels":
                assert getattr(old, name) == getattr(new, name), name
        assert old.labels._labels == new.labels._labels
        for command in (["anonymity", "--combine", "--tas"], ["flows", "--distance", "2"],
                        ["relayers"], ["am-link"]):
            reports = [TestSidecarContract.reports(data, tmp_path / f"{data.name}-{command[0]}",
                                                   command)
                       for data in (dataset_dir, older)]
            assert reports[0] == reports[1], command

    def test_transfers_differing_only_in_internal_are_one_record(self, dataset_dir):
        path = dataset_dir / "transfers.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        lines[0] = json.dumps({**record, "internal": False})
        path.write_text("\n".join(lines + [json.dumps({**record, "internal": True})]) + "\n")
        with pytest.raises(IngestError) as info:
            ingest(dataset_dir)
        assert str(info.value) == (f"duplicate record (first seen on line 1) "
                                   f"[file=transfers.jsonl, line={len(lines) + 1}]")


class TestEncoding:
    def corrupt(self, path: Path, line: int, column: int = 3) -> None:
        """Put a 0xff byte into ``line`` (1-based) at ``column`` (1-based)."""
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1][:column - 1] + b"\xff" + lines[line - 1][column - 1:]
        path.write_bytes(b"\n".join(lines))

    def test_bad_byte_in_records_names_file_and_line(self, dataset_dir):
        self.corrupt(dataset_dir / "transfers.jsonl", 2)
        with pytest.raises(IngestError,
                           match=r"invalid UTF-8 byte at column 3 \[file=transfers.jsonl, line=2\]"):
            ingest(dataset_dir)

    def test_bad_byte_far_into_a_file_names_its_line(self, dataset_dir):
        # past the first read chunk, so the decode error is raised while
        # earlier lines are still being read
        path = dataset_dir / "transfers.jsonl"
        last = len(path.read_bytes().splitlines())
        assert path.stat().st_size > io.DEFAULT_BUFFER_SIZE
        self.corrupt(path, last, column=1)
        with pytest.raises(IngestError,
                           match=rf"column 1 \[file=transfers.jsonl, line={last}\]"):
            ingest(dataset_dir)

    def test_bad_byte_in_manifest(self, dataset_dir):
        self.corrupt(dataset_dir / "manifest.json", 2)
        with pytest.raises(IngestError, match=r"\[file=manifest.json, line=2\]"):
            ingest(dataset_dir)

    def test_bad_byte_in_sidecar(self, dataset_dir):
        # the sidecar is one line
        self.corrupt(dataset_dir / "ground_truth.json", 1)
        with pytest.raises(IngestError, match=r"\[file=ground_truth.json, line=1\]"):
            read_true_set_sizes(dataset_dir)

    def test_utf8_text_is_read_as_utf8(self, dataset_dir):
        # a non-ASCII coin name round-trips whatever the locale's encoding
        path = dataset_dir / "pools.jsonl"
        pools = [json.loads(line) for line in path.read_text().splitlines()]
        pools[0]["coin"] = "\u00e9ther"
        path.write_bytes("".join(json.dumps(p, ensure_ascii=False) + "\n"
                                 for p in pools).encode("utf-8"))
        assert "\u00e9ther".encode("utf-8") in path.read_bytes()
        assert ingest(dataset_dir).pool(pools[0]["pool_id"]).coin == "\u00e9ther"

    def test_cli_exits_2_without_traceback(self, dataset_dir, tmp_path, capsys):
        self.corrupt(dataset_dir / "pool_events.jsonl", 1)
        code = main(["relayers", "--data", str(dataset_dir),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "file=pool_events.jsonl, line=1" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["anonymity", "relayers", "flows"])
    def test_lone_surrogate_text_exits_2(self, tmp_path, capsys, command):
        # valid JSON that decodes to a string no report file could encode
        data = tmp_path / "data"
        assert main(["synth", "--profile", "disciplined", "--seed", "3", "--users", "4",
                     "--blocks", "200", "--out", str(data)]) == 0
        for name in ("pools.jsonl", "pool_events.jsonl"):
            path = data / name
            path.write_text(path.read_text().replace('"P1"', '"P\\ud800"'))
        capsys.readouterr()
        code = main([command, "--data", str(data), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "file=pools.jsonl, line=2, field=pool_id" in err and "Traceback" not in err


class TestCliCommands:
    def run(self, *argv) -> int:
        return main(list(argv))

    def test_synth_then_anonymity(self, tmp_path, capsys):
        data = tmp_path / "data"
        out = tmp_path / "out"
        assert self.run("synth", "--profile", "mixed", "--seed", "2",
                        "--users", "48", "--out", str(data)) == 0
        assert self.run("anonymity", "--data", str(data), "--out", str(out),
                        "--heuristics", "h1,h2,h3,h4,h5", "--combine") == 0
        payload = json.loads((out / "anonymity.json").read_text())
        assert payload["command"] == "anonymity"
        for pool in payload["pools"]:
            assert pool["combined"]["size"] <= min(
                entry["size"] for entry in pool["heuristics"].values())
        assert "combined" in payload["average_reduction"]
        assert "implied_advantage_gain" in payload["average_reduction"]

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        data = tmp_path / "data"
        self.run("synth", "--profile", "mixed", "--seed", "5", "--users", "40",
                 "--out", str(data))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            for command in (["anonymity", "--combine"], ["clusters"], ["relayers"],
                            ["flows"], ["flags", "--threshold", "2000"], ["am-link"]):
                assert self.run(command[0], "--data", str(data), "--out", str(out),
                                *command[1:]) == 0
            outs.append(out)
        for file in sorted(outs[0].iterdir()):
            assert file.read_bytes() == (outs[1] / file.name).read_bytes(), file.name

    def test_unknown_pool_exits_2_before_any_analysis(self, dataset_dir, tmp_path,
                                                      capsys, monkeypatch):
        def build_index(self, t):
            pytest.fail("the index was built for an unknown --pool")

        monkeypatch.setattr(Dataset, "build_index", build_index)
        out = tmp_path / "out"
        assert self.run("anonymity", "--data", str(dataset_dir), "--out", str(out),
                        "--pool", "nosuch", "--combine", "--tas") == 2
        assert "error: unknown pool: nosuch" in capsys.readouterr().err
        assert not out.exists()

    def test_tas_needs_ground_truth(self, tmp_path):
        data = tmp_path / "data"
        self.run("synth", "--profile", "disciplined", "--seed", "1",
                 "--users", "20", "--out", str(data))
        (data / "ground_truth.json").unlink()
        out = tmp_path / "out"
        assert self.run("anonymity", "--data", str(data), "--out", str(out),
                        "--tas") == 3

    def test_disciplined_negative_control_via_cli(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        self.run("synth", "--profile", "disciplined", "--seed", "1",
                 "--users", "30", "--out", str(data))
        assert self.run("clusters", "--data", str(data), "--out", str(out)) == 0
        payload = json.loads((out / "clusters.json").read_text())
        assert payload["linked_pairs"] == 0
        assert payload["clusters"] == 0

    def test_flags_command_finds_attackers(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        trace = write_trace(data, BehaviorProfile.from_weights({ATTACKER: 1, DISCIPLINED: 3}),
                            seed=4, users=24)
        assert self.run("flags", "--data", str(data), "--out", str(out),
                        "--threshold", "2000") == 0
        payload = json.loads((out / "flags.json").read_text())
        assert {f["address"] for f in payload["flagged"]} == trace.ground_truth.attackers

    def test_am_link_recovers_speculators(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        self.run("synth", "--profile", "am-speculator", "--seed", "6",
                 "--users", "12", "--out", str(data))
        assert self.run("am-link", "--data", str(data), "--out", str(out)) == 0
        payload = json.loads((out / "am-link.json").read_text())
        truth = {r["recipient"]: r for r in read_sidecar(data)["am_truth"]}
        assert payload["claimants"]
        for entry in payload["claimants"]:
            record = truth[entry["address"]]
            assert entry["status"] == "exact"
            assert sorted(record["withdrawal_blocks"]) in entry["solutions"]

    def test_am_link_reports_unsolvable_categories(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        self.run("synth", "--profile", "am-speculator", "--seed", "15",
                 "--users", "6", "--out", str(data))
        dataset = ingest(data)
        first = dataset.ap_claims[0]
        stranger = "0x" + "c" * 40
        extra = [
            {"recipient": stranger, "block": first.block, "ap": 40},
            # a second claim turns an existing speculator into the
            # many-claims class, which is reported but not solved
            {"recipient": first.recipient, "block": first.block + 1, "ap": 40},
        ]
        path = data / "ap_claims.jsonl"
        path.write_text(path.read_text() +
                        "".join(json.dumps(r, sort_keys=True) + "\n" for r in extra))
        assert self.run("am-link", "--data", str(data), "--out", str(out)) == 0
        payload = json.loads((out / "am-link.json").read_text())
        by_addr = {c["address"]: c for c in payload["claimants"]}
        assert by_addr[stranger]["category"] == "non-depositor"
        assert by_addr[stranger]["status"] == "not-solved"
        assert by_addr[first.recipient]["category"] == "n-n-n"
        assert by_addr[first.recipient]["status"] == "not-solved"

    def test_am_link_strict_inconclusive_exit_code(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        write_multi_deposit_claimants(data)
        code = self.run("am-link", "--data", str(data), "--out", str(out),
                        "--search-cap", "1", "--strict")
        assert code == 4

    def test_am_link_solves_a_deep_claimant(self, tmp_path):
        # one claimant with more deposits than the interpreter's default
        # recursion limit, each withdrawn 1500 blocks later by another address
        u = 1500
        data, out = tmp_path / "data", tmp_path / "out"
        _write_pools_dataset(data, ["P1"], [
            *(("P1", "deposit", b, A1, A1) for b in range(1, u + 1)),
            *(("P1", "withdrawal", b, A2, A2) for b in range(u + 1, 2 * u + 1))])
        (data / "manifest.json").write_text(
            json.dumps({"coin": "ETH", "first_block": 1, "last_block": 2 * u + 1}))
        (data / "ap_claims.jsonl").write_text(
            json.dumps({"recipient": A1, "block": 2 * u + 1, "ap": u * u}) + "\n")
        assert self.run("am-link", "--data", str(data), "--out", str(out)) == 0
        (entry,) = json.loads((out / "am-link.json").read_text())["claimants"]
        assert entry["category"] == "n-one-one"
        assert entry["status"] == "exact"
        assert entry["solutions"] == [list(range(u + 1, 2 * u + 1))]

    @staticmethod
    def _out_is_a_file(data: Path, tmp: Path):
        target = tmp / "taken"
        target.write_text("")
        return ["relayers", "--data", str(data), "--out", str(target)], target

    @staticmethod
    def _synth_out_under_a_file(data: Path, tmp: Path):
        (tmp / "taken").write_text("")
        target = tmp / "taken" / "x"
        return ["synth", "--users", "4", "--out", str(target)], target

    @staticmethod
    def _record_file_is_a_directory(data: Path, tmp: Path):
        target = data / "labels.jsonl"
        target.unlink()
        target.mkdir()
        return ["relayers", "--data", str(data), "--out", str(tmp / "out")], target

    @pytest.mark.parametrize("case", ["_out_is_a_file", "_synth_out_under_a_file",
                                      "_record_file_is_a_directory"])
    def test_file_system_error_exits_2(self, dataset_dir, tmp_path, capsys, case):
        argv, path = getattr(self, case)(dataset_dir, tmp_path)
        code = self.run(*argv)
        err = capsys.readouterr().err
        assert code == 2
        assert str(path) in err and "Traceback" not in err

    def test_unknown_heuristic_is_input_error(self, tmp_path):
        data = tmp_path / "data"
        self.run("synth", "--profile", "disciplined", "--seed", "1",
                 "--users", "10", "--out", str(data))
        with pytest.raises(SystemExit) as exc:
            self.run("anonymity", "--data", str(data),
                     "--out", str(tmp_path / "out"),
                     "--heuristics", "h9")
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["anonymity", "clusters", "validate"])
    @pytest.mark.parametrize("value", [",", "", "h9"])
    def test_bad_heuristics_exit_2_at_parse_time(self, tmp_path, capsys, command, value):
        # --data does not exist, so only the parser can name the argument
        extra = ["--gt", "debank"] if command == "validate" else []
        with pytest.raises(SystemExit) as exc:
            self.run(command, *extra, "--heuristics", value,
                     "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "out"))
        assert exc.value.code == 2
        assert "argument --heuristics:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["am-link", "--search-cap", "0"],
                                      ["flows", "--distance", "0"],
                                      ["flags", "--threshold", "-5"]],
                             ids=lambda argv: argv[1])
    def test_bad_numeric_argument_exits_2_at_parse_time(self, tmp_path, capsys, argv):
        # --data does not exist, so only the parser can name the argument
        with pytest.raises(SystemExit) as exc:
            self.run(*argv, "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "out"))
        assert exc.value.code == 2
        assert f"argument {argv[1]}: must be at least" in capsys.readouterr().err

    def test_cross_pool_heuristic_needs_two_pools(self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "out"
        cfg = GeneratorConfig(profile=BehaviorProfile.pure(DISCIPLINED),
                              pools=standard_pools()[:1], user_count=10, block_span=100)
        write_dataset(generate_trace(cfg, 1), data)
        assert self.run("anonymity", "--data", str(data), "--out", str(out),
                        "--heuristics", "h5") == 2
        err = capsys.readouterr().err
        assert "error: h5 needs at least two pools" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_dataset_is_input_error(self, tmp_path):
        assert self.run("anonymity", "--data", str(tmp_path / "nope"),
                        "--out", str(tmp_path / "out")) == 2

    @pytest.mark.parametrize("profile", ["disciplined:1,disciplined:2",
                                         "h1-reuser:1,disciplined:1, disciplined:1"])
    def test_repeated_profile_behavior_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                 profile):
        data = tmp_path / "data"
        assert self.run("synth", "--profile", profile, "--seed", "1",
                        "--users", "10", "--out", str(data)) == 2
        err = capsys.readouterr().err
        assert "repeated profile behavior: 'disciplined'" in err and "Traceback" not in err
        assert not data.exists()


class TestValidateCommand:
    def _write_side_channels(self, data: Path):
        """Craft side-channel files over known depositor/withdrawer addresses."""
        dataset = ingest(data)
        deps = sorted({e.actor for e in dataset.events if e.kind == ledger.DEPOSIT})
        wds = sorted({e.actor for e in dataset.events if e.kind == ledger.WITHDRAWAL})
        gt_d, gt_w = deps[:3], wds[:3]
        first = dataset.manifest.first_block
        receipts = [{"block": first, "tx_index": 0, "log_index": i,
                     "sender": "0x" + "9" * 40, "recipient": a,
                     "amount": "5", "coin": "DROP"}
                    for i, a in enumerate(gt_d + gt_w)]
        (data / "airdrop_claims.jsonl").write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in receipts))
        # consolidation: every ground-truth address forwards to one hub
        hub = "0x" + "8" * 40
        rows = [{"block": first + 2 + i, "tx_index": 0, "log_index": 0,
                 "sender": a, "recipient": hub, "amount": "5", "coin": "DROP"}
                for i, a in enumerate(gt_d + gt_w)]
        path = data / "token_transfers.jsonl"
        existing = path.read_text()
        path.write_text(existing + "".join(
            json.dumps(r, sort_keys=True) + "\n" for r in rows))
        return gt_d, gt_w

    def test_validate_airdrop_produces_scores(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        main(["synth", "--profile", "h3-related-transfer:1,disciplined:1",
              "--seed", "9", "--users", "30", "--out", str(data)])
        self._write_side_channels(data)
        assert main(["validate", "--data", str(data), "--out", str(out),
                     "--gt", "airdrop", "--heuristics", "h3"]) == 0
        payload = json.loads((out / "validate.json").read_text())
        (h3_row,) = payload["heuristics"]
        assert h3_row["tp"] + h3_row["tn"] + h3_row["fp"] + h3_row["fn"] == \
            h3_row["universe"]

    def test_validate_without_evidence_reports_undefined_scores(self, tmp_path):
        # no airdrop claim: no positive pair, so no ratio has a denominator
        data, out = tmp_path / "data", tmp_path / "out"
        main(["synth", "--profile", "h3-related-transfer:1,disciplined:1",
              "--seed", "9", "--users", "30", "--out", str(data)])
        assert main(["validate", "--data", str(data), "--out", str(out),
                     "--gt", "airdrop", "--heuristics", "h3"]) == 0
        (h3_row,) = json.loads((out / "validate.json").read_text())["heuristics"]
        assert h3_row["tp"] == h3_row["fp"] == h3_row["fn"] == 0
        assert h3_row["precision"] is h3_row["recall"] is h3_row["f1"] is None
        last = (out / "validate.txt").read_text().splitlines()[-1].split()
        assert last[0] == "h3" and last[-3:] == ["-", "-", "-"]

    @staticmethod
    def _ens_row(tmp_path, behavior: str, tag: str):
        """Validate ``tag`` against name-service handovers planted on
        exactly the pairs ``behavior`` links."""
        data = tmp_path / "data"
        out = tmp_path / "out"
        trace = write_trace(data, BehaviorProfile.pure(behavior), seed=11, users=8)
        pairs = sorted(trace.ground_truth.links_by_heuristic[tag])
        rows = [json.dumps({"name": f"user{i}.eth", "sender": a1,
                            "recipient": a2, "block": 10, "expiry": 10**9},
                           sort_keys=True)
                for i, (a1, a2) in enumerate(pairs)]
        (data / "ens_transfers.jsonl").write_text("\n".join(rows) + "\n")
        assert main(["validate", "--data", str(data), "--out", str(out),
                     "--gt", "ens", "--heuristics", tag]) == 0
        (row,) = json.loads((out / "validate.json").read_text())["heuristics"]
        return row, len(pairs)

    def test_validate_ens_source(self, tmp_path):
        h3_row, _ = self._ens_row(tmp_path, "h3-related-transfer", "h3")
        # every ground-truth pair is a planted h3 pair: perfect recall
        assert h3_row["fn"] == 0
        assert h3_row["recall"] == "1.00"

    def test_validate_funder_links_score_against_funders(self, tmp_path):
        # h4 pairs join a depositor to its funder, who neither deposits nor
        # withdraws: the universe must pair funders with depositors
        h4_row, planted = self._ens_row(tmp_path, "h4-intermediary", "h4")
        assert planted and h4_row["tp"] == planted
        assert h4_row["fn"] == 0 and h4_row["fp"] == 0
        assert h4_row["recall"] == "1.00"

    def test_validate_rejects_h1(self, tmp_path):
        data = tmp_path / "data"
        main(["synth", "--profile", "disciplined", "--seed", "1",
              "--users", "10", "--out", str(data)])
        assert main(["validate", "--data", str(data), "--out", str(tmp_path / "o"),
                     "--gt", "airdrop", "--heuristics", "h1,h2"]) == 2

    def test_validate_rejects_h1_before_reading_the_dataset(self, tmp_path, capsys):
        assert main(["validate", "--gt", "airdrop", "--heuristics", "h1",
                     "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "h1" in err
        assert "manifest is missing" not in err

    def test_validate_debank_contradictions(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        trace = write_trace(data, BehaviorProfile.pure("h2-improper-sender"), seed=10, users=10)
        a1, a2 = min(trace.ground_truth.links_by_heuristic["h2"])
        (data / "follow_edges.jsonl").write_text(
            json.dumps({"follower": a1, "followed": a2}) + "\n")
        assert main(["validate", "--data", str(data), "--out", str(out),
                     "--gt", "debank", "--heuristics", "h2"]) == 0
        payload = json.loads((out / "validate.json").read_text())
        (h2_row,) = payload["heuristics"]
        assert h2_row["contradicted"] == 1


class TestIdlePools:
    """A pool with no depositor at the cut is reported as idle; the run
    goes on and every other pool reads as it would without it."""

    @staticmethod
    def _anonymity(data, out, *extra):
        assert main(["anonymity", "--data", str(data), "--out", str(out),
                     "--combine", *extra]) == 0
        return json.loads((out / "anonymity.json").read_text())

    @staticmethod
    def _assert_idle(entry):
        assert entry["observed"] == 0
        assert entry["adv_observed"] is None
        assert entry["adv_reduced"] is None and entry["r_adv"] is None
        assert entry["combined"] == {"size": 0, "reduction": None}
        assert entry["heuristics"]
        assert all(h == {"size": 0, "reduction": None} for h in entry["heuristics"].values())

    def test_cut_before_a_pools_first_deposit(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--profile", "mixed", "--seed", "7",
                     "--users", "96", "--out", str(data)]) == 0
        report = self._anonymity(data, tmp_path / "all", "--at", "1001")
        by_pool = {e["pool_id"]: e for e in report["pools"]}
        self._assert_idle(by_pool["P0.1"])
        assert "P0.1  0         0 (-)" in (tmp_path / "all" / "anonymity.txt").read_text()
        active = [e for e in report["pools"] if e["observed"]]
        assert len(active) == 1
        (alone,) = self._anonymity(data, tmp_path / "alone", "--at", "1001",
                                   "--pool", active[0]["pool_id"])["pools"]
        assert alone == active[0]
        # idle pools are left out of the averages
        assert report["average_reduction"]["combined"] == alone["combined"]["reduction"]

    def test_pool_without_events(self, tmp_path, dataset_dir):
        before = self._anonymity(dataset_dir, tmp_path / "before")
        with (dataset_dir / "pools.jsonl").open("a") as handle:
            handle.write(json.dumps({"am_weight": 1, "coin": "ETH",
                                     "denomination": "7", "pool_id": "PX"}) + "\n")
        after = self._anonymity(dataset_dir, tmp_path / "after")
        (idle,) = [e for e in after["pools"] if e["pool_id"] == "PX"]
        self._assert_idle(idle)
        assert [e for e in after["pools"] if e["pool_id"] != "PX"] == before["pools"]
        assert after["average_reduction"] == before["average_reduction"]

    def test_relayers_without_a_withdrawal(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["synth", "--profile", "disciplined", "--seed", "3", "--users", "2",
                     "--blocks", "100", "--out", str(data)]) == 0
        assert main(["relayers", "--data", str(data), "--out", str(out)]) == 0
        by_pool = {r["pool_id"]: r for r in json.loads((out / "relayers.json").read_text())["pools"]}
        idle = [r for r in by_pool.values() if not r["withdrawals"]]
        assert {r["pool_id"] for r in idle} == {"P0.1", "P1", "P10"}
        for row in idle:
            assert row["relayed_withdrawal_share"] is None
            assert row["relayed_withdrawer_share"] is None
        assert by_pool["P100"]["relayed_withdrawal_share"] == "100.00%"
        table = (out / "relayers.txt").read_text()
        assert "P0.1  0         0 (-)                0 (-)" in table
        assert "(0.00%)" not in table


class TestTwoCoins:
    def test_pool_alone_in_its_coin_gets_no_h5_links(self, dataset_dir, tmp_path):
        def views():
            dataset = ingest(dataset_dir)
            index = dataset.build_index(dataset.manifest.last_block)
            return {p.pool_id: pool_view(index, p) for p in dataset.pools}

        assert h5_cross_pool(views().values())["P100"].link_pairs  # before the edit
        path = dataset_dir / "pools.jsonl"
        pools = [json.loads(line) for line in path.read_text().splitlines()]
        for pool in pools:
            if pool["pool_id"] == "P100":
                pool["coin"] = "BNB"
        path.write_text("".join(json.dumps(pool) + "\n" for pool in pools))
        for command in (["anonymity", "--combine"], ["clusters"],
                        ["validate", "--gt", "debank"]):
            assert main([*command, "--data", str(dataset_dir),
                         "--out", str(tmp_path / "out")]) == 0

        after = views()
        results = h5_cross_pool(after.values())
        eth = h5_cross_pool(v for v in after.values() if v.pool.coin == "ETH")
        assert set(eth) == {"P0.1", "P1", "P10"}
        assert any(r.link_pairs for r in eth.values())
        for pool_id, alone in eth.items():
            assert results[pool_id].link_pairs == alone.link_pairs
        assert results["P100"].link_pairs == h1_reuse(after["P100"]).link_pairs == frozenset()
        report = json.loads((tmp_path / "out" / "anonymity.json").read_text())
        assert {e["pool_id"]: e["heuristics"]["h5"]["size"] for e in report["pools"]} == \
            {pool_id: len(reduced(after[pool_id], r.link_pairs)) for pool_id, r in results.items()}


def _write_pools_dataset(data: Path, pools, events) -> None:
    """A dataset of just ``pools`` and ``events`` (block range 1-20)."""
    data.mkdir()
    (data / "manifest.json").write_text(
        json.dumps({"coin": "ETH", "first_block": 1, "last_block": 20}))
    for name in RECORD_FILES:
        (data / f"{name}.jsonl").write_text("")
    (data / "pools.jsonl").write_text("".join(
        json.dumps({"pool_id": p, "coin": "ETH", "denomination": "100",
                    "am_weight": 1}) + "\n" for p in pools))
    (data / "pool_events.jsonl").write_text("".join(
        json.dumps({"pool_id": pool, "kind": kind, "block": block,
                    "actor": actor, "tx_sender": sender}) + "\n"
        for pool, kind, block, actor, sender in events))


class TestEmptiedPools:
    """A heuristic that leaves a pool no positive balance is reported for
    that pool alone; the run goes on and the pool's other heuristics keep
    their numbers."""

    def test_own_note_withdrawn(self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "out"
        _write_pools_dataset(data, ["P1"], [("P1", "deposit", 5, A1, A1),
                                            ("P1", "withdrawal", 9, A1, A1)])
        assert main(["anonymity", "--data", str(data), "--out", str(out),
                     "--combine"]) == 0
        assert "error" not in capsys.readouterr().err
        report = json.loads((out / "anonymity.json").read_text())
        (entry,) = report["pools"]
        assert entry["observed"] == 1 and entry["adv_observed"] == "1"
        assert entry["heuristics"] == {
            tag: {"size": 0, "reduction": None} for tag in report["heuristics"]}
        assert entry["combined"] == {"size": 0, "reduction": None}
        assert entry["adv_reduced"] is None and entry["r_adv"] is None
        assert report["average_reduction"] == {}
        assert "P1    1         0 (-)  0 (-)  0 (-)  0 (-)  0 (-)" in \
            (out / "anonymity.txt").read_text()

    def test_one_heuristic_empties(self, tmp_path):
        # in P1 a withdrawal signed by the only depositor pays another
        # address, so h2 joins the two and empties the pool; h1, h3 and h4
        # leave the depositor.  In P2, A2 withdraws its own note.
        a3 = "0x" + "c" * 40
        data = tmp_path / "data"
        _write_pools_dataset(data, ["P1", "P2"], [
            ("P1", "deposit", 5, A1, A1), ("P1", "withdrawal", 9, A2, A1),
            ("P2", "deposit", 5, A2, A2), ("P2", "deposit", 6, a3, a3),
            ("P2", "withdrawal", 9, A2, A2)])
        reports = {}
        for pools in ([], ["--pool", "P1"], ["--pool", "P2"]):
            out = tmp_path / ("out" + "".join(pools))
            assert main(["anonymity", "--data", str(data), "--out", str(out),
                         "--combine", "--heuristics", "h1,h2,h3,h4", *pools]) == 0
            reports[tuple(pools)] = json.loads((out / "anonymity.json").read_text())
        p1, p2 = reports[()]["pools"]
        assert p1["heuristics"] == {
            "h1": {"size": 1, "reduction": "0.00%"},
            "h2": {"size": 0, "reduction": None},
            "h3": {"size": 1, "reduction": "0.00%"},
            "h4": {"size": 1, "reduction": "0.00%"}}
        assert p1["combined"] == {"size": 0, "reduction": None}
        assert p1["adv_observed"] == "1"
        assert p1["adv_reduced"] is None and p1["r_adv"] is None
        assert p2["combined"] == {"size": 1, "reduction": "50.00%"}
        assert [p1] == reports[("--pool", "P1")]["pools"]
        assert [p2] == reports[("--pool", "P2")]["pools"]
        # h2 and the combined set average over P2 alone
        assert reports[()]["average_reduction"] == {
            "h1": "25.00%", "h2": "50.00%", "h3": "25.00%", "h4": "25.00%",
            "combined": "50.00%", "implied_advantage_gain": "100.00%"}
        row = (tmp_path / "out" / "anonymity.txt").read_text().splitlines()[2]
        assert re.split(r"\s{2,}", row) == [
            "P1", "1", "1 (-0.00%)", "0 (-)", "1 (-0.00%)", "1 (-0.00%)", "0 (-)"]


class TestReductionCalls:
    """The one reduction runs only where a set is reported: in
    ``anonymity``, once per heuristic and once for ``combined``, per pool.
    Finding links reduces nothing."""

    def test_only_reported_sets_are_reduced(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        write_trace(data, BehaviorProfile.from_weights({b: 1 for b in BEHAVIORS}),
                    seed=7, users=300)
        calls = []

        def counted(state, links, depositors):
            calls.append(None)
            return reduced_set(state, links, depositors)

        # wherever a module binds the name, so no path around the counter
        for module in (ledger, heuristics, metrics, anonymity_command):
            monkeypatch.setattr(module, "reduced_set", counted, raising=False)
        pools = len(ingest(data).pools)
        tags = heuristics.default_tags(pools)
        for argv, expected in ((["clusters"], 0),
                               (["validate", "--gt", "debank"], 0),
                               (["anonymity", "--combine"], pools * (len(tags) + 1))):
            calls.clear()
            assert main([*argv, "--data", str(data), "--out", str(tmp_path / "out")]) == 0
            assert (argv[0], len(calls)) == (argv[0], expected)


class TestSelectedPoolHeuristics:
    """``anonymity --pool P`` reports ``P``'s entry exactly as a run over
    every pool does, h5's cross-pool matches included."""

    def test_each_selected_pool_reports_its_entry_of_the_full_run(self, tmp_path):
        data = tmp_path / "data"
        write_trace(data, BehaviorProfile.from_weights({b: 1 for b in BEHAVIORS}),
                    seed=7, users=300)

        def pools_of(*selected: str) -> list[dict]:
            out = tmp_path / ("out" + "".join(selected))
            assert main(["anonymity", "--combine", "--data", str(data), "--out", str(out),
                         *selected]) == 0
            return json.loads((out / "anonymity.json").read_text())["pools"]

        every = pools_of()
        assert len(every) > 2
        for entry in every:
            assert pools_of("--pool", entry["pool_id"]) == [entry]
        assert any(entry["heuristics"]["h5"]["size"] for entry in every)
