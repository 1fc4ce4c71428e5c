"""The report writer: ``commands._encode``, ``commands._write_report`` and
``commands._table`` against oracles.

The pieces ``_encode`` emits must join to the bytes ``json.dumps(payload,
sort_keys=True, indent=2)`` gives, on random payloads and on the payload of
every subcommand, and ``_write_report`` must stream them into the file
without holding the report; ``_table`` must give the bytes of the loop it
replaced.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import random
import tracemalloc
from typing import NamedTuple

import pytest

from anonset import cli, commands


def oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def encoded(payload) -> str:
    sink = io.StringIO()
    commands._encode(payload, "\n", sink.write)
    return sink.getvalue()


class Point(NamedTuple):
    x: object
    y: object


# quotes, backslashes, control characters, non-ASCII text (one character
# beyond the BMP) and lone surrogates
ALPHABET = ['"', "\\", "\n", "\t", "\x00", "\x7f", "/", "a", "Z", " ", "0",
            "é", "€", "\U0001f600", "\ud800", "\udfff"]


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def random_scalar(rng: random.Random):
    return rng.choice([
        lambda: random_text(rng),
        lambda: rng.randrange(-1000, 1000),
        lambda: rng.choice([-1, 1]) * rng.randrange(10 ** 29, 10 ** 30),  # 30 digits
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300]),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.choice([{}, [], ()]),
    ])()


def random_value(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return random_scalar(rng)
    size = rng.randrange(4)  # 0: an empty container at this depth
    items = [random_value(rng, depth - 1) for _ in range(size)]
    kind = rng.randrange(4)
    if kind == 0:
        return {random_text(rng): item for item in items}
    if kind == 1:
        return items
    if kind == 2:
        return tuple(items)
    return Point(random_value(rng, depth - 1), random_value(rng, depth - 1))


@pytest.mark.parametrize("seed", range(8))
def test_encode_matches_json_on_random_payloads(seed):
    rng = random.Random(seed)
    for _ in range(300):
        payload = random_value(rng, rng.randrange(1, 6))
        assert encoded(payload) == oracle(payload)


def test_encode_matches_json_on_named_edge_cases():
    for payload in [{}, [], (), {"": ""}, {"a": {}}, {"a": [[], {}, ()]},
                    [Point([], {})], Point((1,), {"k": None}), [True, False, None],
                    {"b": 1, "a": 2, "\ud800": 3, "é": 4, "A": 5},
                    -(10 ** 29), math.nan, "\ud800\"\\\n"]:
        assert encoded(payload) == oracle(payload)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("writer") / "data"
    assert cli.main(["synth", "--profile", "mixed", "--seed", "5", "--users", "120",
                     "--blocks", "2400", "--out", str(out)]) == 0
    return out


RUNS = [["anonymity", "--combine", "--tas"], ["clusters"], ["relayers"],
        ["flows", "--distance", "3"], ["flags", "--threshold", "0"], ["am-link"],
        ["validate", "--gt", "airdrop"], ["validate", "--gt", "debank"]]


def test_runs_cover_every_report_command():
    (commands,) = [a.choices for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) - {"synth"} == {argv[0] for argv in RUNS}


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_written_report_matches_json(argv, dataset, tmp_path, monkeypatch):
    payloads = []
    command = importlib.import_module(f"anonset.commands.{argv[0].replace('-', '_')}")
    write = command._write_report
    monkeypatch.setattr(command, "_write_report",
                        lambda args, name, payload, table: (payloads.append(payload),
                                                            write(args, name, payload, table)))
    assert cli.main(argv + ["--data", str(dataset), "--out", str(tmp_path)]) == 0
    (payload,) = payloads
    written = (tmp_path / f"{payload['command']}.json").read_bytes()
    assert written == (oracle(payload) + "\n").encode("utf-8")


def am_link_payload(claimants: int) -> dict:
    """An ``am-link`` payload shaped as the benchmark's, ``claimants`` long."""
    return {"command": "am-link", "search_cap": 10_000, "claimants": [
        {"address": f"0x{i:040x}", "category": "n-one-one", "claims": 1,
         "explored": 3, "multiplicity": 0, "pool_id": "P10",
         "solutions": ((4_000 + i, 4_001 + i),), "status": "exact"}
        for i in range(claimants)]}


def test_writer_leaves_no_reference_cycle(tmp_path):
    """``_encode`` is a module function.  A recursive encoder written as a
    nested closure refers to itself through its cell, so what it holds
    stays alive until the collector runs, and ``cli.main`` pauses the
    collector.  No chunk list now exists for it to keep: the report streams
    into the file, and such a closure would keep only the closed file's
    ``write``.  When reports were joined first, it kept every chunk, and
    ``am-link`` on the ``amlink-speculators-2k`` data read 0.22 to 0.27 MB
    more ``peak_rss_mb``.  Such a writer fails here; ``json.dumps(indent=2)``
    itself leaves 33 cyclic objects."""
    payload = am_link_payload(1000)
    args = argparse.Namespace(out=str(tmp_path))
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        commands._write_report(args, "am-link", payload, "table\n")
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()
    assert (tmp_path / "am-link.json").read_text(encoding="utf-8") == oracle(payload) + "\n"


def am_link_table(payload: dict) -> str:
    """The table ``am-link`` writes beside ``payload``: one row per claimant."""
    return commands._table(["address", "category", "status", "solutions"],
                           [[o["address"], o["category"], o["status"], str(len(o["solutions"]))]
                            for o in payload["claimants"]])


def write_peak_rise(tmp_path, payload: dict, table: str = "table\n") -> int:
    """The rise of the traced peak while ``_write_report`` writes ``payload``
    and ``table``, after one warm-up write, with the collector paused as
    ``cli.main`` does."""
    args = argparse.Namespace(out=str(tmp_path))
    commands._write_report(args, "am-link", payload, table)
    collecting = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        commands._write_report(args, "am-link", payload, table)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        if collecting:
            gc.enable()


def test_writer_holds_no_copy_of_the_report(tmp_path):
    """Clock-free: the report streams into the file, so writing it takes
    about the file's buffers, whatever its size.  Streamed, the 1 000-claimant
    payload (a 301 KB report) rises about 61 KiB at either size; joined into
    one string before it was written, it rose 2 060 KiB, and 4 128 KiB at
    2 000 claimants.  The table goes into its file in pieces too, and its
    write rises no more with it; written whole, its encoded copy rose 63 KiB
    more at 2 000 rows than at 1 000."""
    small = write_peak_rise(tmp_path, am_link_payload(1000))
    large = write_peak_rise(tmp_path, am_link_payload(2000))
    assert small < 256 * 1024
    assert abs(large - small) <= 16 * 1024, (small, large)
    small, large = (am_link_payload(n) for n in (1000, 2000))
    small_table, large_table = map(am_link_table, (small, large))
    assert len(large_table) - len(small_table) > 48 * 1024  # past the bound below
    small = write_peak_rise(tmp_path, small, small_table)
    large = write_peak_rise(tmp_path, large, large_table)
    assert small < 256 * 1024
    assert abs(large - small) <= 16 * 1024, (small, large)
    assert (tmp_path / "am-link.txt").read_text(encoding="utf-8") == large_table


def loop_table(headers, rows) -> str:
    """``_table`` as it was written before, one ``ljust`` per cell."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("headers, rows", [
    (["a", "b"], [["wider than a", "x"], ["y", "wider than b"]]),
    (["pool", "count"], []),
    (["only"], [["x"], ["a longer cell"], [""]]),
    (["fmt", "x"], [["{}", "{0}"], ["{0}", "{}"], ["{x}", "}{"]]),
    (["trailing", "last"], [["a  ", "b  "], ["   ", "   "], ["", ""]]),
    (["h"], []),
])
def test_table_matches_the_loop(headers, rows):
    assert commands._table(headers, rows) == loop_table(headers, rows)


def test_table_matches_the_loop_on_random_rows():
    rng = random.Random(3)
    cells = ["", " ", "{}", "{0}", "{:>9}", "x ", "-", "été", "0x" + "a" * 40]
    for _ in range(300):
        width = rng.randrange(1, 6)
        headers = [rng.choice(cells) + "h" for _ in range(width)]
        rows = [[rng.choice(cells) for _ in range(width)] for _ in range(rng.randrange(5))]
        assert commands._table(headers, rows) == loop_table(headers, rows)
