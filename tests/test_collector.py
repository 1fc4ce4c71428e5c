"""``main`` runs each command with the cyclic garbage collector paused.

The pause is safe only while a command leaves no cycles that grow with
its input: records are tuples that reference counting frees.  These tests
pin that, and that ``main`` hands the caller's collector setting back on
every exit path.
"""

from __future__ import annotations

import gc
import json
import sys
import traceback
from pathlib import Path

import pytest

from anonset.cli import main

SYNTH = ["synth", "--profile", "mixed", "--seed", "7"]

# every command but synth, which makes the dataset the others read
ANALYSES = [
    ["anonymity", "--combine", "--tas"],
    ["clusters"],
    ["relayers"],
    ["flows", "--distance", "2"],
    ["flags"],
    ["am-link"],
    ["validate", "--gt", "airdrop"],
]


def leftover_cycles(argv: list[str]) -> tuple[int, list]:
    """Run ``main(argv)`` with the collector paused, then collect: the
    number of unreachable objects the run left, and those objects."""
    collecting = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        assert main(argv) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if collecting:
            gc.enable()
    return unreachable, garbage


def anonset_objects(garbage: list) -> list:
    return [o for o in garbage if type(o).__module__.split(".")[0] == "anonset"]


def test_no_command_leaves_a_cycle_that_grows_with_its_input(tmp_path):
    small, large = tmp_path / "small", tmp_path / "large"
    runs = {"synth": SYNTH + ["--users", "300", "--blocks", "3600", "--out", str(small)]}
    for argv in ANALYSES:
        runs[argv[0]] = argv + ["--data", str(small), "--out", str(tmp_path / "out")]
    left = {}
    for name, argv in runs.items():
        left[name], garbage = leftover_cycles(argv)
        assert not anonset_objects(garbage), name

    # about 4x the pool events of the small dataset
    assert main(SYNTH + ["--users", "1200", "--blocks", "14400", "--out", str(large)]) == 0
    unreachable, garbage = leftover_cycles(
        ["anonymity", "--combine", "--tas", "--data", str(large), "--out", str(tmp_path / "big")])
    assert not anonset_objects(garbage)
    assert unreachable == left["anonymity"]


@pytest.fixture(scope="module")
def data(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("collector") / "data"
    assert main(SYNTH + ["--users", "48", "--out", str(out)]) == 0
    return out


def _ok(data: Path, tmp: Path) -> list[str]:
    return ["anonymity", "--data", str(data), "--out", str(tmp / "out")]


def _copy(data: Path, dst: Path, leave_out: str = "") -> Path:
    dst.mkdir()
    for file in data.iterdir():
        if file.name != leave_out:
            (dst / file.name).write_bytes(file.read_bytes())
    return dst


def _bad_record(data: Path, tmp: Path) -> list[str]:
    bad = _copy(data, tmp / "bad")
    (bad / "pool_events.jsonl").write_text("not json\n")
    return ["relayers", "--data", str(bad), "--out", str(tmp / "out")]


def _no_sidecar(data: Path, tmp: Path) -> list[str]:
    bare = _copy(data, tmp / "bare", leave_out="ground_truth.json")
    return ["anonymity", "--tas", "--data", str(bare), "--out", str(tmp / "out")]


def _all_inconclusive(data: Path, tmp: Path) -> list[str]:
    # only claimants with several deposits, whose search a cap of 1 cuts short
    spec = tmp / "spec"
    assert main(["synth", "--profile", "am-speculator", "--seed", "8",
                 "--users", "10", "--out", str(spec)]) == 0
    multi = {r["recipient"] for r in
             json.loads((spec / "ground_truth.json").read_text())["am_truth"]
             if len(r["deposit_blocks"]) > 1}
    claims = spec / "ap_claims.jsonl"
    claims.write_text("".join(line + "\n" for line in claims.read_text().splitlines()
                              if json.loads(line)["recipient"] in multi))
    return ["am-link", "--search-cap", "1", "--strict",
            "--data", str(spec), "--out", str(tmp / "out")]


@pytest.fixture
def keep_collector():
    """Put the collector back as the test found it."""
    before = gc.isenabled()
    yield
    (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("case, code", [
    (_ok, 0), (_bad_record, 2), (_no_sidecar, 3), (_all_inconclusive, 4)],
    ids=["ok", "bad-record", "no-sidecar", "all-inconclusive"])
def test_main_restores_the_callers_collector(data, tmp_path, keep_collector,
                                             case, code, collecting):
    argv = case(data, tmp_path)
    (gc.enable if collecting else gc.disable)()
    assert main(argv) == code
    assert gc.isenabled() == collecting


@pytest.mark.parametrize("collecting", [True, False], ids=["caller-on", "caller-off"])
def test_main_restores_the_collector_on_a_parse_error(keep_collector, collecting):
    (gc.enable if collecting else gc.disable)()
    with pytest.raises(SystemExit):
        main(["anonymity", "--distance", "2"])
    assert gc.isenabled() == collecting


def test_a_command_runs_no_collection(data, tmp_path, keep_collector):
    # Only a collection that ``main`` starts counts.  The objects a paused
    # run allocates are still counted against generation 0 when ``main``
    # enables the collector again, so the caller's next allocation may start
    # a collection: under cProfile, whose hook allocates on the C call of
    # ``gc.callbacks.remove`` below, it does.
    started = []

    def probe(phase, info):
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not main.__code__:
                frame = frame.f_back
            if frame is not None:
                started.append("".join(traceback.format_stack(sys._getframe(1))))

    gc.enable()
    gc.callbacks.append(probe)
    try:
        assert main(["anonymity", "--combine", "--tas",
                     "--data", str(data), "--out", str(tmp_path / "out")]) == 0
    finally:
        gc.callbacks.remove(probe)
    assert started == []
    assert gc.isenabled()
