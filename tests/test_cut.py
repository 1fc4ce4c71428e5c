"""A cut at block ``T`` equals the dataset truncated at ``T``.

Every cut-taking command runs twice per cut: with ``--at T`` on the full
dataset, and without ``--at`` on a copy that keeps only the pool events,
transfers, token transfers and reward claims up to ``T`` and whose
manifest ends at ``T``.  The two runs must write the same bytes.
Side-channel files and the ground-truth sidecar are copied uncut on both
sides, since the cut does not apply to them.
"""

from __future__ import annotations

import json
import shutil

import pytest

from anonset.cli import main
from anonset.dataset import ingest

CUT_FILES = ("pool_events", "transfers", "token_transfers", "ap_claims")

COMMANDS = {
    "anonymity-combine-tas": ["anonymity", "--combine", "--tas"],
    "anonymity-h2-h3": ["anonymity", "--heuristics", "h2,h3"],
    "clusters": ["clusters"],
    "flows": ["flows", "--distance", "2"],
    "validate-debank": ["validate", "--gt", "debank"],
}


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _blocks(path):
    return [r["block"] for r in _records(path)]


@pytest.fixture(scope="module")
def full(tmp_path_factory):
    data = tmp_path_factory.mktemp("full")
    assert main(["synth", "--profile", "mixed", "--seed", "7", "--users", "300",
                 "--out", str(data)]) == 0
    return data


def truncate(src, dst, t: int) -> None:
    shutil.copytree(src, dst)
    for name in CUT_FILES:
        path = dst / f"{name}.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if json.loads(line)["block"] <= t))
    manifest = json.loads((dst / "manifest.json").read_text())
    manifest["last_block"] = t
    (dst / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("quartile", [1, 2, 3])
def test_cut_equals_truncation(full, tmp_path, quartile):
    heights = sorted(_blocks(full / "pool_events.jsonl"))
    t = heights[len(heights) * quartile // 4]
    cut_copy = tmp_path / "truncated"
    truncate(full, cut_copy, t)
    # the copy really lost records of every cut file that has any past t
    assert len(_blocks(cut_copy / "pool_events.jsonl")) < len(heights)
    assert len(_blocks(cut_copy / "transfers.jsonl")) < len(_blocks(full / "transfers.jsonl"))

    for name, argv in COMMANDS.items():
        at, truncated = tmp_path / "at" / name, tmp_path / "cut" / name
        assert main([*argv, "--at", str(t), "--data", str(full), "--out", str(at)]) == 0
        assert main([*argv, "--data", str(cut_copy), "--out", str(truncated)]) == 0
        reports = sorted(p.name for p in at.iterdir())
        assert len(reports) == 2
        assert sorted(p.name for p in truncated.iterdir()) == reports
        for report in reports:
            assert (at / report).read_bytes() == (truncated / report).read_bytes(), \
                (t, name, report)

    # t is an event height, so an exclusive cut would lose actors here
    events = [e for e in _records(full / "pool_events.jsonl") if e["block"] <= t]
    for pool in json.loads((tmp_path / "at" / "flows" / "flows.json").read_text())["pools"]:
        for side, kind in (("depositors", "deposit"), ("withdrawers", "withdrawal")):
            actors = {e["actor"] for e in events
                      if e["pool_id"] == pool["pool_id"] and e["kind"] == kind}
            assert pool[side]["1"] == len(actors), (t, pool["pool_id"], side)


def test_index_holds_each_core_file_up_to_the_cut(full):
    # token transfers are the sparsest file: cut at their median
    heights = sorted(_blocks(full / "token_transfers.jsonl"))
    t = heights[len(heights) // 2]
    index = ingest(full).build_index(t)
    for held, name in ((index.pool_events, "pool_events"),
                       (index.native_transfers, "transfers"),
                       (index.token_transfers, "token_transfers")):
        blocks = _blocks(full / f"{name}.jsonl")
        assert 0 < len(held) == sum(1 for b in blocks if b <= t) < len(blocks), name


def test_the_default_cut_shares_the_records(full):
    # nothing lies past the last block, so the index holds no copy of a file
    dataset = ingest(full)
    index = dataset.build_index(dataset.manifest.last_block)
    assert index.pool_events is dataset.events
    assert index.native_transfers is dataset.transfers
    assert index.token_transfers is dataset.token_transfers
