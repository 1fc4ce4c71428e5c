"""Every CLI report pinned byte for byte.

One synthetic dataset is generated, every analysis command runs on it
in-process, and the sha256 of each report file must match the value
recorded here.  ``validate --gt ens`` and ``--gt debank`` run again on a
copy of it that holds side-channel evidence, so their counts are nonzero.
A refactor that changes no analysis leaves every digest alone; a digest
that moves means a report changed and needs a reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil

import pytest

from anonset import cli, heuristics
from anonset.cli import main
from anonset.dataset import ingest

RUNS = {
    "anonymity-combine-tas": ["anonymity", "--combine", "--tas"],
    # at block 2500 every pool already has a depositor
    "anonymity-h2-h3-at": ["anonymity", "--heuristics", "h2,h3", "--at", "2500"],
    # at block 1010 P0.1 and P1 are idle, so the means cover P10 and P100 alone
    "anonymity-combine-at-idle": ["anonymity", "--combine", "--at", "1010"],
    # the one selected pool is idle: no average, no trailer, null advantages
    "anonymity-combine-tas-idle-pool": ["anonymity", "--combine", "--tas",
                                        "--pool", "P10", "--at", "1000"],
    "clusters": ["clusters"],
    "relayers": ["relayers"],
    "flows": ["flows", "--distance", "2"],
    # every frontier of one walk: the third is empty in every pool
    "flows-distance-3": ["flows", "--distance", "3"],
    "flags": ["flags"],
    "am-link": ["am-link"],
    "validate-airdrop": ["validate", "--gt", "airdrop"],
    "validate-debank": ["validate", "--gt", "debank"],
    # the dataset holds no name-service evidence, so the universe is empty
    "validate-intersection": ["validate", "--gt", "intersection"],
}

# run on a copy of the dataset with name-handover and follow evidence
EVIDENCE_RUNS = {
    "validate-debank-follows": ["validate", "--gt", "debank"],
    "validate-ens": ["validate", "--gt", "ens"],
    "validate-ens-h4-at": ["validate", "--gt", "ens", "--heuristics", "h4",
                           "--at", "3000"],
}

DIGESTS = {
    "am-link/am-link.json":
        "4db72fe179900cfdb31e1d2e46d09637e7d98d3c68670ecc75b40962247bdc49",
    "am-link/am-link.txt":
        "76aca3673f2f7abd86d3cfb3f753532e6cc82cf00e62be93a61ad75bc26479fb",
    "anonymity-combine-tas/anonymity.json":
        "6d84e7202d937006bcc13b6d25bd25de6604e4cc7f68f54d77b0dc1f2e17ac53",
    "anonymity-combine-tas/anonymity.txt":
        "60dd40556e214bbd1ea0597d11c44c1c06697cac6d532a7abe352f90b6bb4780",
    "anonymity-combine-at-idle/anonymity.json":
        "933d4292c34bc3229d1eb7534b38f2933f546aab2b846d2c9678bdf37dc1a9c6",
    "anonymity-combine-at-idle/anonymity.txt":
        "9be2c45e9cfd320492e89b77f03541ed957163ec947a3101f9bd0ab5dbf7f603",
    "anonymity-combine-tas-idle-pool/anonymity.json":
        "39b9cd95cd0c7f3ce267b991daf3f912ac0ce92155c1ac83904deffe9935ad25",
    "anonymity-combine-tas-idle-pool/anonymity.txt":
        "4637429567f78cb36eeab8dcd0d98d0cd6acec9a3225c5cb4cfd40fcccfd0198",
    "anonymity-h2-h3-at/anonymity.json":
        "5c3ec9ba6b8b6dc70b75ab65a0d5f24457fe419b33870aac67f0eeed0141c3da",
    "anonymity-h2-h3-at/anonymity.txt":
        "0a7e15675f7de4b951e1b4a725f267666b747097c47cf44ef93d70bea785b4ff",
    "clusters/clusters.json":
        "09baf3e35f345bad8abab5d22e90c192347748e77a2b3444b749d67a1c011afa",
    "clusters/clusters.txt":
        "1ba78d23a394aebd8d2830f417b81cbbdc3dad33df157f83ecbe3bdc4ba0472a",
    "flags/flags.json":
        "d19568eaf572c0c6a4cceba1255b2f235d8a31efa7bfdb99ccbef9d7bbfc9e3d",
    "flags/flags.txt":
        "94b96ec1cc0d247e0ebc2efffc91be3e766220bec4dff4594f071765dde11a9c",
    "flows/flows.json":
        "2e465e1999833f01c73ce63e4aeac34566a036724101d78a4d4ccb8eb86bd0d4",
    "flows/flows.txt":
        "3088d1ad159422f2a8dd7de31daac2f2bd27266f303a5afda86a51cd053d6638",
    "flows-distance-3/flows.json":
        "586f527e2472166aa0a812ac688e2a1077282c73dfcba41a1ab2a3f7e8dcb88f",
    "flows-distance-3/flows.txt":
        "a54215fab0d1c75ddac469410245187f91c549cd318ba1d1cc6b0ad26685813e",
    "relayers/relayers.json":
        "c0148ad010adaf9f0e6e2f783e73a35e447b33535f27c7a66e193ab4dc9caa01",
    "relayers/relayers.txt":
        "59c14455a9a658fefc6857029c2bcd4aff9496218916868b70f5e3ca7123a39e",
    "validate-airdrop/validate.json":
        "7f31a69346f77cfea7c5a74a2b47ce4f9c1c38330293b340f9e0f17669cb4fb7",
    "validate-airdrop/validate.txt":
        "29f0282438c2d7ae1e69cd62f3c76aa28d33a649a20e36853d0291516042d0c3",
    "validate-debank/validate.json":
        "ba83bcbec82d8f06f5e477adbe0f44025807c99437f037cad8adb50a006d2330",
    "validate-debank/validate.txt":
        "6ac94dada351323192b96123e09bd3c90b0f334b3d02d54c77e48ee37725621f",
    "validate-debank-follows/validate.json":
        "7965550608a288dfc0479c9a8adb5dacbe8612db8f741a07c073754a046e7283",
    "validate-debank-follows/validate.txt":
        "cb14e245dd47b9160602f2fed701f42f63594a2161c46e44bb624f4cf54d8358",
    "validate-ens/validate.json":
        "ff28aa09ec478e2ba487e88d83fc2e1554f0c64fbb72991ce072ed70d70c4ea5",
    "validate-ens/validate.txt":
        "3b0d945bb10f46ae99f25eb37e523fb14d31cab4f3fede1369d0e2d5cf852534",
    "validate-ens-h4-at/validate.json":
        "f1cb1cea7e9a1865d1eef1d8027113ed012f2808c8401813b0a07fe55db6621e",
    "validate-ens-h4-at/validate.txt":
        "f88788988f8e4916104ca7ea36ce51446e2bb7131c6b75f49c51f68c8aabd779",
    "validate-intersection/validate.json":
        "8ac55e4520b6991026c092ec82168c6706e0685feba4b4d8ccf0bbcb88f34974",
    "validate-intersection/validate.txt":
        "29f0282438c2d7ae1e69cd62f3c76aa28d33a649a20e36853d0291516042d0c3",
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("digests") / "data"
    assert main(["synth", "--profile", "mixed", "--seed", "7", "--users", "300",
                 "--blocks", "3600", "--out", str(out)]) == 0
    return out


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


@pytest.fixture(scope="module")
def evidence_dataset(dataset, tmp_path_factory):
    """The digest dataset plus name handovers and follow edges drawn from it.

    For each linking heuristic, its first three pairs are handed over
    (true positives); its next two pairs ``(a, b)``, ``(c, d)`` are
    handed over crossed, as ``(a, d)`` and ``(c, b)``, so ``(a, b)`` and
    ``(c, d)`` are found between evidence addresses without being
    evidence (false positives) and the crossed pairs are evidence no
    heuristic found (false negatives); and the ends of ``(a, b)``
    follow each other.  Addresses that both deposited and withdrew are
    handed over among themselves, so they sit on both sides of the
    test universe.
    """
    out = tmp_path_factory.mktemp("evidence") / "data"
    shutil.copytree(dataset, out)
    ds = ingest(out)
    index = ds.build_index(ds.manifest.last_block)
    views = [heuristics.pool_view(index, p) for p in ds.pools]
    tags = heuristics.default_tags(len(ds.pools), linking_only=True)
    links = heuristics.run_heuristics(tags, views)
    handovers, follows = [], []
    for tag in tags:
        found = sorted(frozenset().union(*(links[p.pool_id][tag] for p in ds.pools)))
        (a, b), (c, d) = found[3], found[4]
        handovers += [*found[:3], (a, d), (c, b)]
        follows.append((a, b))
    both_sided = sorted(frozenset().union(*(v.depositors for v in views))
                        & frozenset().union(*(v.withdrawers for v in views)))
    handovers += zip(both_sided[:6:2], both_sided[1:6:2])
    _write_jsonl(out / "ens_transfers.jsonl", [
        {"name": f"n{i}.eth", "sender": s, "recipient": r, "block": 1000,
         "expiry": 10_000} for i, (s, r) in enumerate(handovers)])
    _write_jsonl(out / "follow_edges.jsonl", [
        {"follower": a, "followed": b} for a, b in follows])
    return out


def _digests(run, argv, data, tmp_path):
    out = tmp_path / run
    assert main(argv + ["--data", str(data), "--out", str(out)]) == 0
    got = {f"{run}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
           for f in sorted(out.iterdir()) if f.suffix in (".json", ".txt")}
    assert got == {k: v for k, v in DIGESTS.items() if k.startswith(run + "/")}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_report_digests(run, dataset, tmp_path):
    _digests(run, RUNS[run], dataset, tmp_path)


@pytest.mark.parametrize("run", sorted(EVIDENCE_RUNS))
def test_evidence_report_digests(run, evidence_dataset, tmp_path):
    _digests(run, EVIDENCE_RUNS[run], evidence_dataset, tmp_path)


def test_every_command_and_evidence_source_is_pinned():
    """A new subcommand or ``--gt`` source fails here until a run pins it."""
    pinned = [*RUNS.values(), *EVIDENCE_RUNS.values()]
    (commands,) = [a.choices for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    # synth's dataset is pinned by tests/test_synth_digests.py
    assert set(commands) - {"synth"} - {argv[0] for argv in pinned} == set()
    (gt,) = [a for a in commands["validate"]._actions if a.dest == "gt"]
    assert set(gt.choices) - {argv[argv.index("--gt") + 1]
                              for argv in pinned if "--gt" in argv} == set()
