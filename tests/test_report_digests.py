"""Every CLI report pinned byte for byte.

One synthetic dataset is generated, every analysis command runs on it
in-process, and the sha256 of each report file must match the value
recorded here.  A refactor that changes no analysis leaves every digest
alone; a digest that moves means a report changed and needs a reason.
"""

from __future__ import annotations

import hashlib

import pytest

from anonset.cli import main

RUNS = {
    "anonymity-combine-tas": ["anonymity", "--combine", "--tas"],
    # at block 2500 every pool already has a depositor
    "anonymity-h2-h3-at": ["anonymity", "--heuristics", "h2,h3", "--at", "2500"],
    "clusters": ["clusters"],
    "relayers": ["relayers"],
    "flows": ["flows", "--distance", "2"],
    "flags": ["flags"],
    "am-link": ["am-link"],
    "validate-airdrop": ["validate", "--gt", "airdrop"],
    "validate-debank": ["validate", "--gt", "debank"],
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
    "relayers/relayers.json":
        "c0148ad010adaf9f0e6e2f783e73a35e447b33535f27c7a66e193ab4dc9caa01",
    "relayers/relayers.txt":
        "59c14455a9a658fefc6857029c2bcd4aff9496218916868b70f5e3ca7123a39e",
    "validate-airdrop/validate.json":
        "abb465f23312767fd0d4af36c808039d51e103f6e7daf08cb311372bbd368cbb",
    "validate-airdrop/validate.txt":
        "4675e92d6da412ad8bf8374b5b6fc84506ce0f9e8ba8a79fedeb5a07412b475d",
    "validate-debank/validate.json":
        "ba83bcbec82d8f06f5e477adbe0f44025807c99437f037cad8adb50a006d2330",
    "validate-debank/validate.txt":
        "6ac94dada351323192b96123e09bd3c90b0f334b3d02d54c77e48ee37725621f",
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("digests") / "data"
    assert main(["synth", "--profile", "mixed", "--seed", "7", "--users", "300",
                 "--blocks", "3600", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("run", sorted(RUNS))
def test_report_digests(run, dataset, tmp_path):
    out = tmp_path / run
    assert main(RUNS[run] + ["--data", str(dataset), "--out", str(out)]) == 0
    got = {f"{run}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
           for f in sorted(out.iterdir()) if f.suffix in (".json", ".txt")}
    assert got == {k: v for k, v in DIGESTS.items() if k.startswith(run + "/")}
