"""Every file ``synth`` writes, pinned byte for byte.

The analysis reports are pinned in ``test_report_digests.py``; this pins
the dataset they are computed from.  The mixed profile includes
speculators, so it covers reward claims, token transfers and withdrawals
without a relayer.  A change to how a dataset is emitted must leave every
digest alone.

``ground_truth.json`` was re-pinned once, when the sidecar was cut to the
two keys a reader uses (``active_depositors`` and ``am_truth``): the new
file is the old one, decoded, cut to those keys and encoded by the same
``json.dumps`` call.  Every record file and the manifest kept its digest.

Three more runs pin the generator's other behaviour scripts: the profile
of the ``am-link`` benchmark workload, cross-pool users alone, and address
reusers beside improper senders.  Their digests were taken from the
generator before it was cut to one copy of each step, so a change that
moves a single draw, block or record shows here.
"""

from __future__ import annotations

import hashlib

import pytest

from anonset.cli import main

# sha256 of no bytes: the side-channel files synth leaves empty
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

MIXED_DIGESTS = {
    "airdrop_claims.jsonl": EMPTY,
    "ap_claims.jsonl":
        "a77e74db1413471a068adf4a7347abd34ddb3a11175dc937b2c9e52eb5b36f05",
    "ens_subdomains.jsonl": EMPTY,
    "ens_transfers.jsonl": EMPTY,
    "follow_edges.jsonl": EMPTY,
    "ground_truth.json":
        "0e16e20ee6fe8d1595730ef4020da0f974db5912ac5923ab36de9df8729406c8",
    "labels.jsonl":
        "0be7ff4d9c9b68f2478584e94beebb144a342d2de4144de9ed7defb1ec5dc80d",
    "manifest.json":
        "f983f6649ae02e307d0df689ff60510af6af839b8905bb593d70f70cc869436e",
    "pool_events.jsonl":
        "aa2f73c2eb3a23f45ae63c99bc57b01c249fdeb7cd482d86f44eb241d0d358c5",
    "pools.jsonl":
        "eb6695e3f1d80af8578735c9a10461982a2b1a435d392e5715221cf691ed8152",
    "relayers.jsonl":
        "e95cb24b7af8304682b99ae7f3ed932fbe2040798aef7cf8cb0a286e5ac6d253",
    "token_transfers.jsonl":
        "eafb90a1876be14507ce6e736227b43b0117e105b1f424f3bf67dce7f08abc06",
    "transfers.jsonl":
        "4ad37bdc14e78ab591931e6604149e40fe13324eec77ebbc1cfe795ee18e8996",
}


SPECULATOR_DIGESTS = {
    "airdrop_claims.jsonl": EMPTY,
    "ap_claims.jsonl":
        "6a7ba1728357da64aee5eb78931c220d2be9db599b2afc1a35dcc4d3c1db25dd",
    "ens_subdomains.jsonl": EMPTY,
    "ens_transfers.jsonl": EMPTY,
    "follow_edges.jsonl": EMPTY,
    "ground_truth.json":
        "dd0d3820d56fe2da7d62c90148b657293f8e2fb59d7ba33e68dd1179711a3388",
    "labels.jsonl":
        "dec951e7b6e5db119f24ff3a5e41a4aea3629a3cf81aac14724a4e365b328026",
    "manifest.json":
        "bac497bae4861b938579d3f42b735e54148c0557662255ba541cd279352aad29",
    "pool_events.jsonl":
        "2814181df2d24927e13388f4cd9308d57f2130644c1f26943d7d2ed389da2993",
    "pools.jsonl":
        "eb6695e3f1d80af8578735c9a10461982a2b1a435d392e5715221cf691ed8152",
    "relayers.jsonl":
        "e95cb24b7af8304682b99ae7f3ed932fbe2040798aef7cf8cb0a286e5ac6d253",
    "token_transfers.jsonl": EMPTY,
    "transfers.jsonl":
        "62c325ab94e0457741ec42dba494518f3b750bf687dc270b53aea06d09f217c6",
}

CROSS_POOL_DIGESTS = {
    "airdrop_claims.jsonl": EMPTY,
    "ap_claims.jsonl": EMPTY,
    "ens_subdomains.jsonl": EMPTY,
    "ens_transfers.jsonl": EMPTY,
    "follow_edges.jsonl": EMPTY,
    "ground_truth.json":
        "56ab070c2bab527170a819f70a3c94002cc7fa198947bfb47d9e04a1d57a914d",
    "labels.jsonl":
        "dec951e7b6e5db119f24ff3a5e41a4aea3629a3cf81aac14724a4e365b328026",
    "manifest.json":
        "4ac8a818b26d8eb607e839b3ae0df1aaf0b68b668c1ff41b5bc947d6e0c0f76d",
    "pool_events.jsonl":
        "6891d1f1d30b6c3b792b75d8e1630742bb21ca0436ac9ab308621ea70722d4f4",
    "pools.jsonl":
        "eb6695e3f1d80af8578735c9a10461982a2b1a435d392e5715221cf691ed8152",
    "relayers.jsonl":
        "e95cb24b7af8304682b99ae7f3ed932fbe2040798aef7cf8cb0a286e5ac6d253",
    "token_transfers.jsonl": EMPTY,
    "transfers.jsonl":
        "1159bad7a09743970546713baa03fc3b3bc1d3e071326285ad650ccf5cf96dd2",
}

REUSER_DIGESTS = {
    "airdrop_claims.jsonl": EMPTY,
    "ap_claims.jsonl": EMPTY,
    "ens_subdomains.jsonl": EMPTY,
    "ens_transfers.jsonl": EMPTY,
    "follow_edges.jsonl": EMPTY,
    "ground_truth.json":
        "c9586037cb29bb48254ed486b0707bb64071c74bdec6f750d75efc060e38b0c6",
    "labels.jsonl":
        "dec951e7b6e5db119f24ff3a5e41a4aea3629a3cf81aac14724a4e365b328026",
    "manifest.json":
        "f715c79127cd77153019d5f178297e10e9a1f88df0c3c7f6721ac8d54ad9d9fa",
    "pool_events.jsonl":
        "733244fe7d0a20c0bfb8fa385eac8f84269ba36940126820c5aca36ee1e1bdd9",
    "pools.jsonl":
        "eb6695e3f1d80af8578735c9a10461982a2b1a435d392e5715221cf691ed8152",
    "relayers.jsonl":
        "e95cb24b7af8304682b99ae7f3ed932fbe2040798aef7cf8cb0a286e5ac6d253",
    "token_transfers.jsonl": EMPTY,
    "transfers.jsonl":
        "54966e228f862bebcba2bb53226e78ab4b0728eb4c35246972f4377e73085866",
}


def digests(path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.iterdir())}


def synth(out, profile: str, seed: int, users: int, blocks: int) -> dict[str, str]:
    assert main(["synth", "--profile", profile, "--seed", str(seed), "--users", str(users),
                 "--blocks", str(blocks), "--out", str(out)]) == 0
    return digests(out)


def test_synth_mixed_files(tmp_path):
    assert synth(tmp_path / "data", "mixed", 7, 300, 3600) == MIXED_DIGESTS


@pytest.mark.parametrize("profile,seed,users,blocks,pinned", [
    ("am-speculator:1,disciplined:1", 11, 400, 4800, SPECULATOR_DIGESTS),
    ("h5-cross-pool", 3, 120, 6000, CROSS_POOL_DIGESTS),
    ("h1-reuser:3,h2-improper-sender:2,disciplined:1", 9, 300, 3000, REUSER_DIGESTS),
], ids=["am-speculator", "h5-cross-pool", "h1-h2-reuser"])
def test_synth_profile_files(tmp_path, profile, seed, users, blocks, pinned):
    assert synth(tmp_path / "data", profile, seed, users, blocks) == pinned

