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
"""

from __future__ import annotations

import hashlib

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


def digests(path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.iterdir())}


def test_synth_mixed_files(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--profile", "mixed", "--seed", "7", "--users", "300",
                 "--blocks", "3600", "--out", str(out)]) == 0
    assert digests(out) == MIXED_DIGESTS

