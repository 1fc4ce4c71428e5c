"""Score a heuristic against side-channel ground truth.

Public side channels leak same-owner evidence independently of the pools:
airdrop recipients funneling tokens to one address, name ownership moving
wallets, subdomains granted to secondary accounts.  Social follow edges
leak the opposite signal.  This script fabricates a tiny ground-truth set
and scores a deliberately imperfect heuristic output against it, over the
pairs joining a depositor side to a withdrawer side.
"""

from anonset.groundtruth import (
    FollowEdge,
    NameTransfer,
    SubdomainGrant,
    airdrop_links,
    debank_negative_pairs,
    ens_subdomain_links,
    ens_transfer_links,
    score_links,
)
from anonset.ledger import LinkPair, Transfer
from anonset.metrics import render_ratio


def a(tag: str) -> str:
    return "0x" + (tag.encode().hex() * 40)[:40]


DISTRIBUTOR, HUB = a("drop"), a("hub")
ALICE_1, ALICE_2, BOB, CAROL = a("al1"), a("al2"), a("bob"), a("carol")

airdrops = [
    Transfer(100, DISTRIBUTOR, ALICE_1, 500, "UNI"),
    Transfer(100, DISTRIBUTOR, ALICE_2, 500, "UNI"),
    Transfer(100, DISTRIBUTOR, BOB, 500, "UNI"),
]
consolidations = [
    Transfer(105, ALICE_1, HUB, 500, "UNI"),
    Transfer(106, ALICE_2, HUB, 500, "UNI"),
    # bob forwards months later: outside the window, no signal
    Transfer(90_000, BOB, HUB, 500, "UNI"),
]
airdrop_pairs = airdrop_links(airdrops, consolidations, window_blocks=1_000)
print("airdrop consolidation links:")
for pair in sorted(airdrop_pairs):
    print(f"  {pair.a1[:10]}… <-> {pair.a2[:10]}…")

name_pairs = ens_transfer_links([
    NameTransfer("alice.eth", ALICE_1, ALICE_2, block=200, expiry=10_000),
    NameTransfer("flip.eth", BOB, CAROL, block=300, expiry=10_000),
    NameTransfer("flip.eth", BOB, HUB, block=400, expiry=10_000),  # serial seller
])
sub_pairs = ens_subdomain_links([SubdomainGrant(ALICE_1, CAROL, "pay.alice.eth")])
print(f"\nname-transfer links: {len(name_pairs)} (serial transfers ignored)")
print(f"subdomain links: {len(sub_pairs)}")

# alice's second address both deposited and withdrew: it sits on both sides
depositors = frozenset({ALICE_1, ALICE_2, BOB})
withdrawers = frozenset({ALICE_2, HUB, CAROL})
negatives = debank_negative_pairs([FollowEdge(follower=BOB, followed=CAROL)])
print(f"follow-edge negative pairs: {len(negatives)}")

truth = airdrop_pairs | name_pairs | sub_pairs
claimed = set(sorted(truth)[:-1])      # one miss
claimed.add(LinkPair(BOB, CAROL))      # one bad call

report = score_links(claimed, truth, negatives, depositors, withdrawers)
print(f"\nscoring a heuristic that found {len(claimed)} pairs, over "
      f"{report.universe_size} depositor-withdrawer pairs:")
print(f"  tp={report.tp} fp={report.fp} fn={report.fn} tn={report.tn}")
print(f"  precision {render_ratio(report.precision)}, "
      f"recall {render_ratio(report.recall)}, f1 {render_ratio(report.f1)}")
print(f"  pairs also contradicted by follow evidence: "
      f"{len(report.negative_signal_fps)}")
