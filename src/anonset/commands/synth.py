"""``synth``: generate a synthetic dataset."""

from __future__ import annotations

from .. import synth
from ..errors import EXIT_OK, InputError


def run(args, ingest) -> int:
    config = synth.GeneratorConfig(
        profile=_parse_profile(args.profile), pools=synth.standard_pools(),
        user_count=args.users, block_span=args.blocks)
    trace = synth.generate_trace(config, args.seed)
    out = synth.write_dataset(trace, args.out)
    print(f"wrote synthetic dataset to {out}: "
          f"{len(trace.events)} pool events, {len(trace.transfers)} transfers, "
          f"{len(trace.ap_claims)} reward claims")
    return EXIT_OK


def _parse_profile(text: str) -> synth.BehaviorProfile:
    if ":" not in text:
        if text == "mixed":
            return synth.BehaviorProfile.from_weights({b: 1 for b in synth.BEHAVIORS})
        return synth.BehaviorProfile.pure(text)
    weights = {}
    for part in text.split(","):
        name, _, weight = part.partition(":")
        name = name.strip()
        if name in weights:
            raise InputError(f"repeated profile behavior: {name!r}")
        try:
            weights[name] = int(weight)
        except ValueError:
            raise InputError(f"bad profile component: {part!r}")
    return synth.BehaviorProfile.from_weights(weights)
