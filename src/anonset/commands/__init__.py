"""One module per command, each with ``run(args, ingest)`` returning the
exit code, and here what several share.  ``ingest`` is the CLI's
``dataset.ingest``, handed in so that no command imports ``cli``; the CLI
imports only the command it runs, so a process compiles no other
command's code.  A data command names the record files its report reads
in ``FILES`` and loads its dataset by :func:`_load`, which holds those
alone."""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ..errors import InputError, _say

if TYPE_CHECKING:
    from ..dataset import Dataset


def _load(args, ingest, files) -> Dataset:
    """Ingest ``args.data`` holding ``files``, and say how many records each
    file has; a stdout that cannot be written stops here, before any
    analysis."""
    dataset = ingest(args.data, files)
    _say("".join(f"loaded {dataset.counts[name]:>7} records from {name}\n"
                 for name in sorted(dataset.counts)))
    return dataset


def _cut(args, dataset: Dataset) -> int:
    t = getattr(args, "at", None)
    if t is None:
        return dataset.manifest.last_block
    if not dataset.manifest.first_block <= t <= dataset.manifest.last_block:
        raise InputError(f"cut {t} outside the dataset block range")
    return t


def _selected_pools(args, dataset: Dataset):
    wanted = getattr(args, "pool", None)
    if wanted is None:
        return dataset.pools
    return (dataset.pool(wanted),)


def _heuristic_tags(args, dataset: Dataset, linking_only: bool = False) -> tuple[str, ...]:
    from .. import heuristics
    tags = args.heuristics
    if tags is None:
        return heuristics.default_tags(len(dataset.pools), linking_only)
    for tag in tags:
        if heuristics.HEURISTICS[tag].cross_pool and len(dataset.pools) < 2:
            raise InputError(f"{tag} needs at least two pools in the dataset")
    return tags


def _run_heuristics(dataset: Dataset, tags: Sequence[str], t: int):
    """Build the index at ``t`` and one view per pool, then run ``tags`` on
    every view.

    Returns the index, the views keyed by pool id, and the link sets as
    ``{pool_id: {tag: pairs}}``.
    """
    from .. import heuristics
    index = dataset.build_index(t)
    views = {p.pool_id: heuristics.pool_view(index, p) for p in dataset.pools}
    return index, views, heuristics.run_heuristics(tags, list(views.values()))


def _write_report(args, name: str, payload: dict, table: str) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # pieces go straight into each file's buffer: no report is ever encoded whole
    with open(out / f"{name}.json", "w", encoding="utf-8") as report:
        _encode(payload, "\n", report.write)
        report.write("\n")
    with open(out / f"{name}.txt", "w", encoding="utf-8") as report:
        report.writelines(table[i:i + 8192] for i in range(0, len(table), 8192))
    print(f"wrote {out / (name + '.json')} and {out / (name + '.txt')}")


_string = json.encoder.encode_basestring_ascii  # the escaping json.dumps applies


def _encode(value, pad: str, emit) -> None:
    """Pass ``value``'s text to ``emit`` in pieces, its lines indented by ``pad``.
    From ``pad="\\n"`` they join to ``json.dumps(value, sort_keys=True, indent=2)``
    byte for byte, at about half its cost (with ``indent``, json encodes in pure
    Python).  Keys must be strings.  Not a closure: one calling itself is a
    reference cycle, which keeps ``emit`` alive while ``main`` pauses the collector."""
    if type(value) is str:
        emit(_string(value))
    elif type(value) is int:
        emit(int.__repr__(value))
    elif isinstance(value, dict) and value:
        inner = pad + "  "
        head, sep = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            emit(head)
            emit(_string(key))
            emit(": ")
            _encode(item, inner, emit)
            head = sep
        emit(pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        head, sep = "[" + inner, "," + inner
        for item in value:
            emit(head)
            _encode(item, inner, emit)
            head = sep
        emit(pad + "]")
    else:  # an empty container, bool, None or float
        emit(json.dumps(value))


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    line = "  ".join(f"{{:<{w}}}" for w in widths).format
    rule = ["-" * w for w in widths]
    return "\n".join([line(*row).rstrip() for row in (headers, rule, *rows)]) + "\n"
