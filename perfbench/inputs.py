"""Seeded inputs for the four workloads.

The seed picks the inputs and nothing else: the same seed gives the same
files, deltas and schemas.  Seed 0 rebuilds the documents the repository's
gates use (the parallel-plane gate document; the Mondial-shaped static-plane
document grown fourfold); other seeds move the injected duplicates and
draw new delta sequences and schema names, keeping every size fixed so the
work per operation stays the same.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Tuple

from repro.experiments.generators import SyntheticWorkload, generate_workload
from repro.experiments.scenarios import (
    MONDIAL_DTD,
    mondial_shaped_chunks,
    synthesize_document_chunks,
    synthesized_node_count,
)
from repro.incremental import Delta, delete, insert, replace
from repro.transform.dsl import render_transformation
from repro.transform.rule import Transformation

#: The parallel-plane gate document (``benchmarks/bench_parallel.py``):
#: 104,041 nodes, 24 keys, one rule, 120 top-level subtrees.  ``tiny`` is
#: the self-test size.
GATE_SIZES = {
    "full": dict(fields=20, depth=4, keys=24, fanout=4, repeat=30, duplicate_every=211),
    "tiny": dict(fields=8, depth=3, keys=6, fanout=2, repeat=3, duplicate_every=5),
}

#: Mondial grown to 5,800 countries (~9.6 MB); every key reaches only the
#: organization section, so the DTD plan skips almost the whole document.
MONDIAL_SIZES = {
    "full": dict(countries=5800, provinces=4, cities=5, organizations=240),
    "tiny": dict(countries=30, provinces=2, cities=2, organizations=6),
}
MONDIAL_KEYS = "(., (//organization, {@abbrev}))\n"

#: The Fig. 7(a) grid (depth 5, 10 keys) plus the Fig. 7(c) spot check,
#: as ``(fields, depth, keys)``.
SCHEMA_SWEEPS = {
    "full": [(50, 5, 10), (100, 5, 10), (200, 5, 10), (500, 5, 10), (200, 10, 100)],
    "tiny": [(10, 3, 4), (12, 3, 6)],
}

#: Delta streams keep the top-level subtree count within these bounds.
DELTA_BOUNDS = {"full": (116, 124), "tiny": (4, 8)}


def _write(path: Path, chunks: Iterable[str]) -> None:
    """Stream chunks to ``path`` without holding the document in memory."""
    with open(path, "w", encoding="ascii") as handle:
        handle.writelines(chunks)


# ----------------------------------------------------------------------
# The gate document (gate-ingest, delta-stream)
# ----------------------------------------------------------------------
@dataclass
class GateInputs:
    document: Path
    keys: Path
    rule: Path
    nodes: int


def gate_inputs(seed: int, size: str, workdir: Path) -> GateInputs:
    """Write the gate document, its keys and its rule to ``workdir``.

    Seed 0 is the parallel-plane gate document (a duplicated spine key
    every 211 elements); another seed duplicates at another stride.
    """
    spec = dict(GATE_SIZES[size])
    if seed != 0:
        low = spec["duplicate_every"] * 3 // 4
        spec["duplicate_every"] = random.Random(seed).randrange(low, 2 * low)
    workload = generate_workload(
        spec["fields"], depth=spec["depth"], num_keys=spec["keys"], seed=2
    )
    document = workdir / f"gate-{size}-{seed}.xml"
    _write(
        document,
        synthesize_document_chunks(
            workload,
            fanout=spec["fanout"],
            top_level_repeat=spec["repeat"],
            duplicate_every=spec["duplicate_every"],
        ),
    )
    keys = workdir / f"gate-{size}-{seed}.keys"
    keys.write_text("".join(f"{key.text}\n" for key in workload.keys))
    rule = workdir / f"gate-{size}-{seed}.dsl"
    rule.write_text(_render_rule(workload))
    nodes = synthesized_node_count(
        workload, fanout=spec["fanout"], top_level_repeat=spec["repeat"]
    )
    return GateInputs(document, keys, rule, nodes)


def _render_rule(workload: SyntheticWorkload) -> str:
    transformation = Transformation()
    transformation.add_rule(workload.rule)
    return render_transformation(transformation) + "\n"


# ----------------------------------------------------------------------
# The Mondial-shaped document (mondial-check)
# ----------------------------------------------------------------------
@dataclass
class MondialInputs:
    document: Path
    keys: Path
    dtd: Path
    duplicate: Tuple[str, str]


def mondial_inputs(seed: int, size: str, workdir: Path) -> MondialInputs:
    """Write the Mondial-shaped document with one duplicated abbrev.

    Seed 0 renames ``ORG1`` to ``ORG0``; another seed picks the pair.
    """
    spec = MONDIAL_SIZES[size]
    organizations = spec["organizations"]
    if seed == 0:
        source, target = 1, 0
    else:
        rng = random.Random(seed)
        source = rng.randrange(1, organizations)
        target = rng.randrange(0, source)
    opening = f'<organization abbrev="ORG{source}">'
    duplicate = f'<organization abbrev="ORG{target}">'

    def chunks() -> Iterator[str]:
        for chunk in mondial_shaped_chunks(**spec):
            yield duplicate if chunk == opening else chunk

    document = workdir / f"mondial-{size}-{seed}.xml"
    _write(document, chunks())
    keys = workdir / f"mondial-{size}-{seed}.keys"
    keys.write_text(MONDIAL_KEYS)
    dtd = workdir / f"mondial-{size}-{seed}.dtd"
    dtd.write_text(MONDIAL_DTD)
    return MondialInputs(document, keys, dtd, (f"ORG{source}", f"ORG{target}"))


# ----------------------------------------------------------------------
# Delta streams (delta-stream)
# ----------------------------------------------------------------------
_SPINE_KEY = re.compile(r'k0="\d+"')


class DeltaStream:
    """Seeded subtree deltas: ~50% replace, 25% insert, 25% delete.

    A fragment is a copy of a random current subtree with a fresh random
    spine key, so some deltas add duplicate-key violations and others
    clear them.  Inserts and deletes that would leave the subtree count
    outside ``bounds`` turn into the opposite kind.
    """

    def __init__(self, seed: int, bounds: Tuple[int, int]) -> None:
        self._rng = random.Random(seed)
        self.low, self.high = bounds

    def next(self, engine) -> Delta:
        rng = self._rng
        count = engine.subtree_count
        draw = rng.random()
        kind = "replace" if draw < 0.5 else "insert" if draw < 0.75 else "delete"
        if kind == "insert" and count >= self.high:
            kind = "delete"
        elif kind == "delete" and count <= self.low:
            kind = "insert"
        if kind == "delete":
            return delete(rng.randrange(count))
        source = engine.fragment(rng.randrange(count))
        fragment = _SPINE_KEY.sub(f'k0="{rng.randrange(2 * self.high)}"', source, count=1)
        if kind == "insert":
            return insert(rng.randrange(count + 1), fragment)
        return replace(rng.randrange(count), fragment)


# ----------------------------------------------------------------------
# Generated schemas (schema-design)
# ----------------------------------------------------------------------
_GENERATED_NAME = re.compile(r"(?<![\w.])(lvl\d+|k\d+|[ae]\d+_\d+)(?![\w])")


def renamed_workload(fields: int, depth: int, keys: int, salt: int):
    """A generated ``(rule, keys)`` whose tags and fields carry ``salt``.

    Every element, attribute and field name gets the same prefix, so the
    schema has the shape and cost of the unsalted one (names keep their
    relative order) while no two salts share a name.
    """
    from repro.keys.key import parse_key
    from repro.transform.dsl import parse_rule

    workload = generate_workload(fields, depth=depth, num_keys=keys, seed=salt)
    prefix = f"s{salt:08x}_"

    def rename(text: str) -> str:
        return _GENERATED_NAME.sub(lambda match: prefix + match.group(1), text)

    rule = parse_rule(rename(_render_rule(workload)))
    key_list = [parse_key(rename(key.text)) for key in workload.keys]
    return rule, key_list


def schema_salts(seed: int) -> Iterator[int]:
    """Endless distinct salts, one per schema generated in a run."""
    rng = random.Random(seed)
    seen = set()
    while True:
        salt = rng.getrandbits(32)
        if salt not in seen:
            seen.add(salt)
            yield salt

