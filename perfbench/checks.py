"""Output checks and digests, and the references they are compared with.

``reference.json`` holds the outputs of the program at the commit that
introduced this benchmark, for the default world seeds: the world's shape,
a digest of the learned preferences, the Fig. 9 table, the mean L2R
similarity on the test split, and a digest of every answer a stream can
ask for. ``record_reference.py`` rewrites it.

The payload paths stored per T-edge are digested and reported but never
compared: which of several equally popular, equally long paths survive the
top-16 cut depends on the order Spark returns the grouped rows in.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from world import HERE

REFERENCE = HERE / "reference.json"


def path_digest(path: list[int]) -> str:
    return hashlib.blake2b(np.asarray(path, dtype=np.int64).tobytes(), digest_size=6).hexdigest()


def stream_digest(answers) -> str:
    """One digest for a list of answers, in order (None for a failed query)."""
    return _digest([path_digest(a) if a is not None else None for a in answers])


def _digest(obj) -> str:
    return hashlib.blake2b(json.dumps(obj).encode(), digest_size=12).hexdigest()


def prefs_digest(rg) -> str:
    """Every region edge's learned (T) or transferred (B) preference."""
    return _digest([[a, b, e.kind, e.pref] for (a, b), e in sorted(rg.edges.items())])


def payload_digest(rg) -> str:
    """The payload paths and counts kept per T-edge (reported, not gated)."""
    return _digest(
        [[a, b, sorted(e.paths)] for (a, b), e in sorted(rg.edges.items()) if e.kind == "T"]
    )


def world_shape(world, rg) -> dict:
    return {
        "vertices": int(world.city.net.n_vertices),
        "regions": int(rg.n_regions),
        "region_edges": len(rg.edges),
    }


def fig9_rows(table) -> list[list]:
    return [[r.sweep, r.setting, float(r.accuracy), float(r.n_rate)] for r in table.itertuples()]


class Adjacency:
    """Checks that an answer is a contiguous walk from s to d in the network."""

    def __init__(self, net):
        self._pairs = {
            (min(int(a), int(b)), max(int(a), int(b))) for a, b in zip(net.eu, net.ev)
        }

    def is_walk(self, path, s: int, d: int) -> bool:
        if not path or path[0] != s or path[-1] != d:
            return False
        pairs = self._pairs
        return all((min(a, b), max(a, b)) in pairs for a, b in zip(path, path[1:]))


def load_reference(seeds) -> dict | None:
    """The recorded reference, or None when the world seeds differ from it."""
    if not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text())
    return ref if tuple(ref["world_seeds"]) == tuple(seeds) else None
