"""Deterministic update streams out of per-relation event lists.

The synthesizer interleaves relations round-robin in declaration order
and chunks the result into fixed-size batches. The only randomness is a
seeded shuffle of each relation's own events, so a (scenario, seed) pair
always replays the identical stream; with the shuffle off, each relation's
events replay in the order the scenario lists its rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence

__all__ = ["StreamEvent", "synthesize_stream"]


@dataclass(frozen=True)
class StreamEvent:
    """One keyed change: +payload on insert, -payload when sign is -1."""

    relation: str
    key: tuple
    payload: Any
    sign: int = 1


def synthesize_stream(
    per_relation: Sequence[tuple[str, Sequence[StreamEvent]]],
    batch_size: int,
    seed: int = 0,
    shuffle: bool = True,
) -> list[list[StreamEvent]]:
    """Interleave per-relation events round-robin and batch them.

    ``per_relation`` pairs each streamed relation with its events, in the
    order the relations were declared; that order fixes the round-robin
    rotation. With ``shuffle`` each relation's events are permuted by one
    shared ``random.Random(seed)`` consumed in declaration order; without
    it they replay in the order the scenario lists them.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    rng = random.Random(seed)
    queues: list[list[StreamEvent]] = []
    for _name, events in per_relation:
        q = list(events)
        if shuffle:
            rng.shuffle(q)
        queues.append(q)
    flat: list[StreamEvent] = []
    offsets = [0] * len(queues)
    remaining = sum(len(q) for q in queues)
    while remaining:
        for i, q in enumerate(queues):
            if offsets[i] < len(q):
                flat.append(q[offsets[i]])
                offsets[i] += 1
                remaining -= 1
    return [flat[i : i + batch_size] for i in range(0, len(flat), batch_size)]
