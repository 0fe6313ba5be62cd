"""Token vocabulary with reserved control indices.

Index 0-3 are fixed: padding, start-of-sequence, end-of-sequence, and the
unknown-token bucket. Everything else is assigned by descending count and
then lexicographically, so two builds over the same material agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..abstraction import AbstractedSequence
from ..errors import EmptyCorpus

PAD = 0
SOS = 1
EOS = 2
UNK = 3

RESERVED_TOKENS = ("<pad>", "<sos>", "<eos>", "<unk>")


@dataclass(frozen=True)
class Vocabulary:
    index_to_token: tuple[str, ...]
    token_to_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        assert self.index_to_token[: len(RESERVED_TOKENS)] == RESERVED_TOKENS
        index = {t: i for i, t in enumerate(self.index_to_token)}
        object.__setattr__(self, "token_to_index", index)

    def size(self) -> int:
        return len(self.index_to_token)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        t2i = self.token_to_index
        return [t2i.get(t, UNK) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.index_to_token[i] for i in ids]


def build_vocabulary(
    sequences: list[AbstractedSequence], min_count: int = 1
) -> Vocabulary:
    if not sequences:
        raise EmptyCorpus("no sequences to build a vocabulary from")
    counts: Counter[str] = Counter()
    for seq in sequences:
        counts.update(seq.tokens)
    if not counts:
        raise EmptyCorpus("sequences contain no tokens")
    kept = [t for t, c in counts.items() if c >= min_count and t not in RESERVED_TOKENS]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(RESERVED_TOKENS + tuple(kept))
