"""Render vulnerable/non-vulnerable verdicts with a trained model.

A component is decomposed exactly like training material: functions are
extracted, abstracted with a fresh ID map, and chunked. The component is
flagged as vulnerable when greedy decoding would rewrite any of its
chunks. Comparison happens in index space after UNK mapping, so
out-of-vocabulary tokens the model echoes back as UNK do not count as
modifications. A length mismatch, including early-EOS truncation, does.

The model is not run chunk by chunk. All chunks of a release go through
one teacher-forced identity check (``greedy_reproduces``), which runs
each distinct chunk once, however many components hold it, and gives
every copy its verdict: the decoder is fed ``[SOS] + chunk`` and a chunk
counts as unchanged when the argmax at every step is the next chunk token
and the step after the last token gives EOS. Greedy decoding feeds its
own argmax back, so this holds exactly when
``decode_greedy(encode(chunk))`` returns the chunk; chunks hold at most
50 tokens and the decode cap is the constant 64, so it never cuts a chunk
short.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .abstraction import source_sequences
from .corpus import ComponentRecord, Release
from .cparse import Spellings
from .errors import LexError, StructureError
from .seq2seq import Seq2SeqModel, greedy_reproduces


@dataclass(frozen=True)
class ComponentVerdict:
    path: str
    predicted_vulnerable: bool
    modified_sequences: tuple[tuple[str, int], ...]
    total_sequences: int

    def __post_init__(self):
        assert self.predicted_vulnerable == bool(self.modified_sequences)


def _component_rows(
    component: ComponentRecord, spellings: Spellings | None = None
) -> list[tuple[str, int, tuple[str, ...]]]:
    """(function, chunk index, tokens) for each chunk; none if unparseable."""
    try:
        seqs = source_sequences(component.path, component.source, spellings)
    except (LexError, StructureError):
        return []
    return [(s.function_name, s.chunk_index, s.tokens) for s in seqs]


def _verdicts(
    model: Seq2SeqModel, components: Sequence[ComponentRecord]
) -> list[ComponentVerdict]:
    # the components share one spelling table: each distinct spelling is
    # classified once per call
    spellings: Spellings = {}
    rows = [_component_rows(c, spellings) for c in components]
    # a verdict depends on the chunk's tokens alone, and chunks repeat a
    # lot, so each distinct chunk is encoded and checked once
    chunks = list(dict.fromkeys(tokens for comp_rows in rows for _, _, tokens in comp_rows))
    ids = [model.vocabulary.encode(tokens) for tokens in chunks]
    unchanged = dict(zip(chunks, greedy_reproduces(model, ids, ids)))
    verdicts = []
    for component, comp_rows in zip(components, rows):
        modified = tuple(
            (fn, chunk) for fn, chunk, tokens in comp_rows if not unchanged[tokens]
        )
        verdicts.append(
            ComponentVerdict(component.path, bool(modified), modified, len(comp_rows))
        )
    return verdicts


def predict_component(
    model: Seq2SeqModel, component: ComponentRecord
) -> ComponentVerdict:
    return _verdicts(model, [component])[0]


def predict_release(model: Seq2SeqModel, release: Release) -> list[ComponentVerdict]:
    """Verdicts in component order, from one check over all chunks."""
    return _verdicts(model, release.components)
