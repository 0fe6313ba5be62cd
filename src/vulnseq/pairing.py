"""Function pairing, change labeling, and training-pair materialization.

Before-fix and after-fix functions are matched by signature key into
plain ``(before, after)`` pairs; a function with no partner is dropped. A
pair whose ``FunctionUnit.texts`` differ (they hold no comments or
whitespace) is a vulnerable/fixed pair; an identical pair is an unchanged
(non-vulnerable) function. Training data is built from three pair types:
vulnerable chunk → fixed chunk, fixed chunk → itself, and non-vulnerable
chunk → itself (downsampled).

Only fix-pair components contribute training sequences; components that
were never vulnerable have no after-version to compare against and are
used by the baseline models alone.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass

from .abstraction import AbstractedSequence, IdMap, SeqRole, function_sequences
from .corpus import Label, TrainingMaterial
from .cparse import FunctionUnit, Spellings, extract_functions, tokenize
from .errors import ConfigError, LexError, StructureError, check_field_types


@dataclass(frozen=True)
class LabeledFunction:
    label: Label
    before: FunctionUnit
    after: FunctionUnit | None  # None iff NonVulnerable
    path: str


class PairKind(enum.Enum):
    VULN_TO_FIXED = "VulnToFixed"
    FIXED_TO_FIXED = "FixedToFixed"
    NON_VULN_TO_SELF = "NonVulnToSelf"


@dataclass(frozen=True)
class TrainingPair:
    input: AbstractedSequence
    target: AbstractedSequence
    kind: PairKind


@dataclass(frozen=True)
class PairingConfig:
    non_vuln_ratio: float = 5.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not (math.isfinite(self.non_vuln_ratio) and self.non_vuln_ratio > 0):
            raise ConfigError("non_vuln_ratio must be positive and finite")


def pair_functions(
    before: list[FunctionUnit], after: list[FunctionUnit]
) -> list[tuple[FunctionUnit, FunctionUnit]]:
    """Match by signature key; duplicates pair in file order; the rest are dropped."""
    buckets: dict[str, list[FunctionUnit]] = {}
    for unit in after:
        buckets.setdefault(unit.signature_key, []).append(unit)
    pairs: list[tuple[FunctionUnit, FunctionUnit]] = []
    for unit in before:
        bucket = buckets.get(unit.signature_key)
        if bucket:
            pairs.append((unit, bucket.pop(0)))
    return pairs


def label_pair(before: FunctionUnit, after: FunctionUnit, path: str) -> LabeledFunction:
    """Changed (beyond whitespace/comments) means vulnerable."""
    if before.texts != after.texts:
        return LabeledFunction(Label.VULNERABLE, before, after, path)
    return LabeledFunction(Label.NON_VULNERABLE, before, None, path)


def labeled_functions_from_component(
    source: str,
    fixed_source: str,
    path: str,
    spellings: Spellings | None = None,
) -> list[LabeledFunction]:
    """Labelled pairs of one component; ``spellings`` is as in ``tokenize``.
    A LexError or StructureError names the path and the source that failed."""
    units = []
    for which, text in (("source", source), ("fixed source", fixed_source)):
        try:
            units.append(extract_functions(tokenize(text, spellings)))
        except (LexError, StructureError) as exc:
            exc.args = (f"{path} ({which}): {exc}",)
            raise
    return [label_pair(b, a, path) for b, a in pair_functions(*units)]


def labeled_functions_from_material(
    material: TrainingMaterial,
) -> list[LabeledFunction]:
    labeled: list[LabeledFunction] = []
    spellings: Spellings = {}  # shared by every source of the material
    for comp in material.fix_pairs:
        assert comp.fixed_source is not None
        try:
            labeled.extend(
                labeled_functions_from_component(
                    comp.source, comp.fixed_source, comp.path, spellings
                )
            )
        except (LexError, StructureError) as exc:
            exc.args = (f"{material.release_name} {exc}",)  # and the release
            raise
    return labeled


def _empty_target(seq: AbstractedSequence) -> AbstractedSequence:
    return AbstractedSequence(
        tokens=(),
        source_path=seq.source_path,
        function_name=seq.function_name,
        chunk_index=seq.chunk_index,
        role=SeqRole.FIXED_AFTER,
    )


def _priority(seed: int, seq: AbstractedSequence) -> tuple:
    key = f"{seed}|{seq.source_path}|{seq.function_name}|{seq.chunk_index}"
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
    return (digest, seq.source_path, seq.function_name, seq.chunk_index)


def build_training_pairs(
    labeled: list[LabeledFunction], cfg: PairingConfig
) -> list[TrainingPair]:
    """Materialize the three pair types.

    Identity pairs from non-vulnerable functions are capped at
    non_vuln_ratio times the vulnerable-pair count, chosen by a hash
    priority keyed on (seed, path, function, chunk) so that input order
    cannot change the sample.
    """
    vuln_to_fixed: list[TrainingPair] = []
    fixed_identity: list[TrainingPair] = []
    candidates: list[TrainingPair] = []
    for lf in labeled:
        if lf.label is Label.VULNERABLE:
            # one ID map across the pair keeps unchanged regions aligned
            idmap = IdMap()
            before_seqs = function_sequences(
                lf.before, lf.path, SeqRole.VULN_BEFORE, idmap
            )
            after_seqs = function_sequences(
                lf.after, lf.path, SeqRole.FIXED_AFTER, idmap
            )
            shared = min(len(before_seqs), len(after_seqs))
            for k in range(shared):
                vuln_to_fixed.append(
                    TrainingPair(before_seqs[k], after_seqs[k], PairKind.VULN_TO_FIXED)
                )
            # surplus input chunks learn to produce nothing
            for k in range(shared, len(before_seqs)):
                vuln_to_fixed.append(
                    TrainingPair(
                        before_seqs[k],
                        _empty_target(before_seqs[k]),
                        PairKind.VULN_TO_FIXED,
                    )
                )
            for seq in after_seqs:
                fixed_identity.append(
                    TrainingPair(seq, seq, PairKind.FIXED_TO_FIXED)
                )
        else:
            for seq in function_sequences(lf.before, lf.path, SeqRole.NON_VULNERABLE):
                candidates.append(TrainingPair(seq, seq, PairKind.NON_VULN_TO_SELF))
    cap = int(cfg.non_vuln_ratio * len(vuln_to_fixed))
    ranked = sorted(candidates, key=lambda tp: _priority(cfg.seed, tp.input))
    return vuln_to_fixed + fixed_identity + ranked[:cap]
