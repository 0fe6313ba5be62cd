"""Identifier abstraction and sequence chunking.

User-defined function/type/variable names and string or char literals are
replaced by positional IDs (F_n, T_n, V_n, L_n) so that a corpus of C
functions shrinks to a small, closed vocabulary. Keywords, punctuators,
and number literals pass through verbatim. Abstracted token streams are
then split into chunks of at most 50 tokens; each chunk is one model
sequence. ``function_sequences`` and ``source_sequences`` are the one path
from a function or a source file to its chunks.

Abstraction builds nothing of its own from a function's tokens: it reads
the ``FunctionUnit.texts`` that ``extract_functions`` sliced and the role
walk of ``classify_identifier_roles``, whose first-occurrence order is the
ID numbering order, and resolves each distinct spelling once through the
``IdMap``, which holds only its spelling-to-ID dict and the next number
per role letter.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from .cparse import (
    FunctionUnit,
    Role,
    Spellings,
    classify_identifier_roles,
    extract_functions,
    tokenize,
)
from .errors import EmptyFunction

CHUNK_LIMIT = 50

ID_TOKEN_RE = re.compile(r"^(F|T|V|L)_[0-9]+$")

# read per entity: a dict beats the Enum's ``value`` descriptor
_ROLE_LETTER = {role: role.value for role in Role}
_ROLES = tuple(_ROLE_LETTER.values())


@dataclass
class IdMap:
    """Per-function (or per fix pair, when shared) entity-to-ID registry.

    ids maps each original spelling to its rendered ID token. New IDs are
    numbered densely from 1 per role letter in first-occurrence order. A
    spelling already registered under any role keeps that ID even if a
    later occurrence classifies differently; this keeps the before/after
    streams of a fix pair aligned outside the changed region.
    """

    ids: dict[str, str] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=lambda: {r: 1 for r in _ROLES})

    def resolve(self, role_letter: str, spelling: str) -> str:
        got = self.ids.get(spelling)
        if got is None:
            n = self.counters[role_letter]
            self.counters[role_letter] = n + 1
            got = self.ids[spelling] = f"{role_letter}_{n}"
        return got


def abstract_function(
    fn: FunctionUnit, shared: IdMap | None = None
) -> tuple[list[str], IdMap]:
    """Abstract one function into ID-stream tokens.

    With `shared` (the other half of a fix pair), existing entries are
    reused and new IDs continue that map's counters; the map is mutated
    in place and returned. Tokens that already look like IDs resolve
    under their embedded role, which makes abstraction idempotent.
    """
    idmap = shared if shared is not None else IdMap()
    named: dict[str, str] = {}
    # Each spelling keeps the ID of its first occurrence, so resolving the
    # spellings in first-occurrence order, as the roles come, numbers them
    # as a token-by-token pass would.
    for text, role in classify_identifier_roles(fn).items():
        # only an ID-shaped spelling, "X_<digits>", has "_" second
        m = ID_TOKEN_RE.match(text) if text[1:2] == "_" else None
        named[text] = idmap.resolve(m.group(1) if m is not None else _ROLE_LETTER[role], text)
    return list(map(named.get, fn.texts, fn.texts)), idmap


class SeqRole(enum.Enum):
    VULN_BEFORE = "VulnBefore"
    FIXED_AFTER = "FixedAfter"
    NON_VULNERABLE = "NonVulnerable"


@dataclass(frozen=True)
class SequenceMeta:
    source_path: str
    function_name: str
    role: SeqRole


@dataclass(frozen=True)
class AbstractedSequence:
    tokens: tuple[str, ...]
    source_path: str
    function_name: str
    chunk_index: int
    role: SeqRole


def to_sequences(tokens: list[str], meta: SequenceMeta) -> list[AbstractedSequence]:
    """Greedy left-to-right split into chunks of at most CHUNK_LIMIT tokens."""
    if not tokens:
        raise EmptyFunction(f"no tokens for {meta.function_name}")
    return [
        AbstractedSequence(
            tokens=tuple(tokens[i : i + CHUNK_LIMIT]),
            source_path=meta.source_path,
            function_name=meta.function_name,
            chunk_index=i // CHUNK_LIMIT,
            role=meta.role,
        )
        for i in range(0, len(tokens), CHUNK_LIMIT)
    ]


def function_sequences(
    fn: FunctionUnit, path: str, role: SeqRole, shared: IdMap | None = None
) -> list[AbstractedSequence]:
    """Abstract one function (``shared`` as in abstract_function), then chunk it."""
    tokens, _ = abstract_function(fn, shared)
    return to_sequences(tokens, SequenceMeta(path, fn.name, role))


def source_sequences(
    path: str, source: str, spellings: Spellings | None = None
) -> list[AbstractedSequence]:
    """NonVulnerable chunks of every function in one file, in file order.

    Each function gets a fresh ID map; ``spellings`` is as in ``tokenize``.
    Raises LexError or StructureError when the file cannot be split into
    functions.
    """
    return [
        seq
        for fn in extract_functions(tokenize(source, spellings))
        for seq in function_sequences(fn, path, SeqRole.NON_VULNERABLE)
    ]
