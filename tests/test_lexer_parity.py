"""Parity of the one-regex lexer with the per-position lexer it replaced.

``reference_tokenize`` is the former ``cparse.tokenize``, kept verbatim as
the oracle: a master regex for six token classes, then, where it fails,
the unterminated-opener checks and a longest-first punctuator loop with a
one-character fallback. Its number pattern carries the signed-exponent
fix of the current lexer, so the comparison checks the punctuator and
error dispatch, not that fix.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnseq.cparse import KEYWORDS, PUNCTUATORS, Token, TokenKind, tokenize
from vulnseq.errors import LexError
from vulnseq.synth import SynthesisSpec, generate_synthetic_corpus

_REFERENCE_RE = re.compile(
    r"""
      (?P<whitespace>\s+)
    | (?P<comment>/\*.*?\*/|//[^\n]*)
    | (?P<string_literal>"(?:\\.|[^"\\\n])*")
    | (?P<char_literal>'(?:\\.|[^'\\\n])*')
    | (?P<number_literal>(?:\d|\.\d)(?:[eEpP][+-]|[\w.])*)
    | (?P<identifier>[A-Za-z_]\w*)
    """,
    re.VERBOSE | re.DOTALL,
)

_REFERENCE_KIND = {
    "whitespace": TokenKind.WHITESPACE,
    "comment": TokenKind.COMMENT,
    "string_literal": TokenKind.STRING_LITERAL,
    "char_literal": TokenKind.CHAR_LITERAL,
    "number_literal": TokenKind.NUMBER_LITERAL,
    "identifier": TokenKind.IDENTIFIER,
}


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


def reference_tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _REFERENCE_RE.match(source, pos)
        if m is not None:
            kind = _REFERENCE_KIND[m.lastgroup]
            text = m.group()
            if kind is TokenKind.IDENTIFIER and text in KEYWORDS:
                kind = TokenKind.KEYWORD
            tokens.append(Token(text, kind))
            pos = m.end()
            continue
        ch = source[pos]
        if source.startswith("/*", pos):
            raise LexError("unterminated block comment", _byte_offset(source, pos))
        if ch == '"':
            raise LexError("unterminated string literal", _byte_offset(source, pos))
        if ch == "'":
            raise LexError("unterminated char literal", _byte_offset(source, pos))
        for punct in PUNCTUATORS:
            if source.startswith(punct, pos):
                tokens.append(Token(punct, TokenKind.PUNCTUATOR))
                pos += len(punct)
                break
        else:
            # Unknown byte (e.g. @ or a stray backslash): keep as a
            # one-char punctuator so the round-trip invariant holds.
            tokens.append(Token(ch, TokenKind.PUNCTUATOR))
            pos += 1
    return tokens


def _outcome(lexer, source: str):
    """Token (text, kind) pairs, or the LexError's message and byte offset."""
    try:
        return [(t.text, t.kind) for t in lexer(source)]
    except LexError as exc:
        return ("LexError", str(exc), exc.offset)


def _assert_parity(source: str) -> None:
    assert _outcome(tokenize, source) == _outcome(reference_tokenize, source), source


# Pieces of C, including dangling openers, so that concatenations reach
# every error path and the boundaries between punctuators.
C_ALPHABET = list(PUNCTUATORS) + [
    " ", "\t", "\n", "\\", "\\\n", "/*", "*/", "//", '"', "'", "@", "$", "`",
    "0", "7", "0x1f", "1e", "E", "p", "+", "-", ".", "_", "x", "if", "int",
    "é", " ", "\r",
]


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=60))
def test_parity_on_arbitrary_text(source):
    _assert_parity(source)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(C_ALPHABET), max_size=40).map("".join))
def test_parity_on_c_fragments(source):
    _assert_parity(source)


def test_parity_on_synthetic_sources():
    sources = set()
    for seed in range(32):
        corpus = generate_synthetic_corpus(seed, SynthesisSpec(components_per_release=40))
        for release in corpus.releases:
            for comp in release.components:
                sources.add(comp.source)
                if comp.fixed_source is not None:
                    sources.add(comp.fixed_source)
    assert len(sources) > 2000
    for source in sorted(sources):
        _assert_parity(source)


# Where classifying each distinct text on its own could part from lexing it
# in place: Unicode digits, spaces and letters that the regex classes accept
# or reject, empty and lone openers, and byte offsets after multi-byte text.
EDGE_CASES = [
    "٣", ".٣", "x = ٣٤;", "a.٣", "1٣e+5",
    "int x;", "a b", " ", " ",
    "aé", "_é1", "é", "xé = 'é';", "int ℌ;",
    "''", '""', '"', "'", "/*", "/* é", "x /* y",
    'é "abc', "é 'x", "ßß /*", "\U0001f600 \"", "\U0001f600 '\\'",
    '"é" "', "'é' '", "/* é */ /*",
]


def test_parity_on_unicode_and_lone_openers():
    for source in EDGE_CASES:
        _assert_parity(source)


@pytest.mark.parametrize(
    "source, message, offset",
    [
        ('é "abc', "unterminated string literal", 3),
        ("\U0001f600 '", "unterminated char literal", 5),
        ("ß /* x", "unterminated block comment", 3),
        ("'é' \"é\" \"", "unterminated string literal", 10),
    ],
)
def test_error_offsets_count_utf8_bytes(source, message, offset):
    with pytest.raises(LexError, match=message) as info:
        tokenize(source)
    assert info.value.offset == offset
    _assert_parity(source)


def test_parity_on_every_punctuator_and_keyword():
    for text in [*PUNCTUATORS, *sorted(KEYWORDS)]:
        for source in (text, f"x{text}y", f"{text} {text}"):
            _assert_parity(source)
