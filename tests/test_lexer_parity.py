"""Parity of the one-regex lexer with the per-position lexer it replaced.

``reference_tokenize`` is the former ``cparse.tokenize``, kept verbatim as
the oracle: a master regex for six token classes, then, where it fails,
the unterminated-opener checks and a longest-first punctuator loop with a
one-character fallback. Its number pattern carries the signed-exponent
fix of the current lexer, so the comparison checks the punctuator and
error dispatch, not that fix. The oracle lexes each source on its own;
the lexer is also run over lists of sources sharing one spelling table,
as one front-end call runs it, and must give each source the oracle's
outcome. The last tests check that the front-end calls classify each
distinct spelling once per call, and again on the next call.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vulnseq.cparse as cparse
from vulnseq.baselines import Technique, run_baseline
from vulnseq.corpus import ComponentRecord, Label, Setting, training_material
from vulnseq.cparse import KEYWORDS, PUNCTUATORS, Token, TokenKind, tokenize
from vulnseq.errors import LexError
from vulnseq.pairing import labeled_functions_from_material
from vulnseq.predict import predict_release
from vulnseq.seq2seq import load_model
from vulnseq.synth import SynthesisSpec, generate_synthetic_corpus

CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "desk.ckpt"

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


def _assert_parity_in_one_call(sources: list[str]) -> None:
    spellings = {}
    shared = [_outcome(lambda s: tokenize(s, spellings), s) for s in sources]
    assert shared == [_outcome(reference_tokenize, s) for s in sources], sources


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=60))
def test_parity_on_arbitrary_text(source):
    _assert_parity(source)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(C_ALPHABET), max_size=40).map("".join))
def test_parity_on_c_fragments(source):
    _assert_parity(source)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(C_ALPHABET), max_size=12).map("".join), max_size=8))
def test_parity_on_c_fragments_lexed_in_one_call(sources):
    _assert_parity_in_one_call(sources)


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
    # each source alone, and all of them as the sources of one call
    spellings = {}
    for source in sorted(sources):
        expected = _outcome(reference_tokenize, source)
        assert _outcome(tokenize, source) == expected, source
        assert _outcome(lambda s: tokenize(s, spellings), source) == expected, source


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


def test_parity_on_every_pair_of_punctuators():
    # two punctuators meet at a longest-match boundary ("-" + ">=" lexes as
    # "->", "="), which the lexer's alternatives must cut where the oracle's
    # longest-first loop does; the sampled alphabet does not reach them all
    for first in PUNCTUATORS:
        for second in PUNCTUATORS:
            _assert_parity(first + second)


# Good sources that share spellings, with ones that fail to lex between
# them; a failing source holds spellings of its own, and its kind and byte
# offset must be those it gets when lexed alone.
ONE_CALL_SOURCES = [
    'int f(void) { return g("a", x1); }',
    'é int f(void) { return only_here("a; }',
    "int g(int x1) { return x1 + 0x1f; }",
    "/* é */ int only_here; /* never closed",
    "int x1 = 'c'; int *only_here2 = &x1;",
    "int f(void) { return g(\"a\", x1); }",
    "x1 @ only_here2 '",
]


def test_one_call_matches_each_source_lexed_alone():
    _assert_parity_in_one_call(ONE_CALL_SOURCES)
    spellings = {}
    tokenize(ONE_CALL_SOURCES[0], spellings)
    before = dict(spellings)
    with pytest.raises(LexError, match="unterminated string literal") as info:
        tokenize(ONE_CALL_SOURCES[1], spellings)
    assert info.value.offset == 34  # "é" is two bytes
    assert spellings == before, "a source that fails to lex adds no spelling"


def test_keyword_tokens_do_not_depend_on_the_table():
    tokens = tokenize("int x;", {})
    assert [(t.text, t.kind) for t in tokens] == [
        ("int", TokenKind.KEYWORD), (" ", TokenKind.WHITESPACE),
        ("x", TokenKind.IDENTIFIER), (";", TokenKind.PUNCTUATOR),
    ]
    assert tokens == tokenize("int x;")
    # one dict reused across sources, as a front-end call shares it
    spellings = {}
    for source in ["int x;", "x = sizeof(int);", "return x;", *ONE_CALL_SOURCES[:-1:2]]:
        assert tokenize(source, spellings) == tokenize(source), source


# --- one spelling table per front-end call ------------------------------


class _CountingRegex:
    """Stands in for ``cparse._TOKEN_RE``; records every text it classifies."""

    def __init__(self, regex):
        self.regex = regex
        self.classified: list[str] = []

    def match(self, text):
        self.classified.append(text)
        return self.regex.match(text)

    def finditer(self, source):
        return self.regex.finditer(source)


def _distinct_new_spellings(sources) -> list[str]:
    """The non-keyword, non-punctuator spellings of the sources that lex."""
    spellings = set()
    for source in sources:
        try:
            spellings.update(t.text for t in reference_tokenize(source))
        except LexError:
            continue
    return sorted(spellings.difference(KEYWORDS, PUNCTUATORS))


BROKEN = ComponentRecord("broken.c", 'int f(void) { return unseen_name("x; }\n', Label.NON_VULNERABLE)


def _with_broken_component(release):
    components = release.components
    half = len(components) // 2
    return dataclasses.replace(
        release, components=components[:half] + (BROKEN,) + components[half:]
    )


def _classified_per_call(monkeypatch, call, times=2) -> list[list[str]]:
    counting = _CountingRegex(cparse._TOKEN_RE)
    monkeypatch.setattr(cparse, "_TOKEN_RE", counting)
    per_call = []
    for _ in range(times):
        counting.classified = []
        call()
        per_call.append(sorted(counting.classified))
    return per_call


def test_predict_release_classifies_each_spelling_once_per_call(monkeypatch):
    corpus = generate_synthetic_corpus(5, SynthesisSpec(components_per_release=20))
    release = _with_broken_component(corpus.releases[-1])
    model = load_model(str(CHECKPOINT))
    expected = _distinct_new_spellings(c.source for c in release.components)
    assert "unseen_name" not in expected
    first, second = _classified_per_call(monkeypatch, lambda: predict_release(model, release))
    assert first == expected
    assert second == expected


def test_run_baseline_classifies_each_spelling_once_per_call(monkeypatch):
    corpus = generate_synthetic_corpus(5, SynthesisSpec(components_per_release=12))
    releases = list(corpus.releases)
    releases[1] = _with_broken_component(releases[1])
    corpus = dataclasses.replace(corpus, releases=tuple(releases))
    expected = _distinct_new_spellings(
        c.source for release in corpus.releases for c in release.components
    )
    first, second = _classified_per_call(
        monkeypatch, lambda: run_baseline(corpus, Technique.FUNCTION_CALLS, Setting.CLEAN)
    )
    assert first == expected
    assert second == expected


def test_pairing_classifies_each_spelling_once_per_call(monkeypatch):
    corpus = generate_synthetic_corpus(5, SynthesisSpec(components_per_release=20))
    material = training_material(corpus, 0, Setting.CLEAN)
    expected = _distinct_new_spellings(
        s for c in material.fix_pairs for s in (c.source, c.fixed_source)
    )
    first, second = _classified_per_call(
        monkeypatch, lambda: labeled_functions_from_material(material)
    )
    assert first == expected
    assert second == expected
