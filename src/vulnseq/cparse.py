"""Lossy-but-deterministic C tokenizer and function extractor.

Tokenization is lossless (concatenating token texts reproduces the input);
function extraction and identifier-role classification are deliberate
heuristics that work on unpreprocessed source. Macros are treated as plain
identifiers and K&R-style definitions are skipped, not rejected.

The work per token is bounded: one ``findall`` splits the source, each
distinct spelling becomes one immutable ``Token`` that all its occurrences
share (so compare tokens by value, never by identity), and brackets are
matched in one stack pass per file. The split tries words (identifiers
and keywords) right after whitespace, since most tokens are one of the
two, and its punctuator alternative lists only the multi-character
``PUNCTUATORS``: every single character falls to the final ``.``, which
keeps the longest match. Spellings are classified once per call, not
once per file: a front-end call over many sources (prediction over a
release, a baseline run, pairing a release's fix pairs) lexes them all
with one ``spelling_table()``, which it drops when it returns, so
nothing is kept from one call to the next.

Each product is built once, and only for the callers that read it. The
file pass strips noise once; a ``FunctionUnit`` keeps only its slices of
the file's significant tokens and their texts, which abstraction, role
classification, change labelling, the baselines and ``dump-tokens``
read, so a function's comments and whitespace are not kept. The signature
key is built on first read, because only pairing reads it: prediction
and the baselines never pay for it. ``classify_identifier_roles`` is one
pass over a function's tokens: it skips every kind but identifiers and
literals and every spelling already seen, so its roles come in
first-occurrence order, and abstraction numbers its IDs from that same
pass. The set of called spellings is built only when a first occurrence
needs it, one that is neither followed by "(" nor a type.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from types import MappingProxyType

from .errors import LexError, StructureError


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    STRING_LITERAL = "string_literal"
    CHAR_LITERAL = "char_literal"
    NUMBER_LITERAL = "number_literal"
    PUNCTUATOR = "punctuator"
    COMMENT = "comment"
    WHITESPACE = "whitespace"


class Role(enum.Enum):
    """What a spelling names; the value is abstraction's ID letter."""

    FUNCTION = "F"
    TYPE = "T"
    VARIABLE = "V"
    LITERAL = "L"  # a string or char literal


@dataclass(frozen=True)
class Token:
    text: str
    kind: TokenKind


@dataclass(frozen=True)
class FunctionUnit:
    """One function definition as ``extract_functions`` found it.

    ``tokens`` are its header and body without comments and whitespace,
    so units that differ only in those compare equal. The texts, the
    header's length and the name's index follow from ``tokens``, so
    equality and repr leave them out. The signature key is built on first
    read: only pairing reads it.
    """

    name: str
    tokens: tuple[Token, ...]
    texts: tuple[str, ...] = field(repr=False, compare=False)
    header_length: int = field(repr=False, compare=False)
    name_index: int = field(repr=False, compare=False)

    @cached_property
    def signature_key(self) -> str:
        """Return type, name and parameter types, with parameter names dropped."""
        return _signature_key(self.tokens[: self.header_length], self.name_index)


# C89/C99 keyword table; identifiers outside this set are classification fodder.
KEYWORDS = frozenset(
    """auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Imaginary""".split()
)

# Longest-match order is enforced by sorting at module load.
PUNCTUATORS = sorted(
    [
        "...", "<<=", ">>=",
        "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
        "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "##",
        "[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
        "/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",", "#",
    ],
    key=len,
    reverse=True,
)

_TOKEN_RE = re.compile(
    r"""
      (?P<whitespace>\s+)
    | (?P<identifier>[A-Za-z_]\w*)
    | (?P<comment>/\*.*?\*/|//[^\n]*)
    | (?P<string_literal>"(?:\\.|[^"\\\n])*")
    | (?P<char_literal>'(?:\\.|[^'\\\n])*')
    | (?P<number_literal>(?:\d|\.\d)(?:[eEpP][+-]|[\w.])*)
    | (?P<open_comment>/\*)
    | (?P<open_string>")
    | (?P<open_char>')
    """
    # Every single character falls to ".", so only the longer punctuators
    # need alternatives; an unknown byte (e.g. @ or a stray backslash) is
    # kept as a one-char punctuator, so the round-trip invariant holds.
    + "| (?P<punctuator>"
    + "|".join(re.escape(p) for p in PUNCTUATORS if len(p) > 1)
    + "|.)",
    re.VERBOSE | re.DOTALL,
)

_GROUP_KIND = {
    "whitespace": TokenKind.WHITESPACE,
    "comment": TokenKind.COMMENT,
    "string_literal": TokenKind.STRING_LITERAL,
    "char_literal": TokenKind.CHAR_LITERAL,
    "number_literal": TokenKind.NUMBER_LITERAL,
    "identifier": TokenKind.IDENTIFIER,
    "punctuator": TokenKind.PUNCTUATOR,
}

# Openers whose token never closes; the regex reaches them only after the
# terminated forms above have failed at the same position.
_UNTERMINATED = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
    "open_char": "unterminated char literal",
}


# The same alternatives without their groups, so that findall returns the
# token texts. No alternative looks past the text it matches, so a token's
# kind depends on its text alone: each distinct text is classified once.
_SPLIT_RE = re.compile(
    re.sub(r"\(\?P<\w+>", "(?:", _TOKEN_RE.pattern), re.VERBOSE | re.DOTALL
)

# A punctuator or keyword spelling always lexes to the same token; tokens
# are immutable, so every call shares these instead of building them.
_FIXED_TOKENS = MappingProxyType(
    {p: Token(p, TokenKind.PUNCTUATOR) for p in PUNCTUATORS}
    | {k: Token(k, TokenKind.KEYWORD) for k in KEYWORDS}
)

# The texts the split yields only where a literal or comment never closes:
# a closed one is split as a whole, so a lone opener means a LexError.
_OPENERS = frozenset({"/*", '"', "'"})


# Spelling -> token, for the sources of one call (see ``spelling_table``).
Spellings = dict[str, Token]


def spelling_table() -> Spellings:
    """A fresh spelling-to-token table for the sources of one call.

    ``tokenize`` adds each spelling it classifies, so the other sources
    lexed with the same table reuse it. Seeded with the fixed keyword and
    punctuator tokens. The call drops it when it returns, so nothing is
    kept from one call to the next.
    """
    return dict(_FIXED_TOKENS)


def tokenize(source: str, spellings: Spellings | None = None) -> list[Token]:
    """Lex C source into a lossless token stream.

    Preprocessor lines are lexed as ordinary tokens; no macro expansion.
    Raises LexError only for unterminated string/char literals or an
    unterminated block comment. Each distinct spelling is classified once
    per table: pass one ``spelling_table()`` to every source of a call to
    share the work across them (a source that raises adds nothing to it).
    The table must come from ``spelling_table()``: keyword tokens come
    only from its seed.
    Equal tokens may be one shared object, so compare tokens by value,
    never by identity.
    """
    texts = _SPLIT_RE.findall(source)
    if spellings is None:
        spellings = spelling_table()
    new = set(texts).difference(spellings)
    if not _OPENERS.isdisjoint(new):
        m = next(m for m in _TOKEN_RE.finditer(source) if m.lastgroup in _UNTERMINATED)
        offset = len(source[: m.start()].encode("utf-8"))
        raise LexError(_UNTERMINATED[m.lastgroup], offset)
    for text in new:
        spellings[text] = Token(text, _GROUP_KIND[_TOKEN_RE.match(text).lastgroup])
    return list(map(spellings.__getitem__, texts))


# Per-token loops compare kinds against these names with ``is``: on Python
# 3.11 reading a member off its Enum class costs several times a global
# lookup, and two identity tests beat ``in`` on a tuple of kinds.
_IDENTIFIER = TokenKind.IDENTIFIER
_WHITESPACE = TokenKind.WHITESPACE
_COMMENT = TokenKind.COMMENT
_STRING_LITERAL = TokenKind.STRING_LITERAL
_CHAR_LITERAL = TokenKind.CHAR_LITERAL
_DECL_BOUNDARY = {"{", ";", "(", ","}
_TAG_KEYWORDS = {"struct", "union", "enum"}


def strip_noise(tokens: list[Token]) -> list[Token]:
    """Drop Comment and Whitespace tokens, preserving order."""
    return [t for t in tokens if t.kind is not _WHITESPACE and t.kind is not _COMMENT]


def _directive_end(tokens: list[Token], start: int) -> int:
    """Index just past a preprocessor line starting at tokens[start] == '#'."""
    for j in range(start + 1, len(tokens)):
        tok = tokens[j]
        # a newline ends the line, except that a backslash before the
        # whitespace splices its first newline
        if tok.kind is _WHITESPACE and "\n" in tok.text:
            if tokens[j - 1].text != "\\" or tok.text.count("\n") > 1:
                return j
    return len(tokens)


def _at_line_start(tokens: list[Token], i: int) -> bool:
    j = i - 1
    while j >= 0:
        t = tokens[j]
        if t.kind is TokenKind.WHITESPACE:
            if "\n" in t.text:
                return True
        elif t.kind is not TokenKind.COMMENT:
            return False
        j -= 1
    return True


def _parameter_type_spelling(param: list[Token]) -> str:
    """Parameter tokens with the declared name removed, space-joined."""
    names = [
        k for k, tok in enumerate(param)
        if tok.kind is _IDENTIFIER and (k == 0 or param[k - 1].text not in _TAG_KEYWORDS)
    ]
    if len(param) > 1 and names and names[-1] > 0:
        param = param[: names[-1]] + param[names[-1] + 1 :]
    return " ".join(t.text for t in param)


def _signature_key(header_sig: tuple[Token, ...], name_idx: int) -> str:
    ret = " ".join(t.text for t in header_sig[:name_idx])
    name = header_sig[name_idx].text
    params = header_sig[name_idx + 2 : -1]
    groups: list[list[Token]] = [[]]
    depth = 0
    for tok in params:
        if tok.text in ("(", "["):
            depth += 1
        elif tok.text in (")", "]"):
            depth -= 1
        if depth == 0 and tok.text == ",":
            groups.append([])
        else:
            groups[-1].append(tok)
    spellings = [_parameter_type_spelling(g) for g in groups if g]
    return f"{ret} {name} ( {' , '.join(spellings)} )"


_BRACKETS = frozenset("(){}")


def _match_brackets(texts: tuple[str, ...]) -> dict[int, int]:
    """Index of the closer of each '(' and '{' that has one.

    One pass with a stack per bracket kind; each kind ignores the other,
    and a closer with nothing open is left unmatched.
    """
    match: dict[int, int] = {}
    parens: list[int] = []
    braces: list[int] = []
    for k in compress(range(len(texts)), map(_BRACKETS.__contains__, texts)):
        text = texts[k]
        if text == "(":
            parens.append(k)
        elif text == "{":
            braces.append(k)
        elif text == ")":
            if parens:
                match[parens.pop()] = k
        elif braces:
            match[braces.pop()] = k
    return match


def _block_end(match: dict[int, int], open_k: int) -> int:
    """Index just past the brace block opened at open_k."""
    if open_k not in match:
        raise StructureError("unbalanced '{' at file scope")
    return match[open_k] + 1


def extract_functions(tokens: list[Token]) -> list[FunctionUnit]:
    """Find top-level ``identifier ( params ) {`` definitions.

    Declarations, macros, and braces nested inside bodies are not split;
    unparsable constructs (K&R definitions, function pointers) are skipped.
    Raises StructureError when braces do not balance at file scope.
    """
    # sig[k] is tokens[at[k]]
    at = [i for i, t in enumerate(tokens) if t.kind is not _WHITESPACE and t.kind is not _COMMENT]
    # tuples, so that each unit's slices are tuples without another copy
    sig = tuple([tokens[i] for i in at])
    texts = tuple([t.text for t in sig])
    match = _match_brackets(texts)
    units: list[FunctionUnit] = []
    boundary = 0  # index in sig where the current candidate header starts
    k = 0
    while k < len(sig):
        text = texts[k]
        if text == "#" and _at_line_start(tokens, at[k]):
            end = _directive_end(tokens, at[k])
            while k < len(sig) and at[k] < end:
                k += 1
            boundary = k
        elif text == ";":
            k = boundary = k + 1
        elif text == "{":
            # struct/union/enum body or initializer block at file scope
            k = boundary = _block_end(match, k)
        elif text == "}":
            raise StructureError("unbalanced '}' at file scope")
        elif (
            sig[k].kind is _IDENTIFIER
            and texts[k + 1 : k + 2] == ("(",)
            and (close := match.get(k + 1)) is not None
            and texts[close + 1 : close + 2] == ("{",)
        ):
            end = _block_end(match, close + 1)
            units.append(
                FunctionUnit(
                    name=text,
                    tokens=sig[boundary:end],
                    texts=texts[boundary:end],
                    header_length=close + 1 - boundary,
                    name_index=k - boundary,
                )
            )
            k = boundary = end
        else:
            k += 1
    return units


def classify_identifier_roles(fn: FunctionUnit) -> dict[str, Role]:
    """Role of each identifier and literal spelling within one function.

    Keys follow first occurrence, so the one walk serves abstraction's ID
    numbering too. String and char literals are LITERAL. For identifiers,
    an occurrence followed by "(" is a function name; one preceded by
    struct/union/enum, or sitting in type position at a declaration
    boundary (followed by stars and another identifier), is a type name;
    everything else is a variable. All occurrences of a spelling share the
    first occurrence's role, except that a later function-name occurrence
    upgrades a variable.
    """
    sig = fn.tokens
    texts = fn.texts
    roles: dict[str, Role] = {}
    called = None  # spellings with an occurrence followed by "(", on first need
    for idx, tok in enumerate(sig):
        kind = tok.kind
        if kind is not _IDENTIFIER:
            if kind is _STRING_LITERAL or kind is _CHAR_LITERAL:
                roles.setdefault(tok.text, Role.LITERAL)
            continue
        text = tok.text
        if text in roles:
            continue
        if texts[idx + 1 : idx + 2] == ("(",):
            roles[text] = Role.FUNCTION
        elif (idx > 0 and texts[idx - 1] in _TAG_KEYWORDS) or _in_type_position(sig, texts, idx):
            roles[text] = Role.TYPE
        else:
            if called is None:
                called = set(compress(texts, map("(".__eq__, texts[1:])))
            roles[text] = Role.FUNCTION if text in called else Role.VARIABLE
    return roles


def _in_type_position(sig: tuple[Token, ...], texts: tuple[str, ...], idx: int) -> bool:
    if idx > 0 and texts[idx - 1] not in _DECL_BOUNDARY:
        return False
    j = idx + 1
    while texts[j : j + 1] == ("*",):
        j += 1
    return j < len(sig) and sig[j].kind is _IDENTIFIER
