"""Lossy-but-deterministic C tokenizer and function extractor.

Tokenization is lossless (concatenating token texts reproduces the input);
function extraction and identifier-role classification are deliberate
heuristics that work on unpreprocessed source. Macros are treated as plain
identifiers and K&R-style definitions are skipped, not rejected.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

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
    FUNCTION = "F"
    TYPE = "T"
    VARIABLE = "V"


@dataclass(frozen=True)
class Token:
    text: str
    kind: TokenKind


@dataclass(frozen=True)
class FunctionUnit:
    name: str
    signature_key: str
    header_tokens: tuple[Token, ...]
    body_tokens: tuple[Token, ...]

    def significant_tokens(self) -> list[Token]:
        return strip_noise(list(self.header_tokens) + list(self.body_tokens))


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
    | (?P<comment>/\*.*?\*/|//[^\n]*)
    | (?P<string_literal>"(?:\\.|[^"\\\n])*")
    | (?P<char_literal>'(?:\\.|[^'\\\n])*')
    | (?P<number_literal>(?:\d|\.\d)(?:[eEpP][+-]|[\w.])*)
    | (?P<identifier>[A-Za-z_]\w*)
    | (?P<open_comment>/\*)
    | (?P<open_string>")
    | (?P<open_char>')
    """
    # An unknown byte (e.g. @ or a stray backslash) is kept as a one-char
    # punctuator, so the round-trip invariant holds.
    + "| (?P<punctuator>" + "|".join(map(re.escape, PUNCTUATORS)) + "|.)",
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


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


def tokenize(source: str) -> list[Token]:
    """Lex C source into a lossless token stream.

    Preprocessor lines are lexed as ordinary tokens; no macro expansion.
    Raises LexError only for unterminated string/char literals or an
    unterminated block comment.
    """
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(source):
        kind = _GROUP_KIND.get(m.lastgroup)
        if kind is None:
            raise LexError(_UNTERMINATED[m.lastgroup], _byte_offset(source, m.start()))
        text = m.group()
        if kind is TokenKind.IDENTIFIER and text in KEYWORDS:
            kind = TokenKind.KEYWORD
        tokens.append(Token(text, kind))
    return tokens


_NOISE = (TokenKind.WHITESPACE, TokenKind.COMMENT)


def strip_noise(tokens: list[Token]) -> list[Token]:
    """Drop Comment and Whitespace tokens, preserving order."""
    return [t for t in tokens if t.kind not in _NOISE]


def _is_punct(tok: Token, text: str) -> bool:
    return tok.kind is TokenKind.PUNCTUATOR and tok.text == text


def _directive_end(tokens: list[Token], start: int) -> int:
    """Index just past a preprocessor line starting at tokens[start] == '#'."""
    j = start + 1
    while j < len(tokens):
        tok = tokens[j]
        if tok.kind is TokenKind.WHITESPACE and "\n" in tok.text:
            if j > 0 and tokens[j - 1].text == "\\":
                j += 1
                continue
            return j
        j += 1
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


def _trim_noise_edges(tokens: list[Token]) -> list[Token]:
    lo, hi = 0, len(tokens)
    while lo < hi and tokens[lo].kind in _NOISE:
        lo += 1
    while hi > lo and tokens[hi - 1].kind in _NOISE:
        hi -= 1
    return tokens[lo:hi]


def _parameter_type_spelling(param: list[Token]) -> str:
    """Parameter tokens with the declared name removed, space-joined."""
    if len(param) > 1:
        last_ident = None
        for k, tok in enumerate(param):
            if tok.kind is TokenKind.IDENTIFIER:
                prev = param[k - 1] if k > 0 else None
                if prev is not None and prev.text in ("struct", "union", "enum"):
                    continue
                last_ident = k
        if last_ident is not None and last_ident > 0:
            param = param[:last_ident] + param[last_ident + 1 :]
    return " ".join(t.text for t in param)


def _signature_key(header_sig: list[Token], name_idx: int) -> str:
    ret = " ".join(t.text for t in header_sig[:name_idx])
    name = header_sig[name_idx].text
    params = header_sig[name_idx + 2 : -1]
    groups: list[list[Token]] = [[]]
    depth = 0
    for tok in params:
        if _is_punct(tok, "(") or _is_punct(tok, "["):
            depth += 1
        elif _is_punct(tok, ")") or _is_punct(tok, "]"):
            depth -= 1
        if depth == 0 and _is_punct(tok, ","):
            groups.append([])
        else:
            groups[-1].append(tok)
    spellings = [_parameter_type_spelling(g) for g in groups if g]
    return f"{ret} {name} ( {' , '.join(spellings)} )"


def extract_functions(tokens: list[Token]) -> list[FunctionUnit]:
    """Find top-level ``identifier ( params ) {`` definitions.

    Declarations, macros, and braces nested inside bodies are not split;
    unparsable constructs (K&R definitions, function pointers) are skipped.
    Raises StructureError when braces do not balance at file scope.
    """
    sig: list[tuple[int, Token]] = [
        (i, t) for i, t in enumerate(tokens) if t.kind not in _NOISE
    ]
    units: list[FunctionUnit] = []
    boundary = 0  # raw index where the current candidate header starts
    k = 0
    while k < len(sig):
        i, tok = sig[k]
        if _is_punct(tok, "#") and _at_line_start(tokens, i):
            end = _directive_end(tokens, i)
            boundary = end
            while k < len(sig) and sig[k][0] < end:
                k += 1
            continue
        if _is_punct(tok, ";"):
            boundary = i + 1
            k += 1
            continue
        if _is_punct(tok, "{"):
            # struct/union/enum body or initializer block at file scope
            k = _skip_braces(sig, k)
            boundary = sig[k - 1][0] + 1
            continue
        if _is_punct(tok, "}"):
            raise StructureError("unbalanced '}' at file scope")
        if tok.kind is TokenKind.IDENTIFIER and k + 1 < len(sig) and _is_punct(sig[k + 1][1], "("):
            close = _match_parens(sig, k + 1)
            if close is not None and close + 1 < len(sig) and _is_punct(sig[close + 1][1], "{"):
                body_end = _skip_braces(sig, close + 1)
                header = _trim_noise_edges(tokens[boundary : sig[close][0] + 1])
                body = tokens[sig[close + 1][0] : sig[body_end - 1][0] + 1]
                header_sig = strip_noise(header)
                name_idx = next(
                    idx
                    for idx in range(len(header_sig) - 1, -1, -1)
                    if header_sig[idx] is tok
                )
                units.append(
                    FunctionUnit(
                        name=tok.text,
                        signature_key=_signature_key(header_sig, name_idx),
                        header_tokens=tuple(header),
                        body_tokens=tuple(body),
                    )
                )
                boundary = sig[body_end - 1][0] + 1
                k = body_end
                continue
        k += 1
    return units


def _match_parens(sig: list[tuple[int, Token]], open_k: int) -> int | None:
    depth = 0
    for k in range(open_k, len(sig)):
        t = sig[k][1]
        if _is_punct(t, "("):
            depth += 1
        elif _is_punct(t, ")"):
            depth -= 1
            if depth == 0:
                return k
    return None


def _skip_braces(sig: list[tuple[int, Token]], open_k: int) -> int:
    """Index just past the brace block opened at sig[open_k]."""
    depth = 0
    for k in range(open_k, len(sig)):
        t = sig[k][1]
        if _is_punct(t, "{"):
            depth += 1
        elif _is_punct(t, "}"):
            depth -= 1
            if depth == 0:
                return k + 1
    raise StructureError("unbalanced '{' at file scope")


_DECL_BOUNDARY = {"{", ";", "(", ","}
_TAG_KEYWORDS = {"struct", "union", "enum"}


def classify_identifier_roles(fn: FunctionUnit) -> dict[str, Role]:
    """Heuristic role per identifier spelling within one function.

    An occurrence followed by "(" is a function name; one preceded by
    struct/union/enum, or sitting in type position at a declaration
    boundary (followed by stars and another identifier), is a type name;
    everything else is a variable. All occurrences of a spelling share the
    first occurrence's role, except that a later function-name occurrence
    upgrades a variable.
    """
    sig = fn.significant_tokens()
    first: dict[str, Role] = {}
    called: set[str] = set()
    for idx, tok in enumerate(sig):
        if tok.kind is not TokenKind.IDENTIFIER:
            continue
        nxt = sig[idx + 1] if idx + 1 < len(sig) else None
        prev = sig[idx - 1] if idx > 0 else None
        if nxt is not None and _is_punct(nxt, "("):
            raw = Role.FUNCTION
            called.add(tok.text)
        elif prev is not None and prev.kind is TokenKind.KEYWORD and prev.text in _TAG_KEYWORDS:
            raw = Role.TYPE
        elif _in_type_position(sig, idx):
            raw = Role.TYPE
        else:
            raw = Role.VARIABLE
        first.setdefault(tok.text, raw)
    roles = {}
    for spelling, raw in first.items():
        if raw is Role.VARIABLE and spelling in called:
            raw = Role.FUNCTION
        roles[spelling] = raw
    return roles


def _in_type_position(sig: list[Token], idx: int) -> bool:
    prev = sig[idx - 1] if idx > 0 else None
    if prev is not None and not (prev.kind is TokenKind.PUNCTUATOR and prev.text in _DECL_BOUNDARY):
        return False
    j = idx + 1
    while j < len(sig) and _is_punct(sig[j], "*"):
        j += 1
    return j < len(sig) and sig[j].kind is TokenKind.IDENTIFIER
