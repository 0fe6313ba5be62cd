"""Parity of the one-pass front end with the per-token code it replaced.

The ``reference_*`` functions are the former ``cparse.extract_functions``
(with ``_skip_braces`` and ``_match_parens``, which rescan from each
opener), ``cparse.classify_identifier_roles`` and
``abstraction.abstract_function``, kept verbatim as oracles together with
the private helpers they called. The old extractor finds a function's name
in its header by object identity, which tokens shared per spelling would
defeat, so it is fed an unshared copy of each token stream; it returns
``ReferenceUnit`` records, the fields of the former ``FunctionUnit``, whose
header and body with comments and whitespace stripped must equal the
header and body slices of ``FunctionUnit.tokens``. Its
``_directive_end`` carries one fix: a backslash splices only the first
newline after it. The old classifier gives identifier roles only; the
LITERAL entries the classifier now adds are checked on their own.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from vulnseq.abstraction import ID_TOKEN_RE, IdMap, abstract_function
from vulnseq.cparse import (
    FunctionUnit,
    Role,
    Token,
    TokenKind,
    classify_identifier_roles,
    extract_functions,
    strip_noise,
    tokenize,
)
from vulnseq.errors import LexError, StructureError
from vulnseq.pairing import pair_functions
from vulnseq.synth import SynthesisSpec, generate_synthetic_corpus

from conftest import DEV_LOAD, IGMP_FIXED, IGMP_VULN

_NOISE = (TokenKind.WHITESPACE, TokenKind.COMMENT)


def _is_punct(tok: Token, text: str) -> bool:
    return tok.kind is TokenKind.PUNCTUATOR and tok.text == text


def _directive_end(tokens: list[Token], start: int) -> int:
    """Index just past a preprocessor line starting at tokens[start] == '#'."""
    j = start + 1
    while j < len(tokens):
        tok = tokens[j]
        if tok.kind is TokenKind.WHITESPACE and "\n" in tok.text:
            # the backslash splices the first newline only
            if j > 0 and tokens[j - 1].text == "\\" and tok.text.count("\n") == 1:
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


@dataclass(frozen=True)
class ReferenceUnit:
    """A function as the former ``cparse.FunctionUnit`` held it."""

    name: str
    signature_key: str
    header_tokens: tuple[Token, ...]
    body_tokens: tuple[Token, ...]

    def split(self) -> tuple[tuple[Token, ...], tuple[Token, ...]]:
        """Header and body without comments and whitespace."""
        return tuple(strip_noise(self.header_tokens)), tuple(strip_noise(self.body_tokens))


def reference_extract_functions(tokens: list[Token]) -> list[ReferenceUnit]:
    """Find top-level ``identifier ( params ) {`` definitions.

    Declarations, macros, and braces nested inside bodies are not split;
    unparsable constructs (K&R definitions, function pointers) are skipped.
    Raises StructureError when braces do not balance at file scope.
    """
    sig: list[tuple[int, Token]] = [
        (i, t) for i, t in enumerate(tokens) if t.kind not in _NOISE
    ]
    units: list[ReferenceUnit] = []
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
                    ReferenceUnit(
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


def reference_classify_identifier_roles(fn: FunctionUnit) -> dict[str, Role]:
    """Heuristic role per identifier spelling within one function.

    An occurrence followed by "(" is a function name; one preceded by
    struct/union/enum, or sitting in type position at a declaration
    boundary (followed by stars and another identifier), is a type name;
    everything else is a variable. All occurrences of a spelling share the
    first occurrence's role, except that a later function-name occurrence
    upgrades a variable.
    """
    sig = fn.tokens
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


def reference_abstract_function(
    fn: FunctionUnit, shared: IdMap | None = None
) -> tuple[list[str], IdMap]:
    """Abstract one function into ID-stream tokens.

    With `shared` (the other half of a fix pair), existing entries are
    reused and new IDs continue that map's counters; the map is mutated
    in place and returned. Tokens that already look like IDs resolve
    under their embedded role, which makes abstraction idempotent.
    """
    idmap = shared if shared is not None else IdMap()
    roles = reference_classify_identifier_roles(fn)
    out: list[str] = []
    for tok in fn.tokens:
        if tok.kind is TokenKind.IDENTIFIER:
            m = ID_TOKEN_RE.match(tok.text)
            letter = m.group(1) if m is not None else roles[tok.text].value
            out.append(idmap.resolve(letter, tok.text))
        elif tok.kind in (TokenKind.STRING_LITERAL, TokenKind.CHAR_LITERAL):
            out.append(idmap.resolve("L", tok.text))
        else:
            out.append(tok.text)
    return out, idmap


def _unshared(tokens: list[Token]) -> list[Token]:
    return [Token(t.text, t.kind) for t in tokens]


def _split(unit: FunctionUnit) -> tuple[tuple[Token, ...], tuple[Token, ...]]:
    return unit.tokens[: unit.header_length], unit.tokens[unit.header_length :]


def _units(extract, split, tokens):
    """Each extracted function's name, signature key, and header and body
    without noise, or the StructureError's message."""
    try:
        return [(u.name, u.signature_key, *split(u)) for u in extract(tokens)]
    except StructureError as exc:
        return ("StructureError", str(exc))


def _assert_roles_parity(fn: FunctionUnit) -> None:
    """Identifier roles as the oracle's; literals LITERAL; first-occurrence order."""
    roles = classify_identifier_roles(fn)
    sig = fn.tokens
    assert fn.texts == tuple(t.text for t in sig)
    identifiers = {t: r for t, r in roles.items() if r is not Role.LITERAL}
    assert identifiers == reference_classify_identifier_roles(fn)
    literals = [t.text for t in sig if t.kind in (TokenKind.STRING_LITERAL, TokenKind.CHAR_LITERAL)]
    assert {t for t, r in roles.items() if r is Role.LITERAL} == set(literals)
    assert list(roles) == [t for t in dict.fromkeys(t.text for t in sig) if t in roles]


def _assert_parity(source: str) -> None:
    try:
        tokens = tokenize(source)
    except LexError:
        return  # tests/test_lexer_parity.py covers the lexer's errors
    units = _units(extract_functions, _split, tokens)
    reference = _units(reference_extract_functions, ReferenceUnit.split, _unshared(tokens))
    assert units == reference, source
    if isinstance(units, tuple):
        return
    for fn in extract_functions(tokens):
        assert fn.tokens[fn.name_index].text == fn.name, source
        _assert_roles_parity(fn)
        assert abstract_function(fn) == reference_abstract_function(fn), source


def _assert_shared_map_parity(before: FunctionUnit, after: FunctionUnit) -> None:
    """A fix pair through one IdMap, as pairing.build_training_pairs does it."""
    new_map, old_map = IdMap(), IdMap()
    new = [abstract_function(fn, new_map)[0] for fn in (before, after)]
    old = [reference_abstract_function(fn, old_map)[0] for fn in (before, after)]
    assert new == old and new_map == old_map, before.name


# Pieces of C that reach every branch of the extractor and the role rules:
# unbalanced brackets, directives with continuations, struct tags, stars in
# declarations, ID-shaped names and literals, some holding brackets.
C_PIECES = [
    "{", "}", "(", ")", "[", "]", ";", ",", "*", "=", "->", " ", "\n",
    "\\\n", "#", "#define M ", "#include <a.h>\n", "/* { */", "// (\n",
    "struct", "union", "enum", "int", "void", "char", "return", "if",
    "f", "g", "h", "T", "x", "y", "V_3", "F_1", "L_2", "T_9",
    '"s"', '"("', "'c'", "'{'", "0", "1.5",
]

fragments = st.lists(st.sampled_from(C_PIECES), max_size=50).map(" ".join)


@settings(max_examples=500, deadline=None)
@given(fragments)
def test_parity_on_c_fragments(source):
    _assert_parity(source)


@settings(max_examples=500, deadline=None)
@given(fragments, fragments, fragments, fragments)
def test_parity_on_function_shaped_fragments(before, params, body, after):
    _assert_parity(f"{before} int f ( {params} ) {{ {body} }} {after}")


@settings(max_examples=200, deadline=None)
@given(fragments, fragments, fragments)
def test_parity_of_fix_pairs_on_a_shared_map(params, body, fixed_body):
    try:
        before = extract_functions(tokenize(f"int f ( {params} ) {{ {body} }}"))
        after = extract_functions(tokenize(f"int f ( {params} ) {{ {fixed_body} }}"))
    except (LexError, StructureError):
        return
    for b, a in pair_functions(before, after):
        _assert_shared_map_parity(b, a)


def test_parity_on_named_cases():
    for source in [
        DEV_LOAD,
        IGMP_VULN,
        # a name first seen as a type and then called stays a type
        "void f(void) { T * x; T(x); }",
        # first seen as a variable and then called becomes a function
        "void f(void) { x = 1; x(2); }",
        # the function's name again in its own header
        "int foo(struct foo *foo) { return foo->n; }",
        "void f(int V_3) { L_2 = \"s\"; F_1(V_3, 'c', \"s\"); }",
        # literals and ID-shaped L names share the L numbering, in token order
        "void f(void) { g(\"s\", L_1); h('c', L_2, \"s\"); }",
        "#define OPEN { \\\n  (\nvoid f(void) { }\n",
        # a blank line after a continued directive ends it
        "#define X 1 \\\n\nint f(void) { return 0; }\n",
        "void f(int a[(1)], void (*g)(int, char)) { if (a) { g(1, 2); } }",
        "void f(void) { {",
        "void f(void) { } }",
        "f ( { ) } void g(void) { }",
        "int (x); int f(void) { return (1; }",
    ]:
        _assert_parity(source)


def _synthetic_components():
    for seed in range(32):
        corpus = generate_synthetic_corpus(seed, SynthesisSpec(components_per_release=40))
        for release in corpus.releases:
            yield from release.components


def test_parity_on_synthetic_sources():
    sources = set()
    for comp in _synthetic_components():
        sources.add(comp.source)
        if comp.fixed_source is not None:
            sources.add(comp.fixed_source)
    assert len(sources) > 2000
    for source in sorted(sources):
        _assert_parity(source)


def test_parity_of_synthetic_fix_pairs_on_a_shared_map():
    pairs = 0
    for comp in _synthetic_components():
        if comp.fixed_source is None:
            continue
        before = extract_functions(tokenize(comp.source))
        after = extract_functions(tokenize(comp.fixed_source))
        for b, a in pair_functions(before, after):
            _assert_shared_map_parity(b, a)
            pairs += 1
    assert pairs > 500
    before = extract_functions(tokenize(IGMP_VULN))
    after = extract_functions(tokenize(IGMP_FIXED))
    for b, a in pair_functions(before, after):
        _assert_shared_map_parity(b, a)
