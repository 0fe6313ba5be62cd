from __future__ import annotations

import random

import pytest

from vulnseq.cparse import (
    Role,
    Token,
    TokenKind,
    classify_identifier_roles,
    extract_functions,
    strip_noise,
    tokenize,
)
from vulnseq.errors import LexError, StructureError

from conftest import DEV_LOAD, IGMP_FIXED, IGMP_VULN

# Fragment pool for the round-trip property test; concatenations of these
# stay lexable (no dangling quote or comment openers).
FRAGMENTS = [
    "int x;",
    " \t\n",
    "/* block\ncomment */",
    "// line comment\n",
    '"str \\"esc\\" lit"',
    "'c'",
    "'\\n'",
    "0x1fULL",
    "3.14e-2f",
    ".5",
    "a->b++",
    "x <<= 2;",
    "if (a && b || !c) { return; }",
    "for(i=0;i<10;++i)",
    "#define FOO(a) ((a)+1)\n",
    "struct point { int x, y; };",
    "char *s = \"%s\";",
    "...",
    "u8 buf[16];",
    "y = a % b ^ c;",
]


def test_tokenize_smallest_declaration():
    toks = tokenize("int x;")
    assert [(t.kind, t.text) for t in toks] == [
        (TokenKind.KEYWORD, "int"),
        (TokenKind.WHITESPACE, " "),
        (TokenKind.IDENTIFIER, "x"),
        (TokenKind.PUNCTUATOR, ";"),
    ]


def test_tokenize_round_trip_random_fragments():
    rng = random.Random(1311)
    for _ in range(300):
        src = " ".join(rng.choices(FRAGMENTS, k=rng.randint(1, 30)))
        toks = tokenize(src)
        assert "".join(t.text for t in toks) == src


def test_tokenize_byte_round_trip_real_sources():
    for src in (IGMP_VULN, IGMP_FIXED, DEV_LOAD):
        assert "".join(t.text for t in tokenize(src)) == src


def test_tokenize_dev_load_identifiers():
    idents = {t.text for t in tokenize(DEV_LOAD) if t.kind is TokenKind.IDENTIFIER}
    assert {"dev_load", "net", "netw", "dev_get_by_name_rcu", "CAP_NET_ADMIN"} <= idents


def test_tokenize_literal_kinds():
    toks = strip_noise(tokenize('f("a b", \'x\', 0x10, 1.5e3, .25);'))
    kinds = [t.kind for t in toks if t.kind is not TokenKind.PUNCTUATOR]
    assert kinds == [
        TokenKind.IDENTIFIER,
        TokenKind.STRING_LITERAL,
        TokenKind.CHAR_LITERAL,
        TokenKind.NUMBER_LITERAL,
        TokenKind.NUMBER_LITERAL,
        TokenKind.NUMBER_LITERAL,
    ]


@pytest.mark.parametrize("literal", ["1e+3", "1.5E-10f", "0x1p-4"])
def test_tokenize_signed_exponent_is_one_number(literal):
    # a C pp-number takes the sign after e/E/p/P
    assert strip_noise(tokenize(f"x = {literal};")) == [
        Token("x", TokenKind.IDENTIFIER),
        Token("=", TokenKind.PUNCTUATOR),
        Token(literal, TokenKind.NUMBER_LITERAL),
        Token(";", TokenKind.PUNCTUATOR),
    ]


@pytest.mark.parametrize(
    "src,what",
    [
        ('x = "abc', "string"),
        ("c = 'a", "char"),
        ("abc /* never closed", "comment"),
    ],
)
def test_tokenize_unterminated_raises(src, what):
    with pytest.raises(LexError) as exc:
        tokenize(src)
    assert "byte offset 4" in str(exc.value)
    assert what in str(exc.value)


def test_tokenize_unknown_byte_kept():
    toks = tokenize("a @ b")
    assert "".join(t.text for t in toks) == "a @ b"
    assert toks[2] == Token("@", TokenKind.PUNCTUATOR)


def test_strip_noise_all_comments():
    assert strip_noise(tokenize("/* a */ // b\n\t ")) == []


def test_strip_noise_subsequence_property():
    rng = random.Random(7)
    for _ in range(100):
        src = " ".join(rng.choices(FRAGMENTS, k=rng.randint(1, 20)))
        toks = tokenize(src)
        kept = strip_noise(toks)
        assert all(
            t.kind not in (TokenKind.COMMENT, TokenKind.WHITESPACE) for t in kept
        )
        it = iter(toks)
        assert all(any(t is u for u in it) for t in kept)


def test_extract_igmp_pair_functions():
    for src in (IGMP_VULN, IGMP_FIXED):
        units = extract_functions(tokenize(src))
        assert [u.name for u in units] == ["igmp_heard_query", "igmp_start_timer"]


def test_extract_prototypes_yield_nothing():
    header = """
    int open_file(const char *path);
    extern void close_file(int fd);
    struct stat;
    typedef unsigned long size_t;
    """
    assert extract_functions(tokenize(header)) == []


def test_extract_skips_non_function_constructs():
    src = """
    #include <stdio.h>
    #define INIT { 0, 0 }
    struct point { int x, y; };
    int table[] = { 1, 2, 3 };
    int (*handler)(void);
    int get_x(struct point *p) { return p->x; }
    enum color { RED, GREEN };
    void noop(void) {}
    """
    units = extract_functions(tokenize(src))
    assert [u.name for u in units] == ["get_x", "noop"]


def test_blank_line_ends_a_continued_directive():
    # a backslash-newline splices only the first newline after it
    for gap, want in (("", []), ("\n", ["f"]), ("  \n\t", ["f"])):
        src = f"#define X 1 \\\n{gap}int f(void) {{ return 0; }}\n"
        assert [u.name for u in extract_functions(tokenize(src))] == want, src


def test_extract_body_brackets():
    units = extract_functions(tokenize("int f(void) { if (1) { g(); } return 0; }"))
    assert len(units) == 1
    body = units[0].texts[units[0].header_length :]
    assert body[0] == "{" and body[-1] == "}"


def test_units_that_differ_only_in_noise_compare_equal():
    plain = extract_functions(tokenize("int f(int a) { return a; }"))
    noisy = extract_functions(tokenize("int /* n */ f(int a)\n{\n\treturn a; // x\n}\n"))
    assert plain == noisy and hash(plain[0]) == hash(noisy[0])
    assert plain != extract_functions(tokenize("int f(int a) { return a + 1; }"))


def test_extract_generated_files_ground_truth():
    rng = random.Random(99)
    for _ in range(50):
        k = rng.randint(0, 8)
        names = [f"fn_{rng.randrange(10**6)}_{i}" for i in range(k)]
        parts = []
        for name in names:
            parts.append(f"static int {name}(int a, char *b) {{ return a + b[0]; }}")
            if rng.random() < 0.5:
                parts.append("int stray_decl;")
        src = "\n".join(parts)
        units = extract_functions(tokenize(src))
        assert [u.name for u in units] == names


def test_extract_prefix_agreement():
    base = IGMP_VULN
    extended = base + "\nint unrelated(int z) { return z * 2; }\n"
    a = extract_functions(tokenize(base))
    b = extract_functions(tokenize(extended))
    assert [u.name for u in b] == [u.name for u in a] + ["unrelated"]
    assert all(
        x.signature_key == y.signature_key for x, y in zip(a, b)
    )


def test_extract_unbalanced_braces():
    with pytest.raises(StructureError):
        extract_functions(tokenize("int f(void) { if (1) {"))
    with pytest.raises(StructureError):
        extract_functions(tokenize("}"))


def test_signature_key_drops_parameter_names():
    u1 = extract_functions(tokenize("int add(int first, char *buf) { return 0; }"))[0]
    u2 = extract_functions(tokenize("int add(int second, char *data) { return 0; }"))[0]
    assert u1.signature_key == u2.signature_key
    assert u1.signature_key == "int add ( int , char * )"


def test_signature_key_distinguishes_types_and_names():
    a = extract_functions(tokenize("int f(int a) { return 0; }"))[0]
    b = extract_functions(tokenize("int f(long a) { return 0; }"))[0]
    c = extract_functions(tokenize("int g(int a) { return 0; }"))[0]
    assert a.signature_key != b.signature_key
    assert a.signature_key != c.signature_key


def test_signature_key_struct_and_unnamed_params():
    u = extract_functions(
        tokenize("void h(struct net *netw, void) { return; }")
    )[0]
    assert u.signature_key == "void h ( struct net * , void )"


def test_classify_dev_load_roles():
    fn = extract_functions(tokenize(DEV_LOAD))[0]
    roles = classify_identifier_roles(fn)
    assert roles["dev_load"] is Role.FUNCTION
    assert roles["net"] is Role.TYPE
    assert roles["net_device"] is Role.TYPE
    assert roles["netw"] is Role.VARIABLE
    assert roles["name"] is Role.VARIABLE
    assert roles["dev"] is Role.VARIABLE
    assert roles["CAP_NET_ADMIN"] is Role.VARIABLE
    assert roles["rcu_read_lock"] is Role.FUNCTION
    assert roles["dev_get_by_name_rcu"] is Role.FUNCTION
    assert roles["capable"] is Role.FUNCTION
    assert roles["request_module"] is Role.FUNCTION


def test_classify_same_spelling_conflict():
    fn = extract_functions(tokenize("void t(void) { foo(foo); }"))[0]
    assert classify_identifier_roles(fn)["foo"] is Role.FUNCTION
    # variable first, called later: the call wins for the whole spelling
    fn = extract_functions(tokenize("void t(void) { x = cb; cb(x); }"))[0]
    assert classify_identifier_roles(fn)["cb"] is Role.FUNCTION


def test_classify_declaration_type_position():
    fn = extract_functions(
        tokenize("void t(void) { size_t n; mytype *p; n = p; }")
    )[0]
    roles = classify_identifier_roles(fn)
    assert roles["size_t"] is Role.TYPE
    assert roles["mytype"] is Role.TYPE
    assert roles["n"] is Role.VARIABLE
    assert roles["p"] is Role.VARIABLE


def test_classify_never_touches_keywords():
    for src in (IGMP_VULN, DEV_LOAD):
        for fn in extract_functions(tokenize(src)):
            roles = classify_identifier_roles(fn)
            keyword_texts = {t.text for t in fn.tokens if t.kind is TokenKind.KEYWORD}
            assert keyword_texts.isdisjoint(roles)
