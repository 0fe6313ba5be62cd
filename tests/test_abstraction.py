from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnseq.abstraction import (
    CHUNK_LIMIT,
    ID_TOKEN_RE,
    IdMap,
    SeqRole,
    SequenceMeta,
    abstract_function,
    to_sequences,
)
from vulnseq.cparse import KEYWORDS, PUNCTUATORS, extract_functions, tokenize
from vulnseq.errors import EmptyFunction

from conftest import DEV_LOAD, DEV_LOAD_ABSTRACTED, IGMP_FIXED, IGMP_VULN

NUMBER_RE = re.compile(r"^(?:\d|\.\d)(?:[\w.]|[eEpP][+-])*$")

META = SequenceMeta(source_path="x.c", function_name="f", role=SeqRole.NON_VULNERABLE)


def _abstract_source(src: str, shared: IdMap | None = None):
    fns = extract_functions(tokenize(src))
    assert len(fns) == 1
    return abstract_function(fns[0], shared)


def _valid_token(tok: str) -> bool:
    return bool(
        tok in KEYWORDS
        or tok in PUNCTUATORS
        or ID_TOKEN_RE.match(tok)
        or NUMBER_RE.match(tok)
    )


def test_dev_load_matches_published_abstraction():
    tokens, _ = _abstract_source(DEV_LOAD)
    assert " ".join(tokens) == DEV_LOAD_ABSTRACTED


def test_minimal_function_only_f1():
    tokens, idmap = _abstract_source("int main(void){return 0;}")
    assert tokens == ["int", "F_1", "(", "void", ")", "{", "return", "0", ";", "}"]
    assert idmap.ids == {"main": "F_1"}


def test_repeated_entity_reuses_id():
    tokens, _ = _abstract_source("void f(int a) { a = a + a; }")
    assert tokens.count("V_1") == 4


def test_number_literals_kept_char_literals_abstracted():
    tokens, idmap = _abstract_source("void f(void) { c = 'x'; n = 0x10 + 2.5f; }")
    assert "0x10" in tokens and "2.5f" in tokens
    assert idmap.ids == {"f": "F_1", "c": "V_1", "'x'": "L_1", "n": "V_2"}


def test_string_literal_identity():
    tokens, _ = _abstract_source('void f(void) { g("a"); g("a"); g("b"); }')
    assert tokens.count("L_1") == 2 and tokens.count("L_2") == 1


def test_comments_do_not_change_abstraction():
    with_note = DEV_LOAD.replace("rcu_read_lock();", "rcu_read_lock(); /* note */")
    assert _abstract_source(with_note)[0] == _abstract_source(DEV_LOAD)[0]


def test_alpha_renaming_invariance():
    renamed = re.sub(r"\bnetw\b", "current_net", DEV_LOAD)
    assert _abstract_source(renamed)[0] == _abstract_source(DEV_LOAD)[0]


def test_shared_map_adds_only_new_entities():
    before = "void f(int a) { a = a + 1; }"
    after = "void f(int a) { int tmp; tmp = a + 1; a = tmp; }"
    _, map_b = _abstract_source(before)
    snapshot = dict(map_b.ids)
    tokens_a, map_a = _abstract_source(after, shared=map_b)
    assert map_a.ids == snapshot | {"tmp": "V_2"}
    assert "V_2" in tokens_a


def test_shared_map_preserves_diff_locality(igmp_pair):
    vuln_fn = extract_functions(tokenize(igmp_pair[0]))[0]
    fixed_fn = extract_functions(tokenize(igmp_pair[1]))[0]
    src_b = list(vuln_fn.texts)
    src_a = list(fixed_fn.texts)
    abs_b, idmap = abstract_function(vuln_fn)
    abs_a, _ = abstract_function(fixed_fn, shared=idmap)

    def prefix(a, b):
        i = 0
        while i < min(len(a), len(b)) and a[i] == b[i]:
            i += 1
        return i

    p_src = prefix(src_b, src_a)
    p_abs = prefix(abs_b, abs_a)
    s_src = prefix(src_b[p_src:][::-1], src_a[p_src:][::-1])
    s_abs = prefix(abs_b[p_abs:][::-1], abs_a[p_abs:][::-1])
    assert (p_src, s_src) == (p_abs, s_abs)
    v_md = idmap.ids["max_delay"]
    inserted = abs_a[p_abs : len(abs_a) - s_abs]
    assert inserted == ["if", "(", "!", v_md, ")", v_md, "=", "1", ";"]


def test_unchanged_function_identical_under_shared_map(igmp_pair):
    vuln_units = extract_functions(tokenize(igmp_pair[0]))
    fixed_units = extract_functions(tokenize(igmp_pair[1]))
    abs_b, idmap = abstract_function(vuln_units[1])
    abs_a, _ = abstract_function(fixed_units[1], shared=idmap)
    assert abs_b == abs_a


def test_idempotent_on_own_output():
    tokens, _ = _abstract_source(DEV_LOAD)
    again, _ = _abstract_source(" ".join(tokens))
    assert again == tokens


def test_vocabulary_bound(igmp_pair):
    for src in igmp_pair + (DEV_LOAD,):
        for fn in extract_functions(tokenize(src)):
            tokens, _ = abstract_function(fn)
            bad = [t for t in tokens if not _valid_token(t)]
            assert bad == []


def test_chunk_sizes_exact():
    toks = [f"V_{i}" for i in range(1, 121)]
    seqs = to_sequences(toks, META)
    assert [len(s.tokens) for s in seqs] == [50, 50, 20]
    assert [s.chunk_index for s in seqs] == [0, 1, 2]


def test_chunk_boundary_single():
    seqs = to_sequences(["x"] * CHUNK_LIMIT, META)
    assert len(seqs) == 1 and len(seqs[0].tokens) == 50


def test_chunk_concatenation_property():
    rng = random.Random(4242)
    for _ in range(100):
        n = rng.randint(1, 317)
        toks = [str(i) for i in range(n)]
        seqs = to_sequences(toks, META)
        assert [t for s in seqs for t in s.tokens] == toks
        assert max(len(s.tokens) for s in seqs) <= CHUNK_LIMIT
        assert [s.chunk_index for s in seqs] == list(range(len(seqs)))
        assert all(len(s.tokens) == CHUNK_LIMIT for s in seqs[:-1])


def test_chunk_empty_raises():
    with pytest.raises(EmptyFunction):
        to_sequences([], META)



# --- properties on generated C-like functions -----------------------------

# A generated function is a template: fixed text, ("name", i) for the i-th
# user identifier and ("lit", i) for the i-th string or char literal, so
# one template renders under any consistent renaming.
N_NAMES = 8
N_LITERALS = 4

_names = st.lists(
    st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(lambda s: s not in KEYWORDS),
    min_size=N_NAMES,
    max_size=N_NAMES,
    unique=True,
)
# literals 0 and 1 are strings, 2 and 3 chars
_literals = st.tuples(
    st.lists(st.text("abz 09(){};_", max_size=4), min_size=2, max_size=2, unique=True),
    st.lists(st.sampled_from("abcxyz0(;{"), min_size=2, max_size=2, unique=True),
).map(lambda sc: [f'"{s}"' for s in sc[0]] + [f"'{c}'" for c in sc[1]])

_name = st.integers(0, N_NAMES - 1).map(lambda i: [("name", i)])
_literal = st.integers(0, N_LITERALS - 1).map(lambda i: [("lit", i)])
_number = st.sampled_from(["0", "1", "42", "0x1f", "2.5"]).map(lambda n: [n])
_type = st.one_of(
    st.sampled_from(["int", "char", "long", "unsigned"]).map(lambda t: [t]),
    _name.map(lambda n: ["struct", *n, "*"]),
    _name,
)


def _expressions():
    atoms = st.one_of(_name, _number, _literal)
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "==", "<", "&&"]), inner).map(
                lambda t: [*t[0], t[1], *t[2]]
            ),
            st.tuples(_name, st.lists(inner, max_size=3)).map(
                lambda t: [*t[0], "(", *_joined(t[1], ","), ")"]
            ),
            st.tuples(_name, _name).map(lambda t: [*t[0], "->", *t[1]]),
            st.tuples(_name, inner).map(lambda t: [*t[0], "[", *t[1], "]"]),
        ),
        max_leaves=6,
    )


def _joined(parts, sep):
    out = []
    for k, part in enumerate(parts):
        out += ([sep] if k else []) + part
    return out


def _statements():
    expr = _expressions()
    simple = st.one_of(
        st.tuples(_type, _name, expr).map(lambda t: [*t[0], *t[1], "=", *t[2], ";"]),
        st.tuples(_type, _name).map(lambda t: [*t[0], *t[1], ";"]),
        st.tuples(_name, expr).map(lambda t: [*t[0], "=", *t[1], ";"]),
        expr.map(lambda e: [*e, ";"]),
        expr.map(lambda e: ["return", *e, ";"]),
    )
    return st.recursive(
        simple.map(lambda s: [s]),
        lambda inner: st.tuples(expr, inner).map(
            lambda t: [["if", "(", *t[0], ")", "{", *sum(t[1], []), "}"]]
        )
        | st.lists(inner, min_size=1, max_size=4).map(lambda ss: sum(ss, [])),
        max_leaves=8,
    )


c_functions = st.tuples(
    _type,
    _name,
    st.lists(st.tuples(_type, _name).map(lambda t: [*t[0], *t[1]]), max_size=3),
    _statements(),
).map(lambda t: [*t[0], *t[1], "(", *_joined(t[2], ","), ")", "{", *sum(t[3], []), "}"])


def _render(template, names, literals) -> str:
    table = {"name": names, "lit": literals}
    return " ".join(
        piece if isinstance(piece, str) else table[piece[0]][piece[1]] for piece in template
    )


@settings(max_examples=100, deadline=None)
@given(c_functions, _names, _literals)
def test_abstraction_is_idempotent_on_generated_functions(template, names, literals):
    tokens, _ = _abstract_source(_render(template, names, literals))
    again, _ = _abstract_source(" ".join(tokens))
    assert again == tokens


@settings(max_examples=100, deadline=None)
@given(c_functions, _names, _names, _literals, _literals)
def test_abstraction_ignores_a_consistent_renaming(template, names, renamed, literals, relit):
    tokens, _ = _abstract_source(_render(template, names, literals))
    assert _abstract_source(_render(template, renamed, relit))[0] == tokens
