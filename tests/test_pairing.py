import random

import pytest

from conftest import IGMP_FIXED, IGMP_VULN

from vulnseq.corpus import Label
from vulnseq.cparse import extract_functions, tokenize
from vulnseq.errors import ConfigError
from vulnseq.pairing import (
    LabeledFunction,
    PairKind,
    PairingConfig,
    build_training_pairs,
    label_pair,
    labeled_functions_from_component,
    pair_functions,
)


def _units(src: str):
    return extract_functions(tokenize(src))


def _labeled(src: str, fixed: str, path: str = "a.c") -> list[LabeledFunction]:
    return labeled_functions_from_component(src, fixed, path)


def _names(pairs) -> list[tuple[str, str]]:
    return [(b.name, a.name) for b, a in pairs]


# ---------------------------------------------------------------- matching


def test_igmp_pair_matches_both_functions():
    before = _units(IGMP_VULN)
    after = _units(IGMP_FIXED)
    pairs = pair_functions(before, after)
    assert _names(pairs) == [
        ("igmp_heard_query", "igmp_heard_query"),
        ("igmp_start_timer", "igmp_start_timer"),
    ]
    for b, a in pairs:
        assert b.signature_key == a.signature_key


def test_new_helper_is_left_unpaired():
    before = _units("int f(int a) { return a; }\n")
    after = _units(
        "static void helper(void) { }\nint f(int a) { helper(); return a; }\n"
    )
    assert _names(pair_functions(before, after)) == [("f", "f")]


def test_removed_function_is_left_unpaired():
    before = _units("int f(void) { return 0; }\nint g(void) { return 1; }\n")
    after = _units("int f(void) { return 0; }\n")
    assert _names(pair_functions(before, after)) == [("f", "f")]


def test_changed_parameter_type_breaks_the_match():
    before = _units("int f(int a) { return a; }\n")
    after = _units("int f(long a) { return a; }\n")
    assert pair_functions(before, after) == []


def test_duplicate_keys_match_in_file_order():
    src = "int f(int a) { return 1; }\nint f(int a) { return 2; }\n"
    before = _units(src)
    after = _units(src)
    pairs = pair_functions(before, after)
    assert len(pairs) == 2
    for b, a in pairs:
        assert b.texts == a.texts
    assert pairs[0][0].texts != pairs[1][0].texts


def test_permutation_invariance_of_matching(rng_seed=417):
    srcs = [f"int f_{i}(int a) {{ return a + {i}; }}\n" for i in range(8)]
    before = _units("".join(srcs))
    rng = random.Random(rng_seed)
    for _ in range(10):
        shuffled = list(range(8))
        rng.shuffle(shuffled)
        after = _units("".join(srcs[i] for i in shuffled))
        # pairs follow the before file's order, whatever the after order
        assert _names(pair_functions(before, after)) == [(f"f_{i}", f"f_{i}") for i in range(8)]


def test_no_function_appears_in_two_pairs():
    src = "int f(int a) { return 1; }\nint f(int a) { return 2; }\n"
    before = _units(src)
    after = _units("int f(int a) { return 9; }\n")
    pairs = pair_functions(before, after)
    assert len(pairs) == 1
    assert pairs[0][0] is before[0] and pairs[0][1] is after[0]


# ---------------------------------------------------------------- labeling


def test_real_change_is_vulnerable():
    lfs = _labeled(
        "int f(int a) { return a; }\n",
        "int f(int a) { if (a < 0) a = 0; return a; }\n",
    )
    assert len(lfs) == 1
    assert lfs[0].label is Label.VULNERABLE
    assert lfs[0].after is not None
    assert lfs[0].before.name == "f"
    assert lfs[0].path == "a.c"


def test_comment_and_whitespace_change_is_non_vulnerable():
    lfs = _labeled(
        "int f(int a) { return a; }\n",
        "int f(int a)\n{\n\t/* no-op tidy */\n\treturn a;\n}\n",
    )
    assert len(lfs) == 1
    assert lfs[0].label is Label.NON_VULNERABLE
    assert lfs[0].after is None


def test_label_swap_symmetry():
    before = _units("int f(int a) { return a; }\n")
    after = _units("int f(int a) { return a + 1; }\n")
    (fwd,) = pair_functions(before, after)
    (rev,) = pair_functions(after, before)
    assert label_pair(*fwd, "a.c").label is Label.VULNERABLE
    assert label_pair(*rev, "a.c").label is Label.VULNERABLE


def test_igmp_component_labels():
    lfs = labeled_functions_from_component(IGMP_VULN, IGMP_FIXED, "net/ipv4/igmp.c")
    by_name = {lf.before.name: lf.label for lf in lfs}
    assert by_name == {
        "igmp_start_timer": Label.NON_VULNERABLE,
        "igmp_heard_query": Label.VULNERABLE,
    }


# ------------------------------------------------------- training pairs


def _vuln_lf(i: int) -> LabeledFunction:
    return _labeled(
        f"int g_{i}(int a) {{ return a % {i + 2}; }}\n",
        f"int g_{i}(int a) {{ if (!a) a = 1; return a % {i + 2}; }}\n",
        path=f"src/v_{i}.c",
    )[0]


def _nonvuln_lf(i: int) -> LabeledFunction:
    fn = _units(f"int f_{i}(void) {{ return {i}; }}\n")[0]
    return LabeledFunction(Label.NON_VULNERABLE, fn, None, f"src/n_{i}.c")


def test_single_vulnerable_function_yields_one_of_each():
    pairs = build_training_pairs([_vuln_lf(0)], PairingConfig())
    kinds = [p.kind for p in pairs]
    assert kinds.count(PairKind.VULN_TO_FIXED) == 1
    assert kinds.count(PairKind.FIXED_TO_FIXED) == 1
    assert kinds.count(PairKind.NON_VULN_TO_SELF) == 0


def test_identity_pairs_really_are_identities():
    labeled = [_vuln_lf(0), _nonvuln_lf(0), _nonvuln_lf(1)]
    for p in build_training_pairs(labeled, PairingConfig()):
        if p.kind is not PairKind.VULN_TO_FIXED:
            assert p.input == p.target
        else:
            assert p.input.tokens != p.target.tokens


def test_vuln_pair_roles():
    pairs = build_training_pairs([_vuln_lf(3)], PairingConfig())
    vtf = [p for p in pairs if p.kind is PairKind.VULN_TO_FIXED][0]
    assert vtf.input.role.value == "VulnBefore"
    assert vtf.target.role.value == "FixedAfter"


def test_downsampling_counting_oracle():
    labeled = [_vuln_lf(i) for i in range(10)] + [_nonvuln_lf(i) for i in range(500)]
    pairs = build_training_pairs(labeled, PairingConfig(non_vuln_ratio=5))
    kinds = [p.kind for p in pairs]
    assert kinds.count(PairKind.VULN_TO_FIXED) == 10
    assert kinds.count(PairKind.FIXED_TO_FIXED) == 10
    assert kinds.count(PairKind.NON_VULN_TO_SELF) == 50


def test_fewer_candidates_than_cap_keeps_all():
    labeled = [_vuln_lf(i) for i in range(10)] + [_nonvuln_lf(i) for i in range(7)]
    pairs = build_training_pairs(labeled, PairingConfig(non_vuln_ratio=5))
    assert sum(p.kind is PairKind.NON_VULN_TO_SELF for p in pairs) == 7


def test_downsample_is_input_order_independent():
    labeled = [_vuln_lf(i) for i in range(3)] + [_nonvuln_lf(i) for i in range(60)]
    base = build_training_pairs(labeled, PairingConfig(non_vuln_ratio=5, seed=11))
    base_ids = {
        (p.input.source_path, p.input.function_name, p.input.chunk_index)
        for p in base
        if p.kind is PairKind.NON_VULN_TO_SELF
    }
    rng = random.Random(99)
    for _ in range(5):
        shuffled = list(labeled)
        rng.shuffle(shuffled)
        got = build_training_pairs(shuffled, PairingConfig(non_vuln_ratio=5, seed=11))
        got_ids = {
            (p.input.source_path, p.input.function_name, p.input.chunk_index)
            for p in got
            if p.kind is PairKind.NON_VULN_TO_SELF
        }
        assert got_ids == base_ids
        assert len(got_ids) == 15


def test_different_seed_changes_the_sample():
    labeled = [_vuln_lf(0)] + [_nonvuln_lf(i) for i in range(80)]
    picks = set()
    for seed in range(6):
        pairs = build_training_pairs(labeled, PairingConfig(non_vuln_ratio=5, seed=seed))
        picks.add(
            frozenset(
                p.input.source_path
                for p in pairs
                if p.kind is PairKind.NON_VULN_TO_SELF
            )
        )
    assert len(picks) > 1


def _stmt_block(n: int) -> str:
    return "".join("  a = a + 1;\n" for _ in range(n))


def test_surplus_input_chunks_get_empty_targets():
    # before: 8 + 6*8 = 56 tokens (two chunks); after: 8 + 6*3 = 26 (one)
    before = f"long f(long a) {{\n{_stmt_block(8)}}}\n"
    after = f"long f(long a) {{\n{_stmt_block(3)}}}\n"
    pairs = build_training_pairs(_labeled(before, after), PairingConfig())
    vtf = [p for p in pairs if p.kind is PairKind.VULN_TO_FIXED]
    assert len(vtf) == 2
    assert vtf[0].target.tokens != ()
    assert vtf[1].input.chunk_index == 1
    assert vtf[1].target.tokens == ()
    assert sum(p.kind is PairKind.FIXED_TO_FIXED for p in pairs) == 1


def test_surplus_target_chunks_survive_only_as_identities():
    before = f"long f(long a) {{\n{_stmt_block(3)}}}\n"
    after = f"long f(long a) {{\n{_stmt_block(8)}}}\n"
    pairs = build_training_pairs(_labeled(before, after), PairingConfig())
    vtf = [p for p in pairs if p.kind is PairKind.VULN_TO_FIXED]
    ftf = [p for p in pairs if p.kind is PairKind.FIXED_TO_FIXED]
    assert len(vtf) == 1
    assert len(ftf) == 2
    assert {p.target.chunk_index for p in ftf} == {0, 1}


def test_igmp_unchanged_function_contributes_only_identities():
    labeled = labeled_functions_from_component(
        IGMP_VULN, IGMP_FIXED, "net/ipv4/igmp.c"
    )
    pairs = build_training_pairs(labeled, PairingConfig(non_vuln_ratio=5))
    for p in pairs:
        if p.input.function_name == "igmp_start_timer":
            assert p.kind is PairKind.NON_VULN_TO_SELF
            assert p.input == p.target
    assert any(
        p.kind is PairKind.VULN_TO_FIXED
        and p.input.function_name == "igmp_heard_query"
        for p in pairs
    )


@pytest.mark.parametrize("ratio", [0, -1, -0.5, float("nan"), float("inf"), float("-inf")])
def test_nonpositive_ratio_rejected(ratio):
    with pytest.raises(ConfigError, match="non_vuln_ratio must be positive and finite"):
        PairingConfig(non_vuln_ratio=ratio)


def test_a_bool_seed_is_rejected():
    # bool is an int subclass: seed=True would sample as seed 1
    with pytest.raises(ConfigError, match="seed must be int, got True"):
        PairingConfig(seed=True)
