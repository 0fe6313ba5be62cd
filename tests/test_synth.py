from __future__ import annotations

import dataclasses
import random

import pytest

from vulnseq.corpus import Label, validate_corpus
from vulnseq.cparse import (
    classify_identifier_roles,
    extract_functions,
    tokenize,
)
from vulnseq.errors import ConfigError
from vulnseq.synth import (
    SENTINEL_FUNCTION,
    SynthesisSpec,
    filler_file,
    generate_synthetic_corpus,
    vulnerable_file,
)
from vulnseq.corpus import corpus_to_jsonl


def test_determinism_same_seed():
    spec = SynthesisSpec(n_releases=3, components_per_release=10)
    a = generate_synthetic_corpus(1, spec)
    b = generate_synthetic_corpus(1, spec)
    assert corpus_to_jsonl(a) == corpus_to_jsonl(b)


def test_different_seeds_differ():
    spec = SynthesisSpec(n_releases=2, components_per_release=10)
    a = generate_synthetic_corpus(1, spec)
    b = generate_synthetic_corpus(2, spec)
    assert corpus_to_jsonl(a) != corpus_to_jsonl(b)


def test_exact_vulnerable_count():
    spec = SynthesisSpec(
        n_releases=2, components_per_release=200, vuln_fraction=0.07
    )
    corpus = generate_synthetic_corpus(5, spec)
    for release in corpus.releases:
        n_vuln = sum(1 for c in release.components if c.label is Label.VULNERABLE)
        assert n_vuln == 14


def test_generated_corpus_validates():
    corpus = generate_synthetic_corpus(9, SynthesisSpec())
    validate_corpus(corpus)
    assert len(corpus.releases) == 4


def test_vulnerable_components_have_pattern_and_fix():
    corpus = generate_synthetic_corpus(11, SynthesisSpec(n_releases=2, components_per_release=12))
    vuln = [c for c in corpus.releases[0].components if c.label is Label.VULNERABLE]
    assert vuln
    for comp in vuln:
        assert comp.source.count(f"{SENTINEL_FUNCTION}(") == 2
        assert SENTINEL_FUNCTION not in comp.fixed_source
        # the fix inserts exactly one guard (fillers may carry their own)
        assert comp.fixed_source.count("if (!") == comp.source.count("if (!") + 1


def test_sentinel_absent_from_non_vulnerable():
    corpus = generate_synthetic_corpus(13, SynthesisSpec(n_releases=3, components_per_release=12))
    for release in corpus.releases:
        for comp in release.components:
            if comp.label is Label.NON_VULNERABLE:
                assert SENTINEL_FUNCTION not in comp.source


def test_plant_sentinel_off():
    corpus = generate_synthetic_corpus(
        13, SynthesisSpec(n_releases=2, components_per_release=10, plant_sentinel=False)
    )
    for release in corpus.releases:
        for comp in release.components:
            assert SENTINEL_FUNCTION not in comp.source


def test_carryover_persists_vulnerability():
    corpus = generate_synthetic_corpus(
        21,
        SynthesisSpec(
            n_releases=4, components_per_release=20, vuln_fraction=0.3,
            carryover_fraction=0.6,
        ),
    )
    persisted = []
    for rec in corpus.vulnerabilities:
        releases = [rel for rel, _ in rec.affected_paths]
        if len(releases) > 1:
            persisted.append(rec)
            names = [r.name for r in corpus.releases]
            idx = [names.index(r) for r in releases]
            assert idx == list(range(idx[0], idx[0] + len(idx)))
    assert persisted


def test_fixed_component_keeps_guarded_source():
    spec = SynthesisSpec(
        n_releases=3, components_per_release=10, vuln_fraction=0.3,
        carryover_fraction=0.0,
    )
    corpus = generate_synthetic_corpus(31, spec)
    first_vuln = {
        c.path: c for c in corpus.releases[0].components if c.label is Label.VULNERABLE
    }
    second = {c.path: c for c in corpus.releases[1].components}
    for path, comp in first_vuln.items():
        after = second[path]
        assert after.label is Label.NON_VULNERABLE
        assert after.source == comp.fixed_source


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_releases": 1},
        {"vuln_fraction": 0.0},
        {"vuln_fraction": 1.0},
        {"components_per_release": 0},
        {"detection_lag_days": -1},
        {"carryover_fraction": 1.0},
        {"vocabulary_skew": -0.5},
        {"vocabulary_skew": float("nan")},
        {"vocabulary_skew": float("inf")},
        {"components_per_release": 1, "vuln_fraction": 0.6},
        {"components_per_release": 20.5},
        {"n_releases": 3.0},
        {"plant_sentinel": "no"},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        SynthesisSpec(**kwargs)
    with pytest.raises(ConfigError):
        dataclasses.replace(SynthesisSpec(), **kwargs)


def test_steepest_finite_skew_keeps_only_the_first_word():
    # 30**300 overflows a float; every word but the first gets weight 0
    corpus = generate_synthetic_corpus(1, SynthesisSpec(vocabulary_skew=300.0))
    assert "frame_frame_" in corpus.releases[0].components[0].source
    with pytest.raises(ConfigError, match="no unused identifier"):
        generate_synthetic_corpus(
            1, SynthesisSpec(vocabulary_skew=300.0, name_suffixes=False)
        )


def test_template_round_trip_and_function_names():
    rng = random.Random(77)
    for _ in range(30):
        gen = filler_file(rng, skew=1.0)
        toks = tokenize(gen.source)
        assert "".join(t.text for t in toks) == gen.source
        units = extract_functions(toks)
        assert {u.name for u in units} == set(gen.defined_functions)


def test_vulnerable_file_pairable():
    rng = random.Random(78)
    for variant in range(3):
        gen = vulnerable_file(rng, 1.0, variant, (variant, variant + 1))
        before = extract_functions(tokenize(gen.source))
        after = extract_functions(tokenize(gen.fixed_source))
        assert {u.signature_key for u in before} == {u.signature_key for u in after}
        assert len(before) == 3


def test_template_roles_match_classifier():
    rng = random.Random(79)
    agree = total = 0
    for i in range(40):
        if i % 2:
            gen = filler_file(rng, skew=1.2)
        else:
            gen = vulnerable_file(rng, 1.2, i % 3, (i % 5, (i + 1) % 5))
        got: dict[str, str] = {}
        for fn in extract_functions(tokenize(gen.source)):
            for spelling, role in classify_identifier_roles(fn).items():
                got.setdefault(spelling, role.value)
        for spelling, want in gen.roles.items():
            total += 1
            agree += got.get(spelling) == want
    assert total > 200
    assert agree / total >= 0.95
