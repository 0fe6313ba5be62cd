from __future__ import annotations

import datetime
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnseq.cli import main
from vulnseq.corpus import (
    ComponentRecord,
    Corpus,
    Label,
    Release,
    Setting,
    TrainingMaterial,
    VulnerabilityRecord,
    clean_training_set,
    corpus_to_jsonl,
    load_corpus,
    save_corpus,
    training_material,
)
from vulnseq.errors import ConfigError, IntegrityError, ParseError, VersionError
from vulnseq.synth import SynthesisSpec, generate_synthetic_corpus

D = datetime.date

MINIMAL = """\
{"kind":"header","format_version":1,"project":"demo"}
{"kind":"release","name":"r0","date":"2020-01-01"}
{"kind":"component","release":"r0","path":"a.c","label":"Vulnerable","source":"int f(void) { return x / y; }","fixed_source":"int f(void) { if (!y) y = 1; return x / y; }","vuln_ids":["CVE-1"]}
{"kind":"component","release":"r0","path":"b.c","label":"NonVulnerable","source":"int g(void) { return 0; }","fixed_source":null,"vuln_ids":[]}
{"kind":"release","name":"r1","date":"2020-04-01"}
{"kind":"component","release":"r1","path":"a.c","label":"NonVulnerable","source":"int f(void) { if (!y) y = 1; return x / y; }","fixed_source":null,"vuln_ids":[]}
{"kind":"vuln","id":"CVE-1","detected":"2020-02-01","affected":[["r0","a.c"]]}
"""


def _write(tmp_path, text, name="corpus.jsonl"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _component(path, vuln=False, vuln_ids=(), tag="f"):
    source = f"int {tag}(void) {{ return 1; }}\n"
    fixed = f"int {tag}(void) {{ if (1) return 2; return 1; }}\n" if vuln else None
    return ComponentRecord(
        path=path,
        source=source,
        label=Label.VULNERABLE if vuln else Label.NON_VULNERABLE,
        fixed_source=fixed,
        vuln_ids=tuple(vuln_ids),
    )


def test_load_minimal(tmp_path):
    corpus = load_corpus(_write(tmp_path, MINIMAL))
    assert corpus.project_name == "demo"
    assert len(corpus.releases) == 2
    assert corpus.releases[0].components[0].label is Label.VULNERABLE
    assert corpus.vulnerabilities[0].detection_date == D(2020, 2, 1)


def test_load_vulnerable_without_fix(tmp_path):
    broken = MINIMAL.replace(
        '"fixed_source":"int f(void) { if (!y) y = 1; return x / y; }"',
        '"fixed_source":null',
    )
    with pytest.raises(IntegrityError):
        load_corpus(_write(tmp_path, broken))


@pytest.mark.parametrize(
    "mangle,exc",
    [
        (lambda t: t.replace('"format_version":1', '"format_version":9'), VersionError),
        (lambda t: "\n".join(t.splitlines()[1:]), ParseError),
        (lambda t: t.replace('{"kind":"release","name":"r1"', '{"kind":"releaze","name":"r1"'), ParseError),
        (lambda t: t.replace('"date":"2020-04-01"', '"date":"not-a-date"'), ParseError),
        (lambda t: t.replace('"date":"2020-04-01"', '"date":"2019-01-01"'), IntegrityError),
        (lambda t: t.replace('["r0","a.c"]', '["r0","missing.c"]'), IntegrityError),
        (lambda t: t.replace('"vuln_ids":["CVE-1"]', '"vuln_ids":["CVE-404"]'), IntegrityError),
        (lambda t: t + '{"kind":"vuln","id":"CVE-2","detected":"2020-02-01","affected":[["r1","a.c"]]}\n', IntegrityError),
        (lambda t: t.replace("not json", "not json") + "not json\n", ParseError),
    ],
)
def test_load_rejects_malformed(tmp_path, mangle, exc):
    with pytest.raises(exc):
        load_corpus(_write(tmp_path, mangle(MINIMAL)))


@pytest.mark.parametrize(
    "line, old, new",
    [
        (1, '"project":"demo"', '"project":null'),
        (2, '"name":"r0"', '"name":0'),
        (3, '"release":"r0"', '"release":["r0"]'),
        (3, '"path":"a.c"', '"path":{"a":"c"}'),
        (4, '"source":"int g(void) { return 0; }"', '"source":null'),
        (4, '"source":"int g(void) { return 0; }"', '"source":7'),
        (3, '"fixed_source":"int f(void) { if (!y) y = 1; return x / y; }"', '"fixed_source":1'),
        (3, '"vuln_ids":["CVE-1"]', '"vuln_ids":[1]'),
        (7, '"id":"CVE-1"', '"id":1'),
        (7, '[["r0","a.c"]]', '[["r0",null]]'),
        (7, '[["r0","a.c"]]', '[[0,"a.c"]]'),
    ],
    ids=["project", "release-name", "component-release", "path", "null-source", "number-source",
         "fixed-source", "vuln-ids-item", "vuln-id", "affected-path", "affected-release"],
)
def test_non_string_fields_are_parse_errors(tmp_path, line, old, new):
    # str() would turn them into text, e.g. a null source into the C "None"
    path = _write(tmp_path, MINIMAL.replace(old, new, 1))
    with pytest.raises(ParseError) as err:
        load_corpus(path)
    assert err.value.line == line
    assert main(["ingest", "-i", path, "-o", str(tmp_path / "out.jsonl")]) == 1
    assert not (tmp_path / "out.jsonl").exists()


def test_parse_error_reports_line(tmp_path):
    text = MINIMAL + "{broken\n"
    with pytest.raises(ParseError) as err:
        load_corpus(_write(tmp_path, text))
    assert str(len(MINIMAL.splitlines()) + 1) in str(err.value)


def test_invalid_utf8_is_a_parse_error_with_its_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    lines = MINIMAL.encode("utf-8").splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:3]) + b"\xff\xfe" + b"".join(lines[3:]))
    with pytest.raises(ParseError) as err:
        load_corpus(str(path))
    assert err.value.line == 4
    assert "not valid UTF-8" in str(err.value)


def test_non_ascii_source_loads(tmp_path):
    text = MINIMAL.replace("return 0;", "return 0; /* caf\u00e9 \u2028 */")
    corpus = load_corpus(_write(tmp_path, text))
    assert "caf\u00e9 \u2028" in corpus.releases[0].components[1].source


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_other_line_endings_load(tmp_path, newline):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(MINIMAL.replace("\n", newline).encode("utf-8"))
    assert load_corpus(str(path)) == load_corpus(_write(tmp_path, MINIMAL, "lf.jsonl"))


def test_duplicate_path_rejected(tmp_path):
    dup = MINIMAL + (
        '{"kind":"component","release":"r1","path":"a.c",'
        '"label":"NonVulnerable","source":"int q(void) { return 9; }",'
        '"fixed_source":null,"vuln_ids":[]}\n'
    )
    with pytest.raises(IntegrityError):
        load_corpus(_write(tmp_path, dup))


def test_whitespace_only_fix_rejected(tmp_path):
    ws = MINIMAL.replace(
        '"fixed_source":"int f(void) { if (!y) y = 1; return x / y; }"',
        '"fixed_source":"int  f(void)  {  return x / y; }"',
    )
    with pytest.raises(IntegrityError):
        load_corpus(_write(tmp_path, ws))


def test_save_load_round_trip(tmp_path):
    corpus = generate_synthetic_corpus(7, SynthesisSpec(n_releases=3, components_per_release=12))
    path = str(tmp_path / "c.jsonl")
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def _two_release_corpus(vuln_specs, next_date=D(2020, 4, 1)):
    """vuln_specs: list of (path, vuln_ids, detection dates per id)."""
    comps0 = []
    vulns = []
    for path, ids_dates in vuln_specs:
        ids = tuple(vid for vid, _ in ids_dates)
        comps0.append(_component(path, vuln=True, vuln_ids=ids))
        for vid, det in ids_dates:
            vulns.append(VulnerabilityRecord(vid, det, (("r0", path),)))
    comps0.append(_component("clean.c"))
    r0 = Release("r0", D(2020, 1, 1), tuple(comps0))
    r1 = Release("r1", next_date, (_component("clean.c"),))
    return Corpus("demo", (r0, r1), tuple(vulns))


def test_clean_includes_all_vulnerable():
    corpus = _two_release_corpus(
        [
            ("a.c", [("CVE-1", D(2021, 1, 1))]),
            ("b.c", [("CVE-2", D(2020, 2, 1))]),
            ("c.c", [("CVE-3", D(2020, 3, 1))]),
        ]
    )
    material = clean_training_set(corpus, 0)
    assert sorted(c.path for c in material.fix_pairs) == ["a.c", "b.c", "c.c"]
    assert [c.path for c in material.non_vulnerable] == ["clean.c"]


def test_last_release_has_no_experiment():
    corpus = _two_release_corpus([("a.c", [("CVE-1", D(2020, 2, 1))])])
    with pytest.raises(ConfigError):
        clean_training_set(corpus, 1)
    with pytest.raises(ConfigError):
        training_material(corpus, 1, Setting.REALISTIC)
    with pytest.raises(ConfigError):
        clean_training_set(corpus, -1)


def test_realistic_excludes_late_detection():
    corpus = _two_release_corpus(
        [
            ("late.c", [("CVE-1", D(2020, 5, 1))]),
            ("early.c", [("CVE-2", D(2020, 2, 1))]),
        ]
    )
    material = training_material(corpus, 0, Setting.REALISTIC)
    assert [c.path for c in material.fix_pairs] == ["early.c"]
    # the late one is mislabeled, not dropped
    assert "late.c" in {c.path for c in material.non_vulnerable}


def test_realistic_tie_date_excluded():
    corpus = _two_release_corpus([("tie.c", [("CVE-1", D(2020, 4, 1))])])
    assert training_material(corpus, 0, Setting.REALISTIC).fix_pairs == ()


def test_realistic_min_over_multiple_ids():
    corpus = _two_release_corpus(
        [("a.c", [("CVE-1", D(2020, 6, 1)), ("CVE-2", D(2020, 2, 2))])]
    )
    assert [c.path for c in training_material(corpus, 0, Setting.REALISTIC).fix_pairs] == ["a.c"]


def test_realistic_no_ids_means_undetected():
    corpus = _two_release_corpus([("a.c", [])])
    material = training_material(corpus, 0, Setting.REALISTIC)
    assert material.fix_pairs == ()
    assert "a.c" in {c.path for c in material.non_vulnerable}


def test_realistic_equals_clean_when_all_early():
    corpus = _two_release_corpus(
        [
            ("a.c", [("CVE-1", D(2020, 1, 5))]),
            ("b.c", [("CVE-2", D(2020, 2, 1))]),
        ]
    )
    clean = clean_training_set(corpus, 0)
    real = training_material(corpus, 0, Setting.REALISTIC)
    assert clean == real


def test_realistic_random_dates_match_oracle():
    rng = random.Random(2024)
    next_date = D(2020, 4, 1)
    for _ in range(40):
        specs = []
        expected = set()
        for j in range(rng.randint(1, 10)):
            path = f"p{j}.c"
            dates = [
                D(2020, 1, 1) + datetime.timedelta(days=rng.randrange(0, 200))
                for _ in range(rng.randint(1, 3))
            ]
            specs.append((path, [(f"CVE-{j}-{k}", d) for k, d in enumerate(dates)]))
            if min(dates) < next_date:
                expected.add(path)
        corpus = _two_release_corpus(specs, next_date)
        got = {c.path for c in training_material(corpus, 0, Setting.REALISTIC).fix_pairs}
        assert got == expected


def test_realistic_subset_of_clean_on_synthetic():
    for seed in (1, 5, 11):
        corpus = generate_synthetic_corpus(
            seed,
            SynthesisSpec(
                n_releases=4, components_per_release=15, detection_lag_days=120
            ),
        )
        for i in range(len(corpus.releases) - 1):
            clean = {c.path for c in clean_training_set(corpus, i).fix_pairs}
            real = {c.path for c in training_material(corpus, i, Setting.REALISTIC).fix_pairs}
            assert real <= clean


def test_still_vulnerable_component_trains_in_its_release():
    persists = _component("a.c", vuln=True, vuln_ids=("CVE-1",))
    r0 = Release("r0", D(2020, 1, 1), (persists, _component("b.c")))
    r1 = Release("r1", D(2020, 4, 1), (persists, _component("b.c")))
    vuln = VulnerabilityRecord(
        "CVE-1", D(2020, 1, 10), (("r0", "a.c"), ("r1", "a.c"))
    )
    corpus = Corpus("demo", (r0, r1), (vuln,))
    assert [c.path for c in clean_training_set(corpus, 0).fix_pairs] == ["a.c"]


# The two splits as they stood before training_material became the only
# one, kept verbatim (the linear vulnerability lookup inlined) as the oracle.
def _oracle_check_release_index(corpus, release_index):
    # the last release has no following release to test against
    if not 0 <= release_index < len(corpus.releases) - 1:
        raise ConfigError(
            f"release index {release_index} out of range: corpus has "
            f"{len(corpus.releases)} releases, so valid train indices are "
            f"0..{len(corpus.releases) - 2}"
        )


def _oracle_vulnerability(corpus, vuln_id):
    for rec in corpus.vulnerabilities:
        if rec.vuln_id == vuln_id:
            return rec
    return None


def _oracle_clean_training_set(corpus, release_index):
    _oracle_check_release_index(corpus, release_index)
    release = corpus.releases[release_index]
    fix_pairs = []
    non_vulnerable = []
    for comp in release.components:
        if comp.label is Label.VULNERABLE:
            fix_pairs.append(comp)
        else:
            non_vulnerable.append(comp)
    return TrainingMaterial(release.name, tuple(fix_pairs), tuple(non_vulnerable))


def _oracle_realistic_training_set(corpus, release_index):
    _oracle_check_release_index(corpus, release_index)
    release = corpus.releases[release_index]
    next_date = corpus.releases[release_index + 1].release_date
    fix_pairs = []
    treated_non_vulnerable = []
    for comp in release.components:
        if comp.label is Label.NON_VULNERABLE:
            treated_non_vulnerable.append(comp)
            continue
        dates = []
        for vid in comp.vuln_ids:
            rec = _oracle_vulnerability(corpus, vid)
            if rec is None:
                raise IntegrityError(
                    f"component {comp.path!r} references unknown {vid!r}"
                )
            dates.append(rec.detection_date)
        if dates and min(dates) < next_date:
            fix_pairs.append(comp)
        else:
            treated_non_vulnerable.append(comp)
    return TrainingMaterial(
        release.name, tuple(fix_pairs), tuple(treated_non_vulnerable)
    )


_ORACLES = {
    Setting.CLEAN: _oracle_clean_training_set,
    Setting.REALISTIC: _oracle_realistic_training_set,
}


def _outcome(split, *args):
    """The split's result, or the type and message of what it raised."""
    try:
        return split(*args)
    except (ConfigError, IntegrityError) as exc:
        return type(exc), str(exc)


def _assert_matches_oracle(corpus):
    for setting, oracle in _ORACLES.items():
        for i in range(-1, len(corpus.releases)):
            assert _outcome(training_material, corpus, i, setting) == _outcome(
                oracle, corpus, i
            )


def test_training_material_dispatches_on_setting():
    for seed in range(24):
        for lag in (0, 30, 95, 400):
            for carryover in (0.0, 0.34, 0.9):
                spec = SynthesisSpec(
                    n_releases=5,
                    components_per_release=12,
                    detection_lag_days=lag,
                    carryover_fraction=carryover,
                )
                _assert_matches_oracle(generate_synthetic_corpus(seed, spec))


def test_training_material_matches_oracle_on_edge_cases():
    unknown = _two_release_corpus([("a.c", [("CVE-1", D(2020, 2, 1))])])
    r0 = unknown.releases[0]
    stray = _component("x.c", vuln=True, vuln_ids=("CVE-1", "CVE-404"), tag="x")
    unknown = Corpus(
        "demo",
        (Release("r0", r0.release_date, r0.components + (stray,)), unknown.releases[1]),
        unknown.vulnerabilities,
    )
    with pytest.raises(IntegrityError, match="references unknown 'CVE-404'"):
        training_material(unknown, 0, Setting.REALISTIC)
    no_record = _two_release_corpus([("a.c", []), ("b.c", [("CVE-1", D(2020, 2, 1))])])
    mixed = _two_release_corpus(
        [
            ("early-first.c", [("CVE-1", D(2020, 3, 31)), ("CVE-2", D(2020, 9, 1))]),
            ("late-first.c", [("CVE-3", D(2020, 4, 2)), ("CVE-4", D(2020, 1, 2))]),
            ("tie-and-late.c", [("CVE-5", D(2020, 4, 1)), ("CVE-6", D(2021, 1, 1))]),
            ("all-late.c", [("CVE-7", D(2020, 5, 1)), ("CVE-8", D(2020, 6, 1))]),
        ]
    )
    for corpus in (unknown, no_record, mixed):
        _assert_matches_oracle(corpus)
    real = training_material(mixed, 0, Setting.REALISTIC)
    assert [c.path for c in real.fix_pairs] == ["early-first.c", "late-first.c"]


def test_material_is_plain_data():
    corpus = _two_release_corpus([("a.c", [("CVE-1", D(2020, 2, 1))])])
    material = clean_training_set(corpus, 0)
    assert isinstance(material, TrainingMaterial)
    assert material.release_name == "r0"


def test_jsonl_serialization_is_stable():
    corpus = generate_synthetic_corpus(3, SynthesisSpec(n_releases=2, components_per_release=8))
    assert corpus_to_jsonl(corpus) == corpus_to_jsonl(corpus)


# --- mutated corpus files ---------------------------------------------------

_FUZZ_LINES = corpus_to_jsonl(
    generate_synthetic_corpus(3, SynthesisSpec(n_releases=3, components_per_release=4))
).splitlines(keepends=True)

# one value of each JSON type, some of them well-formed for some field;
# 1e400 is written as Infinity, which Python's json reads back
_JSON_VALUES = [None, True, 0, -1, 2.5, 1e400, "", "x", "2019-13-45",
                [], ["a"], [["r0", "p"]], {}, {"a": 1}]


def _drop_key(line, draw):
    record = json.loads(line)
    del record[draw(st.sampled_from(sorted(record)))]
    return [json.dumps(record) + "\n"]


def _retype_value(line, draw):
    record = json.loads(line)
    record[draw(st.sampled_from(sorted(record)))] = draw(st.sampled_from(_JSON_VALUES))
    return [json.dumps(record) + "\n"]


_MUTATIONS = {
    "drop a key": _drop_key,
    "retype a value": _retype_value,
    "retype the record": lambda line, draw: [json.dumps(draw(st.sampled_from(_JSON_VALUES))) + "\n"],
    "cut the line short": lambda line, draw: [line[: draw(st.integers(0, len(line) - 2))] + "\n"],
    "duplicate the line": lambda line, draw: [line, line],
    "drop the line": lambda line, draw: [],
}


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_corpus_raises_only_corpus_errors(fuzz_path, data):
    at = data.draw(st.integers(0, len(_FUZZ_LINES) - 1))
    mutate = _MUTATIONS[data.draw(st.sampled_from(sorted(_MUTATIONS)))]
    lines = list(_FUZZ_LINES)
    lines[at : at + 1] = mutate(lines[at], data.draw)
    fuzz_path.write_text("".join(lines))
    try:
        load_corpus(str(fuzz_path))
    except (ParseError, IntegrityError, VersionError):
        pass
