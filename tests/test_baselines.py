"""Classical per-component classifiers: features, training, experiment runs."""

import dataclasses
import datetime
import json
import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest

from vulnseq.baselines import (
    DEFAULT_BINS,
    BaselinePrediction,
    ClassifierConfig,
    FeatureVector,
    LinearClassifier,
    Technique,
    bow_features,
    call_features,
    extract_features,
    import_features,
    run_baseline,
    static_metric_features,
    token_frequencies,
    train_classifiers,
)
from vulnseq.corpus import (
    ComponentRecord,
    Label,
    VulnerabilityRecord,
    clean_training_set,
    training_material,
)
from vulnseq.cparse import Role, extract_functions, spelling_table, strip_noise, tokenize
from vulnseq.errors import (
    ConfigError,
    DegenerateLabels,
    LexError,
    NumericalError,
    StructureError,
    VulnseqError,
)
from vulnseq.evaluate import (
    EvaluationReport,
    Setting,
    confusion,
    metrics,
    novel_existing_breakdown,
    report_to_dict,
)
from vulnseq.synth import SynthesisSpec, generate_synthetic_corpus

from conftest import DEV_LOAD, IGMP_FIXED, IGMP_VULN
from test_front_end_parity import reference_classify_identifier_roles


def _component(source, path="c.c"):
    return ComponentRecord(path=path, source=source, label=Label.NON_VULNERABLE)


# --- feature extraction -------------------------------------------------


def test_token_frequencies_counts_noise_stripped_tokens():
    counts = token_frequencies("int x; /* int */ int y; // int\n")
    assert counts["int"] == 2
    assert counts["x"] == 1
    assert counts["y"] == 1
    assert counts[";"] == 2


def test_bow_bins_are_log2_of_count():
    # x once, y twice, z four times -> bins 0, 1, 2
    fv = bow_features(_component("x y y z z z z"))
    assert fv.values["bow:x"] == 0.0
    assert fv.values["bow:y"] == 1.0
    assert fv.values["bow:z"] == 2.0


def test_bow_bin_count_caps_the_index():
    fv = bow_features(_component("z z z z z z z z"), bins=2)
    assert fv.values["bow:z"] == 1.0
    presence = bow_features(_component("z z z z z z z z"), bins=1)
    assert presence.values["bow:z"] == 0.0


def test_bow_rejects_nonpositive_bins():
    with pytest.raises(ConfigError):
        bow_features(_component("x"), bins=0)


def test_import_targets_are_extracted():
    source = (
        '#include <stdio.h>\n'
        ' # include "local.h"\n'
        "int x;\n"
        "// #include <commented.h>\n"
    )
    fv = import_features(_component(source))
    assert fv.values == {"imp:stdio.h": 1.0, "imp:local.h": 1.0}


def test_no_imports_yields_empty_features():
    assert import_features(_component("int x;\n")).values == {}


def test_call_features_exclude_locally_defined_functions():
    fv = call_features(_component(IGMP_VULN))
    names = {n.removeprefix("call:") for n in fv.values}
    assert {"mod_timer", "atomic_inc", "net_random"} <= names
    assert "igmp_start_timer" not in names
    assert "igmp_heard_query" not in names


def test_static_metrics_on_nested_branches():
    source = (
        "int f(void)\n"
        "{\n"
        " if (a) {\n"
        "  if (b) {\n"
        "  }\n"
        " }\n"
        " return 0;\n"
        "}\n"
    )
    fv = static_metric_features(_component(source))
    assert fv.values["met:loc"] == 8.0
    assert fv.values["met:cyclomatic"] == 3.0
    assert fv.values["met:maxNesting"] == 3.0
    assert fv.values["met:nFunctions"] == 1.0


def test_fix_with_added_guard_raises_cyclomatic_by_one():
    vuln = static_metric_features(_component(IGMP_VULN))
    fixed = static_metric_features(_component(IGMP_FIXED))
    assert fixed.values["met:cyclomatic"] == vuln.values["met:cyclomatic"] + 1.0
    assert fixed.values["met:nFunctions"] == vuln.values["met:nFunctions"]


def test_metrics_on_empty_source_are_zero():
    fv = static_metric_features(_component(""))
    assert fv.values == {
        "met:loc": 0.0,
        "met:cyclomatic": 0.0,
        "met:maxNesting": 0.0,
        "met:nFunctions": 0.0,
    }


def test_unlexable_source_yields_empty_token_features():
    # a lexer failure downgrades to "no tokens", not an exception
    broken = 'int f(void) { char *s = "unterminated; }\n'
    assert bow_features(_component(broken)).values == {}
    assert call_features(_component(broken)).values == {}


def test_extract_features_dispatch():
    comp = _component('#include <a.h>\nint f(void)\n{\n return g();\n}\n')
    assert "imp:a.h" in extract_features(comp, Technique.IMPORTS).values
    assert "call:g" in extract_features(comp, Technique.FUNCTION_CALLS).values
    assert "bow:int" in extract_features(comp, Technique.TEXT_MINING).values
    assert "met:loc" in extract_features(comp, Technique.SOFTWARE_METRICS).values


def test_feature_vector_rejects_non_finite_values():
    with pytest.raises(ConfigError):
        FeatureVector("p.c", {"bad": float("nan")})


def _reference_token_frequencies(source):
    """token_frequencies as a generator over the noise-stripped tokens."""
    try:
        tokens = strip_noise(tokenize(source))
    except LexError:
        return Counter()
    return Counter(t.text for t in tokens)


def _reference_functions(source):
    try:
        return extract_functions(tokenize(source))
    except (LexError, StructureError):
        return []


def _reference_static_metrics(source):
    """The per-token line count and body scan of static_metric_features."""
    loc = sum(1 for line in source.splitlines() if line.strip())
    functions = _reference_functions(source)
    cyclomatic = 0
    max_nesting = 0
    for fn in functions:
        body = fn.texts[fn.header_length :]
        branches = {"if", "while", "for", "case", "&&", "||"}
        cyclomatic += 1 + sum(1 for text in body if text in branches)
        depth = 0
        for text in body:
            if text == "{":
                depth += 1
                max_nesting = max(max_nesting, depth)
            elif text == "}":
                depth -= 1
    return {
        "met:loc": float(loc),
        "met:cyclomatic": float(cyclomatic),
        "met:maxNesting": float(max_nesting),
        "met:nFunctions": float(len(functions)),
    }


def _reference_features(component, technique):
    """Each technique's features from the per-token loops, kept as oracles;
    function calls use the role classifier's own oracle. The include scan
    is a regex that no loop replaced, so it is its own reference."""
    source = component.source
    if technique is Technique.TEXT_MINING:
        values = {
            f"bow:{token}": float(min(DEFAULT_BINS - 1, int(math.log2(count))))
            for token, count in _reference_token_frequencies(source).items()
        }
    elif technique is Technique.SOFTWARE_METRICS:
        values = _reference_static_metrics(source)
    elif technique is Technique.FUNCTION_CALLS:
        functions = _reference_functions(source)
        called = {
            name
            for fn in functions
            for name, role in reference_classify_identifier_roles(fn).items()
            if role is Role.FUNCTION
        }
        values = {f"call:{name}": 1.0 for name in called - {fn.name for fn in functions}}
    else:
        values = import_features(component).values
    return FeatureVector(component.path, values)


@pytest.mark.parametrize("technique", list(Technique))
def test_features_equal_the_per_token_loops(technique):
    # one spelling table for the whole corpus, as a baseline run shares it
    corpus = generate_synthetic_corpus(11, SynthesisSpec())
    spellings = spelling_table()
    components = [c for release in corpus.releases for c in release.components]
    edge_cases = [
        IGMP_VULN,
        IGMP_FIXED,
        DEV_LOAD,
        'int f(void) { char *s = "unterminated; }\n',  # fails to lex
        "int f(void) { if (x) { y(); }\n",  # fails to extract
        "#include <a.h>\n\n  \t\n/* x */ int f(void) {}\n",
        # a switch, and a name read before it is called
        "int g(int c) {\n  int (*fp)(int) = h;\n"
        "  switch (c) { case 1: return h(c); default: { return 0; } }\n}\n",
    ]
    components += [_component(source, f"edge{i}.c") for i, source in enumerate(edge_cases)]
    for component in components:
        got = extract_features(component, technique, spellings=spellings)
        assert got == _reference_features(component, technique), component.path


# --- classifier ---------------------------------------------------------


def _toy_features(n_per_class=6):
    rows = []
    for i in range(n_per_class):
        rows.append((FeatureVector(f"v{i}.c", {"sig": 1.0, "noise": float(i % 2)}), True))
        rows.append((FeatureVector(f"n{i}.c", {"sig": 0.0, "noise": float(i % 2)}), False))
    return rows


def test_classifier_separates_a_separable_toy_problem():
    rows = _toy_features()
    (model,) = train_classifiers([rows], ClassifierConfig())
    assert all(model.predict(fv) == label for fv, label in rows)


def test_zero_iterations_yield_neutral_classifier():
    (model,) = train_classifiers([_toy_features()], ClassifierConfig(iterations=0))
    fv = FeatureVector("q.c", {"sig": 1.0})
    assert model.score(fv) == 0.5
    assert model.predict(fv) is False  # strictly-greater threshold


def test_threshold_comparison_is_strict():
    model = LinearClassifier(weights={}, bias=0.0, threshold=0.5)
    assert model.score(FeatureVector("q.c", {})) == 0.5
    assert model.predict(FeatureVector("q.c", {})) is False


def test_duplicating_the_dataset_preserves_the_model():
    rows = _toy_features()
    (a,) = train_classifiers([rows], ClassifierConfig(iterations=50))
    (b,) = train_classifiers([rows + rows], ClassifierConfig(iterations=50))
    assert a.bias == pytest.approx(b.bias, rel=1e-9, abs=1e-12)
    for name in a.weights:
        assert a.weights[name] == pytest.approx(b.weights[name], rel=1e-9, abs=1e-12)


def test_unknown_features_at_prediction_time_are_ignored():
    (model,) = train_classifiers([_toy_features()], ClassifierConfig())
    with_unknown = FeatureVector("u.c", {"sig": 1.0, "never_seen": 4.0})
    without = FeatureVector("u.c", {"sig": 1.0})
    assert model.score(with_unknown) == model.score(without)


def test_single_class_training_is_rejected():
    rows = [(FeatureVector("a.c", {"f": 1.0}), True), (FeatureVector("b.c", {"f": 0.0}), True)]
    (outcome,) = train_classifiers([rows], ClassifierConfig())
    assert isinstance(outcome, DegenerateLabels)
    (outcome,) = train_classifiers([[]], ClassifierConfig())
    assert isinstance(outcome, DegenerateLabels)


# keyword arguments that ClassifierConfig rejects
BAD_CLASSIFIER_CONFIGS = [
    {"learning_rate": 0.0},
    {"iterations": -1},
    {"l2": -0.1},
    {"threshold": 7.0},
    {"threshold": -0.1},
    {"learning_rate": float("nan")},
    {"l2": float("inf")},
    {"threshold": float("nan")},
    # each field holds its annotated type: no bool for an int, no float
    # for an int, no string for a float
    {"iterations": True},
    {"iterations": 2.5},
    {"learning_rate": "1"},
]


def test_classifier_config_validation():
    for bad in BAD_CLASSIFIER_CONFIGS:
        with pytest.raises(ConfigError):
            ClassifierConfig(**bad)
        with pytest.raises(ConfigError):
            dataclasses.replace(ClassifierConfig(), **bad)


def test_threshold_bounds_are_inclusive():
    ClassifierConfig(threshold=0.0)
    ClassifierConfig(threshold=1.0)


# --- reference classifier -----------------------------------------------


def _reference_train_classifier(features, cfg):
    """The pure-Python loop the numpy fit replaced, kept as the oracle."""
    names = sorted({name for fv, _ in features for name in fv.values})
    n, d = len(features), len(names)
    index = {name: j for j, name in enumerate(names)}
    x = [[0.0] * d for _ in range(n)]
    y = [1.0 if label else 0.0 for _, label in features]
    for i, (fv, _) in enumerate(features):
        for name, value in fv.values.items():
            x[i][index[name]] = value
    mean = [sum(row[j] for row in x) / n for j in range(d)]
    std = []
    for j in range(d):
        var = sum((row[j] - mean[j]) ** 2 for row in x) / n
        std.append(math.sqrt(var) if var > 0 else 1.0)
    for row in x:
        for j in range(d):
            row[j] = (row[j] - mean[j]) / std[j]

    w = [0.0] * d
    b = 0.0
    for _ in range(cfg.iterations):
        gw = [cfg.l2 * 2.0 * w[j] for j in range(d)]
        gb = 0.0
        for i, row in enumerate(x):
            z = b + sum(w[j] * row[j] for j in range(d))
            if z >= 0:
                p = 1.0 / (1.0 + math.exp(-z))
            else:
                ez = math.exp(z)
                p = ez / (1.0 + ez)
            err = (p - y[i]) / n
            gb += err
            for j in range(d):
                gw[j] += err * row[j]
        for j in range(d):
            w[j] -= cfg.learning_rate * gw[j]
        b -= cfg.learning_rate * gb

    weights = {}
    bias = b
    for name, j in index.items():
        weights[name] = w[j] / std[j]
        bias -= w[j] * mean[j] / std[j]
    return LinearClassifier(weights, bias, cfg.threshold)


def _where_loop_train_classifier(features, cfg):
    """The numpy one-set fit as it was before the sigmoid shared its divisor.

    Kept as the oracle for exact equality: both sigmoids divide the same
    numerator by the same 1 + exp(-|z|).
    """
    names = sorted({name for fv, _ in features for name in fv.values})
    n, d = len(features), len(names)
    index = {name: j for j, name in enumerate(names)}
    x = np.zeros((n, d))
    y = np.array([1.0 if label else 0.0 for _, label in features])
    for i, (fv, _) in enumerate(features):
        for name, value in fv.values.items():
            x[i, index[name]] = value
    mean = x.mean(axis=0)
    var = ((x - mean) ** 2).mean(axis=0)
    std = np.where(var > 0, np.sqrt(var), 1.0)
    x = (x - mean) / std

    w = np.zeros(d)
    b = 0.0
    for _ in range(cfg.iterations):
        z = b + x @ w
        ez = np.exp(-np.abs(z))
        p = np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
        err = (p - y) / n
        w = w - cfg.learning_rate * (cfg.l2 * 2.0 * w + err @ x)
        b -= cfg.learning_rate * float(err.sum())

    raw = w / std
    weights = {name: float(raw[j]) for name, j in index.items()}
    bias = b - float(raw @ mean)
    return LinearClassifier(weights, bias, cfg.threshold)


def _assert_same_classifier(rows, cfg):
    (got,) = train_classifiers([rows], cfg)
    assert got == _where_loop_train_classifier(rows, cfg)
    want = _reference_train_classifier(rows, cfg)
    assert got.bias == pytest.approx(want.bias, rel=1e-9, abs=1e-12)
    assert got.weights.keys() == want.weights.keys()
    for name, value in want.weights.items():
        assert got.weights[name] == pytest.approx(value, rel=1e-9, abs=1e-12), name
    assert [got.predict(fv) for fv, _ in rows] == [want.predict(fv) for fv, _ in rows]


def test_classifier_matches_reference_loop_on_toy_set():
    for cfg in (ClassifierConfig(), ClassifierConfig(iterations=50, l2=0.0)):
        _assert_same_classifier(_toy_features(), cfg)


@pytest.mark.parametrize("technique", list(Technique))
def test_classifier_matches_reference_loop_on_synthetic_features(technique):
    corpus = generate_synthetic_corpus(3, SynthesisSpec(n_releases=2, components_per_release=12))
    material = clean_training_set(corpus, 0)
    rows = [(extract_features(c, technique), True) for c in material.fix_pairs] + [
        (extract_features(c, technique), False) for c in material.non_vulnerable
    ]
    _assert_same_classifier(rows, ClassifierConfig(iterations=100))


# --- lockstep fits -----------------------------------------------------


def _random_set(rng, n, d, constant=0):
    """n rows over up to d features plus `constant` zero-variance ones;
    row 0 is vulnerable and row 1 clean, so both labels occur."""
    rows = []
    for i in range(n):
        values = {f"c{j}": 2.0 for j in range(constant)}
        values.update(
            (f"f{j}", rng.choice([0.0, 1.0, 3.0, rng.gauss(0.0, 5.0)]))
            for j in range(d)
            if rng.random() < 0.7
        )
        rows.append((FeatureVector(f"p{i}.c", values), i % 3 == 0))
    return rows


def _lockstep_sets():
    rng = random.Random(0)
    return [
        _random_set(rng, 40, 3),
        _random_set(rng, 2, 1),  # the smallest valid set, one feature
        _random_set(rng, 17, 0, constant=1),  # its only feature is constant
        _random_set(rng, 60, 130, constant=2),
        _random_set(rng, 9, 405),
        _random_set(rng, 12, 0),  # no features at all
        _toy_features(),
    ]


@pytest.mark.parametrize(
    "cfg",
    [
        ClassifierConfig(),
        ClassifierConfig(iterations=0),
        ClassifierConfig(iterations=40, learning_rate=3.0, l2=0.0),
    ],
)
def test_lockstep_fits_equal_one_set_fits_bit_for_bit(cfg):
    sets = _lockstep_sets()
    fitted = train_classifiers(sets, cfg)
    assert len(fitted) == len(sets)
    for rows, model in zip(sets, fitted):
        assert [model] == train_classifiers([rows], cfg)
        assert model == _where_loop_train_classifier(rows, cfg)
    assert train_classifiers(sets[::-1], cfg) == fitted[::-1]


def test_a_degenerate_set_fails_only_itself():
    cfg = ClassifierConfig()
    valid = _lockstep_sets()[:2]
    one_label = [(FeatureVector("a.c", {"f0": 1.0}), True), (FeatureVector("b.c", {}), True)]
    fitted = train_classifiers([valid[0], one_label, [], valid[1]], cfg)
    assert isinstance(fitted[1], DegenerateLabels)
    assert str(fitted[1]) == "training components carry a single label"
    assert isinstance(fitted[2], DegenerateLabels)
    assert str(fitted[2]) == "no training components"
    assert [fitted[0]] == train_classifiers([valid[0]], cfg)
    assert [fitted[3]] == train_classifiers([valid[1]], cfg)


def _label_blind_set():
    """Balanced labels and a feature orthogonal to them: every gradient is
    exactly zero, so the fit stays at its start whatever the step size."""
    return [
        (FeatureVector("a.c", {"f": 1.0}), True),
        (FeatureVector("b.c", {"f": 0.0}), True),
        (FeatureVector("c.c", {"f": 1.0}), False),
        (FeatureVector("d.c", {"f": 0.0}), False),
    ]


def test_a_diverging_set_fails_only_itself_and_warns_nothing():
    # a step of 1e5 against an L2 of 1e-3 multiplies the weights by -199
    # per iteration once the gradient makes them non-zero
    cfg = ClassifierConfig(learning_rate=1e5)
    blind = _label_blind_set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fitted = train_classifiers([blind, _toy_features(), blind], cfg)
        (alone,) = train_classifiers([_toy_features()], cfg)
    assert isinstance(fitted[1], NumericalError)
    assert isinstance(alone, NumericalError)
    assert [fitted[0]] == [fitted[2]] == train_classifiers([blind], cfg)
    assert fitted[0].weights == {"f": 0.0}
    assert fitted[0].bias == 0.0


@pytest.mark.parametrize(
    "cfg", [ClassifierConfig(learning_rate=1e300), ClassifierConfig(l2=1e300)]
)
def test_non_finite_weights_raise(cfg):
    (outcome,) = train_classifiers([_toy_features()], cfg)
    assert isinstance(outcome, NumericalError)
    assert "non-finite" in str(outcome)


# --- experiment runs ----------------------------------------------------


@pytest.fixture(scope="module")
def synth_corpus():
    return generate_synthetic_corpus(7, SynthesisSpec())


def test_lexical_techniques_recover_the_planted_signal():
    # vulnerable sources call a helper that clean sources never do, and
    # rewrite-style fixes keep patched files from lingering with a
    # vulnerable-looking shape, so token- and call-based classifiers
    # should near-perfectly separate the classes
    corpus = generate_synthetic_corpus(7, SynthesisSpec(fix_replaces_file=True))
    for technique in (Technique.TEXT_MINING, Technique.FUNCTION_CALLS):
        reports = run_baseline(corpus, technique, Setting.CLEAN)
        assert reports, technique
        for report in reports:
            assert not report.failed, (technique, report.error)
            assert report.mcc >= 0.9, (technique, report.test_release, report.mcc)


def test_patch_style_fixes_confuse_token_classifiers(synth_corpus):
    # with guard-patch fixes the just-fixed file keeps its old token
    # profile, so the token classifier flags it; this asymmetry is the
    # point of comparing against the sequence model
    reports = run_baseline(synth_corpus, Technique.TEXT_MINING, Setting.CLEAN)
    assert any(r.mcc is not None and r.mcc < 0.9 for r in reports)


def test_all_techniques_produce_complete_report_rows(synth_corpus):
    n = len(synth_corpus.releases)
    for technique in Technique:
        reports = run_baseline(synth_corpus, technique, Setting.CLEAN)
        assert len(reports) == n - 1
        for i, report in enumerate(reports):
            assert report.train_release == synth_corpus.releases[i].name
            assert report.test_release == synth_corpus.releases[i + 1].name
            assert report.setting is Setting.CLEAN
            if not report.failed:
                assert report.matrix is not None
                cm = report.matrix
                assert cm.tp + cm.fp + cm.tn + cm.fn == len(synth_corpus.releases[i + 1].components)
                for value in (report.precision, report.recall, report.f_measure, report.mcc):
                    assert value is not None
            json.dumps(report_to_dict(report))  # schema must serialize


def test_realistic_setting_runs_for_baselines(synth_corpus):
    reports = run_baseline(synth_corpus, Technique.TEXT_MINING, Setting.REALISTIC)
    assert len(reports) == len(synth_corpus.releases) - 1
    for report in reports:
        assert report.setting is Setting.REALISTIC


def test_each_component_is_featurised_once_per_run(monkeypatch):
    # release 1 is pair 0's test set and pair 1's training set
    corpus = generate_synthetic_corpus(
        3, SynthesisSpec(n_releases=3, components_per_release=12)
    )
    calls = []

    def counting(component, *args):
        calls.append(component)
        return extract_features(component, *args)

    monkeypatch.setattr("vulnseq.baselines.extract_features", counting)
    run_baseline(corpus, Technique.TEXT_MINING, Setting.CLEAN)
    distinct = {c for r in corpus.releases for c in r.components}
    assert len(calls) == len(distinct)
    assert set(calls) == distinct


def _one_set_fit(rows, cfg):
    """One set's fit as the loop it was, with its label checks."""
    if not rows:
        raise DegenerateLabels("no training components")
    if len({label for _, label in rows}) < 2:
        raise DegenerateLabels("training components carry a single label")
    return _where_loop_train_classifier(rows, cfg)


def _per_pair_run_baseline(corpus, technique, setting):
    """run_baseline as the loop that fitted and scored one pair at a time,
    kept as the oracle for the walk that fits every pair at once."""
    cfg = ClassifierConfig()
    reports = []
    for i in range(len(corpus.releases) - 1):
        train_release, test_release = corpus.releases[i], corpus.releases[i + 1]
        try:
            material = training_material(corpus, i, setting)
            model = _one_set_fit(
                [(extract_features(c, technique), True) for c in material.fix_pairs]
                + [(extract_features(c, technique), False) for c in material.non_vulnerable],
                cfg,
            )
            predictions = [
                BaselinePrediction(c.path, model.predict(extract_features(c, technique)))
                for c in test_release.components
            ]
            cm = confusion(predictions, {c.path: c.label for c in test_release.components})
            m = metrics(cm)
            existing, novel = novel_existing_breakdown(predictions, test_release, train_release)
            reports.append(
                EvaluationReport(
                    train_release.name, test_release.name, setting, matrix=cm,
                    precision=m.precision, recall=m.recall, f_measure=m.f_measure, mcc=m.mcc,
                    existing_detected_pct=existing, novel_detected_pct=novel,
                )
            )
        except VulnseqError as exc:
            reports.append(
                EvaluationReport(
                    train_release.name, test_release.name, setting, failed=True, error=str(exc)
                )
            )
    return reports


@pytest.mark.parametrize("seed", [0, 5, 42])
def test_reports_equal_the_per_pair_loop(seed):
    corpus = generate_synthetic_corpus(seed, SynthesisSpec(components_per_release=20))
    for technique in Technique:
        for setting in Setting:
            want = _per_pair_run_baseline(corpus, technique, setting)
            assert run_baseline(corpus, technique, setting) == want, (technique, setting)


def test_run_baseline_fits_every_pair_in_one_call(monkeypatch):
    corpus = generate_synthetic_corpus(
        3, SynthesisSpec(n_releases=4, components_per_release=12)
    )
    calls = []

    def spy(sets, cfg):
        calls.append(len(sets))
        return train_classifiers(sets, cfg)

    monkeypatch.setattr("vulnseq.baselines.train_classifiers", spy)
    for technique in Technique:
        calls.clear()
        reports = run_baseline(corpus, technique, Setting.CLEAN)
        assert calls == [3]
        assert not any(r.failed for r in reports)


def test_baseline_requires_two_releases(synth_corpus):
    single = dataclasses.replace(synth_corpus, releases=synth_corpus.releases[:1])
    with pytest.raises(ConfigError):
        run_baseline(single, Technique.TEXT_MINING, Setting.CLEAN)


def test_baseline_predictions_are_plain_records():
    p = BaselinePrediction("a.c", True)
    assert p.path == "a.c"
    assert p.predicted_vulnerable is True


def test_late_detections_give_failed_baseline_rows(synth_corpus):
    # realistic training on release i knows nothing detected on or after
    # release i+1's date, so with every detection late no training
    # component is vulnerable and every pair fails instead of raising
    late = tuple(
        VulnerabilityRecord(v.vuln_id, datetime.date(2999, 1, 1), v.affected_paths)
        for v in synth_corpus.vulnerabilities
    )
    corpus = dataclasses.replace(synth_corpus, vulnerabilities=late)
    reports = run_baseline(corpus, Technique.TEXT_MINING, Setting.REALISTIC)
    assert len(reports) == len(corpus.releases) - 1
    for i, report in enumerate(reports):
        assert report.failed
        assert report.error
        assert report.matrix is None
        assert report.mcc is None
        assert report.train_release == corpus.releases[i].name
        assert report.setting is Setting.REALISTIC


@pytest.mark.parametrize(
    "cfg,bins",
    [({}, 0)] + [(bad, 10) for bad in BAD_CLASSIFIER_CONFIGS],
)
def test_bad_settings_are_rejected_before_any_pair(synth_corpus, monkeypatch, cfg, bins):
    def walked(*args, **kwargs):
        raise AssertionError("a release pair was walked")

    monkeypatch.setattr("vulnseq.baselines.extract_features", walked)
    for technique in (Technique.TEXT_MINING, Technique.IMPORTS):
        with pytest.raises(ConfigError):
            run_baseline(synth_corpus, technique, Setting.CLEAN, ClassifierConfig(**cfg), bins=bins)
