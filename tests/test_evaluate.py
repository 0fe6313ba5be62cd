import json
import math
import random
from datetime import date

import pytest

from vulnseq.corpus import (
    ComponentRecord,
    Corpus,
    Label,
    Release,
    VulnerabilityRecord,
)
from vulnseq.errors import (
    ConfigError,
    DegenerateLabels,
    IntegrityError,
    MissingLabel,
    NumericalError,
)
from vulnseq.evaluate import (
    ConfusionMatrix,
    EvaluationReport,
    Setting,
    confusion,
    metrics,
    novel_existing_breakdown,
    report_to_dict,
    reports_to_csv,
    reports_to_jsonl,
    run_experiment,
    run_release_pairs,
    summarize,
)
from vulnseq.pairing import PairingConfig
from vulnseq.predict import ComponentVerdict
from vulnseq.seq2seq import ModelConfig
from vulnseq.synth import SynthesisSpec, generate_synthetic_corpus


def _verdict(path, flag):
    mods = (("f", 0),) if flag else ()
    return ComponentVerdict(path, flag, mods, 1)


# ---------------------------------------------------------------- metrics


def _oracle_metrics(tp, fp, tn, fn):
    """Independent re-evaluation of the four formulas."""
    p = tp / (tp + fp) if tp + fp > 0 else 0.0
    r = tp / (tp + fn) if tp + fn > 0 else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    d = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    m = (tp * tn - fp * fn) / math.sqrt(d) if d > 0 else 0.0
    return p, r, f, m


def test_perfect_prediction_scores_one():
    m = metrics(ConfusionMatrix(tp=5, fp=0, tn=5, fn=0))
    assert (m.precision, m.recall, m.f_measure, m.mcc) == (1.0, 1.0, 1.0, 1.0)


def test_perfect_inversion_scores_minus_one():
    m = metrics(ConfusionMatrix(tp=0, fp=5, tn=0, fn=5))
    assert m.mcc == -1.0


def test_hand_evaluated_mcc():
    # (3*90 - 2*5) / sqrt(5*8*92*95) = 260 / sqrt(349600)
    m = metrics(ConfusionMatrix(tp=3, fp=2, tn=90, fn=5))
    assert abs(m.mcc - 260.0 / math.sqrt(349600)) < 1e-12
    assert abs(m.mcc - 0.439731) < 5e-6


def test_metrics_match_independent_oracle_on_random_matrices():
    rng = random.Random(2026)
    for _ in range(1000):
        tp, fp, tn, fn = (rng.randint(0, 40) for _ in range(4))
        m = metrics(ConfusionMatrix(tp, fp, tn, fn))
        p, r, f, mc = _oracle_metrics(tp, fp, tn, fn)
        assert abs(m.precision - p) < 1e-12
        assert abs(m.recall - r) < 1e-12
        assert abs(m.f_measure - f) < 1e-12
        assert abs(m.mcc - mc) < 1e-12
        assert -1.0 <= m.mcc <= 1.0
        for v in (m.precision, m.recall, m.f_measure):
            assert 0.0 <= v <= 1.0


def test_zero_denominator_conventions():
    m = metrics(ConfusionMatrix(0, 0, 10, 0))
    assert (m.precision, m.recall, m.f_measure, m.mcc) == (0.0, 0.0, 0.0, 0.0)
    assert metrics(ConfusionMatrix(0, 0, 0, 0)).mcc == 0.0


def test_label_swap_negates_mcc():
    rng = random.Random(7)
    for _ in range(50):
        tp, fp, tn, fn = (rng.randint(1, 30) for _ in range(4))
        m = metrics(ConfusionMatrix(tp, fp, tn, fn))
        swapped = metrics(ConfusionMatrix(tp=fn, fp=tn, tn=fp, fn=tp))
        assert abs(m.mcc + swapped.mcc) < 1e-12


def test_negative_counts_rejected():
    with pytest.raises(ConfigError):
        ConfusionMatrix(-1, 0, 0, 0)


# -------------------------------------------------------------- confusion


def test_confusion_all_correct():
    truth = {f"v{i}": Label.VULNERABLE for i in range(3)}
    truth.update({f"n{i}": Label.NON_VULNERABLE for i in range(7)})
    verdicts = [_verdict(p, p.startswith("v")) for p in truth]
    cm = confusion(verdicts, truth)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (3, 0, 7, 0)


def test_confusion_all_inverted():
    truth = {f"v{i}": Label.VULNERABLE for i in range(3)}
    truth.update({f"n{i}": Label.NON_VULNERABLE for i in range(7)})
    verdicts = [_verdict(p, not p.startswith("v")) for p in truth]
    cm = confusion(verdicts, truth)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 7, 0, 3)


def test_confusion_random_matches_tally():
    rng = random.Random(11)
    for _ in range(30):
        truth = {}
        verdicts = []
        tally = [0, 0, 0, 0]
        for i in range(rng.randint(1, 40)):
            path = f"p{i}"
            vuln = rng.random() < 0.4
            pred = rng.random() < 0.5
            truth[path] = Label.VULNERABLE if vuln else Label.NON_VULNERABLE
            verdicts.append(_verdict(path, pred))
            if vuln and pred:
                tally[0] += 1
            elif not vuln and pred:
                tally[1] += 1
            elif not vuln and not pred:
                tally[2] += 1
            else:
                tally[3] += 1
        cm = confusion(verdicts, truth)
        assert [cm.tp, cm.fp, cm.tn, cm.fn] == tally


def test_confusion_missing_label():
    with pytest.raises(MissingLabel):
        confusion([_verdict("ghost.c", True)], {})


# ------------------------------------------------- novel/existing breakdown


def _release(name, day, comps):
    return Release(name, date(2020, 1, day), comps)


def _comp(path, vuln):
    if vuln:
        return ComponentRecord(path, "int f(void) { return 0; }\n", Label.VULNERABLE,
                               fixed_source="int f(void) { return 1; }\n")
    return ComponentRecord(path, "int f(void) { return 0; }\n", Label.NON_VULNERABLE)


def test_breakdown_set_membership_oracle():
    train = _release("r1", 1, [_comp("a", True), _comp("b", True), _comp("c", False)])
    test = _release(
        "r2",
        20,
        [_comp("a", True), _comp("b", True), _comp("c", True), _comp("d", True), _comp("e", False)],
    )
    # detected: a (existing), c and d (novel); missed: b (existing)
    verdicts = [
        _verdict("a", True),
        _verdict("b", False),
        _verdict("c", True),
        _verdict("d", True),
        _verdict("e", False),
    ]
    existing, novel = novel_existing_breakdown(verdicts, test, train)
    assert existing == 50.0
    assert novel == 100.0


def test_breakdown_empty_novel_class():
    train = _release("r1", 1, [_comp("a", True)])
    test = _release("r2", 20, [_comp("a", True), _comp("b", False)])
    existing, novel = novel_existing_breakdown([_verdict("a", True), _verdict("b", False)], test, train)
    assert existing == 100.0
    assert novel is None


def test_breakdown_empty_existing_class():
    train = _release("r1", 1, [_comp("a", False)])
    test = _release("r2", 20, [_comp("b", True)])
    existing, novel = novel_existing_breakdown([_verdict("b", False)], test, train)
    assert existing is None
    assert novel == 0.0


# ------------------------------------------------------------- experiments


def _mini_corpus():
    vuln_src = "int f(int a) { return a % 3; }\n"
    fixed_src = "int f(int a) { if (!a) a = 1; return a % 3; }\n"
    filler = "int g(void) { return 7; }\n"
    releases = []
    for i, name in enumerate(["r1", "r2", "r3"]):
        comps = [
            ComponentRecord("src/v.c", vuln_src, Label.VULNERABLE, fixed_source=fixed_src, vuln_ids=(f"CVE-1-{i}",)),
            ComponentRecord("src/f.c", filler, Label.NON_VULNERABLE),
        ]
        releases.append(Release(name, date(2020, 1 + i, 1), comps))
    vulns = [
        VulnerabilityRecord(f"CVE-1-{i}", date(2020, 1 + i, 5), ("src/v.c",))
        for i in range(3)
    ]
    return Corpus("mini", releases, vulns)


_FAST = ModelConfig(
    embedding_dim=4, hidden_units=4, batch_size=4, iteration_steps=5, max_steps=10, seed=0
)


def test_run_experiment_produces_n_minus_one_rows():
    reports = run_experiment(_mini_corpus(), Setting.CLEAN, _FAST, PairingConfig())
    assert len(reports) == 2
    assert [(r.train_release, r.test_release) for r in reports] == [
        ("r1", "r2"),
        ("r2", "r3"),
    ]
    for r in reports:
        assert not r.failed
        assert r.matrix is not None
        cm = r.matrix
        assert cm.tp + cm.fp + cm.tn + cm.fn == 2
        m = metrics(r.matrix)
        assert (r.precision, r.recall, r.f_measure, r.mcc) == (
            m.precision,
            m.recall,
            m.f_measure,
            m.mcc,
        )


def test_run_experiment_requires_two_releases():
    corpus = _mini_corpus()
    single = Corpus(corpus.project_name, corpus.releases[:1], corpus.vulnerabilities)
    with pytest.raises(ConfigError):
        run_experiment(single, Setting.CLEAN, _FAST, PairingConfig())


def test_failed_release_pair_recorded_not_raised():
    # realistic split at r1: detection (Jan 5) is after... make lag huge so the
    # vulnerability is undetected at r2's date and training has no fix pairs
    corpus = _mini_corpus()
    late = [
        VulnerabilityRecord(v.vuln_id, date(2021, 1, 1), v.affected_paths)
        for v in corpus.vulnerabilities
    ]
    corpus = Corpus(corpus.project_name, corpus.releases, late)
    reports = run_experiment(corpus, Setting.REALISTIC, _FAST, PairingConfig())
    assert len(reports) == 2
    assert all(r.failed for r in reports)
    assert all(r.error for r in reports)
    assert all(r.matrix is None for r in reports)


def test_walk_builds_every_material_then_fits_once_then_scores(monkeypatch):
    import vulnseq.evaluate as ev

    corpus = generate_synthetic_corpus(3, SynthesisSpec(n_releases=4, components_per_release=6))
    events = []

    def material(corpus_, i, setting):
        events.append(("material", i))
        if i == 1:
            raise IntegrityError("pair 1 has no material")
        return ("material of", i)

    def fit(materials):
        events.append(("fit", materials))
        return ["model 0", DegenerateLabels("pair 2 has one label")]

    def predict(model, release):
        events.append(("predict", model, release.name))
        return [_verdict(c.path, False) for c in release.components]

    monkeypatch.setattr(ev, "training_material", material)
    reports = run_release_pairs(corpus, Setting.CLEAN, fit, predict)
    assert events == [
        ("material", 0),
        ("material", 1),
        ("material", 2),
        ("fit", [("material of", 0), ("material of", 2)]),
        ("predict", "model 0", "r1"),
    ]
    assert [r.failed for r in reports] == [False, True, True]
    assert [r.error for r in reports] == [None, "pair 1 has no material", "pair 2 has one label"]
    assert [(r.train_release, r.test_release) for r in reports] == [
        ("r0", "r1"), ("r1", "r2"), ("r2", "r3")
    ]


@pytest.mark.parametrize("missing", [1, -1])
def test_walk_raises_when_fit_returns_another_count(missing):
    corpus = generate_synthetic_corpus(3, SynthesisSpec(n_releases=4, components_per_release=6))
    predicted = []

    def fit(materials):
        return ["model"] * (len(materials) - missing)

    def predict(model, release):
        predicted.append(release.name)
        return [_verdict(c.path, False) for c in release.components]

    with pytest.raises(ValueError):
        run_release_pairs(corpus, Setting.CLEAN, fit, predict)
    assert predicted == []


def test_a_pair_whose_training_raises_fails_alone(monkeypatch):
    import vulnseq.evaluate as ev

    original = run_experiment(_mini_corpus(), Setting.CLEAN, _FAST, PairingConfig())
    train = ev.train
    calls = []

    def first_diverges(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise NumericalError("non-finite loss or gradient", step=3)
        return train(*args, **kwargs)

    monkeypatch.setattr(ev, "train", first_diverges)
    reports = run_experiment(_mini_corpus(), Setting.CLEAN, _FAST, PairingConfig())
    assert len(calls) == 2
    assert reports[0].failed
    assert reports[0].error == "non-finite loss or gradient (step 3)"
    assert reports[1] == original[1]


def test_summary_matches_recomputation():
    reports = [
        EvaluationReport("r1", "r2", Setting.CLEAN, matrix=ConfusionMatrix(1, 0, 1, 0),
                         precision=1.0, recall=1.0, f_measure=1.0, mcc=1.0,
                         existing_detected_pct=100.0, novel_detected_pct=None),
        EvaluationReport("r2", "r3", Setting.CLEAN, matrix=ConfusionMatrix(0, 1, 0, 1),
                         precision=0.0, recall=0.0, f_measure=0.0, mcc=-1.0,
                         existing_detected_pct=0.0, novel_detected_pct=40.0),
        EvaluationReport("r3", "r4", Setting.CLEAN, failed=True, error="x"),
    ]
    s = summarize(reports)
    assert s["rows"] == 3 and s["failed_rows"] == 1
    assert s["average"]["mcc"] == 0.0
    assert s["median"]["mcc"] == 0.0
    assert s["average"]["precision"] == 0.5
    assert s["average"]["existing_detected_pct"] == 50.0
    assert s["average"]["novel_detected_pct"] == 40.0


def test_jsonl_and_csv_shapes():
    reports = run_experiment(_mini_corpus(), Setting.CLEAN, _FAST, PairingConfig())
    lines = reports_to_jsonl(reports).splitlines()
    assert len(lines) == 3
    rows = [json.loads(line) for line in lines]
    assert [r["kind"] for r in rows] == ["report", "report", "summary"]
    assert rows[0]["setting"] == "Clean"
    assert set(rows[0]["matrix"]) == {"tp", "fp", "tn", "fn"}

    csv_text = reports_to_csv(reports)
    table = [line.split(",") for line in csv_text.splitlines()]
    assert table[0] == ["Release", "MCC", "F-measure", "Precision", "Recall"]
    assert [row[0] for row in table[1:]] == ["r2", "r3", "Average", "Median"]


def test_csv_failed_row_has_empty_cells():
    reports = [EvaluationReport("r1", "r2", Setting.REALISTIC, failed=True, error="no pairs")]
    table = [line.split(",") for line in reports_to_csv(reports).splitlines()]
    assert table[1] == ["r2", "", "", "", ""]
    assert table[2] == ["Average", "", "", "", ""]


def test_report_dict_round_trips_through_json():
    reports = run_experiment(_mini_corpus(), Setting.CLEAN, _FAST, PairingConfig())
    d = report_to_dict(reports[0])
    assert json.loads(json.dumps(d)) == d
