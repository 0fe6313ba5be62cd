"""Package-level acceptance checks.

Each test exercises one externally stated requirement end to end, with
its own independent oracle where one is called for. Budgets are wall
clock on a single core.
"""

import dataclasses
import hashlib
import json
import math
import random
import time

import numpy as np
import pytest

from vulnseq.abstraction import abstract_function
from vulnseq.baselines import Technique, run_baseline
from vulnseq.cli import _PROFILES, main
from vulnseq.corpus import clean_training_set, load_corpus, save_corpus, training_material
from vulnseq.cparse import extract_functions, tokenize
from vulnseq.evaluate import (
    ConfusionMatrix,
    Setting,
    confusion,
    metrics,
    report_to_dict,
    run_experiment,
)
from vulnseq.pairing import (
    PairingConfig,
    PairKind,
    build_training_pairs,
    labeled_functions_from_material,
)
from vulnseq.predict import predict_release
from vulnseq.seq2seq import (
    ModelConfig,
    compute_loss_and_grads,
    exact_match_rate,
    init_model,
    load_model,
    save_model,
    train,
    vocabulary_from_pairs,
)
from vulnseq.seq2seq.model import parameter_shapes
from vulnseq.synth import SynthesisSpec, generate_synthetic_corpus

from conftest import DEV_LOAD
from test_seq2seq import GRAD_PAIRS


def _desk_config(seed=0, **overrides):
    values = dict(_PROFILES["desk"])
    values.update(overrides)
    return ModelConfig(seed=seed, **values)


# --- 1. abstraction fidelity ---------------------------------------------

EXPECTED_STREAM = (
    "void F_1 ( struct T_1 * V_1 , const char * V_2 ) { struct T_2 * V_3 ; "
    "F_2 ( ) ; V_3 = F_3 ( V_1 , V_2 ) ; F_4 ( ) ; "
    "if ( ! V_3 && F_5 ( V_4 ) ) F_6 ( L_1 , V_2 ) ; }"
).split()


def test_criterion_1_abstraction_fidelity():
    start = time.perf_counter()
    functions = extract_functions(tokenize(DEV_LOAD))
    assert len(functions) == 1
    tokens, _ = abstract_function(functions[0])
    assert tokens == EXPECTED_STREAM
    assert time.perf_counter() - start < 1.0


# --- 2. metric oracle -----------------------------------------------------


def _oracle(tp, fp, tn, fn):
    """Independent textbook formulas; 0.0 when a denominator is 0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f_measure = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = (tp * tn - fp * fn) / denom if denom else 0.0
    return precision, recall, f_measure, mcc


def test_criterion_2_metric_oracle():
    rng = random.Random(20240917)
    for _ in range(1000):
        tp, fp, tn, fn = (rng.randint(0, 50) for _ in range(4))
        got = metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
        want = _oracle(tp, fp, tn, fn)
        for actual, expected in zip(
            (got.precision, got.recall, got.f_measure, got.mcc), want
        ):
            assert abs(actual - expected) <= 1e-12, (tp, fp, tn, fn)
        assert -1.0 <= got.mcc <= 1.0

    perfect = metrics(ConfusionMatrix(tp=9, fp=0, tn=14, fn=0))
    assert perfect.mcc == 1.0
    inverted = metrics(ConfusionMatrix(tp=0, fp=14, tn=0, fn=9))
    assert inverted.mcc == -1.0


# --- 3. gradient correctness ----------------------------------------------


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()
    config = ModelConfig(embedding_dim=3, hidden_units=4, seed=7)
    model = init_model(config, vocabulary_from_pairs(GRAD_PAIRS))
    _, grads = compute_loss_and_grads(model, GRAD_PAIRS)
    rng = np.random.default_rng(1)
    worst = 0.0
    for name in parameter_shapes(config, model.vocabulary.size()):
        flat = model.params[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        picks = rng.choice(flat.size, size=min(25, flat.size), replace=False)
        assert len(picks) >= min(25, flat.size)
        for i in picks:
            orig = flat[i]
            eps = 1e-4 * max(1.0, abs(orig))
            flat[i] = orig + eps
            loss_plus, _ = compute_loss_and_grads(model, GRAD_PAIRS)
            flat[i] = orig - eps
            loss_minus, _ = compute_loss_and_grads(model, GRAD_PAIRS)
            flat[i] = orig
            fd = (loss_plus - loss_minus) / (2.0 * eps)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-4
    assert time.perf_counter() - start < 30.0


# --- 4. memorization capacity ----------------------------------------------


def test_criterion_4_memorization_capacity():
    start = time.perf_counter()
    corpus = generate_synthetic_corpus(
        13, SynthesisSpec(n_releases=2, components_per_release=200)
    )
    material = clean_training_set(corpus, 0)
    labeled = labeled_functions_from_material(material)
    pairs = build_training_pairs(labeled, PairingConfig(seed=13))

    fix_pairs = [p for p in pairs if p.kind is PairKind.VULN_TO_FIXED]
    identity = [p for p in pairs if p.kind is not PairKind.VULN_TO_FIXED]
    assert len(fix_pairs) == 40
    assert identity

    config = _desk_config(seed=13)
    assert config.hidden_units == 32
    assert config.max_steps <= 5000
    model = train(pairs, [], config)
    rate = exact_match_rate(model, pairs)
    elapsed = time.perf_counter() - start
    assert rate >= 0.95, rate
    assert elapsed < 600.0, elapsed


# --- 5. end-to-end prediction ----------------------------------------------


def test_criterion_5_end_to_end_prediction():
    start = time.perf_counter()
    corpus = generate_synthetic_corpus(42, SynthesisSpec())
    train_index = 2
    material = clean_training_set(corpus, train_index)
    labeled = labeled_functions_from_material(material)
    pairs = build_training_pairs(labeled, PairingConfig(seed=0))
    model = train(pairs, [], _desk_config(seed=0))

    held_out = corpus.releases[train_index + 1]
    verdicts = predict_release(model, held_out)
    truth = {c.path: c.label for c in held_out.components}
    m = metrics(confusion(verdicts, truth))
    elapsed = time.perf_counter() - start
    assert m.mcc >= 0.6, m
    assert m.recall >= 0.7, m
    assert elapsed < 900.0, elapsed


# --- 6. clean vs realistic structure ---------------------------------------


def test_criterion_6_realistic_is_strict_subset_of_clean():
    # detection lag (120 days, plus jitter) exceeds the 90-day release
    # spacing, so fresh vulnerabilities are never known realistically
    corpus = generate_synthetic_corpus(3, SynthesisSpec(detection_lag_days=120))
    n = len(corpus.releases)
    for i in range(n - 1):
        clean_paths = {c.path for c in clean_training_set(corpus, i).fix_pairs}
        realistic_paths = {
            c.path for c in training_material(corpus, i, Setting.REALISTIC).fix_pairs
        }
        assert realistic_paths < clean_paths, i

    tiny = ModelConfig(
        embedding_dim=4, hidden_units=4, batch_size=4, iteration_steps=5, max_steps=10
    )
    pairing = PairingConfig(seed=0)
    for setting in (Setting.CLEAN, Setting.REALISTIC):
        reports = run_experiment(corpus, setting, tiny, pairing)
        assert len(reports) == n - 1
        assert [r.train_release for r in reports] == [f"r{i}" for i in range(n - 1)]


# --- 7. planted-signal baselines -------------------------------------------


def test_criterion_7_planted_signal_baselines():
    planted = generate_synthetic_corpus(7, SynthesisSpec(fix_replaces_file=True))
    for technique in (Technique.TEXT_MINING, Technique.FUNCTION_CALLS):
        reports = run_baseline(planted, technique, Setting.CLEAN)
        assert reports
        for report in reports:
            assert not report.failed, (technique, report.error)
            assert report.mcc >= 0.9, (technique, report.test_release, report.mcc)

    standard = generate_synthetic_corpus(7, SynthesisSpec())
    for technique in Technique:
        reports = run_baseline(standard, technique, Setting.CLEAN)
        assert len(reports) == len(standard.releases) - 1
        for report in reports:
            row = report_to_dict(report)
            json.dumps(row)
            assert row["kind"] == "report"
            assert set(row) >= {
                "train_release",
                "test_release",
                "setting",
                "failed",
                "matrix",
                "precision",
                "recall",
                "f_measure",
                "mcc",
            }


# --- 8. determinism ---------------------------------------------------------


def test_criterion_8_pipeline_byte_determinism(tmp_path):
    def run(tag):
        corpus = tmp_path / f"corpus-{tag}.jsonl"
        ckpt = tmp_path / f"model-{tag}.ckpt"
        report = tmp_path / f"report-{tag}.jsonl"
        assert main(["synth", "--seed", "21", "--releases", "3",
                     "--components", "10", "-o", str(corpus)]) == 0
        assert main(["train", "-i", str(corpus), "--release", "0", "--seed", "21",
                     "--hidden-units", "16", "--embedding-dim", "16",
                     "--max-steps", "200", "--iteration-steps", "100",
                     "-o", str(ckpt)]) == 0
        assert main(["evaluate", "-i", str(corpus), "--seed", "21",
                     "--hidden-units", "16", "--embedding-dim", "16",
                     "--max-steps", "200", "--iteration-steps", "100",
                     "-o", str(report)]) == 0
        return tuple(
            hashlib.sha256(p.read_bytes()).hexdigest() for p in (corpus, ckpt, report)
        )

    assert run("one") == run("two")


# --- 9. round trips ----------------------------------------------------------


def test_criterion_9_round_trips(tmp_path):
    corpus = generate_synthetic_corpus(5, SynthesisSpec(n_releases=2, components_per_release=6))
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, str(corpus_path))
    assert load_corpus(str(corpus_path)) == corpus

    material = clean_training_set(corpus, 0)
    pairs = build_training_pairs(
        labeled_functions_from_material(material), PairingConfig(seed=5)
    )
    config = ModelConfig(
        embedding_dim=6, hidden_units=6, batch_size=4, iteration_steps=5, max_steps=10, seed=5
    )
    model = train(pairs, [], config)
    model_path = tmp_path / "model.ckpt"
    save_model(model, str(model_path))
    loaded = load_model(str(model_path))
    assert loaded.config == model.config
    assert loaded.vocabulary == model.vocabulary
    assert set(loaded.params) == set(model.params)
    for name, tensor in model.params.items():
        assert np.array_equal(loaded.params[name], tensor), name
