"""Component-level verdict tests.

A small model is trained to memorize one fix transform plus echo
behaviour, then verdicts are checked against sources the model has and
has not seen a fix for.
"""

import pytest

from vulnseq.abstraction import (
    SeqRole,
    SequenceMeta,
    abstract_function,
    source_sequences,
    to_sequences,
)
from vulnseq.corpus import ComponentRecord, Label, Release
from vulnseq.cparse import extract_functions, tokenize
from vulnseq.pairing import PairingConfig, build_training_pairs, labeled_functions_from_component
from vulnseq.predict import ComponentVerdict, predict_component, predict_release
from vulnseq.seq2seq import (
    ModelConfig,
    build_vocabulary,
    exact_match_rate,
    init_model,
    train,
)

import datetime

VULN_SOURCE = (
    "int f(int a)\n"
    "{\n"
    " return a % 3;\n"
    "}\n"
    "\n"
    "int g(void)\n"
    "{\n"
    " return 7;\n"
    "}\n"
)

FIXED_SOURCE = (
    "int f(int a)\n"
    "{\n"
    " if (!a)\n"
    "  a = 1;\n"
    " return a % 3;\n"
    "}\n"
    "\n"
    "int g(void)\n"
    "{\n"
    " return 7;\n"
    "}\n"
)

FILLER_ONLY = (
    "int g(void)\n"
    "{\n"
    " return 7;\n"
    "}\n"
)


def _component(path, source):
    return ComponentRecord(path=path, source=source, label=Label.NON_VULNERABLE)


@pytest.fixture(scope="module")
def trained_model():
    labeled = labeled_functions_from_component(VULN_SOURCE, FIXED_SOURCE, "m.c")
    pairs = build_training_pairs(labeled, PairingConfig(seed=0))
    cfg = ModelConfig(
        embedding_dim=32,
        hidden_units=32,
        learning_rate=1.0,
        batch_size=4,
        iteration_steps=250,
        max_steps=1500,
        seed=0,
    )
    model = train(pairs, [], cfg)
    assert exact_match_rate(model, pairs) == 1.0
    return model


def test_unguarded_source_is_flagged(trained_model):
    verdict = predict_component(trained_model, _component("a.c", VULN_SOURCE))
    assert verdict.predicted_vulnerable is True
    assert ("f", 0) in verdict.modified_sequences
    assert verdict.total_sequences == 2


def test_guarded_source_is_clean(trained_model):
    verdict = predict_component(trained_model, _component("b.c", FIXED_SOURCE))
    assert verdict.predicted_vulnerable is False
    assert verdict.modified_sequences == ()
    assert verdict.total_sequences == 2


def test_filler_only_source_is_clean(trained_model):
    verdict = predict_component(trained_model, _component("c.c", FILLER_ONLY))
    assert verdict.predicted_vulnerable is False
    assert verdict.modified_sequences == ()
    assert verdict.total_sequences == 1


def test_flagged_function_is_only_the_changed_one(trained_model):
    verdict = predict_component(trained_model, _component("d.c", VULN_SOURCE))
    assert all(name == "f" for name, _ in verdict.modified_sequences)


def test_empty_source_yields_clean_empty_verdict(trained_model):
    verdict = predict_component(trained_model, _component("e.c", ""))
    assert verdict == ComponentVerdict("e.c", False, (), 0)


def test_unparseable_source_yields_clean_empty_verdict(trained_model):
    verdict = predict_component(trained_model, _component("bad.c", "int f( {"))
    assert verdict == ComponentVerdict("bad.c", False, (), 0)


def test_release_verdicts_preserve_component_order(trained_model):
    release = Release(
        name="r1",
        release_date=datetime.date(2020, 1, 1),
        components=(
            _component("x.c", FIXED_SOURCE),
            _component("y.c", VULN_SOURCE),
            _component("z.c", FILLER_ONLY),
        ),
    )
    verdicts = predict_release(trained_model, release)
    assert [v.path for v in verdicts] == ["x.c", "y.c", "z.c"]
    assert [v.predicted_vulnerable for v in verdicts] == [False, True, False]


def test_out_of_vocabulary_literals_do_not_differ(trained_model):
    # Sources differing only in a literal the vocabulary has never seen
    # map to the same index sequence, so verdicts must agree.
    def seqs(source):
        fns = extract_functions(tokenize(source))
        out = []
        for fn in fns:
            tokens, _ = abstract_function(fn)
            out.extend(
                to_sequences(tokens, SequenceMeta("u.c", fn.name, SeqRole.NON_VULNERABLE))
            )
        return out

    vocab = build_vocabulary(seqs(FILLER_ONLY), min_count=2)
    assert "7" not in vocab.token_to_index
    cfg = ModelConfig(embedding_dim=8, hidden_units=8, seed=3)
    model = init_model(cfg, vocab)

    seven = predict_component(model, _component("u.c", FILLER_ONLY))
    nine = predict_component(model, _component("u.c", FILLER_ONLY.replace("7", "9")))
    assert seven == nine


def test_verdict_consistency_is_enforced():
    with pytest.raises(AssertionError):
        ComponentVerdict("p.c", True, (), 1)
    with pytest.raises(AssertionError):
        ComponentVerdict("p.c", False, (("f", 0),), 1)


def test_prediction_and_call_features_build_no_signature_key(monkeypatch):
    # only pairing reads a unit's signature key, so the others never pay for it
    from vulnseq import cparse
    from vulnseq.baselines import call_features
    from vulnseq.pairing import pair_functions

    component = _component("s.c", VULN_SOURCE)
    vocab = build_vocabulary(source_sequences("s.c", VULN_SOURCE), min_count=1)
    model = init_model(ModelConfig(embedding_dim=8, hidden_units=8, seed=3), vocab)
    built = []
    build = cparse._signature_key
    monkeypatch.setattr(cparse, "_signature_key", lambda *args: built.append(args) or build(*args))
    release = Release("r1", datetime.date(2020, 1, 1), (component,))
    assert predict_release(model, release)[0].total_sequences == 2
    assert call_features(component).values == {}
    assert built == []
    units = extract_functions(tokenize(VULN_SOURCE))
    assert len(pair_functions(units, units)) == 2
    assert len(built) == 2
