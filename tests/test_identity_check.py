"""The batched identity check against its oracle, greedy decoding.

``greedy_reproduces`` must answer exactly what greedy decoding, a token
at a time, answers for ``decode == target``, row by row. The oracle is
``padded_oracle.greedy_decode``, which shares no code with the packed
runner that both ``greedy_reproduces`` and ``decode_greedy`` use, so a
fault in that runner cannot pass by agreeing with itself. The models are
the converged desk checkpoint stored with the benchmark, two copies of it
with seeded Gaussian noise added to every parameter, and an untrained
model; on two synthetic corpora they give both answers, with anything
from all to none of the rows reproduced.
"""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vulnseq.seq2seq.model as model_module
from vulnseq.corpus import clean_training_set
from vulnseq.errors import ShapeError
from vulnseq.pairing import PairingConfig, build_training_pairs, labeled_functions_from_material
from vulnseq.predict import _component_rows, predict_release
from vulnseq.seq2seq import (
    EOS,
    PAD,
    UNK,
    ModelConfig,
    decode_greedy,
    encode,
    exact_match_rate,
    greedy_reproduces,
    init_model,
    load_model,
    vocabulary_from_pairs,
)
from vulnseq.seq2seq.model import MAX_DECODE_LENGTH, Seq2SeqModel, _first_copies
from vulnseq.synth import SynthesisSpec, generate_synthetic_corpus

from padded_oracle import greedy_decode

CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "desk.ckpt"
CORPUS_SEEDS = (3, 11)
# (seed, standard deviation of the noise added to the checkpoint)
MODEL_SEEDS_AND_NOISE = ((0, 0.0), (1, 0.02), (2, 0.05))
SMALL = ModelConfig(embedding_dim=4, hidden_units=4, seed=0)


def _oracle(model, inputs, targets):
    return [greedy_decode(model, i) == t for i, t in zip(inputs, targets)]


def _rows(component, vocab):
    """(function, chunk index, ids) for each chunk of a component."""
    return [(fn, chunk, vocab.encode(tokens)) for fn, chunk, tokens in _component_rows(component)]


def _pairs(corpus):
    return build_training_pairs(
        labeled_functions_from_material(clean_training_set(corpus, 0)),
        PairingConfig(seed=0),
    )


@pytest.fixture(scope="module")
def cases():
    """(corpus seed, model name, model, test release, training pairs)."""
    base = load_model(str(CHECKPOINT))
    out = []
    for corpus_seed in CORPUS_SEEDS:
        corpus = generate_synthetic_corpus(
            corpus_seed, SynthesisSpec(n_releases=2, components_per_release=12)
        )
        pairs = _pairs(corpus)
        for seed, scale in MODEL_SEEDS_AND_NOISE:
            rng = np.random.Generator(np.random.PCG64(seed))
            params = {k: v + rng.normal(0.0, scale, v.shape) for k, v in base.params.items()}
            model = Seq2SeqModel(base.config, base.vocabulary, params)
            out.append((corpus_seed, f"seed {seed}", model, corpus.releases[1], pairs))
        untrained = init_model(
            dataclasses.replace(base.config, seed=corpus_seed), base.vocabulary
        )
        out.append((corpus_seed, "untrained", untrained, corpus.releases[1], pairs))
    return out


@pytest.fixture(scope="module")
def noised(cases):
    """The noised checkpoints, each with the chunks of its test release."""
    return [
        (model, [r[2] for c in release.components for r in _rows(c, model.vocabulary)])
        for corpus_seed, model_name, model, release, _ in cases
        if corpus_seed == CORPUS_SEEDS[0] and model_name in ("seed 1", "seed 2")
    ]


def test_predict_rows_match_greedy_decoding(cases):
    seen = set()
    for corpus_seed, model_name, model, release, _ in cases:
        verdicts = predict_release(model, release)
        for component, verdict in zip(release.components, verdicts):
            rows = _rows(component, model.vocabulary)
            ids = [r[2] for r in rows]
            kept = _oracle(model, ids, ids)
            modified = tuple((fn, chunk) for (fn, chunk, _), ok in zip(rows, kept) if not ok)
            assert verdict.modified_sequences == modified, (corpus_seed, model_name, component.path)
            assert verdict.total_sequences == len(rows)
            seen.update(kept)
    assert seen == {True, False}


def test_decode_greedy_matches_the_oracle(cases):
    for corpus_seed, model_name, model, release, _ in cases:
        rows = [r[2] for c in release.components for r in _rows(c, model.vocabulary)]
        for ids in rows[:20]:
            got = decode_greedy(encode(ids, model)[1], model)
            assert got == greedy_decode(model, ids), (corpus_seed, model_name, ids)


# the default, and a limit of a few rows per block at the desk width
@pytest.mark.parametrize(
    "block_limit",
    [model_module.CHECK_BLOCK_TOKEN_UNITS, 32 * 150],
    ids=["default", "several_blocks"],
)
def test_validation_pairs_match_greedy_decoding(cases, block_limit, monkeypatch):
    monkeypatch.setattr(model_module, "CHECK_BLOCK_TOKEN_UNITS", block_limit)
    seen = set()
    differing = 0
    for corpus_seed, model_name, model, _, pairs in cases:
        vocab = model.vocabulary
        inputs = [vocab.encode(p.input.tokens) for p in pairs]
        targets = [vocab.encode(p.target.tokens) for p in pairs]
        differing += sum(i != t for i, t in zip(inputs, targets))
        expected = _oracle(model, inputs, targets)
        assert greedy_reproduces(model, inputs, targets) == expected, (corpus_seed, model_name)
        assert exact_match_rate(model, pairs) == sum(expected) / len(pairs)
        seen.update(expected)
    assert differing > 0
    assert seen == {True, False}


def test_each_distinct_row_reaches_the_model_once(cases, monkeypatch):
    received = []
    block = model_module._reproduces_block

    def spy(model, inputs, targets):
        received.extend(zip(map(tuple, inputs), map(tuple, targets)))
        return block(model, inputs, targets)

    monkeypatch.setattr(model_module, "_reproduces_block", spy)
    monkeypatch.setattr(model_module, "CHECK_BLOCK_TOKEN_UNITS", 32 * 300)
    for corpus_seed, model_name, model, _, pairs in cases:
        vocab = model.vocabulary
        inputs = [vocab.encode(p.input.tokens) for p in pairs]
        targets = [vocab.encode(p.target.tokens) for p in pairs]
        # the same rows again, in reverse order, as lists of their own
        inputs += [list(i) for i in reversed(inputs)]
        targets += [list(t) for t in reversed(targets)]
        rows = list(zip(map(tuple, inputs), map(tuple, targets)))
        received.clear()
        got = greedy_reproduces(model, inputs, targets)
        assert sorted(received) == sorted(set(rows)), (corpus_seed, model_name)
        assert got == _oracle(model, inputs, targets), (corpus_seed, model_name)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=20))
def test_first_copies_are_the_earliest_rows_in_first_seen_order(keys):
    # the identity check and the training step both take their rows from here
    first, slot = _first_copies(keys)
    assert first == [b for b, key in enumerate(keys) if key not in keys[:b]]
    assert len(slot) == len(keys)
    for b, j in enumerate(slot):
        assert keys[first[j]] == keys[b]


def test_equal_inputs_with_different_targets_match_greedy_decoding(cases):
    seen = set()
    for corpus_seed, model_name, model, release, _ in cases:
        rows = [r[2] for c in release.components for r in _rows(c, model.vocabulary)]
        # every input against itself, the next row and a one-token edit
        inputs, targets = [], []
        for k, ids in enumerate(rows[:40]):
            for target in (ids, rows[(k + 1) % len(rows)], ids[:-1] + [ids[-1] ^ 1]):
                inputs.append(ids)
                targets.append(target)
        expected = _oracle(model, inputs, targets)
        assert greedy_reproduces(model, inputs, targets) == expected, (corpus_seed, model_name)
        seen.update(expected)
    assert seen == {True, False}


def test_release_with_repeated_chunks_matches_greedy_decoding(cases):
    for corpus_seed, model_name, model, release, _ in cases:
        twice = release.components + tuple(
            dataclasses.replace(c, path=f"copy/{c.path}") for c in release.components
        )
        release = dataclasses.replace(release, components=twice)
        chunks = [
            tuple(r[2]) for c in release.components for r in _rows(c, model.vocabulary)
        ]
        assert len(set(chunks)) <= len(chunks) // 2
        verdicts = predict_release(model, release)
        for component, verdict in zip(release.components, verdicts):
            rows = _rows(component, model.vocabulary)
            ids = [r[2] for r in rows]
            kept = _oracle(model, ids, ids)
            modified = tuple((fn, chunk) for (fn, chunk, _), ok in zip(rows, kept) if not ok)
            assert verdict.modified_sequences == modified, (corpus_seed, model_name, component.path)
        half = len(verdicts) // 2
        assert [v.modified_sequences for v in verdicts[:half]] == [
            v.modified_sequences for v in verdicts[half:]
        ]


def test_unk_ids_match_greedy_decoding(cases):
    for _, _, model, release, _ in cases:
        rows = [r[2] for c in release.components for r in _rows(c, model.vocabulary)]
        crafted = [[UNK if k % 3 == 0 else i for k, i in enumerate(ids)] for ids in rows]
        crafted += [[UNK], [UNK] * 5]
        assert greedy_reproduces(model, crafted, crafted) == _oracle(model, crafted, crafted)


def _forced(token):
    """An untrained model whose every greedy step emits ``token``."""
    corpus = generate_synthetic_corpus(3, SynthesisSpec(n_releases=2, components_per_release=4))
    model = init_model(SMALL, vocabulary_from_pairs(_pairs(corpus)))
    model.params["out_b"][:] = 0.0
    model.params["out_b"][token] = 100.0
    return model


def test_targets_holding_eos_count_as_modified():
    model = _forced(EOS)
    inputs = [[4], [4, 5], [4]]
    targets = [[EOS], [4, EOS], []]
    expected = _oracle(model, inputs, targets)
    assert expected == [False, False, True]
    assert greedy_reproduces(model, inputs, targets) == expected


def test_length_cap_matches_greedy_decoding():
    model = _forced(4)
    cap = MAX_DECODE_LENGTH
    lengths = (cap - 1, cap, cap + 1)
    inputs = [[4] * n for n in lengths]
    expected = _oracle(model, inputs, inputs)
    assert expected == [False, True, False]
    assert greedy_reproduces(model, inputs, inputs) == expected


def test_all_equal_logits_break_ties_like_greedy_decoding():
    model = _forced(4)
    for name in model.params:
        model.params[name][:] = 0.0
    cap = MAX_DECODE_LENGTH
    inputs = [[4], [PAD] * cap, [PAD] * (cap - 1)]
    targets = [[PAD] * cap, [PAD] * cap, [PAD] * (cap - 1)]
    expected = _oracle(model, inputs, targets)
    assert expected == [True, True, False]
    assert greedy_reproduces(model, inputs, targets) == expected


def test_bad_inputs_raise_like_encode():
    model = _forced(4)
    v = model.vocabulary.size()
    for bad in ([], [4, v], [-1]):
        with pytest.raises(ShapeError) as from_encode:
            encode(bad, model)
        with pytest.raises(ShapeError) as from_check:
            greedy_reproduces(model, [[4], bad], [[4], [4]])
        assert str(from_check.value) == str(from_encode.value)
    with pytest.raises(ShapeError):
        greedy_reproduces(model, [[4]], [])
    assert greedy_reproduces(model, [], []) == []


def test_out_of_range_targets_never_match():
    model = _forced(4)
    v = model.vocabulary.size()
    assert greedy_reproduces(model, [[4], [4]], [[v], [-1]]) == [False, False]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mixed_blocks_match_greedy_decoding(noised, data):
    for model, chunks in noised:
        ids = st.integers(0, model.vocabulary.size() - 1)
        inputs, targets = [], []
        for _ in range(data.draw(st.integers(1, 8))):
            row = data.draw(st.sampled_from(chunks) | st.lists(ids, min_size=1, max_size=50))
            if data.draw(st.booleans()):
                target = row
            else:
                target = data.draw(st.lists(ids, max_size=MAX_DECODE_LENGTH))
            inputs.append(row)
            targets.append(target)
        assert greedy_reproduces(model, inputs, targets) == _oracle(model, inputs, targets)


def test_block_size_follows_the_model_width(monkeypatch):
    """A wider model checks the same rows in more, smaller blocks."""
    base = load_model(str(CHECKPOINT))
    rng = np.random.default_rng(0)
    v = base.vocabulary.size()
    rows = [rng.integers(4, v, size=int(rng.integers(20, 51))).tolist() for _ in range(64)]
    blocks = []
    block = model_module._reproduces_block

    def spy(model, inputs, targets):
        blocks.append(len(inputs))
        return block(model, inputs, targets)

    monkeypatch.setattr(model_module, "_reproduces_block", spy)
    counts = {}
    for hidden in (32, 256):
        model = init_model(dataclasses.replace(base.config, hidden_units=hidden), base.vocabulary)
        blocks.clear()
        tracemalloc.start()
        try:
            greedy_reproduces(model, rows, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(blocks) == len(rows)
        # the padded runner checked these rows as one block, peaking at
        # 1.3 MB at hidden 32 and 13.3 MB at hidden 256
        assert peak < 15.8e6, f"hidden {hidden}: peak {peak / 1e6:.2f} MB"
        counts[hidden] = len(blocks)
    assert counts[256] > counts[32]
