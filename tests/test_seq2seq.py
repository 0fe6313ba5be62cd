import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnseq.abstraction import AbstractedSequence, SeqRole
from vulnseq.errors import (
    ConfigError,
    CorruptCheckpoint,
    EmptyCorpus,
    NumericalError,
    ShapeError,
    VersionError,
)
from vulnseq.pairing import PairKind, TrainingPair
from vulnseq.seq2seq import (
    EOS,
    PAD,
    SOS,
    UNK,
    ModelConfig,
    Seq2SeqModel,
    TrainingState,
    build_vocabulary,
    compute_loss_and_grads,
    decode_greedy,
    encode,
    exact_match_rate,
    init_model,
    load_model,
    recurrent_cell,
    save_model,
    softmax,
    split_holdout,
    train,
    train_step,
    vocabulary_from_pairs,
)
from vulnseq.seq2seq.model import MAX_DECODE_LENGTH, parameter_shapes
from vulnseq.seq2seq.train import _global_norm
from vulnseq.seq2seq.vocab import Vocabulary


def _seq(tokens, name="f", chunk=0, role=SeqRole.NON_VULNERABLE):
    return AbstractedSequence(tuple(tokens), "p.c", name, chunk, role)


def _pair(inp, tgt, kind=PairKind.VULN_TO_FIXED, name="f", chunk=0):
    return TrainingPair(
        _seq(inp, name, chunk, SeqRole.VULN_BEFORE),
        _seq(tgt, name, chunk, SeqRole.FIXED_AFTER),
        kind,
    )


TINY = ModelConfig(embedding_dim=3, hidden_units=4, seed=7)

GRAD_PAIRS = [
    _pair(list("abcde"), list("abfde"), name="g1"),
    _pair(list("ab"), list("ab"), PairKind.FIXED_TO_FIXED, name="g2"),
    _pair(list("cdeab"), [], name="g3"),  # empty target: learn to emit EOS
]


def _tiny_model(seed=7):
    vocab = vocabulary_from_pairs(GRAD_PAIRS)
    return init_model(dataclasses.replace(TINY, seed=seed), vocab)


# ------------------------------------------------------------- vocabulary


def test_vocabulary_reserved_indices():
    vocab = build_vocabulary([_seq(["F_1", "V_1", "if", "(", ")"])])
    assert (PAD, SOS, EOS, UNK) == (0, 1, 2, 3)
    assert vocab.size() == 4 + 5
    assert vocab.index_to_token[:4] == ("<pad>", "<sos>", "<eos>", "<unk>")


def test_vocabulary_order_count_desc_then_lexicographic():
    vocab = build_vocabulary([_seq(["b", "b", "a", "c", "c"])])
    assert vocab.index_to_token[4:] == ("b", "c", "a")


def test_vocabulary_min_count_maps_rare_tokens_to_unk():
    vocab = build_vocabulary([_seq(["x", "x", "y"])], min_count=2)
    assert "y" not in vocab.token_to_index
    assert vocab.encode(["x", "y"]) == [4, UNK]


@pytest.mark.parametrize("marker, index", [("<eos>", EOS), ("<unk>", UNK)])
def test_a_data_token_spelled_like_a_reserved_marker_takes_its_index(marker, index):
    vocab = build_vocabulary([_seq(["x", marker, marker, "y"])])
    assert vocab.index_to_token.count(marker) == 1
    assert vocab.size() == 4 + 2
    assert vocab.encode(["x", marker]) == [vocab.token_to_index["x"], index]


def test_vocabulary_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([])
    with pytest.raises(EmptyCorpus):
        build_vocabulary([_seq([])])


def test_vocabulary_round_trip():
    vocab = build_vocabulary([_seq(["F_1", "(", ")", ";"])])
    tokens = ["F_1", "(", ")", ";"]
    assert vocab.decode(vocab.encode(tokens)) == tokens


# ---------------------------------------------------------- cell + encode


def test_zero_params_zero_cell_state_gives_zero_output():
    params = {"W": np.zeros((3, 8)), "U": np.zeros((2, 8)), "b": np.zeros(8)}
    h, c = recurrent_cell(np.array([5.0, -3.0, 2.0]), np.array([0.7, -0.7]), np.zeros(2), params)
    assert np.array_equal(h, np.zeros(2))
    assert np.array_equal(c, np.zeros(2))


def test_single_unit_cell_matches_hand_evaluation():
    params = {
        "W": np.array([[0.1, 0.2, 0.3, 0.4]]),
        "U": np.array([[0.5, 0.6, 0.7, 0.8]]),
        "b": np.array([0.01, 0.02, 0.03, 0.04]),
    }
    h, c = recurrent_cell(np.array([0.5]), np.array([0.2]), np.array([0.1]), params)
    z = [0.5 * w + 0.2 * u + b for w, u, b in zip([0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8], [0.01, 0.02, 0.03, 0.04])]
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i, f, g, o = sig(z[0]), sig(z[1]), math.tanh(z[2]), sig(z[3])
    c_ref = f * 0.1 + i * g
    h_ref = o * math.tanh(c_ref)
    assert abs(c[0] - c_ref) < 1e-15
    assert abs(h[0] - h_ref) < 1e-15


def test_cell_output_bounded_by_one():
    rng = np.random.default_rng(3)
    params = {"W": rng.normal(size=(5, 16)) * 3, "U": rng.normal(size=(4, 16)) * 3, "b": rng.normal(size=16) * 3}
    h, c = recurrent_cell(rng.normal(size=5) * 10, rng.normal(size=4), rng.normal(size=4), params)
    assert np.all(np.abs(h) <= 1.0)
    assert np.all(np.isfinite(c))


def test_cell_shape_mismatch_rejected():
    params = {"W": np.zeros((3, 8)), "U": np.zeros((2, 8)), "b": np.zeros(8)}
    with pytest.raises(ShapeError):
        recurrent_cell(np.zeros(3), np.zeros(3), np.zeros(2), params)
    with pytest.raises(ShapeError):
        recurrent_cell(np.zeros(4), np.zeros(2), np.zeros(2), params)
    with pytest.raises(ShapeError):
        recurrent_cell(np.zeros((4, 3)), np.zeros(2), np.zeros(2), params)


def test_encode_length_one_input():
    model = _tiny_model()
    outputs, init = encode([4], model)
    assert outputs.shape == (1, 2 * TINY.hidden_units)
    assert len(init) == 2
    for h, c in init:
        assert h.shape == (TINY.hidden_units,)
        assert c.shape == (TINY.hidden_units,)


def test_encode_output_length_matches_input():
    model = _tiny_model()
    outputs, _ = encode([4, 5, 6, 4], model)
    assert outputs.shape == (4, 2 * TINY.hidden_units)


def test_encode_rejects_bad_ids_and_empty_input():
    model = _tiny_model()
    with pytest.raises(ShapeError):
        encode([], model)
    with pytest.raises(ShapeError):
        encode([model.vocabulary.size()], model)


def test_encode_reverse_symmetry_with_tied_directions():
    model = _tiny_model()
    h = model.config.hidden_units
    for part in ("W", "U", "b"):
        model.params[f"enc_bwd_{part}"] = model.params[f"enc_fwd_{part}"].copy()
    ids = [4, 5, 6, 7, 4, 6]
    fwd_out, _ = encode(ids, model)
    rev_out, _ = encode(ids[::-1], model)
    n = len(ids)
    for i in range(n):
        swapped = np.concatenate([rev_out[n - 1 - i, h:], rev_out[n - 1 - i, :h]])
        assert np.array_equal(fwd_out[i], swapped)


def test_packed_batch_encoder_matches_single_encode_and_the_padded_oracle():
    from padded_oracle import encode_batch

    from vulnseq.seq2seq.model import _encode_rows

    model = _tiny_model()
    rng = np.random.default_rng(0)
    batches = [[[4, 5, 6, 7, 5], [6, 4]]] + [
        [rng.integers(4, 10, size=int(rng.integers(1, 9))).tolist() for _ in range(n)]
        for n in (1, 3, 6, 6, 9)
    ]
    for rows in batches:
        ids = np.full((len(rows), max(map(len, rows))), PAD, dtype=np.int64)
        mask = np.zeros(ids.shape)
        for b, row in enumerate(rows):
            ids[b, : len(row)] = row
            mask[b, : len(row)] = 1.0
        outputs, _, _ = encode_batch(model, ids, mask)
        _, oracle, _ = encode_batch(model, ids, mask, states_only=True)
        init = _encode_rows(model.params, rows, np.arange(len(rows)))[-1]
        for b, row in enumerate(rows):
            out, single = encode(row, model)
            assert np.allclose(out, outputs[b, : len(row)], rtol=0, atol=1e-12)
            for layer in range(2):
                for k in range(2):
                    assert np.allclose(init[layer][k][b], single[layer][k], rtol=0, atol=1e-12)
                    assert np.allclose(init[layer][k][b], oracle[layer][k][b], rtol=0, atol=1e-12)


# --------------------------------------------------------------- decoding


def test_softmax_sums_to_one_even_for_extreme_logits():
    z = np.array([[1000.0, -1000.0, 3.0], [0.0, 0.0, 0.0]])
    p = softmax(z)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-6)


def test_forced_eos_gives_empty_output():
    model = _tiny_model()
    model.params["out_b"][:] = 0.0
    model.params["out_b"][EOS] = 100.0
    _, init = encode([4, 5], model)
    assert decode_greedy(init, model) == []


def test_decode_respects_length_cap():
    model = _tiny_model()
    model.params["out_b"][:] = 0.0
    model.params["out_b"][4] = 100.0  # never EOS
    _, init = encode([4, 5], model)
    out = decode_greedy(init, model)
    assert len(out) == MAX_DECODE_LENGTH
    assert set(out) == {4}


def test_decode_tie_breaks_to_lowest_index():
    model = _tiny_model()
    for name in model.params:
        model.params[name][:] = 0.0
    _, init = encode([4], model)
    out = decode_greedy(init, model)
    # all logits equal: argmax picks index 0 (PAD), never reaching EOS
    assert out == [PAD] * MAX_DECODE_LENGTH


# ------------------------------------------------------ loss and gradients


def test_loss_is_mean_of_per_pair_losses():
    model = _tiny_model()
    batch_loss, _ = compute_loss_and_grads(model, GRAD_PAIRS)
    singles = [compute_loss_and_grads(model, [p])[0] for p in GRAD_PAIRS]
    assert abs(batch_loss - sum(singles) / len(singles)) < 1e-6


def test_gradients_match_central_finite_differences():
    model = _tiny_model()
    _, grads = compute_loss_and_grads(model, GRAD_PAIRS)
    rng = np.random.default_rng(0)
    checked = 0
    for name in parameter_shapes(model.config, model.vocabulary.size()):
        flat = model.params[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        idxs = rng.choice(flat.size, size=min(25, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            eps = 1e-4 * max(1.0, abs(orig))
            flat[i] = orig + eps
            lp, _ = compute_loss_and_grads(model, GRAD_PAIRS)
            flat[i] = orig - eps
            lm, _ = compute_loss_and_grads(model, GRAD_PAIRS)
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
            assert rel < 1e-4, f"{name}[{i}]: analytic {gflat[i]}, fd {fd}"
            checked += 1
    assert checked >= 25 * 5


def test_zero_learning_rate_is_rejected():
    model = _tiny_model()
    with pytest.raises(ConfigError, match="learning_rate must be positive"):
        dataclasses.replace(model.config, learning_rate=0.0)


def test_nan_parameters_raise_numerical_error_with_step():
    model = _tiny_model()
    model.params["out_W"][0, 0] = np.nan
    state = TrainingState()
    state.step = 17
    with pytest.raises(NumericalError) as err:
        train_step(GRAD_PAIRS, model, state)
    assert "17" in str(err.value)


def test_train_step_increments_step_and_empty_batch_rejected():
    model = _tiny_model()
    state = TrainingState()
    train_step(GRAD_PAIRS, model, state)
    assert state.step == 1
    with pytest.raises(ConfigError):
        train_step([], model, state)
    assert state.step == 1
    with pytest.raises(ConfigError, match="empty batch"):
        compute_loss_and_grads(model, [])


@pytest.mark.parametrize("above_the_cap", [True, False], ids=["above-the-cap", "below-the-cap"])
def test_a_step_moves_each_parameter_by_lr_times_its_clipped_gradient(above_the_cap):
    model = _tiny_model()
    _, grads = compute_loss_and_grads(model, GRAD_PAIRS)
    norm = _global_norm(grads)
    cap = norm / 4 if above_the_cap else norm * 4
    cfg = dataclasses.replace(model.config, learning_rate=0.3, clip_norm=cap)
    model = dataclasses.replace(model, config=cfg)
    before = model.copy_params()
    train_step(GRAD_PAIRS, model, TrainingState())
    for name, g in grads.items():
        step = g * (cap / norm) if above_the_cap else g
        assert np.array_equal(model.params[name], before[name] - cfg.learning_rate * step), name


def test_a_batch_holding_any_empty_input_is_rejected():
    # encode() rejects an empty input, so training must not learn from one
    model = _tiny_model()
    empty = _pair([], list("ab"), name="e")
    for batch in ([empty], GRAD_PAIRS + [empty], [empty] + GRAD_PAIRS):
        with pytest.raises(ShapeError, match="empty input sequence"):
            compute_loss_and_grads(model, batch)


def test_identity_batch_loss_strictly_decreases():
    pairs = [
        _pair(list("abcabc"), list("abcabc"), PairKind.FIXED_TO_FIXED, name="i1"),
        _pair(list("ddee"), list("ddee"), PairKind.FIXED_TO_FIXED, name="i2"),
    ]
    vocab = vocabulary_from_pairs(pairs)
    model = init_model(ModelConfig(hidden_units=32, embedding_dim=32, seed=1), vocab)
    state = TrainingState()
    losses = [train_step(pairs, model, state) for _ in range(200)]
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


# ---------------------------------------------------------------- training


def test_max_steps_zero_returns_initialized_model():
    cfg = dataclasses.replace(TINY, max_steps=0)
    model = train(GRAD_PAIRS, [], cfg)
    reference = init_model(cfg, vocabulary_from_pairs(GRAD_PAIRS))
    for name in reference.params:
        assert np.array_equal(model.params[name], reference.params[name])


def test_train_rejects_empty_pairs():
    with pytest.raises(ConfigError):
        train([], [], TINY)


def test_train_is_deterministic_bit_for_bit(tmp_path):
    cfg = dataclasses.replace(TINY, max_steps=30, iteration_steps=10, batch_size=2)
    a = train(GRAD_PAIRS, [], cfg)
    b = train(GRAD_PAIRS, [], cfg)
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(a, str(pa))
    save_model(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_train_encodes_each_pair_once(monkeypatch):
    encoded = []
    original = Vocabulary.encode

    def counting(self, tokens):
        encoded.append(tuple(tokens))
        return original(self, tokens)

    monkeypatch.setattr(Vocabulary, "encode", counting)
    cfg = dataclasses.replace(TINY, max_steps=30, iteration_steps=10, batch_size=2)
    train(GRAD_PAIRS, [], cfg)
    assert len(encoded) == 2 * len(GRAD_PAIRS)


def test_encoded_batch_gives_the_same_loss_and_grads():
    from vulnseq.seq2seq.train import _encode_pair

    model = _tiny_model()
    encoded = [_encode_pair(model.vocabulary, pair) for pair in GRAD_PAIRS]
    loss, grads = compute_loss_and_grads(model, GRAD_PAIRS)
    loss_e, grads_e = compute_loss_and_grads(model, encoded)
    assert loss == loss_e
    assert grads.keys() == grads_e.keys()
    for name, g in grads.items():
        assert np.array_equal(g, grads_e[name]), name


def test_single_pair_memorization():
    pairs = [_pair(list("abcdefg"), list("abXdefg"))]
    cfg = ModelConfig(
        embedding_dim=16,
        hidden_units=16,
        learning_rate=0.5,
        batch_size=1,
        iteration_steps=50,
        max_steps=400,
        seed=3,
    )
    model = train(pairs, [], cfg)
    assert exact_match_rate(model, pairs) == 1.0
    vocab = model.vocabulary
    _, init = encode(vocab.encode(pairs[0].input.tokens), model)
    assert decode_greedy(init, model) == vocab.encode(pairs[0].target.tokens)


def test_early_stopping_keeps_best_checkpoint():
    pairs = [_pair(list("ab"), list("ab"), PairKind.FIXED_TO_FIXED)]
    cfg = dataclasses.replace(
        TINY, max_steps=100, iteration_steps=10, batch_size=1, learning_rate=0.5
    )
    state = TrainingState()
    train(pairs, pairs, cfg, state)
    assert state.validation_history, "validation was never evaluated"
    rates = [r for _, r in state.validation_history]
    # stopped at the first non-improvement
    for a, b in zip(rates, rates[1:-1]):
        assert b > a
    assert state.step <= cfg.max_steps


def _param_bytes(model):
    return {name: array.tobytes() for name, array in model.params.items()}


def test_early_stopping_returns_the_best_blocks_parameters():
    cfg = dataclasses.replace(
        TINY, max_steps=100, iteration_steps=10, batch_size=1, learning_rate=0.5
    )
    state = TrainingState()
    stopped = train(GRAD_PAIRS, GRAD_PAIRS, cfg, state)
    steps, rates = zip(*state.validation_history)
    assert state.step < cfg.max_steps and rates[-1] <= max(rates[:-1])
    best_step = steps[rates.index(max(rates))]
    assert best_step < state.step, "no block was rolled back"
    # a run stopped after its best block ends with the same bytes
    at_best = train(GRAD_PAIRS, GRAD_PAIRS, dataclasses.replace(cfg, max_steps=best_step))
    assert _param_bytes(stopped) == _param_bytes(at_best)
    # and the rollback mattered: the last block had moved the parameters
    at_stop = train(GRAD_PAIRS, [], dataclasses.replace(cfg, max_steps=state.step))
    assert _param_bytes(stopped) != _param_bytes(at_stop)


def test_training_copies_parameters_only_when_a_rollback_can_follow(monkeypatch):
    from vulnseq.seq2seq.model import Seq2SeqModel

    copies = []
    real_copy = Seq2SeqModel.copy_params

    def spy(model):
        copies.append(model)
        return real_copy(model)

    monkeypatch.setattr(Seq2SeqModel, "copy_params", spy)
    blocks = dataclasses.replace(TINY, max_steps=40, iteration_steps=10, batch_size=1)
    train(GRAD_PAIRS, [], blocks)
    assert copies == [], "no validation: nothing is ever rolled back"
    train(GRAD_PAIRS, GRAD_PAIRS, dataclasses.replace(blocks, max_steps=10))
    assert copies == [], "a single block has nothing to roll back to"
    state = TrainingState()
    train(GRAD_PAIRS, GRAD_PAIRS, blocks, state)
    assert 0 < len(copies) < len(state.validation_history)


def test_validation_config_invariants():
    bad = [
        ({"hidden_units": 0}, "hidden_units must be positive"),
        ({"learning_rate": -0.1}, "learning_rate must be positive"),
        ({"max_steps": -1}, "max_steps must be >= 0"),
        ({"seed": -2}, "seed must be non-negative"),
        ({"hidden_units": "32"}, "hidden_units must be int, got '32'"),
        ({"batch_size": 16.0}, "batch_size must be int, got 16.0"),
        ({"seed": True}, "seed must be int, got True"),
        ({"clip_norm": False}, "clip_norm must be float, got False"),
        ({"learning_rate": "1.0"}, "learning_rate must be float, got '1.0'"),
        ({"learning_rate": 10**400}, "learning_rate is too large for a float"),
        ({"clip_norm": -(10**400)}, "clip_norm is too large for a float"),
    ] + [
        ({name: value}, f"{name} must be finite")
        for name in ("learning_rate", "clip_norm")
        for value in (float("nan"), float("inf"))
    ]
    for values, message in bad:
        with pytest.raises(ConfigError, match=message):
            ModelConfig(**values)
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(TINY, **values)
    assert len(dataclasses.fields(ModelConfig)) == 9
    # an int given for a float field is stored as a float
    cfg = ModelConfig(learning_rate=1, clip_norm=5)
    assert type(cfg.learning_rate) is float and type(cfg.clip_norm) is float
    assert cfg == ModelConfig(learning_rate=1.0, clip_norm=5.0)


def test_model_rejects_missing_extra_or_misshaped_parameters():
    model = _tiny_model()
    name = "dec1_U"
    missing = {k: v for k, v in model.params.items() if k != name}
    extra = dict(model.params, dec2_U=model.params[name])
    misshaped = dict(model.params, **{name: model.params[name].T})
    for params in (missing, extra):
        with pytest.raises(ShapeError, match="parameter names"):
            Seq2SeqModel(model.config, model.vocabulary, params)
    with pytest.raises(ShapeError, match=f"{name}: expected shape"):
        Seq2SeqModel(model.config, model.vocabulary, misshaped)
    with pytest.raises(ShapeError):
        dataclasses.replace(model, config=dataclasses.replace(model.config, hidden_units=5))


def test_split_holdout_disjoint_and_deterministic():
    pairs = [_pair([chr(97 + i)], [chr(97 + i)], PairKind.FIXED_TO_FIXED, name=f"n{i}") for i in range(20)]
    tr1, va1 = split_holdout(pairs, 0.1, seed=5)
    tr2, va2 = split_holdout(pairs, 0.1, seed=5)
    assert tr1 == tr2 and va1 == va2
    assert len(va1) == 2 and len(tr1) == 18
    ids = {id(p) for p in tr1} | {id(p) for p in va1}
    assert len(ids) == 20
    assert split_holdout(pairs, 0.0) == (pairs, [])
    with pytest.raises(ConfigError):
        split_holdout(pairs, 1.0)


def test_exact_match_handles_empty_targets():
    model = _tiny_model()
    model.params["out_b"][:] = 0.0
    model.params["out_b"][EOS] = 100.0
    pairs = [_pair(list("ab"), [])]
    assert exact_match_rate(model, pairs) == 1.0


# ------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    model = _tiny_model()
    path = str(tmp_path / "m.ckpt")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert loaded.vocabulary.index_to_token == model.vocabulary.index_to_token
    for name, tensor in model.params.items():
        assert np.array_equal(loaded.params[name], tensor)
    probe = [4, 5, 6]
    _, init_a = encode(probe, model)
    _, init_b = encode(probe, loaded)
    assert decode_greedy(init_a, model) == decode_greedy(init_b, loaded)


def test_truncated_checkpoint_rejected(tmp_path):
    model = _tiny_model()
    path = tmp_path / "m.ckpt"
    save_model(model, str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorruptCheckpoint):
        load_model(str(path))


def test_flipped_byte_fails_digest(tmp_path):
    model = _tiny_model()
    path = tmp_path / "m.ckpt"
    save_model(model, str(path))
    data = bytearray(path.read_bytes())
    data[100] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptCheckpoint):
        load_model(str(path))


def test_unknown_format_version_rejected(tmp_path):
    import struct

    model = _tiny_model()
    path = tmp_path / "m.ckpt"
    save_model(model, str(path))
    data = bytearray(path.read_bytes())
    body = data[:-32]
    body[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())
    with pytest.raises(VersionError):
        load_model(str(path))


def test_config_tensor_mismatch_is_a_version_error(tmp_path):
    model = _tiny_model()
    path = tmp_path / "m.ckpt"
    save_model(model, str(path))
    data = path.read_bytes()
    body = data[:-32]
    patched = body.replace(b'"hidden_units":4', b'"hidden_units":8')
    assert patched != body
    path.write_bytes(patched + hashlib.sha256(patched).digest())
    with pytest.raises(VersionError):
        load_model(str(path))


def test_vocabulary_holding_a_token_twice_is_a_version_error(tmp_path):
    model = _tiny_model()
    tokens = model.vocabulary.index_to_token
    model.vocabulary = Vocabulary(tokens[:-1] + tokens[-2:-1])
    path = str(tmp_path / "m.ckpt")
    save_model(model, path)
    with pytest.raises(VersionError, match="vocabulary holds a token twice"):
        load_model(path)


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    """A small checkpoint's path and its bytes; tests may overwrite it."""
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_model(_tiny_model(), str(path))
    return path, path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_checkpoints_raise_only_checkpoint_errors(checkpoint_file, cut):
    path, raw = checkpoint_file
    path.write_bytes(raw[: int(cut * len(raw))])
    with pytest.raises((CorruptCheckpoint, VersionError)):
        load_model(str(path))


@settings(max_examples=400, deadline=None)
@given(at=st.floats(0.0, 1.0, exclude_max=True), mask=st.integers(1, 255), resign=st.booleans())
def test_flipped_checkpoints_raise_only_checkpoint_errors(checkpoint_file, at, mask, resign):
    # re-signed, the flip gets past the digest to the parser and the checks
    path, raw = checkpoint_file
    body = bytearray(raw[:-32])
    body[int(at * len(body))] ^= mask
    path.write_bytes(bytes(body) + (hashlib.sha256(body).digest() if resign else raw[-32:]))
    try:
        load_model(str(path))
    except (CorruptCheckpoint, VersionError):
        return
    assert resign  # a stale digest always fails
