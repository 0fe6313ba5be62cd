"""The training step against its oracle, a padded per-step path.

``compute_loss_and_grads`` packs each batch time-major with its rows
sorted longest first, so no array holds padding; it hoists every layer's
input projection out of its time loop, runs each encoder direction and
each decoder layer as one 2-D layer run and defers the weight gradients
to one GEMM per layer. The oracle below is an earlier implementation,
kept verbatim apart from its padded-batch builder ``_arrays``; its
forward steps, ``lstm_step`` and ``encode_batch``, live in
``padded_oracle``. It runs right-padded, masked
(B, T) batches in batch order, one ``lstm_step`` per layer and timestep,
with the piecewise sigmoid, a per-step backprop cache, and per-step
weight-gradient GEMMs and embedding scatters. The two sum in a different
order, so they agree to rounding, not bit for bit.
"""

import ctypes
import dataclasses
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnseq.abstraction import AbstractedSequence, SeqRole
from vulnseq.cli import main
from vulnseq.pairing import PairKind, TrainingPair
from vulnseq.seq2seq import (
    ModelConfig,
    compute_loss_and_grads,
    init_model,
    train,
    vocabulary_from_pairs,
)
from vulnseq.seq2seq import model as model_module
from vulnseq.seq2seq.model import Seq2SeqModel
from vulnseq.seq2seq.vocab import EOS, PAD, SOS

from padded_oracle import encode_batch, lstm_step

# ---------------------------------------------------------------- oracle


def _arrays(batch: list[TrainingPair], vocab):
    """Right-padded (B, T) id arrays and masks for the encoder and decoder."""
    enc = [vocab.encode(p.input.tokens) for p in batch]
    tgt = [vocab.encode(p.target.tokens) for p in batch]
    t_in = max(len(s) for s in enc)
    t_out = max(len(s) for s in tgt) + 1  # room for EOS
    n = len(batch)
    enc_ids = np.full((n, t_in), PAD, dtype=np.int64)
    enc_mask = np.zeros((n, t_in))
    dec_in = np.full((n, t_out), PAD, dtype=np.int64)
    dec_tgt = np.full((n, t_out), PAD, dtype=np.int64)
    dec_mask = np.zeros((n, t_out))
    for b, (e, t) in enumerate(zip(enc, tgt)):
        enc_ids[b, : len(e)] = e
        enc_mask[b, : len(e)] = 1.0
        dec_in[b, 0] = SOS
        dec_in[b, 1 : len(t) + 1] = t
        dec_tgt[b, : len(t)] = t
        dec_tgt[b, len(t)] = EOS
        dec_mask[b, : len(t) + 1] = 1.0
    return enc_ids, enc_mask, dec_in, dec_tgt, dec_mask


def _cell_backward(x, h_prev, c_prev, gates, c_new, dh, dc, W, U):
    i, f, g, o = gates
    tc = np.tanh(c_new)
    do = dh * tc
    dc_total = dc + dh * o * (1.0 - tc * tc)
    di = dc_total * g
    df = dc_total * c_prev
    dg = dc_total * i
    dc_prev = dc_total * f
    dz = np.concatenate(
        [di * i * (1 - i), df * f * (1 - f), dg * (1 - g * g), do * o * (1 - o)],
        axis=1,
    )
    dW = x.T @ dz
    dU = h_prev.T @ dz
    db = dz.sum(axis=0)
    dx = dz @ W.T
    dh_prev = dz @ U.T
    return dx, dh_prev, dc_prev, dW, dU, db


def oracle_loss_and_grads(model: Seq2SeqModel, batch: list[TrainingPair]):
    """Full forward/backward over one batch, one cell call per step."""
    p = model.params
    vocab = model.vocabulary
    enc_ids, enc_mask, dec_in, dec_tgt, dec_mask = _arrays(batch, vocab)
    n, t_out = dec_in.shape
    h_units = model.config.hidden_units

    _, init, enc_cache = encode_batch(model, enc_ids, enc_mask)

    # ---- decoder forward (teacher forcing), caching per step
    dec_caches = []
    logits = np.zeros((n, t_out, vocab.size()))
    (h0, c0), (h1, c1) = init
    X_dec = p["embedding"][dec_in]
    for t in range(t_out):
        x0 = X_dec[:, t]
        h0n, c0n, g0 = lstm_step(x0, h0, c0, p["dec0_W"], p["dec0_U"], p["dec0_b"])
        h1n, c1n, g1 = lstm_step(h0n, h1, c1, p["dec1_W"], p["dec1_U"], p["dec1_b"])
        logits[:, t] = h1n @ p["out_W"] + p["out_b"]
        dec_caches.append((x0, h0, c0, g0, c0n, h0n, h1, c1, g1, c1n, h1n))
        h0, c0, h1, c1 = h0n, c0n, h1n, c1n

    # ---- loss: mean over pairs of per-pair mean token cross-entropy
    zmax = logits.max(axis=2, keepdims=True)
    lse = zmax[:, :, 0] + np.log(np.exp(logits - zmax).sum(axis=2))
    picked = np.take_along_axis(logits, dec_tgt[:, :, None], axis=2)[:, :, 0]
    nll = (lse - picked) * dec_mask
    per_pair = nll.sum(axis=1) / dec_mask.sum(axis=1)
    loss = float(per_pair.mean())

    # ---- backward
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    probs = np.exp(logits - lse[:, :, None])
    weight = (dec_mask / dec_mask.sum(axis=1, keepdims=True)) / n
    dlogits = probs * weight[:, :, None]
    np.put_along_axis(
        dlogits,
        dec_tgt[:, :, None],
        np.take_along_axis(dlogits, dec_tgt[:, :, None], axis=2) - weight[:, :, None],
        axis=2,
    )

    dh0 = np.zeros((n, h_units))
    dc0 = np.zeros((n, h_units))
    dh1 = np.zeros((n, h_units))
    dc1 = np.zeros((n, h_units))
    for t in range(t_out - 1, -1, -1):
        x0, h0p, c0p, g0, c0n, h0n, h1p, c1p, g1, c1n, h1n = dec_caches[t]
        dl = dlogits[:, t]
        grads["out_W"] += h1n.T @ dl
        grads["out_b"] += dl.sum(axis=0)
        dh1 = dh1 + dl @ p["out_W"].T
        dx1, dh1, dc1, dW, dU, db = _cell_backward(
            h0n, h1p, c1p, g1, c1n, dh1, dc1, p["dec1_W"], p["dec1_U"]
        )
        grads["dec1_W"] += dW
        grads["dec1_U"] += dU
        grads["dec1_b"] += db
        dh0 = dh0 + dx1
        dx0, dh0, dc0, dW, dU, db = _cell_backward(
            x0, h0p, c0p, g0, c0n, dh0, dc0, p["dec0_W"], p["dec0_U"]
        )
        grads["dec0_W"] += dW
        grads["dec0_U"] += dU
        grads["dec0_b"] += db
        np.add.at(grads["embedding"], dec_in[:, t], dx0)

    # ---- bridge backward; collect gradients w.r.t. final encoder states
    dh_cat = np.zeros_like(enc_cache["h_cat"])
    dc_cat = np.zeros_like(enc_cache["c_cat"])
    for layer, d_init in enumerate(((dh0, dc0), (dh1, dc1))):
        for kind, cat, dcat, d_state, idx in (
            ("h", enc_cache["h_cat"], dh_cat, d_init[0], 0),
            ("c", enc_cache["c_cat"], dc_cat, d_init[1], 1),
        ):
            bridged = enc_cache["bridge"][layer][idx]
            dpre = d_state * (1.0 - bridged * bridged)
            grads[f"bridge_{kind}{layer}_W"] += cat.T @ dpre
            grads[f"bridge_{kind}{layer}_b"] += dpre.sum(axis=0)
            dcat += dpre @ p[f"bridge_{kind}{layer}_W"].T

    # ---- encoder backward, one direction at a time
    for direction, sl in (("fwd", slice(0, h_units)), ("bwd", slice(h_units, 2 * h_units))):
        dh = dh_cat[:, sl].copy()
        dc = dc_cat[:, sl].copy()
        W = p[f"enc_{direction}_W"]
        U = p[f"enc_{direction}_U"]
        for t_step, x, h_prev, c_prev, gates, c_new, m in reversed(
            enc_cache["steps"][direction]
        ):
            dh_new = dh * m
            dc_new = dc * m
            dx, dh_prev, dc_prev, dW, dU, db = _cell_backward(
                x, h_prev, c_prev, gates, c_new, dh_new, dc_new, W, U
            )
            grads[f"enc_{direction}_W"] += dW
            grads[f"enc_{direction}_U"] += dU
            grads[f"enc_{direction}_b"] += db
            dh = dh_prev + dh * (1.0 - m)
            dc = dc_prev + dc * (1.0 - m)
            np.add.at(grads["embedding"], enc_ids[:, t_step], dx)
    return loss, grads



# ----------------------------------------------------------------- cases

ALPHABET = [f"t{i}" for i in range(24)]


def _pair(inp, tgt, name):
    return TrainingPair(
        AbstractedSequence(tuple(inp), "p.c", name, 0, SeqRole.VULN_BEFORE),
        AbstractedSequence(tuple(tgt), "p.c", name, 0, SeqRole.FIXED_AFTER),
        PairKind.VULN_TO_FIXED,
    )


def _tokens(rng, length):
    return [ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=length)]


def _batch(seed, lengths):
    """Pairs with the given (input, target) lengths and seeded tokens."""
    rng = np.random.default_rng(seed)
    return [
        _pair(_tokens(rng, a), _tokens(rng, b), f"f{k}") for k, (a, b) in enumerate(lengths)
    ]


def _ragged(seed, size=16):
    """Uneven lengths, with a 1-token and a 50-token input and an empty target."""
    rng = np.random.default_rng(1000 + seed)
    lengths = [(1, 3), (50, 47), (9, 0)]
    lengths += [(int(a), int(b)) for a, b in rng.integers(1, 51, size=(size - 3, 2))]
    return _batch(seed, lengths)


BATCHES = {
    "ragged": _ragged,
    "batch of 1": lambda seed: _batch(seed, [(7, 5)]),
    "single 1-token input, empty target": lambda seed: _batch(seed, [(1, 0)]),
    "single 50-token input": lambda seed: _batch(seed, [(50, 50)]),
    "equal lengths": lambda seed: _batch(seed, [(12, 12)] * 4),
    # the encoder and decoder sort the rows in opposite orders
    "input order reverses target order": lambda seed: _batch(
        seed, [(4, 40), (9, 31), (17, 20), (26, 12), (38, 3), (50, 0)]
    ),
    "tied lengths": lambda seed: _batch(
        seed, [(8, 6), (3, 6), (8, 6), (8, 2), (3, 2), (3, 6)]
    ),
    "duplicate pairs": lambda seed: _duplicated(_batch(seed, [(11, 7), (5, 13), (20, 1)])),
    "16 copies of one pair": lambda seed: _batch(seed, [(13, 9)]) * 16,
    # a step runs each distinct pair once, plus a second copy of a repeated
    # pair whose input or target is the batch's one longest
    "repeated strictly-longest input": lambda seed: _with_copies(
        _batch(seed, [(30, 5), (10, 8), (12, 3), (6, 8)]), 2
    ),
    "repeated strictly-longest target": lambda seed: _with_copies(
        _batch(seed, [(5, 30), (10, 8), (12, 3), (10, 12)]), 2
    ),
    "repeated 1-token input, empty target": lambda seed: _with_copies(_batch(seed, [(1, 0)]), 2),
    "equal tokens, different kinds and paths": lambda seed: _relabelled(
        _batch(seed, [(10, 6), (4, 15), (21, 21)])
    ),
}


def _duplicated(batch):
    return batch + [batch[1], batch[0], batch[1]]


def _with_copies(batch, copies):
    """batch, with copies more copies of its first pair spread through it."""
    out = list(batch)
    for k in range(copies):
        out.insert(len(out) * (k + 1) // (copies + 1), batch[0])
    return out


def _relabelled(batch):
    """batch, then its pairs again under every other kind and another path."""
    out = list(batch)
    for k, kind in enumerate(PairKind):
        for pair in batch:
            if kind is not pair.kind:
                seq = dataclasses.replace(pair.input, source_path=f"q{k}.c", function_name="g")
                out.append(dataclasses.replace(pair, input=seq, kind=kind))
    return out


def _model(batch, hidden, seed):
    cfg = ModelConfig(embedding_dim=32, hidden_units=hidden, seed=seed)
    model = init_model(cfg, vocabulary_from_pairs(batch))
    # spread the weights beyond the uniform init, so gates saturate too
    rng = np.random.default_rng(seed)
    for value in model.params.values():
        value += rng.normal(scale=0.3, size=value.shape)
    return model


# ---------------------------------------------------------------- parity


@pytest.mark.parametrize("name", list(BATCHES))
@pytest.mark.parametrize("hidden", [7, 32, 64])  # an odd width leaves partial SIMD vectors
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_and_grads_match_the_oracle(name, hidden, seed):
    batch = BATCHES[name](seed)
    model = _model(batch, hidden, seed)
    loss, grads = compute_loss_and_grads(model, batch)
    ref_loss, ref_grads = oracle_loss_and_grads(model, batch)
    assert abs(loss - ref_loss) <= 1e-9 * abs(ref_loss)
    assert list(grads) == list(ref_grads)
    for key, ref in ref_grads.items():
        got = grads[key]
        assert got.shape == ref.shape and got.dtype == np.float64
        scale = float(np.abs(ref).max())  # 0 for enc U on a 1-token input
        err = float(np.abs(got - ref).max())
        assert err <= 1e-9 * scale, f"{key}: max error {err:.3e} of largest {scale:.3e}"


def test_batches_cover_the_ragged_cases():
    enc_ids, enc_mask, _, _, dec_mask = _arrays(_ragged(0), vocabulary_from_pairs(_ragged(0)))
    lengths = enc_mask.sum(axis=1)
    assert len(lengths) == 16 and lengths.min() == 1 and lengths.max() == 50
    assert len(set(lengths.tolist())) > 8
    assert dec_mask.sum(axis=1).min() == 1  # an empty target: EOS alone
    batch = BATCHES["input order reverses target order"](0)
    inputs = [len(p.input.tokens) for p in batch]
    targets = [len(p.target.tokens) for p in batch]
    assert inputs == sorted(set(inputs)) and targets == sorted(set(targets), reverse=True)
    copies = BATCHES["16 copies of one pair"](0)
    assert len(copies) == 16 and len({(p.input.tokens, p.target.tokens) for p in copies}) == 1
    relabelled = BATCHES["equal tokens, different kinds and paths"](0)
    assert len({(p.input.tokens, p.target.tokens) for p in relabelled}) == 3
    assert len(set(relabelled)) == len(relabelled) == 9
    for name, side in [
        ("repeated strictly-longest input", 0),
        ("repeated strictly-longest target", 1),
        ("repeated 1-token input, empty target", 0),
    ]:
        rows = [(p.input.tokens, p.target.tokens) for p in BATCHES[name](0)]
        longest = max(rows, key=lambda r: len(r[side]))
        assert rows.count(longest) == 3
        assert [len(r[side]) for r in set(rows)].count(len(longest[side])) == 1


def test_a_repeated_pair_runs_once(monkeypatch):
    seen, run = [], model_module._packed_lstm_forward

    def spy(Z, h, c, Ua, packing):
        assert Z.ndim == h.ndim == c.ndim == Ua.ndim == 2
        seen.append(len(h))
        return run(Z, h, c, Ua, packing)

    monkeypatch.setattr(model_module, "_packed_lstm_forward", spy)
    for batch, rows in [
        # the pair's second copy keeps each step's product at two rows, off
        # GEMV, as at sixteen
        (BATCHES["16 copies of one pair"](0), 2),
        # no repeats: every row, once
        (_ragged(0), 16),
        # four distinct pairs, and one second copy for the pair that holds
        # both the longest input and the longest target
        (_with_copies(_batch(0, [(30, 30), (10, 8), (12, 3), (6, 8)]), 2), 5),
    ]:
        seen.clear()
        compute_loss_and_grads(_model(batch, 32, 0), batch)
        # the encoder's two directions, then decoder layers 0 and 1, each
        # one 2-D layer run
        assert seen == [rows] * 4


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 20), st.integers(0, 20)), min_size=1, max_size=8)
    .flatmap(lambda lengths: st.tuples(st.just(lengths), st.permutations(range(len(lengths)))))
)
def test_permuting_a_batch_keeps_its_loss_and_grads(case):
    lengths, order = case
    batch = _batch(0, lengths)
    model = _model(batch, 32, 0)
    loss, grads = compute_loss_and_grads(model, batch)
    loss_p, grads_p = compute_loss_and_grads(model, [batch[i] for i in order])
    assert abs(loss_p - loss) <= 1e-12 * abs(loss)
    for key, g in grads.items():
        assert np.abs(grads_p[key] - g).max() <= 1e-12 * np.abs(g).max(), key


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 20), st.integers(0, 20), st.integers(1, 4)),
        min_size=1,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_repeated_rows_match_the_oracle(rows, rng):
    distinct = _batch(0, [(a, b) for a, b, _ in rows])
    batch = [pair for pair, (*_, m) in zip(distinct, rows) for _ in range(m)]
    rng.shuffle(batch)
    model = _model(batch, 32, 0)
    loss, grads = compute_loss_and_grads(model, batch)
    ref_loss, ref_grads = oracle_loss_and_grads(model, batch)
    assert abs(loss - ref_loss) <= 1e-9 * abs(ref_loss)
    for key, ref in ref_grads.items():
        assert np.abs(grads[key] - ref).max() <= 1e-9 * np.abs(ref).max(), key


def test_grads_do_not_alias_parameters():
    batch = _ragged(0)
    model = _model(batch, 32, 0)
    before = model.copy_params()
    _, grads = compute_loss_and_grads(model, batch)
    for key, g in grads.items():
        assert not np.shares_memory(g, model.params[key])
        g *= 0.5
    for key, value in model.params.items():
        assert np.array_equal(value, before[key])


def test_grads_of_a_call_outlive_later_calls():
    batch = _ragged(0)
    model = _model(batch, 32, 0)
    _, grads = compute_loss_and_grads(model, batch)
    kept = {key: g.copy() for key, g in grads.items()}
    for other in (_ragged(1), batch, _ragged(2, 32)):
        compute_loss_and_grads(model, other)
    for key, g in grads.items():
        assert np.array_equal(g, kept[key]), key


# ------------------------------------------------------------- allocator


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_a_warmed_train_call_takes_few_page_faults():
    import resource

    pairs = _ragged(0, 48)
    cfg = ModelConfig(iteration_steps=30, max_steps=30)
    train(pairs, [], cfg)  # the heap grows to what a step needs
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(pairs, [], cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # freed step arrays handed back to the system fault in again on the
    # next step, about 800 times a step
    assert faults < 1000, faults


# the CLI, with the C library's mallopt out of reach when argv[1] is "refuse"
_CLI = """
import ctypes, sys
from vulnseq.cli import main
if sys.argv[1] == "refuse":
    def refuse(*args, **kwargs):
        print("mallopt lookup refused", file=sys.stderr)
        raise OSError("no C library")
    ctypes.CDLL = refuse
sys.exit(main(sys.argv[2:]))
"""


def test_train_without_mallopt_saves_the_same_bytes(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--seed", "3", "--components", "6", "-o", str(corpus)]) == 0
    saved = []
    # a fresh process for each: the setting outlives the train() call
    for mode in ("refuse", "allow"):
        ckpt = tmp_path / f"{mode}.ckpt"
        proc = subprocess.run(
            [sys.executable, "-c", _CLI, mode, "train", "-i", str(corpus), "--release", "1",
             "--max-steps", "30", "-o", str(ckpt)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert ("mallopt lookup refused" in proc.stderr) == (mode == "refuse")
        saved.append(ckpt.read_bytes())
    assert saved[0] == saved[1]


# ---------------------------------------------------------------- memory


def _peak_bytes(fn, model, batch):
    fn(model, batch)  # let one-time allocations happen outside the count
    tracemalloc.start()
    try:
        fn(model, batch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_exceed_the_oracle():
    batch = _ragged(0)
    # at paper width the step holds one encoder direction's weight-gradient
    # gathers at a time: 0.47 of the oracle's peak here, against 0.58 when
    # both directions ran as one stacked recurrence
    for hidden, bound in [(64, 1.0), (256, 0.52)]:
        model = _model(batch, hidden, 0)
        new = _peak_bytes(compute_loss_and_grads, model, batch)
        old = _peak_bytes(oracle_loss_and_grads, model, batch)
        assert new <= bound * old, (
            f"hidden {hidden}: peak {new / 1e6:.2f} MB, oracle {old / 1e6:.2f} MB"
        )
