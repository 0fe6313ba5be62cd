"""Teacher-forced training with hand-written backpropagation.

The loss for a batch is the mean over pairs of each pair's mean token
cross-entropy, so padding one batch differently can never change the
number. Optimization is plain gradient descent with global-norm clipping.
Every run is a pure function of (pairs, config): shuffling, init, and the
holdout split all come from seeded generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, NumericalError, ShapeError
from ..pairing import TrainingPair
from .model import (
    ModelConfig,
    Seq2SeqModel,
    _encode_batch,
    _lstm_step,
    greedy_reproduces,
    init_model,
)
from .vocab import EOS, PAD, SOS, Vocabulary, build_vocabulary


@dataclass
class TrainingState:
    step: int = 0
    validation_history: list[tuple[int, float]] = field(default_factory=list)


def vocabulary_from_pairs(pairs: list[TrainingPair], min_count: int = 1) -> Vocabulary:
    seqs = [p.input for p in pairs] + [p.target for p in pairs]
    return build_vocabulary(seqs, min_count)


def _arrays(batch: list[TrainingPair], vocab: Vocabulary):
    enc = [vocab.encode(p.input.tokens) for p in batch]
    tgt = [vocab.encode(p.target.tokens) for p in batch]
    t_in = max(len(s) for s in enc)
    if t_in == 0:
        raise ShapeError("batch contains an empty input sequence")
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


def compute_loss_and_grads(model: Seq2SeqModel, batch: list[TrainingPair]):
    """Full forward/backward over one batch. Returns (loss, grads)."""
    p = model.params
    vocab = model.vocabulary
    enc_ids, enc_mask, dec_in, dec_tgt, dec_mask = _arrays(batch, vocab)
    n, t_out = dec_in.shape
    h_units = model.config.hidden_units

    _, init, enc_cache = _encode_batch(model, enc_ids, enc_mask)

    # ---- decoder forward (teacher forcing), caching per step
    dec_caches = []
    logits = np.zeros((n, t_out, vocab.size()))
    (h0, c0), (h1, c1) = init
    X_dec = p["embedding"][dec_in]
    for t in range(t_out):
        x0 = X_dec[:, t]
        h0n, c0n, g0 = _lstm_step(x0, h0, c0, p["dec0_W"], p["dec0_U"], p["dec0_b"])
        h1n, c1n, g1 = _lstm_step(h0n, h1, c1, p["dec1_W"], p["dec1_U"], p["dec1_b"])
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


def _global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def train_step(
    batch: list[TrainingPair], model: Seq2SeqModel, state: TrainingState
) -> float:
    if not batch:
        raise ConfigError("empty batch")
    loss, grads = compute_loss_and_grads(model, batch)
    norm = _global_norm(grads)
    if not (np.isfinite(loss) and np.isfinite(norm)):
        raise NumericalError("non-finite loss or gradient", step=state.step)
    if norm > model.config.clip_norm:
        scale = model.config.clip_norm / norm
        for g in grads.values():
            g *= scale
    lr = model.config.learning_rate
    for name, g in grads.items():
        model.params[name] -= lr * g
    state.step += 1
    return loss


def exact_match_rate(model: Seq2SeqModel, pairs: list[TrainingPair]) -> float:
    if not pairs:
        return 0.0
    vocab = model.vocabulary
    hits = greedy_reproduces(
        model,
        [vocab.encode(p.input.tokens) for p in pairs],
        [vocab.encode(p.target.tokens) for p in pairs],
    )
    return sum(hits) / len(pairs)


def split_holdout(
    pairs: list[TrainingPair], fraction: float = 0.1, seed: int = 0
) -> tuple[list[TrainingPair], list[TrainingPair]]:
    """Seeded validation holdout; returns (train, validation)."""
    if not 0.0 <= fraction < 1.0:
        raise ConfigError("holdout fraction must be in [0, 1)")
    if len(pairs) < 2 or fraction == 0.0:
        return list(pairs), []
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(len(pairs))
    n_val = max(1, int(len(pairs) * fraction))
    val_idx = set(perm[:n_val].tolist())
    train = [p for i, p in enumerate(pairs) if i not in val_idx]
    val = [p for i, p in enumerate(pairs) if i in val_idx]
    return train, val


def train(
    pairs: list[TrainingPair],
    validation: list[TrainingPair],
    config: ModelConfig,
    state: TrainingState | None = None,
) -> Seq2SeqModel:
    """Iterative training with early stopping on validation exact match.

    After each block of iteration_steps the validation exact-match rate is
    measured; training stops once it fails to improve, or at max_steps.
    The returned model carries the best-scoring parameters. An empty
    validation list disables early stopping (runs to max_steps).
    """
    config.validate()
    if not pairs:
        raise ConfigError("no training pairs")
    vocab = vocabulary_from_pairs(pairs, config.min_count)
    model = init_model(config, vocab)
    state = state if state is not None else TrainingState()
    shuffle_rng = np.random.Generator(np.random.PCG64(config.seed + 1))
    best_rate = -1.0
    best_params = model.copy_params()
    order: list[int] = []
    pos = 0
    while state.step < config.max_steps:
        block = min(config.iteration_steps, config.max_steps - state.step)
        for _ in range(block):
            if pos >= len(order):
                order = shuffle_rng.permutation(len(pairs)).tolist()
                pos = 0
            take = order[pos : pos + config.batch_size]
            pos += len(take)
            train_step([pairs[i] for i in take], model, state)
        if validation:
            rate = exact_match_rate(model, validation)
            state.validation_history.append((state.step, rate))
            if rate > best_rate:
                best_rate = rate
                best_params = model.copy_params()
            else:
                break
        else:
            best_params = model.copy_params()
    model.params = best_params
    return model
