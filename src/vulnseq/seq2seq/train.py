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
    _bridge,
    _encoder_steps,
    _encoder_weights,
    _lstm_forward,
    _new_trace,
    _project,
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


def _lstm_backward(Z, trace, U, dh, dc, dH=None, mask=None):
    """Backpropagate through an _lstm_forward run from the gates it left in Z.

    dh and dc are the loss gradients at the final state; dH (..., T, B, n),
    if given, holds those reaching each step's hidden state from outside
    the layer. Each step's slot of Z ends up holding that step's
    pre-activation gradient dz, so the caller forms the weight gradients
    after the loop. The trace is consumed. Returns the gradients at the
    initial state.
    """
    _, Cs, TC = trace
    n = U.shape[-2]
    # Everything in dz that does not depend on dh or dc is computed for all
    # steps at once, in the buffers it replaces: Z's gate slots take
    #   [g·i(1-i), c_prev·f(1-f), i(1-g²), tanh(c)·o(1-o)],
    # the first three scaled in the loop by the cell-state gradient dct and
    # the last by dh; TC takes o(1 - tanh²(c)), dct's factor on dh; and the
    # c_prev slots of Cs take f, which carries dct back to c_prev.
    gates = Z.reshape(Z.shape[:-1] + (4, n))
    i, f, g, o = (gates[..., k, :] for k in range(4))
    c_prev = Cs[..., :-1, :, :]
    tmp = 1.0 - o
    tmp *= o
    tmp *= TC  # tanh(c)·o(1-o)
    np.multiply(TC, TC, out=TC)
    np.subtract(1.0, TC, out=TC)
    TC *= o  # o(1 - tanh²(c))
    o[...] = tmp
    np.subtract(1.0, f, out=tmp)
    tmp *= f
    tmp *= c_prev  # c_prev·f(1-f)
    c_prev[...] = f
    f[...] = tmp
    np.subtract(1.0, i, out=tmp)
    tmp *= i
    tmp *= g  # g·i(1-i)
    g *= g
    np.subtract(1.0, g, out=g)
    g *= i  # i(1-g²)
    i[...] = tmp
    del tmp

    UT = np.ascontiguousarray(np.swapaxes(U, -1, -2))
    for t in range(Z.shape[-3] - 1, -1, -1):
        if dH is not None:
            dh = dh + dH[..., t, :, :]
        dct = dh * TC[..., t, :, :]
        dct += dc
        z = gates[..., t, :, :, :]
        z[..., :3, :] *= dct[..., None, :]
        z[..., 3, :] *= dh
        dc_prev = dct * Cs[..., t, :, :]
        dz = Z[..., t, :, :]
        if mask is None:
            dh, dc = dz @ UT, dc_prev
        else:
            m = mask[..., t, :, :]
            dz *= m
            dh = np.where(m, dz @ UT, dh)
            dc = np.where(m, dc_prev, dc)
    return dh, dc


def _flat(a):
    """Merge the step and row axes: (..., T, B, k) -> (..., T*B, k)."""
    return a.reshape(a.shape[:-3] + (-1, a.shape[-1]))


def _layer_grads(X, Hs, dZ, W):
    """dW, dU, db and the input gradient of a layer, one GEMM or sum each.

    X is the layer's input at every step, Hs its traced hidden states and
    dZ the per-step pre-activation gradients left by _lstm_backward; the
    input gradient comes back flat, (..., T*B, d).
    """
    dZ = _flat(dZ)
    dW = np.swapaxes(_flat(X), -1, -2) @ dZ
    dU = np.swapaxes(_flat(Hs[..., :-1, :, :]), -1, -2) @ dZ
    return dW, dU, dZ.sum(axis=-2), dZ @ np.swapaxes(W, -1, -2)


def compute_loss_and_grads(model: Seq2SeqModel, batch: list[TrainingPair]):
    """Full forward/backward over one batch. Returns (loss, grads).

    Every layer projects its inputs for all steps with one GEMM before its
    time loop, so the loops hold only h·U and the cell update; backward
    defers each layer's weight gradients to one GEMM over its stacked dz.
    Arrays are step-major, (T, B, ...).
    """
    p = model.params
    enc_ids, enc_mask, dec_in, dec_tgt, dec_mask = _arrays(batch, model.vocabulary)
    n = len(batch)
    h_units = model.config.hidden_units
    grads: dict[str, np.ndarray] = {}

    # ---- encoder forward: both directions as one stacked recurrence
    enc_steps, enc_step_mask = _encoder_steps(enc_ids, enc_mask)
    eW, eU, eb = _encoder_weights(p)
    eX = p["embedding"][enc_steps]
    eZ = _project(eX, eW, eb)
    e_trace = _new_trace(eZ)
    zeros = np.zeros((2, n, h_units))
    h_fin, c_fin = _lstm_forward(eZ, zeros, zeros, eU, enc_step_mask, e_trace)
    h_cat = np.concatenate(h_fin, axis=1)
    c_cat = np.concatenate(c_fin, axis=1)
    init = _bridge(p, h_cat, c_cat)

    # ---- decoder forward (teacher forcing): layer 0 never reads layer 1,
    # so it runs over all steps first; layer 1's input projection and the
    # logits are then one GEMM each
    runs = []
    x = p["embedding"][dec_in.T]
    for k in range(2):
        Z = _project(x, p[f"dec{k}_W"], p[f"dec{k}_b"])
        trace = _new_trace(Z)
        _lstm_forward(Z, *init[k], p[f"dec{k}_U"], trace=trace)
        runs.append((x, Z, trace))
        x = trace[0][1:]
    del Z, trace
    logits = x @ p["out_W"]
    logits += p["out_b"]

    # ---- loss: mean over pairs of per-pair mean token cross-entropy
    tgt = dec_tgt.T[:, :, None]
    mask = dec_mask.T
    logits -= logits.max(axis=2, keepdims=True)
    picked = np.take_along_axis(logits, tgt, axis=2)[:, :, 0]
    probs = np.exp(logits, out=logits)
    total = probs.sum(axis=2)
    nll = (np.log(total) - picked) * mask
    per_pair = nll.sum(axis=0) / mask.sum(axis=0)
    loss = float(per_pair.mean())

    # ---- backward: the softmax buffer becomes dlogits in place
    weight = mask / mask.sum(axis=0) / n
    dlogits = probs
    dlogits *= (weight / total)[:, :, None]
    np.put_along_axis(
        dlogits,
        tgt,
        np.take_along_axis(dlogits, tgt, axis=2) - weight[:, :, None],
        axis=2,
    )
    flat_dlogits = _flat(dlogits)
    grads["out_W"] = _flat(x).T @ flat_dlogits
    grads["out_b"] = flat_dlogits.sum(axis=0)
    dx = dlogits @ p["out_W"].T
    del logits, probs, dlogits, flat_dlogits

    # ---- decoder backward, top layer first; each layer's forward arrays
    # are freed once its weight gradients are out. Gradient reaches the
    # final states only through the logits, so it starts at zero there.
    d_init = [None, None]
    for k in (1, 0):
        x, Z, trace = runs.pop()
        d_init[k] = _lstm_backward(Z, trace, p[f"dec{k}_U"], 0.0, 0.0, dx)
        grads[f"dec{k}_W"], grads[f"dec{k}_U"], grads[f"dec{k}_b"], dx = _layer_grads(
            x, trace[0], Z, p[f"dec{k}_W"]
        )
        dx = dx.reshape(x.shape[:-1] + (-1,))
    del x, Z, trace

    # ---- bridge backward; collect gradients w.r.t. final encoder states
    dh_cat = np.zeros_like(h_cat)
    dc_cat = np.zeros_like(c_cat)
    for layer, (dh, dc) in enumerate(d_init):
        for kind, cat, dcat, d_state, idx in (
            ("h", h_cat, dh_cat, dh, 0),
            ("c", c_cat, dc_cat, dc, 1),
        ):
            bridged = init[layer][idx]
            dpre = d_state * (1.0 - bridged * bridged)
            grads[f"bridge_{kind}{layer}_W"] = cat.T @ dpre
            grads[f"bridge_{kind}{layer}_b"] = dpre.sum(axis=0)
            dcat += dpre @ p[f"bridge_{kind}{layer}_W"].T

    # ---- encoder backward, both directions stacked like the forward
    _lstm_backward(
        eZ,
        e_trace,
        eU,
        np.stack(np.split(dh_cat, 2, axis=1)),
        np.stack(np.split(dc_cat, 2, axis=1)),
        mask=enc_step_mask,
    )
    dW, dU, db, dXe = _layer_grads(eX, e_trace[0], eZ, eW)
    for d, direction in enumerate(("fwd", "bwd")):
        grads[f"enc_{direction}_W"] = dW[d]
        grads[f"enc_{direction}_U"] = dU[d]
        grads[f"enc_{direction}_b"] = db[d]

    # ---- one embedding scatter for every decoder and encoder step; a
    # bincount over (id, column) cells sums rows in order, as np.add.at
    # would, at a fraction of its cost
    v, d = p["embedding"].shape
    ids = np.concatenate([dec_in.T.ravel(), enc_steps.ravel()])
    rows = np.concatenate([dx.reshape(-1, d), dXe.reshape(-1, d)])
    cells = (ids[:, None] * d + np.arange(d)).ravel()
    grads["embedding"] = np.bincount(cells, rows.ravel(), v * d).reshape(v, d)
    return loss, {name: grads[name] for name in p}


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
