"""Teacher-forced training with hand-written backpropagation.

The loss for a batch is the mean over pairs of each pair's mean token
cross-entropy, so it depends neither on the order of the pairs nor on
how long the other pairs are. Optimization is plain gradient descent with global-norm
clipping. Every run is a pure function of (pairs, config): shuffling,
init, and the holdout split all come from seeded generators.

A training step runs the packed, time-major layout described in
``model`` (``_Packing``), the one that inference runs too, and
backpropagates through it without touching padding.

A ``train()`` call allocates its step arrays once: all its steps share
one ``Workspace``, held by the model being trained, for the forward
traces, the backward temporaries and the gradients. Allocated afresh
every step, they made the C allocator return the freed pages to the
system and fault them back in on the next step, about 800 page faults
per desk step. Within a step, each array takes the region that an array
dead by then has released, so the step holds no more at once than with
fresh arrays.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, NumericalError, ShapeError
from ..pairing import TrainingPair
from .model import (
    ModelConfig,
    Seq2SeqModel,
    Workspace,
    _decoder_forward,
    _decoder_U,
    _encode_rows,
    _pack,
    _packed_ids,
    _Packing,
    greedy_reproduces,
    init_model,
)
from .vocab import EOS, SOS, Vocabulary, build_vocabulary


@dataclass
class TrainingState:
    step: int = 0
    validation_history: list[tuple[int, float]] = field(default_factory=list)


def vocabulary_from_pairs(pairs: list[TrainingPair], min_count: int = 1) -> Vocabulary:
    seqs = [p.input for p in pairs] + [p.target for p in pairs]
    return build_vocabulary(seqs, min_count)


class _EncodedPair(NamedTuple):
    """A training pair's input and target ids under the model's vocabulary."""

    input_ids: list[int]
    target_ids: list[int]


def _encode_pair(vocab: Vocabulary, pair: TrainingPair | _EncodedPair) -> _EncodedPair:
    if isinstance(pair, _EncodedPair):
        return pair
    return _EncodedPair(vocab.encode(pair.input.tokens), vocab.encode(pair.target.tokens))


def _packed_lstm_backward(Z, trace, Us, packing: _Packing, dh, dc, ws: Workspace, dH=None):
    """Backpropagate through a _packed_lstm_forward run from the gates in Z.

    Us holds the U (n, 4n) of each layer stacked in Z, in order. dh and
    dc (..., B, n) hold the loss gradients at each sorted row's final
    state. A row's final state is read only after its last step, so its
    gradient waits in its slot of dh and dc until the loop reaches that
    step; the loop then keeps each row's running gradient there, and on
    return they hold the gradients at the initial states. dH (..., N, n),
    if given, holds the gradients reaching each packed row's hidden state
    from outside the layer. Each packed row of Z ends up holding its
    pre-activation gradient dz, so the caller forms the weight gradients
    after the loop. The trace is consumed.
    """
    _, Cs, TC = trace
    n = Us[0].shape[0]
    mark = ws.mark()
    # Everything in dz that does not depend on dh or dc is computed for all
    # rows at once, in the buffers it replaces: Z's gate slots take
    #   [g·i(1-i), c_prev·f(1-f), i(1-g²), tanh(c)·o(1-o)],
    # the first three scaled in the loop by the cell-state gradient dct and
    # the last by dh; TC takes o(1 - tanh²(c)), dct's factor on dh; and F,
    # gathered as each row's c_prev, takes f, which carries dct back to it.
    gates = Z.reshape(Z.shape[:-1] + (4, n))
    i, f, g, o = (gates[..., k, :] for k in range(4))
    F = np.take(Cs, packing.prev, axis=-2, out=ws.take(TC.shape), mode="clip")
    scratch = ws.mark()
    tmp = np.subtract(1.0, o, out=ws.take(TC.shape))
    tmp *= o
    tmp *= TC  # tanh(c)·o(1-o)
    np.multiply(TC, TC, out=TC)
    np.subtract(1.0, TC, out=TC)
    TC *= o  # o(1 - tanh²(c))
    o[...] = tmp
    np.subtract(1.0, f, out=tmp)
    tmp *= f
    tmp *= F  # c_prev·f(1-f)
    F[...] = f
    f[...] = tmp
    np.subtract(1.0, i, out=tmp)
    tmp *= i
    tmp *= g  # g·i(1-i)
    g *= g
    np.subtract(1.0, g, out=g)
    g *= i  # i(1-g²)
    i[...] = tmp
    ws.release(scratch)

    UT = ws.take(Z.shape[:-2] + (4 * n, n))
    for U, out in zip(Us, UT.reshape(-1, 4 * n, n)):
        out[...] = U.T
    for start, k in zip(reversed(packing.off), reversed(packing.k)):
        rows = slice(start, start + k)
        dh_t = dh[..., :k, :]
        if dH is not None:
            dh_t += dH[..., rows, :]
        # each row of TC is read once, so it takes the cell-state gradient
        dct = np.multiply(dh_t, TC[..., rows, :], out=TC[..., rows, :])
        dct += dc[..., :k, :]
        z = gates[..., rows, :, :]
        z[..., :3, :] *= dct[..., None, :]
        z[..., 3, :] *= dh_t
        np.multiply(dct, F[..., rows, :], out=dc[..., :k, :])
        np.matmul(Z[..., rows, :], UT, out=dh_t)
    ws.release(mark)
    return dh, dc


def _layer_grads(X, trace, dZ, W, packing: _Packing, ws: Workspace, dX):
    """dW, dU, db and the input gradient of a layer, one GEMM or sum each.

    X is the layer's packed input, trace its _packed_lstm_forward trace
    and dZ the per-row pre-activation gradients left by
    _packed_lstm_backward. The states before each row, which dU pairs with
    dZ, are one gather, released before dW is taken. The weight gradients
    are taken from the top of the workspace; the input gradient is written
    to dX.
    """
    Hs = trace[0]
    stack, n, m = W.shape[:-2], Hs.shape[-1], dZ.shape[-1]
    mark = ws.mark()
    H_in = np.take(Hs, packing.prev, axis=-2, out=ws.take(dZ.shape[:-1] + (n,)), mode="clip")
    dU = np.matmul(np.swapaxes(H_in, -1, -2), dZ, out=ws.take(stack + (n, m), top=True))
    ws.release(mark)
    dW = np.matmul(np.swapaxes(X, -1, -2), dZ, out=ws.take(W.shape, top=True))
    db = np.sum(dZ, axis=-2, out=ws.take(stack + (m,), top=True))
    return dW, dU, db, np.matmul(dZ, np.swapaxes(W, -1, -2), out=dX)


def compute_loss_and_grads(model: Seq2SeqModel, batch: list[TrainingPair]):
    """Full forward/backward over one batch. Returns (loss, grads).

    Every recurrence runs over packed rows (see _Packing): the encoder's
    rows sorted by input length, the decoder's by target length + 1, so
    the rows still running at step t are a prefix of k[t] rows and no
    array, GEMM or loop step touches padding. The encoder's backward
    direction reads each row reversed within its own length, so both
    directions share k[t] and run as one stacked recurrence; a row's final
    state is gathered at its last step and permuted into decoder order.
    Every layer projects its inputs for all rows with one GEMM before its
    time loop, so the loops hold only h·U and the cell update; backward
    defers each layer's weight gradients to one GEMM over its stacked dz.
    ``train()`` passes its pairs already encoded, once per call.

    The step's arrays come from the model's workspace, which ``train()``
    sets for its steps and the call resets, so the grads returned are valid
    until the model's next step. A model without one gets a private one.
    """
    if not batch:
        raise ConfigError("empty batch")
    ws = Workspace() if model.workspace is None else model.workspace
    ws.reset()
    p = model.params
    encoded = [_encode_pair(model.vocabulary, pair) for pair in batch]
    enc = [pair.input_ids for pair in encoded]
    tgt = [pair.target_ids for pair in encoded]
    n = len(batch)
    h = model.config.hidden_units
    v, d = p["embedding"].shape
    grads: dict[str, np.ndarray] = {}
    if not all(enc):
        raise ShapeError("batch contains an empty input sequence")
    pd = _pack([len(s) + 1 for s in tgt])  # room for EOS

    # The workspace is a stack from each end. At the bottom, each layer's
    # arrays sit above those of the layers that outlive it, and each is
    # released when its backward is done; the top holds what outlives the
    # layer that makes it, chiefly the gradients.

    # ---- encoder forward: both directions as one stacked recurrence;
    # decoder row j reads the final encoder states of sorted row perm[j]
    bottom = ws.mark()
    pe, perm, (enc_ids, eX, eZ, e_trace, eW, eUs), (h_cat, c_cat), init = _encode_rows(
        p, enc, pd.order, ws
    )

    # ---- decoder forward (teacher forcing). Below it, dx holds the
    # gradient reaching the top layer's output, then layer 0's. The output
    # layer's gradients are taken before the decoder's scratch and logits,
    # which go once dx is out.
    decoder = ws.mark()
    dx = ws.take((len(pd.row), h))
    grads["out_W"] = ws.take((h, v), top=True)
    grads["out_b"] = ws.take((v,), top=True)
    dec_in = _packed_ids(pd, [[SOS, *s] for s in tgt])
    dec_tgt = _packed_ids(pd, [[*s, EOS] for s in tgt])
    scratch = ws.mark(top=True)
    runs, logits = _decoder_forward(p, dec_in, init, pd, _decoder_U(p, ws), ws)
    x = runs[-1][3][0][n:]

    # ---- loss: mean over pairs of per-pair mean token cross-entropy
    packed = np.arange(len(dec_tgt))
    logits -= logits.max(axis=1, keepdims=True)
    picked = logits[packed, dec_tgt]
    probs = np.exp(logits, out=logits)
    total = probs.sum(axis=1)
    nll = np.log(total) - picked
    loss = float((np.bincount(pd.row, nll, n) / pd.lengths).mean())

    # ---- backward: the softmax buffer becomes dlogits in place
    weight = (1.0 / pd.lengths)[pd.row] / n
    dlogits = probs
    dlogits *= (weight / total)[:, None]
    dlogits[packed, dec_tgt] -= weight
    np.matmul(x.T, dlogits, out=grads["out_W"])
    np.sum(dlogits, axis=0, out=grads["out_b"])
    np.matmul(dlogits, p["out_W"].T, out=dx)
    del logits, probs, dlogits
    ws.release(scratch, top=True)

    # ---- decoder backward, top layer first; each layer's forward arrays
    # are released once its weight gradients are out. Gradient reaches the
    # final states only through the logits, so it starts at zero there.
    d_init = [None, None]
    for k in (1, 0):
        layer, x, Z, trace = runs.pop()
        dh, dc = np.zeros((2, n, h))
        d_init[k] = _packed_lstm_backward(Z, trace, [p[f"dec{k}_U"]], pd, dh, dc, ws, dx)
        # layer 1 has read dx, so layer 0's input gradient can take its
        # place; layer 0's, the decoder's embedding rows, outlives the decoder
        out = dx if k else ws.take(x.shape, top=True)
        grads[f"dec{k}_W"], grads[f"dec{k}_U"], grads[f"dec{k}_b"], dx = _layer_grads(
            x, trace, Z, p[f"dec{k}_W"], pd, ws, out
        )
        ws.release(layer)
    del x, Z, trace
    ws.release(decoder)

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
            W, b = f"bridge_{kind}{layer}_W", f"bridge_{kind}{layer}_b"
            grads[W] = np.matmul(cat.T, dpre, out=ws.take((2 * h, h), top=True))
            grads[b] = np.sum(dpre, axis=0, out=ws.take((h,), top=True))
            dcat += dpre @ p[W].T

    # ---- encoder backward, both directions stacked like the forward; each
    # row's final-state gradient goes back to its encoder slot, and the
    # input gradients are the encoder's embedding rows
    seeds = []
    for dcat in (dh_cat, dc_cat):
        seed = np.empty((2, n, h))
        seed[:, perm] = np.stack(np.split(dcat, 2, axis=1))
        seeds.append(seed)
    _packed_lstm_backward(eZ, e_trace, eUs, pe, *seeds, ws)
    dW, dU, db, dXe = _layer_grads(eX, e_trace, eZ, eW, pe, ws, ws.take(eX.shape, top=True))
    for k, direction in enumerate(("fwd", "bwd")):
        grads[f"enc_{direction}_W"] = dW[k]
        grads[f"enc_{direction}_U"] = dU[k]
        grads[f"enc_{direction}_b"] = db[k]
    ws.release(bottom)  # the encoder is done

    # ---- one embedding scatter for every decoder and encoder row; a
    # bincount over (id, column) cells sums rows in order, as np.add.at
    # would, at a fraction of its cost
    ids = np.concatenate([dec_in, enc_ids.ravel()])
    rows = np.concatenate([dx, dXe.reshape(-1, d)], out=ws.take((len(ids), d)))
    cells = np.multiply(ids[:, None], d, out=ws.take((len(ids), d), np.int64))
    cells += np.arange(d)
    grads["embedding"] = np.bincount(cells.ravel(), rows.ravel(), v * d).reshape(v, d)
    ws.release(bottom)
    return loss, {name: grads[name] for name in p}


def _global_norm(grads: dict[str, np.ndarray], ws: Workspace) -> float:
    mark = ws.mark()
    squares = ws.take((max(g.size for g in grads.values()),))
    total = sum(
        float(np.multiply(g, g, out=squares[: g.size].reshape(g.shape)).sum())
        for g in grads.values()
    )
    ws.release(mark)
    return float(np.sqrt(total))


def train_step(
    batch: list[TrainingPair], model: Seq2SeqModel, state: TrainingState
) -> float:
    ws = Workspace() if model.workspace is None else model.workspace
    # a diverging step overflows: the check below says so, stderr does not
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = compute_loss_and_grads(model, batch)
        norm = _global_norm(grads, ws)
        if not (np.isfinite(loss) and np.isfinite(norm)):
            raise NumericalError("non-finite loss or gradient", step=state.step)
        if norm > model.config.clip_norm:
            scale = model.config.clip_norm / norm
            for g in grads.values():
                g *= scale
        lr = model.config.learning_rate
        # the gradients are scratch now: scale them in place, lr·g as before
        for name, g in grads.items():
            g *= lr
            model.params[name] -= g
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
    validation list disables early stopping (runs to max_steps); the
    identity check then runs once on the training pairs after the last
    step, so a model that nothing could score raises NumericalError here
    instead of being returned. Parameters are copied only at an improving
    check that another block may follow, since only such a block can be
    rolled back. All steps share one Workspace, which the model holds
    until the call returns.
    """
    if not pairs:
        raise ConfigError("no training pairs")
    vocab = vocabulary_from_pairs(pairs, config.min_count)
    model = init_model(config, vocab)
    model.workspace = Workspace()
    encoded = [_encode_pair(vocab, pair) for pair in pairs]
    state = state if state is not None else TrainingState()
    shuffle_rng = np.random.Generator(np.random.PCG64(config.seed + 1))
    best_rate = -1.0
    best_params = None
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
            train_step([encoded[i] for i in take], model, state)
        # the identity check below, or after the last block, needs the
        # memory more than the next block does
        model.workspace.free()
        if not validation:
            continue
        with _naming_step(state):
            rate = exact_match_rate(model, validation)
        state.validation_history.append((state.step, rate))
        if rate <= best_rate:
            # rates lie in [0, 1], so the first check improves on -1 and
            # a later one that does not improve has a copy to go back to
            model.params = best_params
            break
        best_rate = rate
        if state.step < config.max_steps:
            best_params = model.copy_params()
    if not validation:
        with _naming_step(state):
            greedy_reproduces(
                model, [e.input_ids for e in encoded], [e.target_ids for e in encoded]
            )
    model.workspace = None
    return model


@contextmanager
def _naming_step(state: TrainingState):
    """Re-raise a NumericalError from the identity check naming the step."""
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(str(exc), step=state.step) from exc
