"""Teacher-forced training with hand-written backpropagation.

The loss for a batch is the mean over pairs of each pair's mean token
cross-entropy, so it depends neither on the order of the pairs nor on
how long the other pairs are. Optimization is plain gradient descent with global-norm
clipping. ``train()`` seeds its init and shuffling from ``config.seed``
and takes its validation pairs from the caller. Equal inputs give equal
bytes only under one BLAS thread count and set of CPU kernels.

A training step runs the packed, time-major layout described in
``model`` (``_Packing``), the one that inference runs too, and
backpropagates through it without touching padding. Every LSTM run, each
encoder direction and each decoder layer, is one 2-D layer run forward
and one call of ``_layer_backward`` back: the decoder's top layer, its
bottom layer, then the encoder's forward and backward directions. Each
run's forward arrays are dropped once its gradients are out, so a step
holds one layer's weight-gradient gathers at a time.

Abstraction makes training pairs repeat, so a batch often holds a pair
more than once. Every step runs the first copy of each distinct pair
(``_first_copies``, as the identity check does) through everything that
works row by row: the encoder, the decoder, the softmax, the backward
recurrences and the input-gradient products. Before each sum over rows
(every weight and bias gradient, the embedding scatter) it gathers those
rows back into the packed order of the whole batch, so each sum adds the
same numbers in the same order as a step over every copy. NumPy sends a
one-row product to GEMV, whose bits differ from GEMM's, so the step
keeps a second copy of a repeated pair whose input or target is the
batch's one longest; otherwise the last steps of that row would multiply
one row where the whole batch multiplies two. With OpenBLAS's AVX-512
kernels at desk width, the bits then equal those of a step over every
copy; AVX2 kernels, whose GEMM rows depend on the row count, and small
products with a transposed operand agree only to rounding.

A step allocates its arrays afresh, much as large as the last step's.
By default glibc gives each large one its own mapping and hands memory
freed at the top of its heap back to the system, so each step faulted
its pages in again: about 800 page faults per desk step. ``train()``
first sets ``mallopt`` so the heap keeps that memory. The setting is
process-wide: a process that has trained keeps its freed heap memory for
reuse, so its resident set does not fall after ``train()`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, NumericalError, ShapeError
from ..pairing import TrainingPair
from .model import (
    ModelConfig,
    Seq2SeqModel,
    _decoder_forward,
    _decoder_U,
    _encode_rows,
    _first_copies,
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
    """A training pair's ids under the model's vocabulary; a pair is its own key."""

    input_ids: tuple[int, ...]
    target_ids: tuple[int, ...]


def _encode_pair(vocab: Vocabulary, pair: TrainingPair | _EncodedPair) -> _EncodedPair:
    if isinstance(pair, _EncodedPair):
        return pair
    return _EncodedPair(
        tuple(vocab.encode(pair.input.tokens)), tuple(vocab.encode(pair.target.tokens))
    )


def _layer_backward(p, grads, name: str, run, packing: _Packing, idx, dh, dc, dH=None):
    """Backpropagate through a _layer_forward run of layer name.

    run holds the layer's packed input x, its gates Z and its trace; Z and
    the trace are consumed. dh and dc (B, n) hold the loss gradients at
    each sorted row's final state. A row's final state is read only after
    its last step, so its gradient waits in its slot of dh and dc until the
    loop reaches that step; the loop then keeps each row's running gradient
    there, and on return they hold the gradients at the initial states. dH
    (N, n), if given, holds the gradients reaching each packed row's hidden
    state from outside the layer. Each packed row of Z ends up holding its
    pre-activation gradient dz. The input gradient is per row, so it is
    formed on the rows that ran; dW, dU and db, one GEMM or sum each, read
    them in the full batch's packed order, rows idx of the run (see
    _full_rows), and go into grads. Returns the input gradient and (dh, dc).
    """
    x, Z, (Hs, Cs, TC) = run
    W, U = p[f"{name}_W"], p[f"{name}_U"]
    n = len(U)
    # Everything in dz that does not depend on dh or dc is computed for all
    # rows at once, in the buffers it replaces: Z's gate slots take
    #   [g·i(1-i), c_prev·f(1-f), i(1-g²), tanh(c)·o(1-o)],
    # which the loop scales by (dct, dct, dct, dh) in one contiguous product;
    # TC takes o(1 - tanh²(c)), the cell-state gradient dct's factor on dh;
    # and F, gathered as each row's c_prev, takes f, which carries dct back.
    gates = Z.reshape(len(Z), 4, n)
    i, f, g, o = (gates[:, k] for k in range(4))
    F = Cs[packing.prev]
    tmp = 1.0 - o
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
    del tmp

    UT = np.ascontiguousarray(U.T)
    for start, k in zip(reversed(packing.off), reversed(packing.k)):
        rows = slice(start, start + k)
        dh_t = dh[:k]
        if dH is not None:
            dh_t += dH[rows]
        dct = dh_t * TC[rows]
        dct += dc[:k]
        Z[rows] *= np.concatenate((dct, dct, dct, dh_t), axis=1)
        np.multiply(dct, F[rows], out=dc[:k])
        np.matmul(Z[rows], UT, out=dh_t)
    del F, UT

    dX = Z @ W.T
    dZ = Z[idx]
    grads[f"{name}_W"] = x[idx].T @ dZ
    # the states before each row, which dU pairs with dZ, are one gather
    grads[f"{name}_U"] = Hs[packing.prev[idx]].T @ dZ
    grads[f"{name}_b"] = dZ.sum(axis=0)
    return dX, (dh, dc)


def _distinct_rows(encoded: list[_EncodedPair]):
    """The batch rows a step runs.

    Returns (keep, stand): keep holds the first copy of each distinct
    (input, target) pair (``_first_copies``), and stand[b] the position in
    keep of the copy that runs batch row b's pair, b's own where b is
    kept. NumPy sends a one-row product to GEMV, whose bits differ from
    GEMM's, so where the batch holds two or more copies of the one pair
    with its longest input, or with its longest target, keep holds a
    second copy too: the steps that only that pair runs then multiply two
    rows, as the full batch does.
    """
    keep, stand = _first_copies(encoded)
    for side in (0, 1):
        lengths = [len(encoded[b][side]) for b in keep]
        top = max(lengths)
        if lengths.count(top) == 1:
            b = keep[lengths.index(top)]
            if encoded.count(encoded[b]) > 1:
                second = encoded.index(encoded[b], b + 1)
                stand[second] = len(keep)
                keep.append(second)
    return keep, np.array(stand)


def _full_rows(full: _Packing, ran: _Packing, stand: np.ndarray):
    """Where a run of the distinct rows holds each row of the full batch.

    ``stand[b]`` is the row of the run that holds batch row b's pair. Both
    packings sort the same lengths, so full sorted row j runs as the run's
    sorted row ``rows[j]``, and full packed row p as the run's packed row
    ``packed[p]``, at the same step. Returns (packed, rows).
    """
    rows = np.argsort(ran.order)[stand[full.order]]
    return np.asarray(ran.off)[full.step] + rows[full.row], rows


def compute_loss_and_grads(model: Seq2SeqModel, batch: list[TrainingPair]):
    """Full forward/backward over one batch. Returns (loss, grads).

    Every recurrence runs over packed rows (see _Packing): the encoder's
    rows sorted by input length, the decoder's by target length + 1, so
    the rows still running at step t are a prefix of k[t] rows and no
    array, GEMM or loop step touches padding. The encoder's backward
    direction reads each row reversed within its own length, so both
    directions share one packing and run as two layer runs; a row's final
    state is gathered at its last step and permuted into decoder order.
    Every layer projects its inputs for all rows with one GEMM before its
    time loop, so the loops hold only h·U and the cell update; backward
    defers each layer's weight gradients to one GEMM over its packed dz.
    ``train()`` passes its pairs already encoded, once per call.

    Every batch runs each distinct pair once, plus the second copy that
    _distinct_rows keeps off GEMV, through every per-row stage, the
    input-gradient products (dZ·Wᵀ, dlogits·out_Wᵀ) included. Every sum
    over rows gathers the rows back into the whole batch's packed order
    first (_full_rows); the loss takes each run row's token sum once per
    batch row it holds. The bridge's backward runs over every row of the
    batch: its products are tiny and take a transposed operand, and
    OpenBLAS's small-matrix kernels give such a product's rows other bits
    as its row count changes.
    """
    if not batch:
        raise ConfigError("empty batch")
    p = model.params
    encoded = [_encode_pair(model.vocabulary, pair) for pair in batch]
    if not all(pair.input_ids for pair in encoded):
        raise ShapeError("batch contains an empty input sequence")
    n = len(batch)
    keep, stand = _distinct_rows(encoded)
    ran = [encoded[b] for b in keep]
    m = len(ran)
    enc = [pair.input_ids for pair in ran]
    tgt = [pair.target_ids for pair in ran]
    grads: dict[str, np.ndarray] = {}
    pd = _pack([len(s) + 1 for s in tgt])  # room for EOS

    # ---- encoder forward: each direction one layer run; decoder row j
    # reads the final encoder states of sorted row perm[j]
    pe, perm, e_runs, (h_cat, c_cat), init = _encode_rows(p, enc, pd.order)

    # ---- decoder forward (teacher forcing)
    dec_in = _packed_ids(pd, [[SOS, *s] for s in tgt])
    dec_tgt = _packed_ids(pd, [[*s, EOS] for s in tgt])
    runs, logits = _decoder_forward(p, dec_in, init, pd, _decoder_U(p))

    # where the run holds each packed row and each decoder row of the batch
    gd, rows_d = _full_rows(_pack([len(pair.target_ids) + 1 for pair in encoded]), pd, stand)
    ge = _full_rows(_pack([len(pair.input_ids) for pair in encoded]), pe, stand)[0]

    # ---- loss: mean over pairs of per-pair mean token cross-entropy
    packed = np.arange(len(dec_tgt))
    logits -= logits.max(axis=1, keepdims=True)
    picked = logits[packed, dec_tgt]
    probs = np.exp(logits, out=logits)
    total = probs.sum(axis=1)
    nll = np.log(total) - picked
    loss = float((np.bincount(pd.row, nll, m) / pd.lengths)[rows_d].mean())

    # ---- backward: the softmax buffer becomes dlogits in place
    weight = (1.0 / pd.lengths)[pd.row] / n
    dlogits = probs
    dlogits *= (weight / total)[:, None]
    dlogits[packed, dec_tgt] -= weight
    dx = dlogits @ p["out_W"].T
    del logits, probs
    dlogits = dlogits[gd]
    grads["out_W"] = runs[-1][2][0][m:][gd].T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    del dlogits

    # ---- decoder backward, top layer first; each layer's forward arrays
    # are freed once its weight gradients are out. Gradient reaches the
    # final states only through the logits, so it starts at zero there.
    d_init = [None, None]
    for k in (1, 0):
        dh, dc = np.zeros((2, m, model.config.hidden_units))
        dx, d_init[k] = _layer_backward(p, grads, f"dec{k}", runs.pop(), pd, gd, dh, dc, dx)

    # ---- bridge backward over every row of the batch, in decoder order;
    # collect gradients w.r.t. final encoder states
    h_cat, c_cat = h_cat[rows_d], c_cat[rows_d]
    dh_cat = np.zeros_like(h_cat)
    dc_cat = np.zeros_like(c_cat)
    for layer, (dh, dc) in enumerate(d_init):
        for kind, cat, dcat, d_state, idx in (
            ("h", h_cat, dh_cat, dh, 0),
            ("c", c_cat, dc_cat, dc, 1),
        ):
            bridged = init[layer][idx][rows_d]
            dpre = d_state[rows_d] * (1.0 - bridged * bridged)
            grads[f"bridge_{kind}{layer}_W"] = cat.T @ dpre
            grads[f"bridge_{kind}{layer}_b"] = dpre.sum(axis=0)
            dcat += dpre @ p[f"bridge_{kind}{layer}_W"].T

    # ---- encoder backward, one direction at a time, its forward arrays
    # freed once its gradients are out; each row of the run takes the
    # final-state gradient of a batch row it holds and sends it back to
    # its encoder slot
    held = np.empty(m, dtype=np.int64)
    held[rows_d] = np.arange(n)
    dh_cat, dc_cat = dh_cat[held], dc_cat[held]
    h = model.config.hidden_units
    # the embedding scatter reads decoder rows, then each direction's
    ids, rows = [dec_in[gd]], [dx[gd]]
    for side, name in enumerate(("enc_fwd", "enc_bwd")):
        enc_ids, *run = e_runs.pop(0)
        dh, dc = np.empty((2, m, h))
        dh[perm] = dh_cat[:, side * h : (side + 1) * h]
        dc[perm] = dc_cat[:, side * h : (side + 1) * h]
        rows.append(_layer_backward(p, grads, name, run, pe, ge, dh, dc)[0][ge])
        ids.append(enc_ids[ge])
        del run

    # ---- one embedding scatter for every decoder and encoder row; a
    # bincount over (id, column) cells sums rows in order, as np.add.at
    # would, at a fraction of its cost
    v, d = p["embedding"].shape
    ids, rows = np.concatenate(ids), np.concatenate(rows)
    cells = (ids[:, None] * d + np.arange(d)).ravel()
    grads["embedding"] = np.bincount(cells, rows.ravel(), v * d).reshape(v, d)
    return loss, {name: grads[name] for name in p}


def _global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def train_step(
    batch: list[TrainingPair], model: Seq2SeqModel, state: TrainingState
) -> float:
    # a diverging step overflows: the check below says so, stderr does not
    with np.errstate(over="ignore", invalid="ignore"):
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


def exact_match_rate(model: Seq2SeqModel, pairs: list[TrainingPair | _EncodedPair]) -> float:
    if not pairs:
        return 0.0
    ids = [_encode_pair(model.vocabulary, pair) for pair in pairs]
    hits = greedy_reproduces(model, [e.input_ids for e in ids], [e.target_ids for e in ids])
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
    rolled back.
    """
    if not pairs:
        raise ConfigError("no training pairs")
    _keep_freed_memory()
    vocab = vocabulary_from_pairs(pairs, config.min_count)
    model = init_model(config, vocab)
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
        if not validation:
            continue
        rate = _rate_at_step(model, validation, state)
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
        _rate_at_step(model, encoded, state)
    return model


def _rate_at_step(model: Seq2SeqModel, pairs, state: TrainingState) -> float:
    """exact_match_rate, whose NumericalError names the training step."""
    try:
        return exact_match_rate(model, pairs)
    except NumericalError as exc:
        raise NumericalError(str(exc), step=state.step) from exc


def _keep_freed_memory() -> None:
    """Have the C allocator keep what a training step frees, for the next.

    Arrays up to 32 MiB, glibc's largest mmap threshold on 64-bit hosts,
    come from the heap, and the heap keeps up to 64 MiB free at its top,
    the most glibc's adaptive thresholds reach. Idempotent; a no-op where
    the C library has no ``mallopt`` (macOS, Windows).
    """
    import ctypes  # here, so importing vulnseq costs no more

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # Windows cannot open None
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, malloc.h
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
