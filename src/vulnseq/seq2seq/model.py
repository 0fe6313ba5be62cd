"""Encoder-decoder network over abstracted token sequences.

Architecture: shared embedding, a single bidirectional LSTM encoder layer,
a bridge that maps the concatenated final encoder states to the initial
states of a two-layer LSTM decoder, and a linear projection from the top
decoder layer to vocabulary logits. Pure float64 numpy throughout; every
random draw comes from one seeded generator so runs are reproducible
bit-for-bit.

``greedy_reproduces`` is the one "does greedy decoding give this target
back?" check, for prediction and validation alike. Abstracted chunks
repeat a lot, so it runs each distinct (input, target) row once and hands
that verdict to every row that holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ShapeError
from .vocab import EOS, PAD, SOS, Vocabulary


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int = 32
    hidden_units: int = 32
    encoder_layers: int = 1
    decoder_layers: int = 2
    max_decode_length: int = 64
    learning_rate: float = 0.05
    batch_size: int = 16
    clip_norm: float = 5.0
    iteration_steps: int = 5000
    max_steps: int = 5000
    min_count: int = 1
    seed: int = 0

    def validate(self) -> None:
        for name in ("learning_rate", "clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        positive = {
            "embedding_dim": self.embedding_dim,
            "hidden_units": self.hidden_units,
            "max_decode_length": self.max_decode_length,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "clip_norm": self.clip_norm,
            "iteration_steps": self.iteration_steps,
            "min_count": self.min_count,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value!r}")
        if self.max_steps < 0:
            raise ConfigError("max_steps must be >= 0")
        if self.encoder_layers != 1:
            raise ConfigError("only a 1-layer encoder is supported")
        if self.decoder_layers != 2:
            raise ConfigError("only a 2-layer decoder is supported")
        if self.max_decode_length < 52:
            raise ConfigError("max_decode_length must be >= 52")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed!r}")


# Declared tensor order; checkpoints and gradient walks follow it.
def parameter_shapes(cfg: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    d, h, v = cfg.embedding_dim, cfg.hidden_units, vocab_size
    shapes: dict[str, tuple[int, ...]] = {"embedding": (v, d)}
    for direction in ("fwd", "bwd"):
        shapes[f"enc_{direction}_W"] = (d, 4 * h)
        shapes[f"enc_{direction}_U"] = (h, 4 * h)
        shapes[f"enc_{direction}_b"] = (4 * h,)
    for layer in range(cfg.decoder_layers):
        for kind in ("h", "c"):
            shapes[f"bridge_{kind}{layer}_W"] = (2 * h, h)
            shapes[f"bridge_{kind}{layer}_b"] = (h,)
    shapes["dec0_W"] = (d, 4 * h)
    shapes["dec0_U"] = (h, 4 * h)
    shapes["dec0_b"] = (4 * h,)
    shapes["dec1_W"] = (h, 4 * h)
    shapes["dec1_U"] = (h, 4 * h)
    shapes["dec1_b"] = (4 * h,)
    shapes["out_W"] = (h, v)
    shapes["out_b"] = (v,)
    return shapes


@dataclass
class Seq2SeqModel:
    config: ModelConfig
    vocabulary: Vocabulary
    params: dict[str, np.ndarray] = field(repr=False)

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


def init_model(cfg: ModelConfig, vocabulary: Vocabulary) -> Seq2SeqModel:
    cfg.validate()
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    r = 1.0 / np.sqrt(cfg.hidden_units)
    params = {
        name: rng.uniform(-r, r, size=shape)
        for name, shape in parameter_shapes(cfg, vocabulary.size()).items()
    }
    return Seq2SeqModel(cfg, vocabulary, params)


def check_parameter_shapes(model: Seq2SeqModel) -> None:
    expected = parameter_shapes(model.config, model.vocabulary.size())
    if set(model.params) != set(expected):
        raise ShapeError("parameter names do not match the architecture")
    for name, shape in expected.items():
        if model.params[name].shape != shape:
            raise ShapeError(
                f"{name}: expected shape {shape}, got {model.params[name].shape}"
            )


def _lstm_forward(Z, h, c, U, mask=None, trace=None):
    """Run an LSTM layer over precomputed input projections.

    Z (..., T, B, 4n) holds x·W + b for each of T steps; leading axes stack
    independent layers that run in lockstep, with U (..., n, 4n) stacked to
    match. Each step adds h·U and overwrites its slot of Z with the gate
    activations (i, f, g, o), taking sigmoid(z) as 0.5·(1 + tanh(z/2)) so
    that one tanh covers all four gates. mask (..., T, B, 1) of bools keeps
    a row's previous state at its False steps. With trace = (Hs, Cs, TC),
    Hs and Cs (..., T + 1, B, n) receive the states before and after every
    step and TC (..., T, B, n) tanh of each step's new cell state: what
    backpropagation reads. Returns the final (h, c).
    """
    n = U.shape[-2]
    # full-shape factors: a broadcast row would cost numpy more per call
    a = np.full(h.shape[:-1] + (4 * n,), 0.5)
    a[..., 2 * n : 3 * n] = 1.0
    shift = 1.0 - a
    keep = None if mask is None else ~mask
    if trace is not None:
        Hs, Cs, TC = trace
        Hs[..., 0, :, :] = h
        Cs[..., 0, :, :] = c
    h_out = c_out = tc_out = None
    for t in range(Z.shape[-3]):
        z = Z[..., t, :, :]
        z += h @ U
        z *= a
        np.tanh(z, out=z)
        z *= a
        z += shift
        if trace is not None:
            h_out, c_out = Hs[..., t + 1, :, :], Cs[..., t + 1, :, :]
            tc_out = TC[..., t, :, :]
        c_new = np.multiply(z[..., n : 2 * n], c, out=c_out)
        c_new += z[..., :n] * z[..., 2 * n : 3 * n]
        h_new = np.multiply(z[..., 3 * n :], np.tanh(c_new, out=tc_out), out=h_out)
        if keep is not None:
            np.copyto(h_new, h, where=keep[..., t, :, :])
            np.copyto(c_new, c, where=keep[..., t, :, :])
        h, c = h_new, c_new
    return h, c


def _project(X, W, b):
    """x·W + b for all steps at once: X (..., T, B, d) -> (..., T, B, 4n)."""
    Z = X.reshape(X.shape[:-3] + (-1, X.shape[-1])) @ W
    Z += b[..., None, :]
    return Z.reshape(X.shape[:-1] + (W.shape[-1],))


def _new_trace(Z):
    """Empty (Hs, Cs, TC) for an _lstm_forward run over Z."""
    *lead, steps, rows, width = Z.shape
    n = width // 4
    states = (*lead, steps + 1, rows, n)
    return np.empty(states), np.empty(states), np.empty((*lead, steps, rows, n))


def _lstm_step(x, h, c, W, U, b):
    """One batched step. Returns (h', c')."""
    return _lstm_forward((x @ W + b)[None], h, c, U)


def recurrent_cell(x, h, c, params):
    """Single-vector LSTM step: params holds W (d,4h), U (h,4h), b (4h,)."""
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    W, U, b = params["W"], params["U"], params["b"]
    n = U.shape[0]
    if W.shape != (x.shape[-1], 4 * n) or U.shape != (n, 4 * n) or b.shape != (4 * n,):
        raise ShapeError(
            f"inconsistent cell shapes: W {W.shape}, U {U.shape}, b {b.shape}"
        )
    if h.shape != (n,) or c.shape != (n,):
        raise ShapeError(f"state must have shape ({n},)")
    h_new, c_new = _lstm_step(x[None, :], h[None, :], c[None, :], W, U, b)
    return h_new[0], c_new[0]


def _encoder_weights(p):
    """The encoder's W, U and b with the two directions stacked on axis 0."""
    return tuple(np.stack([p[f"enc_fwd_{k}"], p[f"enc_bwd_{k}"]]) for k in "WUb")


def _encoder_steps(ids: np.ndarray, mask: np.ndarray):
    """Step ids (2, T, B) and bool masks (2, T, B, 1) of the stacked encoder.

    ids and mask are right-padded (B, T) batches. Direction 0 reads each
    row forward and direction 1 backward, so its step s reads position
    T-1-s; both then run as one recurrence.
    """
    ids, mask = ids.T, mask.T > 0
    return np.stack([ids, ids[::-1]]), np.stack([mask, mask[::-1]])[..., None]


def _bridge(p, h_cat, c_cat):
    """Decoder initial states from the concatenated final encoder states."""
    return [
        (
            np.tanh(h_cat @ p[f"bridge_h{layer}_W"] + p[f"bridge_h{layer}_b"]),
            np.tanh(c_cat @ p[f"bridge_c{layer}_W"] + p[f"bridge_c{layer}_b"]),
        )
        for layer in range(2)
    ]


# Steps per input projection when encoding for inference. Training keeps
# every step's projection for backprop; here a bounded buffer keeps the
# peak memory of a large batch flat however long its inputs are.
ENCODE_CHUNK_STEPS = 4


def _encode_batch(
    model: Seq2SeqModel, ids: np.ndarray, mask: np.ndarray, outputs: bool = False
):
    """Run the bidirectional encoder over a right-padded id batch.

    Masked positions keep the previous state, so trailing padding never
    leaks into the final states. Returns the per-position outputs
    (B,T,2H), or None unless asked for, and the bridged decoder initial
    states.
    """
    p = model.params
    H = model.config.hidden_units
    steps, step_mask = _encoder_steps(ids, mask)
    W, U, b = _encoder_weights(p)
    h = c = np.zeros((2, ids.shape[0], H))
    out = []
    for start in range(0, steps.shape[1], ENCODE_CHUNK_STEPS):
        chunk = slice(start, start + ENCODE_CHUNK_STEPS)
        Z = _project(p["embedding"][steps[:, chunk]], W, b)
        trace = _new_trace(Z) if outputs else None
        h, c = _lstm_forward(Z, h, c, U, step_mask[:, chunk], trace)
        if outputs:
            out.append(trace[0][:, 1:])
        del Z, trace
    init = _bridge(p, np.concatenate(h, axis=1), np.concatenate(c, axis=1))
    if not outputs:
        return None, init
    Hs = np.concatenate(out, axis=1)
    # direction 1's step s is position T-1-s, so its outputs run reversed
    return np.concatenate([Hs[0], Hs[1, ::-1]], axis=2).transpose(1, 0, 2), init


def _check_input_ids(input_ids: list[int], vocab_size: int) -> None:
    if not input_ids:
        raise ShapeError("cannot encode an empty sequence")
    if any(i < 0 or i >= vocab_size for i in input_ids):
        raise ShapeError("input id out of vocabulary range")


def encode(input_ids: list[int], model: Seq2SeqModel):
    """Encode one sequence. Returns (outputs (T,2H), decoder init states)."""
    check_parameter_shapes(model)
    _check_input_ids(input_ids, model.vocabulary.size())
    ids = np.asarray([input_ids], dtype=np.int64)
    mask = np.ones_like(ids, dtype=np.float64)
    outputs, init = _encode_batch(model, ids, mask, outputs=True)
    return outputs[0], [(h[0], c[0]) for h, c in init]


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _decoder_step(model: Seq2SeqModel, token_id: int, state):
    p = model.params
    x = p["embedding"][token_id][None, :]
    (h0, c0), (h1, c1) = state
    h0n, c0n = _lstm_step(x, h0[None, :], c0[None, :], p["dec0_W"], p["dec0_U"], p["dec0_b"])
    h1n, c1n = _lstm_step(h0n, h1[None, :], c1[None, :], p["dec1_W"], p["dec1_U"], p["dec1_b"])
    logits = h1n @ p["out_W"] + p["out_b"]
    return logits[0], [(h0n[0], c0n[0]), (h1n[0], c1n[0])]


def decode_greedy(state, model: Seq2SeqModel) -> list[int]:
    """Emit argmax tokens until EOS or the configured cap.

    Ties break toward the lowest index; SOS/EOS are not part of the
    returned list.
    """
    out: list[int] = []
    token = SOS
    for _ in range(model.config.max_decode_length):
        logits, state = _decoder_step(model, token, state)
        probs = softmax(logits)
        assert abs(float(probs.sum()) - 1.0) < 1e-6
        token = int(np.argmax(probs))
        if token == EOS:
            break
        out.append(token)
    return out


# Rows per teacher-forced pass of greedy_reproduces. Rows are sorted by
# length first, so a block pads little, and the bound keeps peak memory
# flat however many rows a release has.
CHECK_BLOCK_ROWS = 64


def greedy_reproduces(
    model: Seq2SeqModel, inputs: list[list[int]], targets: list[list[int]]
) -> list[bool]:
    """For each row, whether ``decode_greedy(encode(input)) == target``.

    Answered without decoding token by token: the inputs are encoded as
    batches and the decoder runs once per batch, teacher-forced on
    ``[SOS] + target``. Greedy decoding feeds back its own argmax, so it
    emits exactly a target of length L when the argmax at every step
    t < L is ``target[t]`` and, unless L reaches ``max_decode_length``,
    the argmax at step L is EOS. A target longer than the cap, or holding
    EOS or an id outside the vocabulary, can never come out. Inputs are
    checked as ``encode`` checks them.

    A verdict depends on its row's ids alone, so each distinct
    ``(input, target)`` runs once, and every row holding it shares its
    verdict.
    """
    if len(inputs) != len(targets):
        raise ShapeError("inputs and targets differ in length")
    check_parameter_shapes(model)
    # the slot of each row's distinct (input, target), in first-seen order
    distinct: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    slots = [
        distinct.setdefault((tuple(i), tuple(t)), len(distinct))
        for i, t in zip(inputs, targets)
    ]
    keys = list(distinct)
    v = model.vocabulary.size()
    for input_ids, _ in keys:
        _check_input_ids(input_ids, v)
    cap = model.config.max_decode_length
    hits = [False] * len(keys)
    todo = [
        j
        for j, (_, target) in enumerate(keys)
        if len(target) <= cap and all(0 <= i < v and i != EOS for i in target)
    ]
    todo.sort(key=lambda j: (len(keys[j][0]), len(keys[j][1])))
    for start in range(0, len(todo), CHECK_BLOCK_ROWS):
        block = todo[start : start + CHECK_BLOCK_ROWS]
        found = _reproduces_block(
            model, [keys[j][0] for j in block], [keys[j][1] for j in block]
        )
        for j, hit in zip(block, found):
            hits[j] = hit
    return [hits[j] for j in slots]


def _reproduces_block(model: Seq2SeqModel, inputs, targets) -> list[bool]:
    p = model.params
    n = len(inputs)
    ids = np.full((n, max(len(s) for s in inputs)), PAD, dtype=np.int64)
    mask = np.zeros(ids.shape)
    for b, seq in enumerate(inputs):
        ids[b, : len(seq)] = seq
        mask[b, : len(seq)] = 1.0
    _, init = _encode_batch(model, ids, mask)

    # want[b, t] is the token greedy decoding must emit at step t, or -1
    # once row b has stopped; a target of the full cap length has no EOS.
    cap = model.config.max_decode_length
    steps = min(max(len(s) for s in targets) + 1, cap)
    want = np.full((n, steps), -1, dtype=np.int64)
    dec_in = np.full((n, steps), PAD, dtype=np.int64)
    dec_in[:, 0] = SOS
    for b, seq in enumerate(targets):
        want[b, : len(seq)] = seq
        if len(seq) < cap:
            want[b, len(seq)] = EOS
        fed = seq[: steps - 1]
        dec_in[b, 1 : len(fed) + 1] = fed

    (h0, c0), (h1, c1) = init
    hit = np.ones(n, dtype=bool)
    for t in range(steps):
        x = p["embedding"][dec_in[:, t]]
        h0, c0 = _lstm_step(x, h0, c0, p["dec0_W"], p["dec0_U"], p["dec0_b"])
        h1, c1 = _lstm_step(h0, h1, c1, p["dec1_W"], p["dec1_U"], p["dec1_b"])
        token = np.argmax(softmax(h1 @ p["out_W"] + p["out_b"]), axis=1)
        hit &= (want[:, t] < 0) | (token == want[:, t])
        if not hit.any():
            break
    return hit.tolist()
