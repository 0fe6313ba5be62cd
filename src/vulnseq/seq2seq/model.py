"""Encoder-decoder network over abstracted token sequences.

Architecture: shared embedding, a single bidirectional LSTM encoder layer,
a bridge that maps the concatenated final encoder states to the initial
states of a two-layer LSTM decoder, and a linear projection from the top
decoder layer to vocabulary logits. Pure float64 numpy throughout; every
random draw comes from one seeded generator so runs are reproducible
bit-for-bit.

Training and inference run every LSTM layer through one runner,
``_packed_lstm_forward``, over packed, time-major arrays (cf. the
variable length batching of cuDNN's RNN kernels, arXiv:1604.01946). The
rows of a batch are sorted longest first, ties kept in batch order: the
encoder's by input length, the decoder's by the steps it runs, target
length + 1 for the EOS step. The rows still running at step t are then a
prefix of k[t] rows, stored at rows off[t] to off[t] + k[t] of arrays
with one row per real token (``_Packing``), so every recurrence,
projection and softmax runs over real tokens only and no loop holds a
mask. Every LSTM run, each encoder direction and each decoder layer, is
one 2-D layer run (``_layer_forward``) over its own weights. The
encoder's backward direction reads each row reversed within its own
length, so both directions run over one packing. A single step, as
``recurrent_cell`` and ``decode_greedy`` take them, is a packing of one
row of length 1. ``_encode_rows``, the one encoder assembly of training,
``encode`` and the identity check, bridges the final states in the
caller's decoder order. A ``ModelConfig`` checks
its field types and values and a ``Seq2SeqModel`` its parameter shapes
once, when built. Greedy decoding stops after ``MAX_DECODE_LENGTH`` (64)
tokens, a constant: chunks hold at most 50 tokens, so it never cuts one
short.

Every call allocates its arrays afresh. ``train()`` sets ``mallopt`` so
that the C heap keeps what a step frees for the next, saving about 800
page faults per desk step; the setting is process-wide, so a process
that has trained keeps its freed heap memory.

``greedy_reproduces`` is the one "does greedy decoding give this target
back?" check, for prediction and validation alike. Abstracted chunks
repeat a lot, so it runs each distinct (input, target) row once and hands
that verdict to every row that holds it. The training step finds its
distinct pairs by the same first-copy rule, ``_first_copies``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, NumericalError, ShapeError, check_field_types
from .vocab import EOS, SOS, Vocabulary


# Greedy decoding emits at most this many tokens before EOS.
MAX_DECODE_LENGTH = 64


@dataclass(frozen=True)
class ModelConfig:
    """The model's settings, the one place that knows their names and types,
    checked by ``check_field_types``."""

    embedding_dim: int = 32
    hidden_units: int = 32
    learning_rate: float = 0.05
    batch_size: int = 16
    clip_norm: float = 5.0
    iteration_steps: int = 5000
    max_steps: int = 5000
    min_count: int = 1
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for name in ("learning_rate", "clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        positive = {
            "embedding_dim": self.embedding_dim,
            "hidden_units": self.hidden_units,
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
    for layer in range(2):
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

    def __post_init__(self):
        expected = parameter_shapes(self.config, self.vocabulary.size())
        if set(self.params) != set(expected):
            raise ShapeError("parameter names do not match the architecture")
        for name, shape in expected.items():
            if self.params[name].shape != shape:
                raise ShapeError(
                    f"{name}: expected shape {shape}, got {self.params[name].shape}"
                )

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


def init_model(cfg: ModelConfig, vocabulary: Vocabulary) -> Seq2SeqModel:
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    r = 1.0 / np.sqrt(cfg.hidden_units)
    shapes = parameter_shapes(cfg, vocabulary.size())
    try:
        params = {name: rng.uniform(-r, r, size=shape) for name, shape in shapes.items()}
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest array
        sizes = f"embedding_dim {cfg.embedding_dim}, hidden_units {cfg.hidden_units}"
        raise ConfigError(f"a model of {sizes} does not fit in memory: {exc}") from None
    return Seq2SeqModel(cfg, vocabulary, params)


class _Packing(NamedTuple):
    """A batch's rows sorted longest first and packed time-major.

    ``order[j]`` is the batch row that sorted row j holds; ties keep batch
    order. The rows still running at step t are then the first
    ``k[t]``, and a packed array holds them at rows ``off[t]`` to
    ``off[t] + k[t]``: N = Σ lengths rows, none of them padding. Packed row
    p is sorted row ``row[p]`` at step ``step[p]``. A trace of states puts
    the B initial states in front of the N after each step, so the state
    before packed row p is trace row ``prev[p]`` and sorted row j's final
    state is trace row ``last[j]``.
    """

    order: np.ndarray
    lengths: np.ndarray
    k: list[int]
    off: list[int]
    row: np.ndarray
    step: np.ndarray
    prev: np.ndarray
    last: np.ndarray


def _pack(lengths: list[int]) -> _Packing:
    lengths = np.asarray(lengths, dtype=np.int64)
    b = len(lengths)
    order = np.argsort(-lengths, kind="stable")
    ls = lengths[order]
    # ls falls, so the rows longer than t are a prefix: count them
    k = np.searchsorted(-ls, -np.arange(ls[0]), side="left")
    off = np.concatenate([[0], np.cumsum(k)])
    step = np.repeat(np.arange(len(k)), k)
    row = np.arange(off[-1]) - off[step]
    # trace row of the state before step t: the initial block, then step t-1's
    before = np.concatenate([[0], b + off[:-1]])
    return _Packing(
        order=order,
        lengths=ls,
        k=k.tolist(),
        off=off[:-1].tolist(),
        row=row,
        step=step,
        prev=before[step] + row,
        last=before[ls] + np.arange(b),
    )


def _packed_ids(packing: _Packing, seqs: list[list[int]], reverse: bool = False):
    """The id each packed row reads from seqs, given in batch order.

    Each sequence must hold exactly its row's packed length of ids. With
    reverse, a row reads its own sequence backwards: step t takes
    position length - 1 - t, so no row ever reads padding.
    """
    ls = packing.lengths
    flat = np.fromiter(
        chain.from_iterable(seqs[b] for b in packing.order), dtype=np.int64, count=ls.sum()
    )
    start = np.cumsum(ls) - ls
    at = ls[packing.row] - 1 - packing.step if reverse else packing.step
    return flat[start[packing.row] + at]


def _gate_scaled(U: np.ndarray) -> np.ndarray:
    """U (..., 4n) times the gates' input scaling a: 0.5 for i, f and o, 1 for g.

    a·tanh(a·z) + (1 - a) is then sigmoid(z) = 0.5·(1 + tanh(z/2)) for i, f
    and o and tanh(z) for g, so one tanh serves all four gates. Scaling by
    0.5 is exact, so it changes no bit.
    """
    n = U.shape[-1] // 4
    Ua = U * 0.5
    Ua[..., 2 * n : 3 * n] = U[..., 2 * n : 3 * n]
    return Ua


def _packed_lstm_forward(Z, h, c, Ua, packing: _Packing):
    """Run an LSTM layer over packed input projections.

    Z (N, 4n) holds x·W + b for every packed row, Ua (n, 4n) is U already
    scaled by ``_gate_scaled``, once per caller, not per step, and h, c
    (B, n) are the initial states. Step t adds h·Ua to its k[t] rows of Z
    and overwrites them with the gate activations (i, f, g, o), one tanh
    for all four. Returns the trace (Hs, Cs, TC): Hs and Cs (B + N, n) hold
    the initial states, then the state after each packed row, and TC (N,
    n) tanh of each new cell state, which is what backpropagation reads.
    """
    n = Ua.shape[0]
    b = len(h)
    # the factors a themselves, full-shape, as a broadcast row would cost
    # numpy more per call
    a = _gate_scaled(np.ones((b, 4 * n)))
    shift = 1.0 - a
    Z *= a[0]
    Hs = np.empty((b + len(Z), n))
    Cs = np.empty_like(Hs)
    TC = np.empty((len(Z), n))
    Hs[:b] = h
    Cs[:b] = c
    before = 0
    for start, k in zip(packing.off, packing.k):
        z = Z[start : start + k]
        z += Hs[before : before + k] @ Ua
        np.tanh(z, out=z)
        z *= a[:k]
        z += shift[:k]
        after = b + start
        c_new = np.multiply(z[:, n : 2 * n], Cs[before : before + k], out=Cs[after : after + k])
        c_new += z[:, :n] * z[:, 2 * n : 3 * n]
        np.multiply(
            z[:, 3 * n :], np.tanh(c_new, out=TC[start : start + k]), out=Hs[after : after + k]
        )
        before = after
    return Hs, Cs, TC


def _layer_forward(p, name: str, x, state, Ua, packing: _Packing):
    """Layer name's W, U and b run over its packed inputs x from state (h, c).

    Ua is the layer's U from ``_gate_scaled``. Returns Z, left holding the
    gates, and the trace: what backpropagation reads.
    """
    Z = x @ p[f"{name}_W"]
    Z += p[f"{name}_b"]
    return Z, _packed_lstm_forward(Z, *state, Ua, packing)


# one row, one step: the packing of recurrent_cell and decode_greedy
_ONE_STEP = _pack([1])


def recurrent_cell(x, h, c, params):
    """Single-vector LSTM step: params holds W (d,4h), U (h,4h), b (4h,)."""
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    W, U, b = params["W"], params["U"], params["b"]
    n = U.shape[0]
    if x.ndim != 1:
        raise ShapeError(f"x must be a single vector, got shape {x.shape}")
    if W.shape != (x.shape[0], 4 * n) or U.shape != (n, 4 * n) or b.shape != (4 * n,):
        raise ShapeError(
            f"inconsistent cell shapes: W {W.shape}, U {U.shape}, b {b.shape}"
        )
    if h.shape != (n,) or c.shape != (n,):
        raise ShapeError(f"state must have shape ({n},)")
    Hs, Cs, _ = _packed_lstm_forward(x[None] @ W + b, h[None], c[None], _gate_scaled(U), _ONE_STEP)
    return Hs[1], Cs[1]


def _bridge(p, h_cat, c_cat):
    """Decoder initial states from the concatenated final encoder states."""
    return [
        (
            np.tanh(h_cat @ p[f"bridge_h{layer}_W"] + p[f"bridge_h{layer}_b"]),
            np.tanh(c_cat @ p[f"bridge_c{layer}_W"] + p[f"bridge_c{layer}_b"]),
        )
        for layer in range(2)
    ]


def _encode_rows(p, seqs: list[list[int]], rows):
    """Run the encoder over seqs and bridge the final states of batch rows
    ``rows``, in that order.

    The two directions are two layer runs over one packing, the backward
    one on each row's ids reversed. Returns the encoder's packing, the
    sorted position of each requested row, each direction's run (packed
    ids, embeddings, gates, trace), the concatenated final states (h_cat,
    c_cat) and the bridged decoder initial states: backpropagation reads
    them all, inference only the last.
    """
    pe = _pack([len(s) for s in seqs])
    zeros = np.zeros((len(seqs), len(p["enc_fwd_U"])))
    runs = []
    for name, reverse in (("enc_fwd", False), ("enc_bwd", True)):
        ids = _packed_ids(pe, seqs, reverse)
        x = p["embedding"][ids]
        Ua = _gate_scaled(p[f"{name}_U"])
        runs.append((ids, x, *_layer_forward(p, name, x, (zeros, zeros), Ua, pe)))
    # batch row order[j] is sorted row j, and ends at trace row last[j]
    sel = np.argsort(pe.order)[rows]
    fin = pe.last[sel]
    cat = [np.concatenate([trace[k][fin] for *_, trace in runs], axis=1) for k in range(2)]
    return pe, sel, runs, cat, _bridge(p, *cat)


def _check_input_ids(input_ids: list[int], vocab_size: int) -> None:
    if not input_ids:
        raise ShapeError("cannot encode an empty sequence")
    if any(i < 0 or i >= vocab_size for i in input_ids):
        raise ShapeError("input id out of vocabulary range")


def encode(input_ids: list[int], model: Seq2SeqModel):
    """Encode one sequence. Returns (outputs (T,2H), decoder init states)."""
    _check_input_ids(input_ids, model.vocabulary.size())
    _, _, (fwd, bwd), _, init = _encode_rows(model.params, [input_ids], [0])
    # trace row t + 1 holds the state after step t, and the backward
    # direction's step t reads position T-1-t, so its outputs run reversed
    outputs = np.concatenate([fwd[3][0][1:], bwd[3][0][:0:-1]], axis=1)
    return outputs, [(h[0], c[0]) for h, c in init]


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _decoder_U(p) -> list[np.ndarray]:
    """Both decoder layers' U, scaled for _packed_lstm_forward."""
    return [_gate_scaled(p[f"dec{k}_U"]) for k in range(2)]


def _decoder_forward(p, dec_in: np.ndarray, init, pd: _Packing, Ua):
    """The teacher-forced decoder over the packed input ids dec_in.

    init holds each layer's initial (h, c) in pd's sorted row order, and
    Ua each layer's U from ``_decoder_U``. Layer 0 never reads layer 1, so
    it runs over all steps first; layer 1's input projection and the logits
    are then one GEMM each. Returns each layer's (input, gates, trace),
    which backpropagation reads, and the logits.
    """
    runs = []
    x = p["embedding"][dec_in]
    for k in range(2):
        Z, trace = _layer_forward(p, f"dec{k}", x, init[k], Ua[k], pd)
        runs.append((x, Z, trace))
        x = trace[0][len(pd.order) :]
    logits = x @ p["out_W"]
    logits += p["out_b"]
    return runs, logits


def decode_greedy(state, model: Seq2SeqModel) -> list[int]:
    """Emit argmax tokens until EOS or ``MAX_DECODE_LENGTH`` of them.

    Each step is a one-row, one-step run of the teacher-forced decoder,
    with the decoder's U scaled once per call. Ties break toward the
    lowest index; SOS/EOS are not part of the returned list.
    """
    state = [(h[None], c[None]) for h, c in state]
    Ua = _decoder_U(model.params)
    out: list[int] = []
    token = SOS
    for _ in range(MAX_DECODE_LENGTH):
        runs, logits = _decoder_forward(model.params, np.array([token]), state, _ONE_STEP, Ua)
        state = [(Hs[1:], Cs[1:]) for _, _, (Hs, Cs, _) in runs]
        probs = softmax(logits[0])
        assert abs(float(probs.sum()) - 1.0) < 1e-6
        token = int(np.argmax(probs))
        if token == EOS:
            break
        out.append(token)
    return out


def _first_copies(keys) -> tuple[list[int], list[int]]:
    """(first, slot): the earliest row of each distinct key, in first-seen
    order, and for each row b the position in first of b's key."""
    seen: dict = {}
    slot = [seen.setdefault(key, (len(seen), b))[0] for b, key in enumerate(keys)]
    return [b for _, b in seen.values()], slot


# Packed tokens, encoder and decoder, times hidden units per teacher-forced
# block of greedy_reproduces. A block keeps every step's gates and states
# alive, so its memory grows with that product; the bound keeps peak
# memory flat however many rows a release has and however wide the model
# is.
CHECK_BLOCK_TOKEN_UNITS = 1 << 16


def greedy_reproduces(
    model: Seq2SeqModel, inputs: list[list[int]], targets: list[list[int]]
) -> list[bool]:
    """For each row, whether ``decode_greedy(encode(input)) == target``.

    Answered without decoding token by token: the inputs are encoded as
    batches and the decoder runs once per batch, teacher-forced on
    ``[SOS] + target``. Greedy decoding feeds back its own argmax, so it
    emits exactly a target of length L when the argmax at every step
    t < L is ``target[t]`` and, unless L reaches ``MAX_DECODE_LENGTH``,
    the argmax at step L is EOS. A target longer than the cap, or holding
    EOS or an id outside the vocabulary, can never come out. Inputs are
    checked as ``encode`` checks them.

    A verdict depends on its row's ids alone, so each distinct
    ``(input, target)`` runs once, as its first copy (``_first_copies``),
    and every row holding it shares its verdict.

    Raises NumericalError when the check's arithmetic overflows or turns
    invalid. The floating-point flags tell, not the logits: tanh saturates
    an overflowed gate input to a finite value, so overflowing weights can
    still give finite logits, and so verdicts.
    """
    if len(inputs) != len(targets):
        raise ShapeError("inputs and targets differ in length")
    keys = [(tuple(i), tuple(t)) for i, t in zip(inputs, targets)]
    first, slots = _first_copies(keys)
    keys = [keys[b] for b in first]
    v = model.vocabulary.size()
    for input_ids, _ in keys:
        _check_input_ids(input_ids, v)
    cap = MAX_DECODE_LENGTH
    hits = [False] * len(keys)
    todo = [
        j
        for j, (_, target) in enumerate(keys)
        if len(target) <= cap and all(0 <= i < v and i != EOS for i in target)
    ]
    todo.sort(key=lambda j: (len(keys[j][0]), len(keys[j][1])))
    # a row packs its input and min(len(target) + 1, cap) decoder steps
    tokens = np.cumsum([len(keys[j][0]) + min(len(keys[j][1]) + 1, cap) for j in todo])
    blocks = tokens * model.config.hidden_units // CHECK_BLOCK_TOKEN_UNITS
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _, group in groupby(zip(blocks.tolist(), todo), key=itemgetter(0)):
                block = [j for _, j in group]
                found = _reproduces_block(
                    model, [keys[j][0] for j in block], [keys[j][1] for j in block]
                )
                for j, hit in zip(block, found):
                    hits[j] = hit
    except FloatingPointError as exc:
        raise NumericalError(f"the identity check went non-finite: {exc}") from None
    return [hits[j] for j in slots]


def _reproduces_block(model: Seq2SeqModel, inputs, targets) -> list[bool]:
    # greedy decoding is fed [SOS] + target and must emit target + [EOS],
    # but it stops after cap steps, so a target of cap ids needs no EOS
    cap = MAX_DECODE_LENGTH
    fed = [[SOS, *t][:cap] for t in targets]
    pd = _pack([len(s) for s in fed])
    # only the bridged states outlive the encoder: its trace is freed here
    init = _encode_rows(model.params, inputs, pd.order)[-1]
    Ua = _decoder_U(model.params)
    logits = _decoder_forward(model.params, _packed_ids(pd, fed), init, pd, Ua)[1]
    want = _packed_ids(pd, [[*t, EOS][:cap] for t in targets])
    wrong = np.argmax(softmax(logits), axis=1) != want
    hit = np.empty(len(targets), dtype=bool)
    hit[pd.order] = np.bincount(pd.row, wrong, len(targets)) == 0
    return hit.tolist()
