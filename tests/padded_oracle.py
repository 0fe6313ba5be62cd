"""A padded, one-step-at-a-time seq2seq forward pass: the tests' oracle.

This is an earlier implementation of the model's forward pass, kept as the
reference the packed runner is compared against. It shares no code with
``vulnseq.seq2seq.model``: ``lstm_step`` runs one batched LSTM step with a
piecewise sigmoid, ``encode_batch`` runs right-padded, masked (B, T)
batches in batch order, one step per layer and timestep, and
``greedy_decode`` decodes one input a token at a time. The packed runner
computes each gate as one tanh, so the two agree to rounding, not bit for
bit.
"""

import numpy as np

from vulnseq.seq2seq.model import MAX_DECODE_LENGTH, Seq2SeqModel
from vulnseq.seq2seq.vocab import EOS, SOS


def sigmoid(z: np.ndarray) -> np.ndarray:
    # piecewise form avoids overflow in exp for large |z|
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lstm_step(x, h, c, W, U, b):
    """One batched step. Returns (h', c', gate cache for backprop)."""
    n = W.shape[1] // 4
    z = x @ W + h @ U + b
    i = sigmoid(z[:, :n])
    f = sigmoid(z[:, n : 2 * n])
    g = np.tanh(z[:, 2 * n : 3 * n])
    o = sigmoid(z[:, 3 * n :])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new, (i, f, g, o)


def encode_batch(
    model: Seq2SeqModel, ids: np.ndarray, mask: np.ndarray, states_only: bool = False
):
    """Run the bidirectional encoder over a right-padded id batch.

    Masked positions keep the previous state, so trailing padding never
    leaks into the final states. Returns outputs (B,T,2H), the bridged
    decoder initial states, and the cache needed for backprop; with
    states_only the outputs and the cache are None.
    """
    p = model.params
    B, T = ids.shape
    H = model.config.hidden_units
    X = p["embedding"][ids]  # (B,T,D)

    states = {}
    caches = {"fwd": [], "bwd": []}
    outputs = None if states_only else np.zeros((B, T, 2 * H))
    for direction, order in (("fwd", range(T)), ("bwd", range(T - 1, -1, -1))):
        W, U, b = p[f"enc_{direction}_W"], p[f"enc_{direction}_U"], p[f"enc_{direction}_b"]
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        for t in order:
            m = mask[:, t : t + 1]
            h_new, c_new, gates = lstm_step(X[:, t], h, c, W, U, b)
            if not states_only:
                caches[direction].append((t, X[:, t], h, c, gates, c_new, m))
            h = m * h_new + (1.0 - m) * h
            c = m * c_new + (1.0 - m) * c
            if not states_only:
                half = slice(0, H) if direction == "fwd" else slice(H, 2 * H)
                outputs[:, t, half] = h
        states[direction] = (h, c)

    h_cat = np.concatenate([states["fwd"][0], states["bwd"][0]], axis=1)
    c_cat = np.concatenate([states["fwd"][1], states["bwd"][1]], axis=1)
    init = []
    bridge_cache = []
    for layer in range(2):
        h0 = np.tanh(h_cat @ p[f"bridge_h{layer}_W"] + p[f"bridge_h{layer}_b"])
        c0 = np.tanh(c_cat @ p[f"bridge_c{layer}_W"] + p[f"bridge_c{layer}_b"])
        init.append((h0, c0))
        bridge_cache.append((h0, c0))
    if states_only:
        return None, init, None
    cache = {
        "ids": ids,
        "mask": mask,
        "X": X,
        "steps": caches,
        "h_cat": h_cat,
        "c_cat": c_cat,
        "bridge": bridge_cache,
    }
    return outputs, init, cache


def greedy_decode(model: Seq2SeqModel, input_ids: list[int]) -> list[int]:
    """Greedy decoding of one input, one step of each decoder layer at a time.

    Each step feeds the previous token (SOS first) through both decoder
    layers and emits the argmax of the softmax probabilities, the lowest
    index on ties, until EOS or ``MAX_DECODE_LENGTH`` tokens.
    """
    p = model.params
    ids = np.array([input_ids], dtype=np.int64)
    _, init, _ = encode_batch(model, ids, np.ones(ids.shape), states_only=True)
    (h0, c0), (h1, c1) = init
    out: list[int] = []
    token = SOS
    for _ in range(MAX_DECODE_LENGTH):
        x = p["embedding"][[token]]
        h0, c0, _ = lstm_step(x, h0, c0, p["dec0_W"], p["dec0_U"], p["dec0_b"])
        h1, c1, _ = lstm_step(h0, h1, c1, p["dec1_W"], p["dec1_U"], p["dec1_b"])
        logits = (h1 @ p["out_W"] + p["out_b"])[0]
        e = np.exp(logits - logits.max())
        token = int(np.argmax(e / e.sum()))
        if token == EOS:
            break
        out.append(token)
    return out
