"""vulnseq benchmark: training, release scoring and the classical baselines.

Run from the root of a vulnseq checkout:

    python3 perfbench/run.py --workload train-desk --seed 3 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout and driven through
its public API (``train``, ``predict_release``, ``run_baseline``), timed
from outside. Inputs are generated from ``--seed``. Timed calls repeat
until ``--seconds`` have passed; every call's outputs are checked. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines above it are a readable summary and a ``context`` JSON line
with machine facts and input properties. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread, like --jobs 1: a run then uses one core whatever else
# shares the machine. Must be set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
CHECKPOINT = BENCH_DIR / "desk.ckpt"
CHECKPOINT_SHA256 = "ead414ce6b747e691c0b95c84c2bb66736eb3ac96ce9b79c5f4e577615e366e1"
EXPECTED = BENCH_DIR / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"

RECORDED_SEEDS = 32  # expected.json holds seeds 0..31 of every workload
SETUP_REPEATS = 7  # set-up samples per run, spread over the timed section
TRAIN_RELEASE = 2
FIRST_LOSS_RTOL = 1e-9
# Gradient check: central difference along one fixed random unit direction
# per parameter array, on the first GRAD_PAIRS pairs of the fixed batch, at
# GRAD_HIDDEN units. The gradient code does not depend on the width; at 256
# units the check took 16 s, at 32 it takes about 1 s.
GRAD_STEP = 1e-5
GRAD_PAIRS = 4
GRAD_HIDDEN = 32
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-8
# A reduction-order change (for example another sigmoid formula) moved the
# trained loss by a relative 1.6e-6 over 500 desk steps; a broken gradient
# moves it by orders of magnitude more (see selftest.py).
TRAINED_LOSS_RTOL = 1e-4
METRIC_ATOL = 1e-9
ORACLE_STRIDE = 30  # every 30th component of score-release is re-scored


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_program():
    src = ROOT / "src"
    if not (src / "vulnseq" / "__init__.py").is_file():
        raise SetupError(f"{src / 'vulnseq'} not found: run from the root of a vulnseq checkout")
    sys.path.insert(0, str(src))
    import vulnseq
    import vulnseq.baselines
    import vulnseq.pairing
    import vulnseq.predict
    import vulnseq.seq2seq
    import vulnseq.synth

    if Path(vulnseq.__file__).resolve().parent != (src / "vulnseq").resolve():
        raise SetupError(f"imported vulnseq from {vulnseq.__file__}, not from {src}")


# --- shared helpers -------------------------------------------------------


def _close(problems, what, got, want, rtol=0.0, atol=0.0):
    if not (math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)):
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _corpus(seed, components, tmp):
    """synth, then save and load through a file, as `synth` then `train` do."""
    from vulnseq import corpus as vcorpus
    from vulnseq import synth as vsynth

    corpus = vsynth.generate_synthetic_corpus(
        seed, vsynth.SynthesisSpec(components_per_release=components)
    )
    path = os.path.join(tmp, "corpus.jsonl")
    vcorpus.save_corpus(corpus, path)
    return vcorpus.load_corpus(path)


def reference_loss(model, batch):
    """Teacher-forced loss computed one sequence at a time.

    Built from the public per-sequence API (``encode``, ``recurrent_cell``):
    it shares the LSTM cell with ``compute_loss_and_grads`` but not its
    batching, padding, masking or loss reduction.
    """
    from vulnseq import seq2seq as vs2s

    p = model.params
    cells = [{"W": p[f"dec{k}_W"], "U": p[f"dec{k}_U"], "b": p[f"dec{k}_b"]} for k in (0, 1)]
    vocab = model.vocabulary
    per_pair = []
    for pair in batch:
        _, ((h0, c0), (h1, c1)) = vs2s.encode(vocab.encode(pair.input.tokens), model)
        target = vocab.encode(pair.target.tokens) + [vs2s.EOS]
        prev = vs2s.SOS
        nll = 0.0
        for tok in target:
            h0, c0 = vs2s.recurrent_cell(p["embedding"][prev], h0, c0, cells[0])
            h1, c1 = vs2s.recurrent_cell(h0, h1, c1, cells[1])
            z = h1 @ p["out_W"] + p["out_b"]
            zmax = float(z.max())
            nll += zmax + math.log(float(sum(math.exp(float(v) - zmax) for v in z))) - float(z[tok])
            prev = tok
        per_pair.append(nll / len(target))
    return sum(per_pair) / len(per_pair)


def gradient_problems(model, batch):
    """Check the gradient that ``train()`` follows against finite differences.

    For each parameter array, the gradient's component along one fixed
    random unit direction v must match (L(p + hv) - L(p - hv)) / 2h. The
    directions come from a fixed seed, so this check works on any seed.
    """
    import numpy as np

    grad_fn = importlib.import_module("vulnseq.seq2seq.train").compute_loss_and_grads
    _, grads = grad_fn(model, batch)
    rng = np.random.default_rng(0)
    problems = []
    for name, value in model.params.items():
        v = rng.standard_normal(value.shape)
        v /= np.linalg.norm(v)

        def loss_at(step):
            params = dict(model.params, **{name: value + step * v})
            return grad_fn(dataclasses.replace(model, params=params), batch)[0]

        fd = (loss_at(GRAD_STEP) - loss_at(-GRAD_STEP)) / (2 * GRAD_STEP)
        _close(problems, f"gradient of {name} vs finite difference", float(np.vdot(grads[name], v)),
               fd, rtol=GRAD_RTOL, atol=GRAD_ATOL)
    return problems


# --- workloads ------------------------------------------------------------


class TrainWorkload:
    """One ``train()`` call on the clean release-2 pairs; fixed step budget."""

    components = 60
    unit_name = "train_steps_per_s"

    def __init__(self, hidden_units, steps):
        from vulnseq.seq2seq import ModelConfig

        self.config = ModelConfig(
            embedding_dim=32,
            hidden_units=hidden_units,
            learning_rate=1.0,
            batch_size=16,
            iteration_steps=steps,
            max_steps=steps,
            seed=0,
        )

    def setup(self, seed, tmp):
        from vulnseq import corpus as vcorpus
        from vulnseq import pairing as vpairing
        from vulnseq import seq2seq as vs2s

        corpus = _corpus(seed, self.components, tmp)
        material = vcorpus.clean_training_set(corpus, TRAIN_RELEASE)
        labeled = vpairing.labeled_functions_from_material(material)
        pairs = vpairing.build_training_pairs(labeled, vpairing.PairingConfig(seed=0))
        train_pairs, validation = vs2s.split_holdout(pairs, 0.1, seed=0)
        return SimpleNamespace(
            pairs=pairs,
            train=train_pairs,
            validation=validation,
            batch=train_pairs[: self.config.batch_size],
            digest=None,
            first_loss=None,
        )

    def attempts(self, st):
        return 1

    def run(self, st, tag):
        from vulnseq import seq2seq as vs2s

        state = vs2s.TrainingState()
        model = vs2s.train(st.train, st.validation, self.config, state)
        return (model, state), state.step

    def run_checks(self, st, expected):
        from vulnseq import seq2seq as vs2s

        vocab = vs2s.vocabulary_from_pairs(st.train, self.config.min_count)
        model = vs2s.init_model(self.config, vocab)
        st.first_loss = vs2s.compute_loss_and_grads(model, st.batch)[0]
        problems = []
        _close(problems, "first-batch loss vs per-sequence reference", st.first_loss,
               reference_loss(model, st.batch), rtol=FIRST_LOSS_RTOL)
        if expected:
            _close(problems, "first-batch loss vs recorded", st.first_loss,
                   expected["first_batch_loss"], rtol=FIRST_LOSS_RTOL)
        small = vs2s.init_model(dataclasses.replace(self.config, hidden_units=GRAD_HIDDEN), vocab)
        return problems + gradient_problems(small, st.batch[:GRAD_PAIRS])

    def observe(self, st, result):
        from vulnseq import seq2seq as vs2s

        model, _ = result
        return {
            "first_batch_loss": st.first_loss,
            "trained_loss": vs2s.compute_loss_and_grads(model, st.batch)[0],
        }

    def check(self, st, result, expected, tmp):
        from vulnseq import seq2seq as vs2s

        model, state = result
        problems = []
        loss = vs2s.compute_loss_and_grads(model, st.batch)[0]
        _close(problems, "trained loss vs per-sequence reference", loss,
               reference_loss(model, st.batch), rtol=FIRST_LOSS_RTOL)
        if expected:
            _close(problems, "trained loss vs recorded", loss,
                   expected["trained_loss"], rtol=TRAINED_LOSS_RTOL)
        elif not loss < st.first_loss:
            problems.append(f"training did not lower the fixed-batch loss ({st.first_loss} -> {loss})")
        if state.step != self.config.max_steps or len(state.validation_history) != 1:
            problems.append(f"ran {state.step} steps, {len(state.validation_history)} validations")
        path = os.path.join(tmp, "model.ckpt")
        vs2s.save_model(model, path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if st.digest is None:
            st.digest = digest
        elif digest != st.digest:
            problems.append("a repeat with equal seeds saved different checkpoint bytes")
        return problems

    def context(self, st):
        from vulnseq import seq2seq as vs2s

        kinds = {}
        for p in st.pairs:
            kinds[p.kind.value] = kinds.get(p.kind.value, 0) + 1
        tokens = [len(p.input.tokens) for p in st.train]
        return {
            "train_pairs": len(st.train),
            "validation_pairs": len(st.validation),
            "pairs_by_kind": kinds,
            "vocabulary": vs2s.vocabulary_from_pairs(st.train, self.config.min_count).size(),
            "mean_tokens_per_sequence": statistics.mean(tokens),
            "steps_per_call": self.config.max_steps,
            "hidden_units": self.config.hidden_units,
        }


def _verdict_row(v):
    return [bool(v.predicted_vulnerable), [list(m) for m in v.modified_sequences], v.total_sequences]


class ScoreWorkload:
    """``predict_release`` on the last release with the stored desk checkpoint."""

    components = 100
    unit_name = "predict_seqs_per_s"

    def setup(self, seed, tmp):
        from vulnseq import seq2seq as vs2s

        corpus = _corpus(seed, self.components, tmp)
        model = vs2s.load_model(str(CHECKPOINT))
        return SimpleNamespace(model=model, release=corpus.releases[-1], rows=None, sequences=None)

    def attempts(self, st):
        return len(st.release.components)

    def run(self, st, tag):
        from vulnseq import predict as vpredict

        verdicts = vpredict.predict_release(st.model, st.release)
        return verdicts, sum(v.total_sequences for v in verdicts)

    def _front_end(self, component):
        """Abstracted sequences of one component, the way predict builds them."""
        from vulnseq import abstraction, cparse, errors

        try:
            functions = cparse.extract_functions(cparse.tokenize(component.source))
        except (errors.LexError, errors.StructureError):
            return []
        seqs = []
        for fn in functions:
            tokens, _ = abstraction.abstract_function(fn)
            meta = abstraction.SequenceMeta(component.path, fn.name, abstraction.SeqRole.NON_VULNERABLE)
            try:
                seqs.extend(abstraction.to_sequences(tokens, meta))
            except errors.EmptyFunction:
                continue
        return seqs

    def _oracle_row(self, st, index):
        """Re-score one component with encode + decode_greedy, one sequence at a time."""
        from vulnseq import seq2seq as vs2s

        modified = []
        vocab = st.model.vocabulary
        for seq in st.sequences[index]:
            ids = vocab.encode(seq.tokens)
            _, state = vs2s.encode(ids, st.model)
            if vs2s.decode_greedy(state, st.model) != ids:
                modified.append([seq.function_name, seq.chunk_index])
        return [bool(modified), modified, len(st.sequences[index])]

    def run_checks(self, st, expected):
        st.sequences = [self._front_end(c) for c in st.release.components]
        return []

    def observe(self, st, result):
        rows = [_verdict_row(v) for v in result]
        return {
            "sequences": [r[2] for r in rows],
            "modified": {str(i): r[1] for i, r in enumerate(rows) if r[0]},
        }

    def check(self, st, verdicts, expected, tmp):
        comps = st.release.components
        if [v.path for v in verdicts] != [c.path for c in comps]:
            return ["verdicts do not follow component order"] * len(comps)
        rows = [_verdict_row(v) for v in verdicts]
        wrong = {}  # component index -> messages
        for i, row in enumerate(rows):
            if row[2] != len(st.sequences[i]):
                wrong.setdefault(i, []).append(f"{row[2]} sequences, front end gives {len(st.sequences[i])}")
        if expected:
            for i, row in enumerate(rows):
                modified = expected["modified"].get(str(i), [])
                want = [bool(modified), modified, expected["sequences"][i]]
                if row != want:
                    wrong.setdefault(i, []).append(f"verdict {row} differs from recorded {want}")
        if st.rows is None:
            st.rows = rows
            for i in range(0, len(comps), ORACLE_STRIDE):
                oracle = self._oracle_row(st, i)
                if rows[i] != oracle:
                    wrong.setdefault(i, []).append(f"verdict {rows[i]} differs from encode+decode_greedy {oracle}")
        else:
            for i, row in enumerate(rows):
                if row != st.rows[i]:
                    wrong.setdefault(i, []).append(f"verdict {row} differs from the first call's {st.rows[i]}")
        return [f"{comps[i].path}: " + "; ".join(msgs) for i, msgs in sorted(wrong.items())]

    def context(self, st):
        counts = [len(s) for s in st.sequences]
        tokens = [len(q.tokens) for s in st.sequences for q in s]
        flagged = [c for c, r in zip(st.release.components, st.rows or []) if r[0]]
        return {
            "components": len(st.release.components),
            "vulnerable_components": sum(1 for c in st.release.components if c.vuln_ids),
            "sequences": sum(counts),
            "vocabulary": st.model.vocabulary.size(),
            "mean_tokens_per_sequence": statistics.mean(tokens) if tokens else 0.0,
            "flagged_components": len(flagged),
            "flagged_vulnerable": sum(1 for c in flagged if c.vuln_ids),
            "checkpoint_sha256": CHECKPOINT_SHA256,
        }


TECHNIQUES = ("metrics", "imports", "calls", "textmining")


def _technique(name):
    from vulnseq.baselines import Technique

    return {
        "metrics": Technique.SOFTWARE_METRICS,
        "imports": Technique.IMPORTS,
        "calls": Technique.FUNCTION_CALLS,
        "textmining": Technique.TEXT_MINING,
    }[name]


def _oracle_metrics(tp, fp, tn, fn):
    """Precision, recall, F-measure and MCC, written apart from vulnseq.evaluate."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = (tp * tn - fp * fn) / denom if denom else 0.0
    return [precision, recall, f, mcc]


class BaselinesWorkload:
    """``run_baseline`` for the four techniques, clean setting, default classifier."""

    components = 40
    unit_name = "baseline_components_per_s"

    def setup(self, seed, tmp):
        corpus = _corpus(seed, self.components, tmp)
        releases = corpus.releases
        # clean material holds every component of the train release
        per_walk = sum(
            len(releases[i].components) + len(releases[i + 1].components)
            for i in range(len(releases) - 1)
        )
        return SimpleNamespace(corpus=corpus, per_walk=per_walk, rows=None)

    def attempts(self, st):
        return len(TECHNIQUES) * (len(st.corpus.releases) - 1)

    def run(self, st, tag):
        from vulnseq import baselines as vb
        from vulnseq.evaluate import Setting

        reports = {}
        for name in TECHNIQUES:
            tag(name)
            reports[name] = vb.run_baseline(
                st.corpus, _technique(name), Setting.CLEAN, vb.ClassifierConfig()
            )
        return reports, len(TECHNIQUES) * st.per_walk

    def run_checks(self, st, expected):
        return []

    @staticmethod
    def _rows(reports):
        out = {}
        for name, rs in reports.items():
            out[name] = [
                {"failed": r.failed}
                if r.failed
                else {
                    "matrix": [r.matrix.tp, r.matrix.fp, r.matrix.tn, r.matrix.fn],
                    "metrics": [r.precision, r.recall, r.f_measure, r.mcc],
                }
                for r in rs
            ]
        return out

    def observe(self, st, result):
        return self._rows(result)

    def check(self, st, reports, expected, tmp):
        rows = self._rows(reports)
        problems = []
        for name in TECHNIQUES:
            got = rows.get(name, [])
            if len(got) != len(st.corpus.releases) - 1:
                problems.extend([f"{name}: {len(got)} report rows"] * (len(st.corpus.releases) - 1))
                continue
            for i, row in enumerate(got):
                where = f"{name} r{i}->r{i + 1}"
                if row.get("failed"):
                    problems.append(f"{where}: failed report row")
                    continue
                bad = []
                tp, fp, tn, fn = row["matrix"]
                if tp + fp + tn + fn != len(st.corpus.releases[i + 1].components):
                    bad.append(f"matrix {row['matrix']} does not cover the test release")
                for k, want in enumerate(_oracle_metrics(tp, fp, tn, fn)):
                    _close(bad, f"metric {k} vs formula", row["metrics"][k], want, atol=METRIC_ATOL)
                if expected:
                    rec = expected[name][i]
                    if row["matrix"] != rec["matrix"]:
                        bad.append(f"matrix {row['matrix']} differs from recorded {rec['matrix']}")
                    for k, want in enumerate(rec["metrics"]):
                        _close(bad, f"metric {k} vs recorded", row["metrics"][k], want, atol=METRIC_ATOL)
                if st.rows is not None and row != st.rows[name][i]:
                    bad.append("differs from the first call")
                if bad:
                    problems.append(f"{where}: " + "; ".join(bad))
        if st.rows is None:
            st.rows = rows
        return problems

    def context(self, st):
        from vulnseq import baselines as vb
        from vulnseq import corpus as vcorpus

        material = vcorpus.clean_training_set(st.corpus, 0)
        comps = material.fix_pairs + material.non_vulnerable
        dims = {}
        for name in TECHNIQUES:
            names = set()
            for c in comps:
                names.update(vb.extract_features(c, _technique(name)).values)
            dims[name] = len(names)
        return {
            "releases": len(st.corpus.releases),
            "components_per_release": self.components,
            "components_per_walk": st.per_walk,
            "feature_dim_release0": dims,
        }


WORKLOADS = {
    "train-desk": lambda: TrainWorkload(hidden_units=32, steps=30),
    "train-paper": lambda: TrainWorkload(hidden_units=256, steps=5),
    "score-release": ScoreWorkload,
    "baselines": BaselinesWorkload,
}


# --- per-layer metrics from the traced run --------------------------------


def _targets():
    from tracing import Target

    def parse_failure(exc):
        return {"cparse.parse_failures": 1}

    def sized(key):
        return lambda result: {key: len(result)}

    t = [
        Target("vulnseq.synth", "generate_synthetic_corpus", "synth.generate"),
        Target("vulnseq.corpus", "save_corpus", "corpus.save"),
        Target("vulnseq.corpus", "load_corpus", "corpus.load"),
        Target("vulnseq.corpus", "clean_training_set", "corpus.split"),
        Target("vulnseq.baselines", "clean_training_set", "corpus.split"),
        Target("vulnseq.pairing", "labeled_functions_from_material", "pairing.label"),
        Target(
            "vulnseq.pairing",
            "build_training_pairs",
            "pairing.build",
            on_result=_kind_counts,
        ),
        Target("vulnseq.abstraction", "classify_identifier_roles", "cparse.roles"),
        Target("vulnseq.baselines", "classify_identifier_roles", "cparse.roles"),
        Target("vulnseq.seq2seq.train", "train_step", "seq2seq.train_step"),
        Target("vulnseq.seq2seq.train", "compute_loss_and_grads", "seq2seq.grad"),
        Target("vulnseq.seq2seq.train", "exact_match_rate", "seq2seq.validate"),
        Target("vulnseq.seq2seq", "load_model", "seq2seq.load_model"),
        Target(
            "vulnseq.predict",
            "predict_component",
            "predict.component",
            on_result=lambda v: {"predict.flagged": float(v.predicted_vulnerable)},
        ),
        Target("vulnseq.baselines", "extract_features", "baselines.features"),
        Target(
            "vulnseq.baselines",
            "train_classifier",
            "baselines.fit",
            on_result=lambda m: {"baselines.feature_dim": len(m.weights)},
        ),
        Target("vulnseq.baselines", "LinearClassifier.predict", "baselines.predict"),
    ]
    for module in ("vulnseq.pairing", "vulnseq.predict", "vulnseq.baselines"):
        t.append(Target(module, "tokenize", "cparse.tokenize",
                        on_result=sized("cparse.tokens"), on_error=parse_failure))
        t.append(Target(module, "extract_functions", "cparse.extract",
                        on_result=sized("cparse.functions"), on_error=parse_failure))
    for module in ("vulnseq.pairing", "vulnseq.predict"):
        t.append(Target(module, "abstract_function", "abstraction.abstract"))
        t.append(Target(module, "to_sequences", "abstraction.chunk",
                        on_result=sized("abstraction.sequences"),
                        on_error=lambda exc: {"abstraction.empty_functions": 1}))
    for module in ("vulnseq.seq2seq.train", "vulnseq.predict"):
        t.append(Target(module, "encode", "seq2seq.encode"))
        t.append(Target(module, "decode_greedy", "seq2seq.decode",
                        on_result=sized("seq2seq.decode_tokens")))
    for name in ("confusion", "metrics", "novel_existing_breakdown"):
        t.append(Target("vulnseq.baselines", name, "evaluate.score"))
    return t


PAIR_KINDS = {"VulnToFixed": "vuln_to_fixed", "FixedToFixed": "fixed_to_fixed",
              "NonVulnToSelf": "non_vuln_to_self"}


def _kind_counts(pairs):
    out = {}
    for p in pairs:
        key = f"pairing.pairs.{PAIR_KINDS.get(p.kind.value, p.kind.value)}"
        out[key] = out.get(key, 0) + 1
    return out


# The span the benchmark opens around each traced call. Its self time is the
# part of the call that no wrapped layer covers.
ROOT_SPAN = "bench.op"

# metric -> span whose self time it sums (per set-up plus per timed call)
SELF_MS = {
    "synth.generate_ms": "synth.generate",
    "corpus.save_ms": "corpus.save",
    "corpus.load_ms": "corpus.load",
    "corpus.split_ms": "corpus.split",
    "pairing.label_ms": "pairing.label",
    "pairing.build_ms": "pairing.build",
    "cparse.tokenize_ms": "cparse.tokenize",
    "cparse.extract_ms": "cparse.extract",
    "cparse.roles_ms": "cparse.roles",
    "abstraction.abstract_ms": "abstraction.abstract",
    "abstraction.chunk_ms": "abstraction.chunk",
    "seq2seq.grad_ms": "seq2seq.grad",
    "seq2seq.update_ms": "seq2seq.train_step",
    "seq2seq.encode_ms": "seq2seq.encode",
    "seq2seq.decode_ms": "seq2seq.decode",
    "seq2seq.load_model_ms": "seq2seq.load_model",
    "predict.self_ms": "predict.component",
    "evaluate.score_ms": "evaluate.score",
    "baselines.predict_ms": "baselines.predict",
}
CALLS = {
    "seq2seq.steps": "seq2seq.train_step",
    "seq2seq.encode_calls": "seq2seq.encode",
    "seq2seq.decode_calls": "seq2seq.decode",
}
COUNTS = (
    "pairing.pairs.vuln_to_fixed",
    "pairing.pairs.fixed_to_fixed",
    "pairing.pairs.non_vuln_to_self",
    "cparse.tokens",
    "cparse.functions",
    "cparse.parse_failures",
    "abstraction.sequences",
    "abstraction.empty_functions",
    "seq2seq.decode_tokens",
)
PERCENTILES = {"seq2seq.train_step_ms": "seq2seq.train_step", "predict.component_ms": "predict.component"}


def _percentiles(values):
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def layer_metrics(tracer, n_setups, n_ops, plain_times, traced_times):
    """Per-layer values from the traced run.

    Span times and counts from set-up are divided by the number of set-ups,
    those from timed calls by the number of traced calls, and the two are
    added: a value is "per set-up plus per timed call".
    """
    raw = {"setup": Counter(), "op": Counter()}
    durations = {}
    for s in tracer.spans:
        phase = "setup" if s.run.startswith("setup") else "op"
        tech = s.run.partition(":")[2]  # the baselines workload tags each technique
        for name in (s.name, f"{tech}|{s.name}") if tech else (s.name,):
            raw[phase][("self", name)] += 1e3 * s.self_time
            raw[phase][("incl", name)] += 1e3 * s.duration
            raw[phase][("calls", name)] += 1
        if phase == "op":
            if s.name != ROOT_SPAN:
                raw["op"][("self", "*")] += 1e3 * s.self_time
            durations.setdefault(s.name, []).append(1e3 * s.duration)
    for run, bucket in tracer.counts.items():
        phase = "setup" if run.startswith("setup") else "op"
        tech = run.partition(":")[2]
        for key, value in bucket.items():
            for name in (key, f"{tech}|{key}") if tech else (key,):
                raw[phase][("count", name)] += value

    def per(kind, name):
        return raw["setup"][(kind, name)] / n_setups + raw["op"][(kind, name)] / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    out = {m: (per("self", span), "ms") for m, span in SELF_MS.items()}
    out.update({m: (per("calls", span), "count") for m, span in CALLS.items()})
    out.update({m: (per("count", m), "count") for m in COUNTS})
    for metric, span in PERCENTILES.items():
        p50, p90 = _percentiles(durations.get(span, []))
        out[f"{metric}.p50"] = (p50, "ms")
        out[f"{metric}.p90"] = (p90, "ms")
    out["seq2seq.validate_ms"] = (per("incl", "seq2seq.validate"), "ms")
    out["predict.flagged_share"] = (
        ratio(per("count", "predict.flagged"), per("calls", "predict.component")), "share")
    for tech in TECHNIQUES:
        out[f"baselines.{tech}.features_ms"] = (per("incl", f"{tech}|baselines.features"), "ms")
        out[f"baselines.{tech}.fit_ms"] = (per("incl", f"{tech}|baselines.fit"), "ms")
        out[f"baselines.{tech}.feature_dim"] = (
            ratio(per("count", f"{tech}|baselines.feature_dim"), per("calls", f"{tech}|baselines.fit")),
            "count")
    overhead = 0.0
    if plain_times and traced_times:
        plain = statistics.median(plain_times)
        overhead = (statistics.median(traced_times) - plain) / plain
    out["trace.overhead_share"] = (overhead, "share")
    out["trace.timed_ms"] = (1e3 * statistics.mean(traced_times) if traced_times else 0.0, "ms")
    out["trace.self_sum_ms"] = (raw["op"][("self", "*")] / n_ops, "ms")
    out["trace.unattributed_ms"] = (raw["op"][("self", ROOT_SPAN)] / n_ops, "ms")
    return out


# --- host speed reference -------------------------------------------------

# The machine is a share of a host whose speed drifts in stretches of
# seconds to minutes (see perfbench/README.md, "Steadiness"); CPU time drifts
# with wall time, so neither clock is steady. A fixed reference kernel that
# uses no vulnseq code is timed once before the first timed call and once
# after each call's output check, and each call's time is expressed in
# reference units: the call's seconds over the mean time of the kernel runs
# on either side of it. A drift that slows both cancels; a change to the
# program does not touch the kernel.
REF_PY_ITEMS = 110_000  # dict and string work, like the C front end
REF_CELL_STEPS = 3_300  # batch-of-1 recurrent cell, like encode/decode at desk size
REF_GEMMS = 150  # 16x256 by 256x1024 products, like a training step at paper size


def _reference_arrays():
    import numpy as np

    rng = np.random.default_rng(0)
    return (rng.standard_normal((128, 64)) * 0.1, rng.standard_normal((256, 1024)) * 0.05,
            rng.standard_normal((16, 256)))


def reference_time(arrays):
    """Seconds that one run of the reference kernel takes now."""
    import numpy as np

    w, g, x = arrays
    t = time.perf_counter()
    counts, words = {}, []
    for i in range(REF_PY_ITEMS):
        key = "id" + str(i % 251)
        counts[key] = counts.get(key, 0) + 1
        if i % 7 == 0:
            words.append(key)
    " ".join(words).split()
    h = c = np.zeros(64)
    for _ in range(REF_CELL_STEPS):
        z = np.concatenate([h, c]) @ w
        gate = 1.0 / (1.0 + np.exp(-z))
        c = gate * c + gate * np.tanh(z)
        h = gate * np.tanh(c)
    for _ in range(REF_GEMMS):
        np.tanh(x @ g)
    return time.perf_counter() - t


# --- machine facts --------------------------------------------------------


def machine_facts():
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None
            )
    except OSError:
        facts["cpu"] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # older NumPy: no dict form of the build config
        facts["blas"] = None
    return facts


# --- running a workload ---------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description="vulnseq benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_expected(workload, seed):
    """The recorded outputs of (workload, seed), or None above the recorded range."""
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh).get(workload, {}).get(str(seed))
    if expected is None and 0 <= seed < RECORDED_SEEDS:
        raise SetupError(f"{EXPECTED} has no recording of {workload} seed {seed}: run perfbench/record.py")
    return expected


def probe_import():
    """Import time in a fresh interpreter.

    The imports are most of set-up but happen once per process, so set-up
    samples them in children. Each child imports run.py and the program
    and prints the time since run.py's first line.
    """
    probe = "import time, run; run._import_program(); print(time.perf_counter() - run._T0)"
    env = dict(os.environ, PYTHONPATH=str(BENCH_DIR))
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, expected, import_s=None, min_calls=1, log=print):
    """Set up, run timed calls until ``seconds`` pass, check every output.

    Set-up is sampled SETUP_REPEATS times, spread over the run: once
    before the first call, then between calls. With ``import_s``, this
    process's import time, each later sample also times the imports in a
    fresh interpreter, and ``setup_s`` is the median import time plus the
    median set-up; without it, ``setup_s`` leaves the imports out. At least
    ``min_calls`` calls are made, and two when tracing. Returns (result
    dict for the last line, context dict, tracer or None).
    """
    workload = WORKLOADS[name]()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(_targets())

    def recording(run):
        return tracer.recording(run) if tracer else contextlib.nullcontext()

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        setup_times = []
        import_times = [] if import_s is None else [import_s]

        def sample_setup():
            i = len(setup_times)
            t = time.perf_counter()
            with recording(f"setup{i}"):
                state = workload.setup(seed, tmp)
            setup_times.append(time.perf_counter() - t)
            if i and import_s is not None:
                import_times.append(probe_import())
            return state

        st = sample_setup()  # the calls use this one; later samples are discarded

        attempted = failed = 0
        try:
            problems = workload.run_checks(st, expected)
        except Exception:  # a check that cannot run fails every call
            problems = [traceback.format_exc()]
        for msg in problems:
            log(f"check failed: {msg}")

        plain_times, traced_times, rates, ref_rates = [], [], [], []
        ref_arrays = _reference_arrays()
        ref_times = [reference_time(ref_arrays)]
        start = time.perf_counter()
        deadline = start + seconds
        k = 0
        while True:
            traced = tracer is not None and k % 2 == 1
            n = workload.attempts(st)
            attempted += n
            t = time.perf_counter()
            try:
                if traced:
                    with recording(f"op{k}"), tracer.span(ROOT_SPAN):
                        result, work = workload.run(st, lambda tag, k=k: setattr(tracer, "run", f"op{k}:{tag}"))
                else:
                    result, work = workload.run(st, lambda tag: None)
                dt = time.perf_counter() - t
                op_problems = workload.check(st, result, expected, tmp)
            except Exception:  # a failing call or check is a failed operation, not a crash
                log(traceback.format_exc())
                failed += n
                ref_times.append(reference_time(ref_arrays))
            else:
                (traced_times if traced else plain_times).append(dt)
                ref_times.append(reference_time(ref_arrays))
                if not traced:
                    rates.append(work / dt)
                    ref_rates.append(work * (ref_times[-2] + ref_times[-1]) / 2 / dt)
                if problems:  # a failed once-per-run check fails every call
                    op_problems = op_problems + problems
                for msg in op_problems[:5]:
                    log(f"check failed: {msg}")
                failed += min(n, len(op_problems))
            k += 1
            # set-up samples due by now, evenly spaced over the run
            progress = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
            while len(setup_times) < min(1 + int((SETUP_REPEATS - 1) * progress), SETUP_REPEATS):
                sample_setup()
            if time.perf_counter() >= deadline and k >= max(min_calls, 2 if tracer else 1):
                break
        while len(setup_times) < SETUP_REPEATS:
            sample_setup()
        setup_s = statistics.median(setup_times) + (statistics.median(import_times) if import_times else 0.0)
        context = {"setup_repeats": SETUP_REPEATS, "setup_times_s": setup_times,
                   "import_times_s": import_times,
                   "timed_calls": len(plain_times), "call_times_s": plain_times,
                   "reference_times_s": ref_times,
                   "recorded_checks": bool(expected), **workload.context(st)}

    if tracer is not None:
        metrics = layer_metrics(tracer, SETUP_REPEATS, max(1, len(traced_times)), plain_times, traced_times)
        context["traced_calls"] = len(traced_times)
        context["traced_call_times_s"] = traced_times
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "work_per_ref": (statistics.median(ref_rates) if ref_rates else 0.0, "1/ref"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "ok_share": (1.0 - failed / attempted, "share"),
        }
        context["failed_share"] = failed / attempted
        context["work_unit"] = workload.unit_name
        context["work_per_s"] = statistics.median(rates) if rates else 0.0
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, context, tracer


def main(argv=None):
    args = parse_args(argv)
    try:
        _import_program()
        import_s = time.perf_counter() - _T0
        with open(CHECKPOINT, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest != CHECKPOINT_SHA256:
            raise SetupError(f"{CHECKPOINT} has sha256 {digest}, expected {CHECKPOINT_SHA256}")
        expected = load_expected(args.workload, args.seed)
    except (SetupError, ImportError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    result, context, tracer = run_workload(
        args.workload, args.seed, args.seconds, args.trace, expected, import_s=import_s,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    if tracer is not None:
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(str(path))
        context["spans_file"] = str(path.relative_to(ROOT))
    context["machine"] = machine_facts()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"calls {context['timed_calls']}  recorded checks {context['recorded_checks']}")
    for key, m in result["metrics"].items():
        label = context["work_unit"].replace("_per_s", "_per_ref") if key == "work_per_ref" else key
        print(f"  {label:<40} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {context['work_unit'] + ' (wall clock)':<40} {context['work_per_s']:.6g} 1/s")
        print(f"  {'reference kernel, median':<40} {statistics.median(context['reference_times_s']):.6g} s")
        print(f"  {'failed_share':<40} {context['failed_share']:.6g} share")
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
