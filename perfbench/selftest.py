"""Planted-fault self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Run from the root of a vulnseq checkout. Each workload first runs once
on the unmodified program, which must pass. Then each check gets a fault
of the kind it exists to catch, planted by replacing one function for
the duration of a run (or of its second timed call only), and the run
must report failed operations and log that check's message:

- a perturbed loss: the first-batch loss check;
- a broken gradient: the trained-loss check on a recorded seed, and the
  finite-difference gradient check on a seed with no recording;
- a weight nudged by one ulp in the second call: the byte-identical
  checkpoint check of repeats;
- a flipped verdict: the recorded-verdict check, the encode +
  decode_greedy oracle sample (no recording) and, in the second call
  only, the repeat check;
- a sequence count off by one: the front-end count check;
- a verdict without a path: a check that raises counts as a failed
  operation;
- an altered confusion matrix: the recorded-matrix check and, in the
  second call only, the repeat check;
- a perturbed metric: the metric-formula check, on any seed.

It also checks the tracer: a target that does not exist is skipped, and
a wrapped call that raises still closes its span.

Exits 0 when every clean run passes and every fault is caught.
"""

import contextlib
import dataclasses
import sys
import types

import run

RECORDED_SEED = 0
UNRECORDED_SEED = 1_000_003


@contextlib.contextmanager
def replaced(module_name, attr, make):
    """Replace module.attr with make(original) inside the block."""
    import importlib

    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


@contextlib.contextmanager
def on_second_call(workload, fault):
    """Plant ``fault`` during the workload's second timed call only."""
    cls = type(run.WORKLOADS[workload]())
    original = cls.run
    calls = []

    def patched(self, st, tag):
        calls.append(1)
        with replaced(*fault) if len(calls) == 2 else contextlib.nullcontext():
            return original(self, st, tag)

    cls.run = patched
    try:
        yield
    finally:
        cls.run = original


def scaled_loss(original):
    def fake(model, batch):
        loss, grads = original(model, batch)
        return loss * (1 + 1e-6), grads

    return fake


def broken_gradient(original):
    def fake(model, batch):
        loss, grads = original(model, batch)
        grads["dec1_U"] = grads["dec1_U"] * 0.5
        return loss, grads

    return fake


def nudged_weight(original):
    def fake(*args, **kwargs):
        import numpy as np

        model = original(*args, **kwargs)
        model.params["out_b"][0] = np.nextafter(model.params["out_b"][0], np.inf)
        return model

    return fake


def miscounted_sequences(original):
    def fake(model, component):
        v = original(model, component)
        if component.path != "src/unit_001.c":  # not in the oracle sample
            return v
        return dataclasses.replace(v, total_sequences=v.total_sequences + 1)

    return fake


def malformed_verdict(original):
    def fake(model, component):
        # enough for predict_release and the timed section, not for the checks
        return types.SimpleNamespace(total_sequences=original(model, component).total_sequences)

    return fake


def flipped_verdict(original):
    def fake(model, component):
        v = original(model, component)
        if component.path != "src/unit_000.c":  # component 0 is in the oracle sample
            return v
        modified = () if v.predicted_vulnerable else (("planted", 0),)
        return dataclasses.replace(v, predicted_vulnerable=not v.predicted_vulnerable,
                                   modified_sequences=modified)

    return fake


def altered_matrix(original):
    def fake(verdicts, truth):
        cm = original(verdicts, truth)
        if cm.tn == 0:
            return dataclasses.replace(cm, tp=cm.tp - 1, fn=cm.fn + 1)
        return dataclasses.replace(cm, tn=cm.tn - 1, fp=cm.fp + 1)

    return fake


def perturbed_metric(original):
    def fake(cm):
        m = original(cm)
        return dataclasses.replace(m, mcc=m.mcc + 1e-6)

    return fake


CASES = [
    # (label, workload, seed, fault or None, fault in the second call only,
    #  a fragment of the message the catching check logs)
    ("clean", "train-desk", RECORDED_SEED, None, False, None),
    ("perturbed first-batch loss", "train-desk", RECORDED_SEED,
     ("vulnseq.seq2seq", "compute_loss_and_grads", scaled_loss), False, "first-batch loss vs"),
    ("broken gradient", "train-desk", RECORDED_SEED,
     ("vulnseq.seq2seq.train", "compute_loss_and_grads", broken_gradient), False,
     "trained loss vs recorded"),
    ("broken gradient, unrecorded seed", "train-desk", UNRECORDED_SEED,
     ("vulnseq.seq2seq.train", "compute_loss_and_grads", broken_gradient), False,
     "gradient of dec1_U vs finite difference"),
    ("nondeterministic repeat", "train-desk", UNRECORDED_SEED,
     ("vulnseq.seq2seq", "train", nudged_weight), True, "different checkpoint bytes"),
    ("clean", "score-release", RECORDED_SEED, None, False, None),
    ("flipped verdict", "score-release", RECORDED_SEED,
     ("vulnseq.predict", "predict_component", flipped_verdict), False, "differs from recorded"),
    ("flipped verdict, unrecorded seed", "score-release", UNRECORDED_SEED,
     ("vulnseq.predict", "predict_component", flipped_verdict), False,
     "differs from encode+decode_greedy"),
    ("flipped verdict in a repeat", "score-release", UNRECORDED_SEED,
     ("vulnseq.predict", "predict_component", flipped_verdict), True, "differs from the first call"),
    ("sequence count off by one", "score-release", UNRECORDED_SEED,
     ("vulnseq.predict", "predict_component", miscounted_sequences), False, "front end gives"),
    ("verdict without a path", "score-release", UNRECORDED_SEED,
     ("vulnseq.predict", "predict_component", malformed_verdict), False, "AttributeError"),
    ("clean", "baselines", RECORDED_SEED, None, False, None),
    ("altered confusion matrix", "baselines", RECORDED_SEED,
     ("vulnseq.baselines", "confusion", altered_matrix), False, "differs from recorded"),
    ("altered confusion matrix in a repeat", "baselines", UNRECORDED_SEED,
     ("vulnseq.baselines", "confusion", altered_matrix), True, "differs from the first call"),
    ("perturbed metric, unrecorded seed", "baselines", UNRECORDED_SEED,
     ("vulnseq.baselines", "metrics", perturbed_metric), False, "vs formula"),
]


def tracer_ok():
    from tracing import Target, Tracer

    from vulnseq import cparse, errors

    tracer = Tracer([
        Target("vulnseq.no_such_module", "f", "gone.module"),
        Target("vulnseq.cparse", "no_such_function", "gone.function"),
        Target("vulnseq.cparse", "tokenize", "cparse.tokenize",
               on_error=lambda exc: {"failures": 1}),
    ])
    with tracer.recording("op0"):
        try:
            cparse.tokenize('"unterminated')
        except errors.LexError:
            pass
    restored = cparse.tokenize.__name__ == "tokenize" and not hasattr(cparse.tokenize, "__wrapped__")
    closed = [s.name for s in tracer.spans if s.end >= s.start] == ["cparse.tokenize"]
    counted = tracer.counts["op0"]["failures"] == 1
    ok = restored and closed and counted and not tracer._stack
    print(f"{'ok  ' if ok else 'FAIL'} tracer: missing targets skipped, raising call closed its span")
    return ok


def main():
    run._import_program()
    ok = tracer_ok()
    for label, name, seed, fault, second_only, fragment in CASES:
        messages = []
        expected = run.load_expected(name, seed)
        if fault is None:
            patch = contextlib.nullcontext()
        elif second_only:
            patch = on_second_call(name, fault)
        else:
            patch = replaced(*fault)
        with patch:
            result, *_ = run.run_workload(name, seed, 0, 0, expected,
                                          min_calls=2 if second_only else 1, log=messages.append)
        if fault is None:
            passed = result["correct"] and result["failed"] == 0
            shown = messages[0] if messages else ""
        else:
            shown = next((m for m in messages if fragment in m), "")
            passed = result["failed"] > 0 and not result["correct"] and bool(shown)
        ok &= passed
        if shown.strip():
            shown = shown.strip().splitlines()[-1][:150]
        elif fault is not None:
            shown = f"no message with {fragment!r}"
        print(f"{'ok  ' if passed else 'FAIL'} {name:<14} seed {seed:<8} {label}: "
              f"failed {result['failed']}/{result['attempted']}  {shown}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
