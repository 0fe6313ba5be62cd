"""Confusion metrics and release-pair experiment driver.

Experiments walk consecutive release pairs: train on release i under the
chosen setting, predict release i+1, score against full-hindsight labels.
The sequence model (run_experiment) and the classical baselines
(baselines.run_baseline) share that walk, run_release_pairs. It builds
every pair's training material first, hands the built materials to one
fit call, then predicts and scores pair by pair; the baselines fit every
pair's classifier in that one call, the sequence model trains one pair
after another. A pair that cannot train (for instance a realistic setting
whose vulnerabilities were all detected too late) produces a failed
report row rather than aborting the run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Protocol, TypeVar

from .corpus import Corpus, Label, Release, Setting, TrainingMaterial, training_material
from .errors import ConfigError, MissingLabel, VulnseqError
from .pairing import PairingConfig, build_training_pairs, labeled_functions_from_material
from .predict import predict_release
from .seq2seq import ModelConfig, split_holdout, train


Model = TypeVar("Model")


class PredictionLike(Protocol):
    """Anything scoreable: the seq2seq verdicts and baseline predictions."""

    path: str
    predicted_vulnerable: bool


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ConfigError("confusion counts must be non-negative")


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f_measure: float
    mcc: float


@dataclass(frozen=True)
class EvaluationReport:
    train_release: str
    test_release: str
    setting: Setting
    failed: bool = False
    error: str | None = None
    matrix: ConfusionMatrix | None = None
    precision: float | None = None
    recall: float | None = None
    f_measure: float | None = None
    mcc: float | None = None
    # None marks an empty class (undefined percentage)
    existing_detected_pct: float | None = None
    novel_detected_pct: float | None = None


def confusion(
    verdicts: Iterable[PredictionLike], ground_truth: dict[str, Label]
) -> ConfusionMatrix:
    tp = fp = tn = fn = 0
    for v in verdicts:
        if v.path not in ground_truth:
            raise MissingLabel(f"no ground-truth label for {v.path}")
        actual_vulnerable = ground_truth[v.path] is Label.VULNERABLE
        if actual_vulnerable:
            if v.predicted_vulnerable:
                tp += 1
            else:
                fn += 1
        else:
            if v.predicted_vulnerable:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp, fp, tn, fn)


def metrics(cm: ConfusionMatrix) -> Metrics:
    tp, fp, tn, fn = cm.tp, cm.fp, cm.tn, cm.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f_measure = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / math.sqrt(denom) if denom else 0.0
    return Metrics(precision, recall, f_measure, mcc)


def novel_existing_breakdown(
    verdicts: Iterable[PredictionLike], test_release: Release, train_release: Release
) -> tuple[float | None, float | None]:
    """Detection rate split by whether the same path was vulnerable before.

    Returns (existing_pct, novel_pct); a class with no members is None.
    """
    train_vuln = {
        c.path for c in train_release.components if c.label is Label.VULNERABLE
    }
    predicted = {v.path for v in verdicts if v.predicted_vulnerable}
    existing_total = existing_hit = novel_total = novel_hit = 0
    for comp in test_release.components:
        if comp.label is not Label.VULNERABLE:
            continue
        if comp.path in train_vuln:
            existing_total += 1
            existing_hit += comp.path in predicted
        else:
            novel_total += 1
            novel_hit += comp.path in predicted
    existing = 100.0 * existing_hit / existing_total if existing_total else None
    novel = 100.0 * novel_hit / novel_total if novel_total else None
    return existing, novel


def run_release_pairs(
    corpus: Corpus,
    setting: Setting,
    fit: Callable[[list[TrainingMaterial]], list[Model | VulnseqError]],
    predict: Callable[[Model, Release], list[PredictionLike]],
) -> list[EvaluationReport]:
    """The release-pair protocol shared by every technique.

    For each consecutive pair (i, i+1) it builds release i's training
    material under the setting. One fit call then receives every built
    material, in pair order, and returns one outcome per material: a
    model, or the VulnseqError that stopped that pair's fit. Last, pair
    by pair, predict(model, release i+1) is scored against that
    release's labels. A pair whose material, fit, prediction or scoring
    raises a VulnseqError gets a failed row.
    """
    if len(corpus.releases) < 2:
        raise ConfigError("an experiment needs at least two releases")
    n_pairs = len(corpus.releases) - 1
    outcomes: list[Model | VulnseqError | None] = [None] * n_pairs
    built: list[tuple[int, TrainingMaterial]] = []
    for i in range(n_pairs):
        try:
            built.append((i, training_material(corpus, i, setting)))
        except VulnseqError as exc:
            outcomes[i] = exc
    fitted = fit([material for _, material in built])
    for (i, _), outcome in zip(built, fitted, strict=True):
        outcomes[i] = outcome

    reports: list[EvaluationReport] = []
    for i, outcome in enumerate(outcomes):
        train_release = corpus.releases[i]
        test_release = corpus.releases[i + 1]
        try:
            if isinstance(outcome, VulnseqError):
                raise outcome
            predictions = predict(outcome, test_release)
            truth = {c.path: c.label for c in test_release.components}
            cm = confusion(predictions, truth)
            m = metrics(cm)
            existing, novel = novel_existing_breakdown(
                predictions, test_release, train_release
            )
            reports.append(
                EvaluationReport(
                    train_release=train_release.name,
                    test_release=test_release.name,
                    setting=setting,
                    matrix=cm,
                    precision=m.precision,
                    recall=m.recall,
                    f_measure=m.f_measure,
                    mcc=m.mcc,
                    existing_detected_pct=existing,
                    novel_detected_pct=novel,
                )
            )
        except VulnseqError as exc:
            reports.append(
                EvaluationReport(
                    train_release=train_release.name,
                    test_release=test_release.name,
                    setting=setting,
                    failed=True,
                    error=str(exc),
                )
            )
    return reports


def run_experiment(
    corpus: Corpus,
    setting: Setting,
    model_config: ModelConfig,
    pairing_config: PairingConfig,
) -> list[EvaluationReport]:
    """The sequence model through the release-pair protocol, one pair's
    training after another."""

    def fit(materials):
        models = []
        for material in materials:
            try:
                labeled = labeled_functions_from_material(material)
                pairs = build_training_pairs(labeled, pairing_config)
                train_pairs, validation = split_holdout(pairs, 0.1, seed=model_config.seed)
                models.append(train(train_pairs, validation, model_config))
            except VulnseqError as exc:
                models.append(exc)
        return models

    return run_release_pairs(corpus, setting, fit, predict_release)


_SUMMARY_FIELDS = (
    "precision",
    "recall",
    "f_measure",
    "mcc",
    "existing_detected_pct",
    "novel_detected_pct",
)


def summarize(reports: list[EvaluationReport]) -> dict:
    """Average and median of each metric over successful rows."""
    average: dict[str, float | None] = {}
    median: dict[str, float | None] = {}
    for field_name in _SUMMARY_FIELDS:
        values = [
            getattr(r, field_name)
            for r in reports
            if not r.failed and getattr(r, field_name) is not None
        ]
        average[field_name] = sum(values) / len(values) if values else None
        median[field_name] = statistics.median(values) if values else None
    return {
        "kind": "summary",
        "rows": len(reports),
        "failed_rows": sum(r.failed for r in reports),
        "average": average,
        "median": median,
    }


def report_to_dict(report: EvaluationReport) -> dict:
    return {**asdict(report), "kind": "report", "setting": report.setting.value}


def reports_to_jsonl(reports: list[EvaluationReport]) -> str:
    lines = [json.dumps(report_to_dict(r), sort_keys=True) for r in reports]
    lines.append(json.dumps(summarize(reports), sort_keys=True))
    return "\n".join(lines) + "\n"


def reports_to_csv(reports: list[EvaluationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Release", "MCC", "F-measure", "Precision", "Recall"])

    def fmt(value: float | None) -> str:
        return "" if value is None else f"{value:.4f}"

    for r in reports:
        if r.failed:
            writer.writerow([r.test_release, "", "", "", ""])
        else:
            writer.writerow(
                [r.test_release, fmt(r.mcc), fmt(r.f_measure), fmt(r.precision), fmt(r.recall)]
            )
    summary = summarize(reports)
    for row_name in ("average", "median"):
        stats = summary[row_name]
        writer.writerow(
            [
                row_name.capitalize(),
                fmt(stats["mcc"]),
                fmt(stats["f_measure"]),
                fmt(stats["precision"]),
                fmt(stats["recall"]),
            ]
        )
    return buf.getvalue()
