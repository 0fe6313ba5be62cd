"""Classical per-component predictors used for comparison.

Four feature families over raw component text: binned bag-of-words,
include targets, called function names, and static size/complexity
metrics. All feed one logistic-loss linear classifier trained by
full-batch gradient descent. Feature standardization is folded back into
the returned weights, so the classifier applies directly to raw feature
maps. A run fits the classifiers of all its release pairs in lockstep, in
one gradient-descent loop (train_classifiers), and each gets the bits it
would get fitted alone.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import ComponentRecord, Corpus, Setting
from .cparse import (
    Role,
    Spellings,
    classify_identifier_roles,
    extract_functions,
    strip_noise,
    tokenize,
)
from .errors import (
    ConfigError,
    DegenerateLabels,
    LexError,
    NumericalError,
    StructureError,
    VulnseqError,
    check_field_types,
)
from .evaluate import EvaluationReport, run_release_pairs

DEFAULT_BINS = 10


@dataclass(frozen=True)
class FeatureVector:
    component_path: str
    values: dict[str, float]

    def __post_init__(self):
        for name, value in self.values.items():
            if not math.isfinite(value):
                raise ConfigError(f"non-finite feature {name}")


class Technique(enum.Enum):
    SOFTWARE_METRICS = "SoftwareMetrics"
    IMPORTS = "Imports"
    FUNCTION_CALLS = "FunctionCalls"
    TEXT_MINING = "TextMining"


def _safe_tokens(source: str, spellings: Spellings | None):
    try:
        return strip_noise(tokenize(source, spellings))
    except LexError:
        return []


def _safe_functions(source: str, spellings: Spellings | None):
    try:
        return extract_functions(tokenize(source, spellings))
    except (LexError, StructureError):
        return []


def token_frequencies(source: str, spellings: Spellings | None = None) -> Counter[str]:
    """Raw counts over noise-stripped tokens (pre-binning)."""
    return Counter(t.text for t in _safe_tokens(source, spellings))


def bow_features(
    component: ComponentRecord, bins: int = DEFAULT_BINS, spellings: Spellings | None = None
) -> FeatureVector:
    if bins < 1:
        raise ConfigError("bins must be >= 1")
    values = {}
    for token, count in token_frequencies(component.source, spellings).items():
        # equal-width bins in log2 space: 1 -> 0, 2-3 -> 1, 4-7 -> 2, ...
        bin_index = min(bins - 1, int(math.log2(count)))
        values[f"bow:{token}"] = float(bin_index)
    return FeatureVector(component.path, values)


_INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*[<"]([^>"\n]+)[>"]', re.MULTILINE)


def import_features(component: ComponentRecord) -> FeatureVector:
    targets = set(_INCLUDE_RE.findall(component.source))
    return FeatureVector(component.path, {f"imp:{t}": 1.0 for t in targets})


def call_features(component: ComponentRecord, spellings: Spellings | None = None) -> FeatureVector:
    functions = _safe_functions(component.source, spellings)
    defined = {fn.name for fn in functions}
    called: set[str] = set()
    for fn in functions:
        roles = classify_identifier_roles(fn)
        called.update(
            name for name, role in roles.items() if role is Role.FUNCTION
        )
    return FeatureVector(
        component.path, {f"call:{name}": 1.0 for name in called - defined}
    )


_BRANCH_TOKENS = {"if", "while", "for", "case", "&&", "||"}
_BRACES = frozenset("{}")


def static_metric_features(
    component: ComponentRecord, spellings: Spellings | None = None
) -> FeatureVector:
    # the scans run in C (filter, len, str.strip); Python sees braces only
    loc = len(list(filter(None, map(str.strip, component.source.splitlines()))))
    functions = _safe_functions(component.source, spellings)
    cyclomatic = 0
    max_nesting = 0
    for fn in functions:
        body = fn.texts[fn.header_length :]
        cyclomatic += 1 + len(list(filter(_BRANCH_TOKENS.__contains__, body)))
        depth = 0
        for text in filter(_BRACES.__contains__, body):
            if text == "{":
                depth += 1
                max_nesting = max(max_nesting, depth)
            else:
                depth -= 1
    values = {
        "met:loc": float(loc),
        "met:cyclomatic": float(cyclomatic),
        "met:maxNesting": float(max_nesting),
        "met:nFunctions": float(len(functions)),
    }
    return FeatureVector(component.path, values)


@dataclass(frozen=True)
class ClassifierConfig:
    learning_rate: float = 1.0
    iterations: int = 300
    l2: float = 1e-3
    threshold: float = 0.5

    def __post_init__(self):
        check_field_types(self)
        for name in ("learning_rate", "l2", "threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError("threshold must be in [0, 1]")


@dataclass(frozen=True)
class LinearClassifier:
    weights: dict[str, float]
    bias: float
    threshold: float

    def score(self, fv: FeatureVector) -> float:
        z = self.bias + sum(
            self.weights.get(name, 0.0) * value for name, value in fv.values.items()
        )
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        ez = math.exp(z)
        return ez / (1.0 + ez)

    def predict(self, fv: FeatureVector) -> bool:
        return self.score(fv) > self.threshold


def _standardized(features: list[tuple[FeatureVector, bool]]):
    """One training set as (names, standardized x, y, column means, scales)."""
    if not features:
        raise DegenerateLabels("no training components")
    labels = {label for _, label in features}
    if len(labels) < 2:
        raise DegenerateLabels("training components carry a single label")
    names = sorted({name for fv, _ in features for name in fv.values})
    index = {name: j for j, name in enumerate(names)}
    x = np.zeros((len(features), len(names)))
    y = np.array([1.0 if label else 0.0 for _, label in features])
    maps = [fv.values for fv, _ in features]
    rows = np.repeat(np.arange(len(maps)), list(map(len, maps)))
    x[rows, list(map(index.__getitem__, chain.from_iterable(maps)))] = list(
        chain.from_iterable(map(dict.values, maps))
    )
    mean = x.mean(axis=0)
    var = ((x - mean) ** 2).mean(axis=0)
    std = np.where(var > 0, np.sqrt(var), 1.0)
    return names, (x - mean) / std, y, mean, std


def train_classifiers(
    sets: list[list[tuple[FeatureVector, bool]]], cfg: ClassifierConfig
) -> list[LinearClassifier | VulnseqError]:
    """Logistic regression, full-batch gradient descent on standardized
    features, for many training sets in one loop; the standardization is
    folded into the returned weights.

    Returns one outcome per set, in order: its classifier, or the error
    that stopped its fit (DegenerateLabels for a single-class or empty
    set, NumericalError when its weights or bias end non-finite). Each
    set gets the bits a loop over that set alone would give: the
    elementwise steps run once over the sets' concatenated rows and
    weights, while each set keeps its own matrix-vector products and its
    own bias sum, so BLAS and the pairwise sum see the same calls.
    """
    outcomes: list = [None] * len(sets)
    fits = []
    for slot, features in enumerate(sets):
        try:
            fits.append((slot, *_standardized(features)))
        except DegenerateLabels as exc:
            outcomes[slot] = exc
    if not fits:
        return outcomes
    slots, names, xs, ys, means, stds = zip(*fits)

    ns = [len(y) for y in ys]
    row_ends = np.cumsum(ns)[:-1]
    col_ends = np.cumsum([x.shape[1] for x in xs])[:-1]
    y = np.concatenate(ys)
    n = np.repeat(np.array(ns, dtype=float), ns)  # each row's set size
    set_of_row = np.repeat(np.arange(len(fits)), ns)
    d = sum(x.shape[1] for x in xs)
    # every set's weights, then every set's bias, so that one update moves
    # them all; a bias's decay is 0, and for a finite b, b - lr * (0 * b + g)
    # has the bits of b - lr * g
    params = np.zeros(d + len(fits))
    grad, step = np.empty_like(params), np.empty_like(params)
    decay = np.zeros_like(params)
    decay[:d] = cfg.l2 * 2.0
    w, b, err_sums = params[:d], params[d:], grad[d:]
    z, ez, err = np.empty(len(y)), np.empty(len(y)), np.empty(len(y))
    learning_rate = cfg.learning_rate
    # each set's views of the concatenated arrays
    ws, grads = np.split(w, col_ends), np.split(grad[:d], col_ends)
    per_set = list(zip(xs, ws, grads, np.split(z, row_ends), np.split(err, row_ends)))

    # a diverging set overflows: its outcome says so, stderr does not
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.iterations):
            for x, w_k, _, z_k, _ in per_set:
                np.dot(x, w_k, out=z_k)
            b.take(set_of_row, out=err)  # err holds each row's bias, then p, then p - y over n
            z += err
            # overflow-safe sigmoid p = exp(min(z, 0)) / (1 + exp(-|z|)):
            # exp only ever sees numbers <= 0
            np.abs(z, out=ez)
            np.negative(ez, out=ez)
            np.exp(ez, out=ez)
            ez += 1.0
            np.minimum(z, 0.0, out=err)
            np.exp(err, out=err)
            err /= ez
            err -= y
            err /= n
            for k, (x, _, grad_k, _, err_k) in enumerate(per_set):
                np.dot(err_k, x, out=grad_k)
                err_sums[k] = np.add.reduce(err_k)
            np.multiply(params, decay, out=step)
            step += grad
            step *= learning_rate
            params -= step

        for slot, names_k, w_k, b_k, mean, std in zip(
            slots, names, ws, b.tolist(), means, stds
        ):
            # fold standardization: w_raw = w/std, bias absorbs the means
            raw = w_k / std
            bias = b_k - float(raw @ mean)
            if np.isfinite(raw).all() and math.isfinite(bias):
                weights = dict(zip(names_k, raw.tolist()))
                outcomes[slot] = LinearClassifier(weights, bias, cfg.threshold)
            else:
                outcomes[slot] = NumericalError(
                    "classifier weights or bias went non-finite", step=cfg.iterations
                )
    return outcomes


@dataclass(frozen=True)
class BaselinePrediction:
    path: str
    predicted_vulnerable: bool


def extract_features(
    component: ComponentRecord,
    technique: Technique,
    bins: int = DEFAULT_BINS,
    spellings: Spellings | None = None,
) -> FeatureVector:
    if technique is Technique.TEXT_MINING:
        return bow_features(component, bins, spellings)
    if technique is Technique.IMPORTS:
        return import_features(component)
    if technique is Technique.FUNCTION_CALLS:
        return call_features(component, spellings)
    return static_metric_features(component, spellings)


def run_baseline(
    corpus: Corpus,
    technique: Technique,
    setting: Setting,
    classifier_config: ClassifierConfig | None = None,
    bins: int = DEFAULT_BINS,
) -> list[EvaluationReport]:
    """A classical technique through the release-pair protocol."""
    cfg = classifier_config if classifier_config is not None else ClassifierConfig()
    if bins < 1:
        raise ConfigError("bins must be >= 1")

    # a middle release is pair i's test set and pair i+1's training set;
    # featurise each component once per run, and classify each distinct
    # spelling once across the run's components
    spellings: Spellings = {}

    @functools.cache
    def features(component: ComponentRecord) -> FeatureVector:
        return extract_features(component, technique, bins, spellings)

    def fit(materials):
        return train_classifiers(
            [
                [(features(c), True) for c in material.fix_pairs]
                + [(features(c), False) for c in material.non_vulnerable]
                for material in materials
            ],
            cfg,
        )

    def predict(model, test_release):
        return [
            BaselinePrediction(c.path, model.predict(features(c)))
            for c in test_release.components
        ]

    return run_release_pairs(corpus, setting, fit, predict)
