"""Command-line pipeline driver.

One executable wires the whole flow: corpus synthesis or ingestion,
abstraction dumps, pair building, model training, per-component
prediction, release-pair evaluation, and the classical baselines.

Conventions shared by every subcommand:
- all randomness derives from ``--seed`` (no environment variables),
- file outputs are written atomically (temp file + rename),
- identical invocations produce byte-identical outputs,
- exit code 0 on success, 1 on usage/validation/input errors, 2 on
  internal errors.

Model settings resolve with precedence flags > config file > profile >
ModelConfig's defaults. The ``desk`` profile is sized to train in
minutes on one core; the ``paper`` profile keeps the large-scale values
(256 hidden units, 50,000 steps).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import fields

from .abstraction import source_sequences
from .baselines import DEFAULT_BINS, ClassifierConfig, Technique, run_baseline
from .corpus import Corpus, Setting, load_corpus, save_corpus, training_material
from .cparse import extract_functions, tokenize
from .errors import ConfigError, VulnseqError
from .evaluate import reports_to_csv, reports_to_jsonl, run_experiment, summarize
from .fileio import atomic_write_text
from .pairing import PairingConfig, build_training_pairs, labeled_functions_from_material
from .predict import predict_release
from .seq2seq import ModelConfig, load_model, save_model, split_holdout, train
from .synth import SynthesisSpec, generate_synthetic_corpus

# Profile values layered on top of the ModelConfig defaults; each holds
# only what differs from them. The desk learning rate is tuned so the
# small model memorizes a desk-scale corpus within its step budget; the
# paper profile also upsizes the capacity and step budget. Both keep
# ModelConfig's iteration block: desk-scale validation sets are a
# handful of pairs, and their exact-match rate plateaus between short
# blocks long before the model converges, which would trip the
# stop-on-no-improvement rule early.
_PROFILES: dict[str, dict[str, object]] = {
    "desk": {"learning_rate": 1.0},
    "paper": {"learning_rate": 1.0, "hidden_units": 256, "max_steps": 50000},
}

# every model setting has a flag but the seed, which --seed shares with pairing
_MODEL_FLAG_FIELDS = tuple(f for f in fields(ModelConfig) if f.name != "seed")

_SETTINGS = {"clean": Setting.CLEAN, "realistic": Setting.REALISTIC}

_TECHNIQUES = {
    "metrics": Technique.SOFTWARE_METRICS,
    "imports": Technique.IMPORTS,
    "calls": Technique.FUNCTION_CALLS,
    "textmining": Technique.TEXT_MINING,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (argparse's default is 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"cannot read {path}: not valid UTF-8 at byte {exc.start}"
        ) from None


def _load_corpus(path: str) -> Corpus:
    try:
        return load_corpus(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except VulnseqError as exc:
        # ParseError, IntegrityError or VersionError: keep the type, and
        # name the file as the message of every input error does
        exc.args = (f"{path}: {exc}",)
        raise


def _load_model(path: str):
    try:
        return load_model(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _load_config_file(path: str) -> dict:
    raw = _read_text(path)
    try:
        data = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(data) - {"seed", "profile", "model", "pairing"}
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
    # a section sets its config's fields but the seed, which "seed" sets for both
    for section, config in (("model", ModelConfig), ("pairing", PairingConfig)):
        values = data.get(section, {})
        if not isinstance(values, dict):
            raise ConfigError(f"config key {section!r} must hold an object")
        for key in values:
            if key == "seed" or key not in {f.name for f in fields(config)}:
                raise ConfigError(f"unknown {section} config key: {key}")
    if "profile" in data and not (
        isinstance(data["profile"], str) and data["profile"] in _PROFILES
    ):
        raise ConfigError(f"unknown profile in config file: {data['profile']!r}")
    return data


def resolve_run_config(args: argparse.Namespace) -> tuple[str, ModelConfig, PairingConfig]:
    """Merge flags, optional config file, and profile over the configs'
    defaults into (profile name, model, pairing); the configs check the
    values' types. One seed feeds both configs."""
    data = _load_config_file(args.config) if args.config else {}
    profile = args.profile or data.get("profile", "desk")
    seed = args.seed if args.seed is not None else data.get("seed", ModelConfig.seed)
    values = dict(_PROFILES[profile])
    values.update(data.get("model", {}))
    for field in _MODEL_FLAG_FIELDS:
        flag_value = getattr(args, field.name)
        if flag_value is not None:
            values[field.name] = flag_value
    pairing = dict(data.get("pairing", {}))
    if args.ratio is not None:
        pairing["non_vuln_ratio"] = args.ratio
    return profile, ModelConfig(seed=seed, **values), PairingConfig(seed=seed, **pairing)


def _release(corpus: Corpus, index: int):
    if not 0 <= index < len(corpus.releases):
        raise ConfigError(
            f"release index {index} out of range (corpus has {len(corpus.releases)})"
        )
    return corpus.releases[index]


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


# --- subcommands ---------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthesisSpec(
        n_releases=args.releases,
        components_per_release=args.components,
        vuln_fraction=args.vuln_fraction,
        vocabulary_skew=args.skew,
        detection_lag_days=args.detection_lag,
        carryover_fraction=args.carryover,
        plant_sentinel=not args.no_sentinel,
        name_suffixes=not args.shared_names,
        fix_replaces_file=args.rewrite_fixes,
    )
    corpus = generate_synthetic_corpus(args.seed, spec)
    save_corpus(corpus, args.output)
    n_vuln = sum(
        1 for r in corpus.releases for c in r.components if c.vuln_ids
    )
    print(
        f"wrote {args.output}: {len(corpus.releases)} releases, "
        f"{sum(len(r.components) for r in corpus.releases)} components, "
        f"{n_vuln} vulnerable versions, {len(corpus.vulnerabilities)} vulnerability records"
    )
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.input)
    save_corpus(corpus, args.output)
    print(
        f"wrote {args.output}: project {corpus.project_name!r}, "
        f"{len(corpus.releases)} releases, "
        f"{sum(len(r.components) for r in corpus.releases)} components"
    )
    return 0


def cmd_abstract(args: argparse.Namespace) -> int:
    text = _read_text(args.input)
    lines = [
        f"{seq.function_name}\t{seq.chunk_index}\t{' '.join(seq.tokens)}\n"
        for seq in source_sequences(args.input, text)
    ]
    _write_output(args.output, "".join(lines))
    return 0


def cmd_dump_tokens(args: argparse.Namespace) -> int:
    text = _read_text(args.input)
    lines = [
        f"{fn.name}\t{' '.join(fn.texts)}\n"
        for fn in extract_functions(tokenize(text))
    ]
    _write_output(args.output, "".join(lines))
    return 0


def cmd_pair(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.input)
    setting = _SETTINGS[args.setting]
    material = training_material(corpus, args.release, setting)
    labeled = labeled_functions_from_material(material)
    pairing = PairingConfig(non_vuln_ratio=args.ratio, seed=args.seed)
    pairs = build_training_pairs(labeled, pairing)
    rows = [
        {
            "kind": p.kind.value,
            "path": p.input.source_path,
            "function": p.input.function_name,
            "chunk": p.input.chunk_index,
            "input": list(p.input.tokens),
            "target": list(p.target.tokens),
        }
        for p in pairs
    ]
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    _write_output(args.output, text)
    by_kind = {}
    for p in pairs:
        by_kind[p.kind.value] = by_kind.get(p.kind.value, 0) + 1
    print(
        f"{len(pairs)} training pairs from release {args.release} "
        f"({args.setting}): " + ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    profile, model_config, pairing = resolve_run_config(args)
    corpus = _load_corpus(args.input)
    setting = _SETTINGS[args.setting]
    material = training_material(corpus, args.release, setting)
    labeled = labeled_functions_from_material(material)
    pairs = build_training_pairs(labeled, pairing)
    train_pairs, validation = split_holdout(pairs, args.holdout, seed=model_config.seed)
    model = train(train_pairs, validation, model_config)
    save_model(model, args.output)
    print(
        f"wrote {args.output}: trained on {len(train_pairs)} pairs "
        f"({len(validation)} held out), vocabulary {model.vocabulary.size()}, "
        f"profile {profile}"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    corpus = _load_corpus(args.input)
    release = _release(corpus, args.release)
    verdicts = predict_release(model, release)
    rows = [
        {
            "path": v.path,
            "vulnerable": v.predicted_vulnerable,
            "modified": [
                {"function": fn, "chunk": chunk} for fn, chunk in v.modified_sequences
            ],
            "total_sequences": v.total_sequences,
        }
        for v in verdicts
    ]
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    _write_output(args.output, text)
    flagged = sum(1 for v in verdicts if v.predicted_vulnerable)
    print(f"{flagged}/{len(verdicts)} components flagged in release {release.name}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _, model_config, pairing = resolve_run_config(args)
    corpus = _load_corpus(args.input)
    setting = _SETTINGS[args.setting]
    reports = run_experiment(corpus, setting, model_config, pairing)
    text = reports_to_csv(reports) if args.format == "csv" else reports_to_jsonl(reports)
    _write_output(args.output, text)
    print(json.dumps(summarize(reports), sort_keys=True))
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.input)
    technique = _TECHNIQUES[args.technique]
    setting = _SETTINGS[args.setting]
    # the classifier flags' dests are the config's field names
    classifier = ClassifierConfig(
        **{f.name: getattr(args, f.name) for f in fields(ClassifierConfig)}
    )
    reports = run_baseline(corpus, technique, setting, classifier, bins=args.bins)
    text = reports_to_csv(reports) if args.format == "csv" else reports_to_jsonl(reports)
    _write_output(args.output, text)
    print(json.dumps(summarize(reports), sort_keys=True))
    return 0


# --- parser --------------------------------------------------------------


def _add_output_flag(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument(
        "-o",
        "--output",
        required=required,
        default=None,
        help="output path" + ("" if required else " (default: stdout)"),
    )


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile",
        choices=sorted(_PROFILES),
        default=None,
        help="size profile for model settings (default: desk)",
    )
    p.add_argument("--config", default=None, help="JSON config file (flags win over it)")
    p.add_argument("--seed", type=int, default=None, help=f"global random seed (default: {ModelConfig.seed})")
    p.add_argument(
        "--ratio",
        type=float,
        default=None,
        help=f"echo pairs sampled per fix pair (default: {PairingConfig.non_vuln_ratio})",
    )
    for field in _MODEL_FLAG_FIELDS:
        p.add_argument(
            "--" + field.name.replace("_", "-"),
            dest=field.name,
            type=float if field.type == "float" else int,
            default=None,
            help=f"override the profile's {field.name}",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vulnseq",
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, func, help_text):
        p = sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.set_defaults(func=func)
        return p

    p = command("synth", cmd_synth, "generate a synthetic release corpus")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.add_argument("--releases", type=int, default=SynthesisSpec.n_releases, help="number of releases")
    p.add_argument("--components", type=int, default=SynthesisSpec.components_per_release, help="components per release")
    p.add_argument("--vuln-fraction", type=float, default=SynthesisSpec.vuln_fraction, help="vulnerable share per release")
    p.add_argument("--skew", type=float, default=SynthesisSpec.vocabulary_skew, help="identifier spelling skew")
    p.add_argument("--detection-lag", type=int, default=SynthesisSpec.detection_lag_days, help="days until a vulnerability is reported")
    p.add_argument("--carryover", type=float, default=SynthesisSpec.carryover_fraction, help="share of vulnerabilities left unfixed per release")
    p.add_argument("--no-sentinel", action="store_true", help="do not plant the sentinel helper call")
    p.add_argument("--shared-names", action="store_true", help="draw identifiers from a shared pool")
    p.add_argument("--rewrite-fixes", action="store_true", help="fixes replace files instead of patching them")
    _add_output_flag(p)

    p = command("ingest", cmd_ingest, "validate a corpus file and rewrite it canonically")
    p.add_argument("-i", "--input", required=True, help="corpus JSONL to validate")
    _add_output_flag(p)

    p = command("abstract", cmd_abstract, "print abstracted sequences for a C file")
    p.add_argument("-i", "--input", required=True, help="C source file")
    _add_output_flag(p, required=False)

    p = command("dump-tokens", cmd_dump_tokens, "print raw significant tokens per function")
    p.add_argument("-i", "--input", required=True, help="C source file")
    _add_output_flag(p, required=False)

    p = command("pair", cmd_pair, "build training pairs for one release")
    p.add_argument("-i", "--input", required=True, help="corpus JSONL")
    p.add_argument("--release", type=int, required=True, help="training release index")
    p.add_argument("--setting", choices=sorted(_SETTINGS), default="clean", help="training material setting")
    p.add_argument("--ratio", type=float, default=PairingConfig.non_vuln_ratio, help="echo pairs sampled per fix pair")
    p.add_argument("--seed", type=int, default=PairingConfig.seed, help="sampling seed")
    _add_output_flag(p)

    p = command("train", cmd_train, "train a sequence model on one release")
    p.add_argument("-i", "--input", required=True, help="corpus JSONL")
    p.add_argument("--release", type=int, required=True, help="training release index")
    p.add_argument("--setting", choices=sorted(_SETTINGS), default="clean", help="training material setting")
    holdout = inspect.signature(split_holdout).parameters["fraction"].default
    p.add_argument("--holdout", type=float, default=holdout, help="validation fraction for early stopping")
    _add_model_flags(p)
    _add_output_flag(p)

    p = command("predict", cmd_predict, "score one release's components with a trained model")
    p.add_argument("-m", "--model", required=True, help="model checkpoint")
    p.add_argument("-i", "--input", required=True, help="corpus JSONL")
    p.add_argument("--release", type=int, required=True, help="release index to score")
    _add_output_flag(p)

    p = command("evaluate", cmd_evaluate, "run the release-pair experiment end to end")
    p.add_argument("-i", "--input", required=True, help="corpus JSONL")
    p.add_argument("--setting", choices=sorted(_SETTINGS), default="clean", help="training material setting")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl", help="report format")
    _add_model_flags(p)
    _add_output_flag(p)

    p = command("baseline", cmd_baseline, "run a classical per-component classifier")
    p.add_argument("-i", "--input", required=True, help="corpus JSONL")
    p.add_argument("--technique", choices=sorted(_TECHNIQUES), required=True, help="feature family")
    p.add_argument("--setting", choices=sorted(_SETTINGS), default="clean", help="training material setting")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl", help="report format")
    p.add_argument("--bins", type=int, default=DEFAULT_BINS, help="token-count bins for textmining")
    p.add_argument("--iterations", type=int, default=ClassifierConfig.iterations, help="gradient-descent iterations")
    p.add_argument("--learning-rate", type=float, default=ClassifierConfig.learning_rate, help="classifier learning rate")
    p.add_argument("--l2", type=float, default=ClassifierConfig.l2, help="L2 penalty")
    p.add_argument("--threshold", type=float, default=ClassifierConfig.threshold, help="decision threshold (strictly greater)")
    _add_output_flag(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VulnseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
