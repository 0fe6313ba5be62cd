"""End-user command-line behaviour: flags, files, exit codes, determinism."""

import dataclasses
import hashlib
import json
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from vulnseq.baselines import ClassifierConfig, Technique, run_baseline
from vulnseq.cli import build_parser, main, resolve_run_config
from vulnseq.corpus import (
    ComponentRecord,
    Label,
    Setting,
    load_corpus,
    save_corpus,
    training_material,
)
from vulnseq.errors import IntegrityError, ParseError, VersionError
from vulnseq.evaluate import reports_to_jsonl
from vulnseq.pairing import PairingConfig, build_training_pairs, labeled_functions_from_material
from vulnseq.seq2seq import load_model, save_model
from vulnseq.synth import SynthesisSpec, generate_synthetic_corpus

DEMO_C = (
    "int add_one(int v)\n"
    "{\n"
    " if (!v)\n"
    "  return 1;\n"
    " return v + 1;\n"
    "}\n"
)

TINY_MODEL_FLAGS = [
    "--hidden-units", "8",
    "--embedding-dim", "8",
    "--max-steps", "40",
    "--iteration-steps", "20",
]


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    code = main(["synth", "--seed", "5", "--releases", "3", "--components", "8", "-o", str(path)])
    assert code == 0
    return path


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    for sub in (
        "synth", "ingest", "abstract", "dump-tokens", "pair",
        "train", "predict", "evaluate", "baseline",
    ):
        assert main([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--help" in out


def test_module_execution_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vulnseq.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout


def test_synth_is_seed_deterministic(tmp_path):
    a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    assert main(["synth", "--seed", "3", "-o", str(a)]) == 0
    assert main(["synth", "--seed", "3", "-o", str(b)]) == 0
    assert main(["synth", "--seed", "4", "-o", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_synth_defaults_to_the_default_spec(tmp_path):
    out, expected = tmp_path / "cli.jsonl", tmp_path / "library.jsonl"
    assert main(["synth", "--seed", "3", "-o", str(out)]) == 0
    save_corpus(generate_synthetic_corpus(3, SynthesisSpec()), str(expected))
    assert out.read_bytes() == expected.read_bytes()


def test_synth_negative_seed_exits_one(tmp_path, capsys):
    # random.Random seeds from |seed|, so -5 must not give seed 5's corpus
    out = tmp_path / "corpus.jsonl"
    assert main(["synth", "--seed", "-5", "-o", str(out)]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_round_trips_canonical_form(corpus_file, tmp_path):
    out = tmp_path / "canon.jsonl"
    assert main(["ingest", "-i", str(corpus_file), "-o", str(out)]) == 0
    assert out.read_bytes() == corpus_file.read_bytes()


def test_abstract_emits_id_streams(tmp_path, capsys):
    src = tmp_path / "demo.c"
    src.write_text(DEMO_C)
    assert main(["abstract", "-i", str(src)]) == 0
    out = capsys.readouterr().out
    assert out == "add_one\t0\tint F_1 ( int V_1 ) { if ( ! V_1 ) return 1 ; return V_1 + 1 ; }\n"


def test_dump_tokens_keeps_raw_spellings(tmp_path, capsys):
    src = tmp_path / "demo.c"
    src.write_text(DEMO_C)
    assert main(["dump-tokens", "-i", str(src)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("add_one\tint add_one ( int v )")


def test_pair_writes_training_rows(corpus_file, tmp_path):
    out = tmp_path / "pairs.jsonl"
    assert main(["pair", "-i", str(corpus_file), "--release", "1", "-o", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows
    kinds = {r["kind"] for r in rows}
    assert kinds <= {"VulnToFixed", "FixedToFixed", "NonVulnToSelf"}
    assert "VulnToFixed" in kinds
    for row in rows:
        assert set(row) == {"kind", "path", "function", "chunk", "input", "target"}

    again = tmp_path / "pairs2.jsonl"
    assert main(["pair", "-i", str(corpus_file), "--release", "1", "-o", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_pair_defaults_to_the_default_pairing_config(corpus_file, tmp_path):
    out = tmp_path / "pairs.jsonl"
    assert main(["pair", "-i", str(corpus_file), "--release", "1", "-o", str(out)]) == 0
    material = training_material(load_corpus(str(corpus_file)), 1, Setting.CLEAN)
    pairs = build_training_pairs(labeled_functions_from_material(material), PairingConfig())
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["kind"], r["path"], r["function"], r["chunk"], r["input"], r["target"])
            for r in rows] == [
        (p.kind.value, p.input.source_path, p.input.function_name, p.input.chunk_index,
         list(p.input.tokens), list(p.target.tokens))
        for p in pairs
    ]


@pytest.mark.parametrize(
    "field, tail, which, message",
    [
        ("source", '\nchar *s = "never closed;\n', "source", "unterminated string literal"),
        ("fixed_source", "}\n", "fixed source", "unbalanced '}' at file scope"),
    ],
    ids=["lex", "split"],
)
def test_a_source_that_fails_to_lex_or_split_is_named(
    field, tail, which, message, corpus_file, tmp_path, capsys
):
    corpus = load_corpus(str(corpus_file))
    broken = training_material(corpus, 1, Setting.CLEAN).fix_pairs[0]
    release = corpus.releases[1]
    components = tuple(
        dataclasses.replace(c, **{field: getattr(c, field) + tail}) if c == broken else c
        for c in release.components
    )
    releases = (corpus.releases[0], dataclasses.replace(release, components=components),
                *corpus.releases[2:])
    bad = tmp_path / "bad.jsonl"
    save_corpus(dataclasses.replace(corpus, releases=releases), str(bad))
    named = f"{release.name} {broken.path} ({which}): {message}"
    for command in (["pair"], ["train", *TINY_MODEL_FLAGS]):
        out = tmp_path / "out"
        assert main([*command, "-i", str(bad), "--release", "1", "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {named}")
        assert not out.exists()
    # the experiment writes the same text into that pair's failed row
    out = tmp_path / "evaluate.jsonl"
    assert main(["evaluate", "-i", str(bad), *TINY_MODEL_FLAGS, "-o", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r.get("failed") for r in rows] == [False, True, None]
    assert rows[1]["error"].startswith(named)


def test_train_then_predict_cycle(corpus_file, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    verdicts = tmp_path / "v.jsonl"
    assert main(["train", "-i", str(corpus_file), "--release", "1",
                 *TINY_MODEL_FLAGS, "-o", str(ckpt)]) == 0
    assert ckpt.exists()
    assert main(["predict", "-m", str(ckpt), "-i", str(corpus_file),
                 "--release", "2", "-o", str(verdicts)]) == 0
    rows = [json.loads(line) for line in verdicts.read_text().splitlines()]
    assert len(rows) == 8
    for row in rows:
        assert set(row) == {"path", "vulnerable", "modified", "total_sequences"}
        assert row["vulnerable"] == bool(row["modified"])


def test_profile_and_flag_precedence(corpus_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "desk", "model": {"hidden_units": 12}}))

    from_file = tmp_path / "file.ckpt"
    assert main(["train", "-i", str(corpus_file), "--release", "0",
                 "--config", str(cfg), "--max-steps", "0", "-o", str(from_file)]) == 0
    assert load_model(str(from_file)).config.hidden_units == 12

    from_flag = tmp_path / "flag.ckpt"
    assert main(["train", "-i", str(corpus_file), "--release", "0",
                 "--config", str(cfg), "--hidden-units", "6",
                 "--max-steps", "0", "-o", str(from_flag)]) == 0
    assert load_model(str(from_flag)).config.hidden_units == 6


# every model setting of each profile spelled out, so that a change to
# ModelConfig's defaults cannot move a profile unnoticed
PROFILE_SETTINGS = {
    "desk": {
        "embedding_dim": 32, "hidden_units": 32, "learning_rate": 1.0, "batch_size": 16,
        "clip_norm": 5.0, "iteration_steps": 5000, "max_steps": 5000, "min_count": 1,
        "seed": 0,
    },
    "paper": {
        "embedding_dim": 32, "hidden_units": 256, "learning_rate": 1.0, "batch_size": 16,
        "clip_norm": 5.0, "iteration_steps": 5000, "max_steps": 50000, "min_count": 1,
        "seed": 0,
    },
}


@pytest.mark.parametrize("profile", sorted(PROFILE_SETTINGS))
def test_profile_sets_every_model_setting(profile, corpus_file, tmp_path):
    argv = ["train", "-i", str(corpus_file), "--release", "0", "--profile", profile]
    _, model_config, _ = resolve_run_config(build_parser().parse_args([*argv, "-o", "unused"]))
    assert dataclasses.asdict(model_config) == PROFILE_SETTINGS[profile]

    ckpt = tmp_path / f"{profile}.ckpt"
    assert main([*argv, "--max-steps", "0", "-o", str(ckpt)]) == 0
    # the explicit flag still wins
    expected = {**PROFILE_SETTINGS[profile], "max_steps": 0}
    assert dataclasses.asdict(load_model(str(ckpt)).config) == expected


def test_seed_flag_feeds_model_config(corpus_file, tmp_path):
    ckpt = tmp_path / "seeded.ckpt"
    assert main(["train", "-i", str(corpus_file), "--release", "0",
                 "--seed", "9", "--max-steps", "0", "-o", str(ckpt)]) == 0
    assert load_model(str(ckpt)).config.seed == 9


def test_bad_config_file_is_a_usage_error(corpus_file, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"modle": {}}))
    code = main(["train", "-i", str(corpus_file), "--release", "0",
                 "--config", str(cfg), "-o", str(tmp_path / "x.ckpt")])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err

    cfg.write_text("{not json")
    code = main(["train", "-i", str(corpus_file), "--release", "0",
                 "--config", str(cfg), "-o", str(tmp_path / "x.ckpt")])
    assert code == 1

    # an integer of more digits than Python converts is bad JSON too
    cfg.write_text('{"model": {"hidden_units": 1' + "0" * 5000 + "}}")
    code = main(["train", "-i", str(corpus_file), "--release", "0",
                 "--config", str(cfg), "-o", str(tmp_path / "x.ckpt")])
    assert code == 1
    assert f"config file {cfg} is not valid JSON: Exceeds the limit" in capsys.readouterr().err

    # a wrong type, or an int too large for a float field, exits 1 with
    # the message of the config that owns the field
    for config, message in [
        ({"pairing": {"non_vuln_ratio": "5"}}, "non_vuln_ratio must be float, got '5'"),
        ({"pairing": {"non_vuln_ratio": 10**400}}, "non_vuln_ratio is too large for a float"),
        ({"model": {"learning_rate": 10**400}}, "learning_rate is too large for a float"),
        ({"model": {"clip_norm": 10**400}}, "clip_norm is too large for a float"),
        ({"model": {"hidden_units": "32"}}, "hidden_units must be int, got '32'"),
        ({"model": {"max_steps": 1.0}}, "max_steps must be int, got 1.0"),
        ({"model": {"clip_norm": True}}, "clip_norm must be float, got True"),
        ({"seed": "1"}, "seed must be int, got '1'"),
    ]:
        cfg.write_text(json.dumps(config))
        code = main(["train", "-i", str(corpus_file), "--release", "0",
                     "--config", str(cfg), "-o", str(tmp_path / "x.ckpt")])
        assert code == 1, config
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    # an unhashable profile is reported, not a failed membership test
    for profile in ([], {}):
        cfg.write_text(json.dumps({"profile": profile}))
        for command in ("train", "evaluate"):
            argv = [command, "-i", str(corpus_file), "--config", str(cfg), "-o", str(tmp_path / "x")]
            if command == "train":
                argv += ["--release", "0"]
            assert main(argv) == 1
            assert "unknown profile in config file" in capsys.readouterr().err


def test_missing_input_file_exits_one(capsys):
    assert main(["pair", "-i", "no-such-file.jsonl", "--release", "0", "-o", "out"]) == 1
    assert "no-such-file.jsonl" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["abstract", "dump-tokens"])
def test_non_utf8_source_exits_one_naming_the_file(command, tmp_path, capsys):
    src = tmp_path / "bad.c"
    src.write_bytes(b"\xff\xfeint f(void) { return 0; }\n")
    assert main([command, "-i", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(src) in err


def test_non_utf8_corpus_exits_one_with_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'\xff\xfe{"kind": "header", "format_version": 1}\n')
    assert main(["ingest", "-i", str(bad), "-o", str(tmp_path / "out.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 1: not valid UTF-8")
    assert not (tmp_path / "out.jsonl").exists()


HEADER = '{"kind": "header", "format_version": 1}\n'


@pytest.mark.parametrize(
    "body, error, message",
    [
        (HEADER + "{not json\n", ParseError, "line 2: bad JSON"),
        ('{"kind": "header", "format_version": 1' + "0" * 5000 + "}\n", ParseError,
         "line 1: bad JSON: Exceeds the limit"),
        ('{"kind": "header", "format_version": 99}\n', VersionError, "unsupported corpus"),
        ('{"kind": "header", "format_version": true}\n', VersionError,
         "unsupported corpus format_version True"),
        ('{"kind": "header", "format_version": 1.0}\n', VersionError,
         "unsupported corpus format_version 1.0"),
        (HEADER + '{"kind": "component", "release": "r9", "label": "NonVulnerable",'
         ' "path": "a.c", "source": ""}\n', IntegrityError, "unknown release 'r9'"),
    ],
    ids=["parse", "huge-int", "version", "bool-version", "float-version", "integrity"],
)
def test_corpus_errors_name_the_file(body, error, message, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(body)
    with pytest.raises(error):
        load_corpus(str(bad))
    for command in (["ingest", "-o", str(tmp_path / "out.jsonl")],
                    ["pair", "--release", "0", "-o", str(tmp_path / "pairs")]):
        assert main([command[0], "-i", str(bad), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--bins", "0"],
        ["--learning-rate", "0"],
        ["--iterations", "-3"],
        ["--threshold", "7"],
        ["--learning-rate", "nan"],
    ],
)
def test_bad_baseline_settings_exit_one(flags, corpus_file, tmp_path, capsys):
    out = tmp_path / "base.jsonl"
    code = main(["baseline", "-i", str(corpus_file), "--technique", "textmining",
                 *flags, "-o", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _run_with_config(argv, config, tmp_path):
    """main(argv), plus --config naming a file that holds config when given."""
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    return main(argv)


@pytest.mark.parametrize(
    "command, flags, config, message",
    [
        ("predict", ["-m", "unused.ckpt", "--release", "1", "--jobs", "1"], None,
         "unrecognized arguments: --jobs"),
        ("evaluate", ["--jobs", "1"], None, "unrecognized arguments: --jobs"),
        ("train", ["--release", "0", "--max-decode-length", "64"], None,
         "unrecognized arguments: --max-decode-length"),
        ("evaluate", ["--max-decode-length", "64"], None,
         "unrecognized arguments: --max-decode-length"),
        ("train", ["--release", "0"], '{"model": {"max_decode_length": 64}}',
         "unknown model config key: max_decode_length"),
    ],
    ids=["predict-jobs", "evaluate-jobs", "train-max-decode-length",
         "evaluate-max-decode-length", "config-max-decode-length"],
)
def test_removed_settings_are_unrecognised(command, flags, config, message,
                                           corpus_file, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "-i", str(corpus_file), *flags, "-o", str(out)]
    assert _run_with_config(argv, config, tmp_path) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, config",
    [
        ("pair", ["--release", "0", "--ratio", "nan"], None),
        ("pair", ["--release", "0", "--ratio", "inf"], None),
        ("train", ["--release", "0", "--max-steps", "0", "--ratio", "nan"], None),
        ("evaluate", ["--max-steps", "0", "--ratio", "nan"], None),
        ("train", ["--release", "0", "--max-steps", "0"],
         '{"pairing": {"non_vuln_ratio": NaN}}'),
    ],
    ids=["pair-nan", "pair-inf", "train-nan", "evaluate-nan", "config-nan"],
)
def test_non_finite_ratio_exits_one(command, flags, config, corpus_file, tmp_path,
                                    capsys):
    out = tmp_path / "out"
    argv = [command, "-i", str(corpus_file), *flags, "-o", str(out)]
    assert _run_with_config(argv, config, tmp_path) == 1
    assert "non_vuln_ratio must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--learning-rate", "nan"], None, "learning_rate must be finite"),
        (["--clip-norm", "inf"], None, "clip_norm must be finite"),
        ([], '{"model": {"clip_norm": NaN}}', "clip_norm must be finite"),
        ([], '{"model": {"learning_rate": Infinity}}', "learning_rate must be finite"),
    ],
    ids=["learning-rate-flag", "clip-norm-flag", "clip-norm-config",
         "learning-rate-config"],
)
def test_non_finite_model_settings_exit_one(flags, config, message, corpus_file,
                                            tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    argv = ["train", "-i", str(corpus_file), "--release", "0", *flags,
            "--max-steps", "1", "--iteration-steps", "1", "--holdout", "0",
            "-o", str(ckpt)]
    assert _run_with_config(argv, config, tmp_path) == 1
    assert message in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize(
    "command, flags, config",
    [
        ("train", ["--release", "0", "--seed", "-1"], None),
        ("evaluate", ["--seed", "-1"], None),
        ("train", ["--release", "0"], '{"seed": -1}'),
        ("evaluate", [], '{"seed": -1}'),
    ],
    ids=["train-flag", "evaluate-flag", "train-config", "evaluate-config"],
)
def test_negative_seed_exits_one(command, flags, config, corpus_file, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "-i", str(corpus_file), *flags, "--max-steps", "0", "-o", str(out)]
    assert _run_with_config(argv, config, tmp_path) == 1
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


# 2^40 units ask for a PiB, beyond any address space, so nothing is allocated
OVERSIZED = str(1 << 40)


@pytest.mark.parametrize("flag", ["--hidden-units", "--embedding-dim"])
def test_train_of_a_model_too_large_for_memory_exits_one(flag, corpus_file, tmp_path, capsys):
    out = tmp_path / "model.ckpt"
    assert main(["train", "-i", str(corpus_file), "--release", "1", flag, OVERSIZED,
                 "--max-steps", "1", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a model of embedding_dim "), err
    assert f"{flag[2:].replace('-', '_')} {OVERSIZED}" in err and "does not fit in memory" in err
    assert not out.exists()


def test_evaluate_of_a_model_too_large_for_memory_fails_its_rows(corpus_file, tmp_path):
    out = tmp_path / "report.jsonl"
    assert main(["evaluate", "-i", str(corpus_file), "--hidden-units", OVERSIZED,
                 "--max-steps", "1", "-o", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["failed"] for r in rows[:-1]] == [True, True]
    assert all("does not fit in memory" in r["error"] for r in rows[:-1])
    assert rows[-1]["failed_rows"] == 2


@pytest.mark.parametrize("target", ["missing-directory", "existing-directory"])
@pytest.mark.parametrize(
    "command, flags",
    [
        ("synth", ["--seed", "1", "--releases", "2", "--components", "4"]),
        ("train", ["--release", "0", "--max-steps", "1", "--iteration-steps", "1",
                   "--holdout", "0"]),
    ],
    ids=["synth", "train"],
)
def test_unwritable_output_exits_one_naming_the_path(command, flags, target, corpus_file,
                                                      tmp_path, capsys):
    if target == "missing-directory":
        out = tmp_path / "absent" / "out"
    else:
        out = tmp_path / "taken"
        out.mkdir()
    inputs = [] if command == "synth" else ["-i", str(corpus_file)]
    assert main([command, *inputs, *flags, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert not list(tmp_path.rglob(".tmp-*~"))


DESK_CKPT = Path(__file__).resolve().parents[1] / "perfbench" / "desk.ckpt"


def _with_config(edit):
    """The desk checkpoint's bytes with its config replaced by edit(config)
    and the digest recomputed, so only the config is wrong."""
    body = DESK_CKPT.read_bytes()[:-32]
    (size,) = struct.unpack("<I", body[8:12])
    config = edit(body[12 : 12 + size])
    body = body[:8] + struct.pack("<I", len(config)) + config + body[12 + size :]
    return body + hashlib.sha256(body).digest()


def _set(name, value):
    def edit(raw):
        fields = json.loads(raw)
        fields[name] = value
        return json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw.replace(b'{"', b"{", 1), "config is not valid JSON"),
        (lambda raw: raw.replace(b"seed", b"s\xffed"), "not valid UTF-8"),
        (lambda raw: b"0", "config schema does not match"),
        (_set("max_decode_length", 10), "max_decode_length must be 64, got 10"),
        (_set("hidden_units", "32"), "hidden_units must be int, got '32'"),
        (_set("seed", True), "seed must be int, got True"),
        (_set("learning_rate", "1.0"), "learning_rate must be float"),
        (_set("learning_rate", 10**400), "learning_rate is too large for a float"),
        (lambda raw: raw.replace(b'"seed":0', b'"seed":1' + b"0" * 5000),
         "config is not valid JSON: Exceeds the limit"),
    ],
    ids=["not-json", "not-utf8", "not-object", "short-decode-cap", "string-int",
         "bool-int", "string-float", "huge-int-float", "too-many-digits"],
)
def test_checkpoint_with_a_bad_config_exits_one(edit, message, corpus_file, tmp_path, capsys):
    ckpt, out = tmp_path / "bad.ckpt", tmp_path / "verdicts.jsonl"
    ckpt.write_bytes(_with_config(edit))
    argv = ["predict", "-m", str(ckpt), "-i", str(corpus_file), "--release", "2", "-o", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def _drop(name):
    def edit(raw):
        fields = json.loads(raw)
        del fields[name]
        return json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()

    return edit


def test_desk_checkpoint_resaves_to_its_own_bytes(tmp_path):
    out = tmp_path / "desk.ckpt"
    save_model(load_model(str(DESK_CKPT)), str(out))
    assert out.read_bytes() == DESK_CKPT.read_bytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop("encoder_layers"), "config schema does not match"),
        (_drop("decoder_layers"), "config schema does not match"),
        (_set("decoder_layers", 3), "decoder_layers must be 2, got 3"),
        (_set("encoder_layers", True), "encoder_layers must be 1, got True"),
        (_set("encoder_layers", 1.0), "encoder_layers must be 1, got 1.0"),
    ],
    ids=["no-encoder-layers", "no-decoder-layers", "three-decoder-layers", "bool-encoder-layers",
         "float-encoder-layers"],
)
def test_checkpoint_layer_counts_are_fixed(edit, message, tmp_path):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(_with_config(edit))
    with pytest.raises(VersionError, match=message):
        load_model(str(ckpt))


def test_checkpoint_shape_too_large_to_count_exits_one(corpus_file, tmp_path, capsys):
    # (2**32 - 1)**2 elements wrap a 64-bit count to a negative length
    body = DESK_CKPT.read_bytes()[:-32]
    name = struct.pack("<I", 9) + b"embedding"
    at = body.index(name) + len(name)  # the tensor's ndim, then its shape
    (ndim,) = struct.unpack_from("<I", body, at)
    body = body[:at] + struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1) + body[at + 4 + 4 * ndim :]
    ckpt, out = tmp_path / "huge.ckpt", tmp_path / "verdicts.jsonl"
    ckpt.write_bytes(body + hashlib.sha256(body).digest())
    argv = ["predict", "-m", str(ckpt), "-i", str(corpus_file), "--release", "2", "-o", str(out)]
    assert main(argv) == 1
    assert "error: unexpected end of checkpoint" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_config_may_hold_an_int_for_a_float(tmp_path):
    ckpt, resaved = tmp_path / "int-rate.ckpt", tmp_path / "resaved.ckpt"
    ckpt.write_bytes(_with_config(_set("learning_rate", 1)))
    model = load_model(str(ckpt))
    assert model.config.learning_rate == 1.0 and type(model.config.learning_rate) is float
    # it resaves with the float spelling, the desk checkpoint's own bytes
    save_model(model, str(resaved))
    assert resaved.read_bytes() == DESK_CKPT.read_bytes()


def test_config_file_and_flags_write_the_same_checkpoint(corpus_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"hidden_units": 8, "learning_rate": 1, "clip_norm": 5,
                                         "iteration_steps": 4, "max_steps": 4}}))
    from_file, from_flags = tmp_path / "file.ckpt", tmp_path / "flags.ckpt"
    assert main(["train", "-i", str(corpus_file), "--release", "1", "--config", str(cfg),
                 "-o", str(from_file)]) == 0
    assert main(["train", "-i", str(corpus_file), "--release", "1", "--hidden-units", "8",
                 "--learning-rate", "1", "--clip-norm", "5", "--iteration-steps", "4",
                 "--max-steps", "4", "-o", str(from_flags)]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()


# The fourth release falls 2,914,715 days before date.max, and a lag L is
# detected up to L + L // 4 days after its release.
@pytest.mark.parametrize("lag, code", [(2_331_772, 0), (2_331_773, 1)])
def test_detection_lag_may_reach_the_last_date(lag, code, tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    argv = ["synth", "--components", "5", "--detection-lag", str(lag), "-o", str(out)]
    assert main(argv) == code
    if code == 0:
        assert len(load_corpus(str(out)).releases) == 4
    else:
        assert "put a detection date past 9999-12-31" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("skew", ["nan", "inf"])
def test_non_finite_skew_exits_one(skew, tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert main(["synth", "--skew", skew, "-o", str(out)]) == 1
    assert "vocabulary_skew must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_too_steep_skew_exits_one_instead_of_hanging(tmp_path):
    # a subprocess, so that a regression to an endless redraw fails here
    # instead of hanging the test run
    out = tmp_path / "c.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "vulnseq.cli", "synth", "--skew", "60",
         "--shared-names", "-o", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "no unused identifier after 100000 draws" in proc.stderr
    assert not out.exists()


def test_unknown_flag_exits_one(capsys):
    assert main(["synth", "--frobnicate", "-o", "x"]) == 1
    assert "--frobnicate" in capsys.readouterr().err


def test_release_out_of_range_exits_one(corpus_file, capsys):
    assert main(["pair", "-i", str(corpus_file), "--release", "7", "-o", "out"]) == 1
    assert "release index" in capsys.readouterr().err


def test_evaluate_formats(corpus_file, tmp_path, capsys):
    report = tmp_path / "rep.jsonl"
    assert main(["evaluate", "-i", str(corpus_file), *TINY_MODEL_FLAGS,
                 "-o", str(report)]) == 0
    summary_line = capsys.readouterr().out.strip().splitlines()[-1]
    summary = json.loads(summary_line)
    assert summary["rows"] == 2
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    assert [r["kind"] for r in rows] == ["report", "report", "summary"]

    csv_report = tmp_path / "rep.csv"
    assert main(["evaluate", "-i", str(corpus_file), *TINY_MODEL_FLAGS,
                 "--format", "csv", "-o", str(csv_report)]) == 0
    lines = csv_report.read_text().splitlines()
    assert lines[0] == "Release,MCC,F-measure,Precision,Recall"
    assert lines[-2].startswith("Average,")
    assert lines[-1].startswith("Median,")


def test_baseline_subcommand(corpus_file, tmp_path):
    out = tmp_path / "base.jsonl"
    assert main(["baseline", "-i", str(corpus_file), "--technique", "calls",
                 "-o", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["kind"] for r in rows] == ["report", "report", "summary"]


def test_baseline_defaults_to_the_default_classifier_config(corpus_file, tmp_path):
    out = tmp_path / "base.jsonl"
    assert main(["baseline", "-i", str(corpus_file), "--technique", "textmining",
                 "-o", str(out)]) == 0
    reports = run_baseline(load_corpus(str(corpus_file)), Technique.TEXT_MINING,
                           Setting.CLEAN, ClassifierConfig())
    assert out.read_text() == reports_to_jsonl(reports)


@pytest.mark.parametrize("flags", [["--learning-rate", "1e5"], ["--l2", "1e300"]])
def test_diverging_baseline_fails_its_rows_quietly(flags, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--seed", "42", "-o", str(corpus)]) == 0
    out = tmp_path / "base.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["baseline", "-i", str(corpus), "--technique", "metrics",
                     *flags, "-o", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["failed"] for r in rows[:-1]] == [True, True, True]
    assert all("non-finite" in r["error"] for r in rows[:-1])
    assert rows[-1]["failed_rows"] == 3


def test_pipeline_is_byte_deterministic(tmp_path):
    def run(tag):
        corpus = tmp_path / f"c{tag}.jsonl"
        ckpt = tmp_path / f"m{tag}.ckpt"
        report = tmp_path / f"r{tag}.jsonl"
        assert main(["synth", "--seed", "11", "--releases", "2",
                     "--components", "6", "-o", str(corpus)]) == 0
        assert main(["train", "-i", str(corpus), "--release", "0",
                     *TINY_MODEL_FLAGS, "--seed", "11", "-o", str(ckpt)]) == 0
        assert main(["evaluate", "-i", str(corpus), *TINY_MODEL_FLAGS,
                     "--seed", "11", "-o", str(report)]) == 0
        return _digest(corpus), _digest(ckpt), _digest(report)

    assert run("a") == run("b")


HOSTILE_SOURCES = {
    "one 1 MB line": ("int f(int a) {" + " a = a + 1;" * 95_000 + " }\n", 0),
    "200,000 nested braces": ("void f(void) " + "{" * 200_000 + "}" * 200_000 + "\n", 0),
    "200,000 nested parentheses": (
        "int f(void) { return " + "(" * 200_000 + "1" + ")" * 200_000 + "; }\n", 0
    ),
    # each opener's closer is looked up, not searched for: rescanning from
    # every "a(" to the end of the file would take quadratic time here
    "100,000 unclosed calls": ("a(" * 100_000 + "\n", 0),
    "100,000 unclosed braces": ("void f(void) " + "{" * 100_000 + "\n", 1),
}


@pytest.mark.parametrize("command", ["abstract", "dump-tokens"])
@pytest.mark.parametrize("name", list(HOSTILE_SOURCES))
def test_hostile_sources_exit_cleanly(command, name, tmp_path):
    # a subprocess, so that a recursion limit, a crash or a quadratic
    # slowdown shows as an exit code, a traceback or a timeout
    source, code = HOSTILE_SOURCES[name]
    src = tmp_path / "hostile.c"
    src.write_text(source)
    out = tmp_path / "out.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "vulnseq.cli", command, "-i", str(src), "-o", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    if code:
        assert "unbalanced '{'" in proc.stderr
        assert not out.exists()
    else:
        assert out.exists()


def _cli(*args):
    # a subprocess, so that a crash, a recursion limit or a RuntimeWarning
    # shows as a user sees it
    return subprocess.run(
        [sys.executable, "-m", "vulnseq.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def hostile_corpus(tmp_path_factory):
    """A small synthetic corpus whose every release also holds the hostile
    sources, as non-vulnerable components."""
    corpus = generate_synthetic_corpus(3, SynthesisSpec(n_releases=3, components_per_release=6))
    hostile = tuple(
        ComponentRecord(f"hostile/{k}.c", source, Label.NON_VULNERABLE)
        for k, (source, _) in enumerate(HOSTILE_SOURCES.values())
    )
    corpus = dataclasses.replace(
        corpus,
        releases=tuple(
            dataclasses.replace(r, components=r.components + hostile) for r in corpus.releases
        ),
    )
    path = tmp_path_factory.mktemp("hostile") / "corpus.jsonl"
    save_corpus(corpus, str(path))
    return path


@pytest.mark.parametrize(
    "argv",
    [["predict", "--release", "1", "-m", str(DESK_CKPT)]]
    + [["baseline", "--technique", t] for t in ("metrics", "imports", "calls", "textmining")],
    ids=["predict", "baseline-metrics", "baseline-imports", "baseline-calls",
         "baseline-textmining"],
)
def test_hostile_sources_in_a_corpus_score_cleanly(argv, hostile_corpus, tmp_path):
    # one hostile component may not take the whole run down
    out = tmp_path / "out.jsonl"
    proc = _cli(*argv, "-i", str(hostile_corpus), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert out.exists()


# --- numerical overflow ---------------------------------------------------


@pytest.fixture(scope="module")
def overflowed(tmp_path_factory):
    """A corpus, and a checkpoint whose weights are finite, about 1e296,
    but overflow the identity check. train refuses to write such a model
    (test_train_without_validation_refuses_an_overflowing_model), so the
    weights of an untrained one are scaled up."""
    root = tmp_path_factory.mktemp("overflow")
    corpus, ckpt = root / "corpus.jsonl", root / "model.ckpt"
    assert main(["synth", "--seed", "3", "--components", "6", "-o", str(corpus)]) == 0
    assert main(["train", "-i", str(corpus), "--release", "1", "--max-steps", "0",
                 "--holdout", "0", "-o", str(ckpt)]) == 0
    model = load_model(str(ckpt))
    for value in model.params.values():
        value *= 1e297
    save_model(model, str(ckpt))
    return corpus, ckpt


def test_predict_on_overflowing_weights_exits_one(overflowed, tmp_path):
    corpus, ckpt = overflowed
    out = tmp_path / "verdicts.jsonl"
    proc = _cli("predict", "-i", str(corpus), "--release", "2", "-m", str(ckpt), "-o", str(out))
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr == (
        "error: the identity check went non-finite: overflow encountered in matmul\n"
    )
    assert not out.exists()


VALIDATION_OVERFLOW = "the identity check went non-finite: overflow encountered in matmul (step 1)"


def test_train_whose_validation_overflows_exits_one(overflowed, tmp_path):
    corpus, _ = overflowed
    out = tmp_path / "model.ckpt"
    proc = _cli("train", "-i", str(corpus), "--release", "1", "--learning-rate", "1e308",
                "--max-steps", "3", "--iteration-steps", "1", "-o", str(out))
    assert proc.returncode == 1, proc.stdout
    # the validation after the first step overflows, and the message says so
    assert proc.stderr == f"error: {VALIDATION_OVERFLOW}\n"
    assert not out.exists()


def test_train_without_validation_refuses_an_overflowing_model(overflowed, tmp_path):
    corpus, _ = overflowed
    out = tmp_path / "model.ckpt"
    proc = _cli("train", "-i", str(corpus), "--release", "1", "--learning-rate", "1e300",
                "--max-steps", "1", "--iteration-steps", "1", "--holdout", "0", "-o", str(out))
    assert proc.returncode == 1, proc.stdout
    # with nothing to validate on, the identity check runs on the training
    # pairs after the last step
    assert proc.stderr == f"error: {VALIDATION_OVERFLOW}\n"
    assert not out.exists()


def test_evaluate_with_overflowing_training_fails_its_rows(overflowed, tmp_path):
    corpus, _ = overflowed
    out = tmp_path / "report.jsonl"
    proc = _cli("evaluate", "-i", str(corpus), "--learning-rate", "1e308",
                "--max-steps", "3", "--iteration-steps", "1", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["failed"] for r in rows[:-1]] == [True, True, True]
    assert [r["error"] for r in rows[:-1]] == [VALIDATION_OVERFLOW] * 3
    assert rows[-1]["failed_rows"] == 3
