"""Release-indexed corpus model, JSONL persistence, and training splits.

A corpus is a project's ordered release history. Each release holds
components (source files) labeled Vulnerable or NonVulnerable; vulnerable
components carry their post-fix source. Vulnerability records attach
detection dates, which drive the realistic training split.
"""

from __future__ import annotations

import datetime
import enum
import json
import re
from dataclasses import dataclass

from .errors import ConfigError, IntegrityError, ParseError, VersionError
from .fileio import atomic_write_text

FORMAT_VERSION = 1

_UNDECODABLE = re.compile("[\udc80-\udcff]")


class Setting(enum.Enum):
    """What a model may know when it trains on a release (see training_material)."""

    CLEAN = "Clean"
    REALISTIC = "Realistic"


class Label(enum.Enum):
    VULNERABLE = "Vulnerable"
    NON_VULNERABLE = "NonVulnerable"


@dataclass(frozen=True)
class ComponentRecord:
    path: str
    source: str
    label: Label
    fixed_source: str | None = None
    vuln_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class Release:
    name: str
    release_date: datetime.date
    components: tuple[ComponentRecord, ...]


@dataclass(frozen=True)
class VulnerabilityRecord:
    vuln_id: str
    detection_date: datetime.date
    affected_paths: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Corpus:
    project_name: str
    releases: tuple[Release, ...]
    vulnerabilities: tuple[VulnerabilityRecord, ...]


@dataclass(frozen=True)
class TrainingMaterial:
    """One release's training view under a chosen setting.

    fix_pairs are components usable as (vulnerable, fixed) sources;
    non_vulnerable are components to treat as clean in this setting,
    which under the realistic split can include mislabeled ones.
    """

    release_name: str
    fix_pairs: tuple[ComponentRecord, ...]
    non_vulnerable: tuple[ComponentRecord, ...]


def _ws_normalize(text: str) -> str:
    return " ".join(text.split())


def validate_corpus(corpus: Corpus) -> None:
    """Check every structural invariant; raise IntegrityError on the first hit."""
    known_vuln_ids = {v.vuln_id for v in corpus.vulnerabilities}
    if len(known_vuln_ids) != len(corpus.vulnerabilities):
        raise IntegrityError("duplicate vulnerability ids")
    prev_date = None
    seen_names = set()
    components: dict[tuple[str, str], ComponentRecord] = {}
    for rel in corpus.releases:
        if rel.name in seen_names:
            raise IntegrityError(f"duplicate release name {rel.name!r}")
        seen_names.add(rel.name)
        if prev_date is not None and rel.release_date <= prev_date:
            raise IntegrityError(
                f"release dates must strictly increase (at {rel.name!r})"
            )
        prev_date = rel.release_date
        for comp in rel.components:
            if (rel.name, comp.path) in components:
                raise IntegrityError(
                    f"duplicate path {comp.path!r} in release {rel.name!r}"
                )
            components[rel.name, comp.path] = comp
            if comp.label is Label.VULNERABLE and comp.fixed_source is None:
                raise IntegrityError(
                    f"vulnerable component {comp.path!r} lacks fixed source"
                )
            if comp.label is Label.NON_VULNERABLE and comp.fixed_source is not None:
                raise IntegrityError(
                    f"non-vulnerable component {comp.path!r} has a fixed source"
                )
            if comp.fixed_source is not None and _ws_normalize(
                comp.fixed_source
            ) == _ws_normalize(comp.source):
                raise IntegrityError(
                    f"fix for {comp.path!r} is a whitespace-only change"
                )
            for vid in comp.vuln_ids:
                if vid not in known_vuln_ids:
                    raise IntegrityError(
                        f"component {comp.path!r} references unknown {vid!r}"
                    )
    for rec in corpus.vulnerabilities:
        for rel_name, path in rec.affected_paths:
            comp = components.get((rel_name, path))
            if comp is None:
                raise IntegrityError(
                    f"{rec.vuln_id} affects unknown component {rel_name}:{path}"
                )
            if comp.label is not Label.VULNERABLE:
                raise IntegrityError(
                    f"{rec.vuln_id} affects non-vulnerable component {rel_name}:{path}"
                )


def _parse_date(raw: object, line_no: int, what: str) -> datetime.date:
    if not isinstance(raw, str):
        raise ParseError(f"{what} must be a YYYY-MM-DD string", line_no)
    try:
        return datetime.date.fromisoformat(raw)
    except ValueError as exc:
        raise ParseError(f"bad {what} {raw!r}: {exc}", line_no) from None


def _require(record: dict, key: str, line_no: int) -> object:
    if key not in record:
        raise ParseError(f"record missing {key!r}", line_no)
    return record[key]


def _require_str(record: dict, key: str, line_no: int) -> str:
    value = _require(record, key, line_no)
    if not isinstance(value, str):
        raise ParseError(f"{key} must be a string, got {value!r}", line_no)
    return value


def _strings(values: object) -> bool:
    return isinstance(values, list) and all(isinstance(v, str) for v in values)


def load_corpus(path: str) -> Corpus:
    """Read and fully validate a JSONL corpus file."""
    header = None
    release_rows: list[tuple[str, datetime.date]] = []
    comp_rows: dict[str, list[ComponentRecord]] = {}
    vuln_rows: list[VulnerabilityRecord] = []
    # undecodable bytes become lone surrogates, so each is caught on its
    # line; isascii() skips the scan for the common all-ASCII line
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii() and _UNDECODABLE.search(line):
                raise ParseError("not valid UTF-8", line_no)
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
                raise ParseError(f"bad JSON: {getattr(exc, 'msg', exc)}", line_no) from None
            if not isinstance(record, dict):
                raise ParseError("record is not an object", line_no)
            kind = _require(record, "kind", line_no)
            if kind == "header":
                if header is not None:
                    raise ParseError("duplicate header record", line_no)
                version = _require(record, "format_version", line_no)
                # True and 1.0 equal 1, but are not the integer 1
                if type(version) is not int or version != FORMAT_VERSION:
                    raise VersionError(
                        f"unsupported corpus format_version {version!r}"
                    )
                if not isinstance(record.get("project", ""), str):
                    raise ParseError("project must be a string", line_no)
                header = record
            elif header is None:
                raise ParseError("first record must be the format header", line_no)
            elif kind == "release":
                name = _require_str(record, "name", line_no)
                date = _parse_date(_require(record, "date", line_no), line_no, "date")
                release_rows.append((name, date))
                comp_rows.setdefault(name, [])
            elif kind == "component":
                rel_name = _require_str(record, "release", line_no)
                label_raw = _require(record, "label", line_no)
                try:
                    label = Label(label_raw)
                except ValueError:
                    raise ParseError(f"unknown label {label_raw!r}", line_no) from None
                fixed = record.get("fixed_source")
                if fixed is not None and not isinstance(fixed, str):
                    raise ParseError("fixed_source must be a string or null", line_no)
                vuln_ids = record.get("vuln_ids", [])
                if not _strings(vuln_ids):
                    raise ParseError("vuln_ids must be a list of strings", line_no)
                comp = ComponentRecord(
                    path=_require_str(record, "path", line_no),
                    source=_require_str(record, "source", line_no),
                    label=label,
                    fixed_source=fixed,
                    vuln_ids=tuple(vuln_ids),
                )
                if rel_name not in comp_rows:
                    raise IntegrityError(
                        f"component {comp.path!r} references unknown release {rel_name!r}"
                    )
                comp_rows[rel_name].append(comp)
            elif kind == "vuln":
                affected = _require(record, "affected", line_no)
                if not isinstance(affected, list):
                    raise ParseError("affected must be a list of [release, path]", line_no)
                pairs = []
                for item in affected:
                    if not _strings(item) or len(item) != 2:
                        raise ParseError("affected entry must be [release, path] strings", line_no)
                    pairs.append(tuple(item))
                vuln_rows.append(
                    VulnerabilityRecord(
                        vuln_id=_require_str(record, "id", line_no),
                        detection_date=_parse_date(
                            _require(record, "detected", line_no), line_no, "detected"
                        ),
                        affected_paths=tuple(pairs),
                    )
                )
            else:
                raise ParseError(f"unknown record kind {kind!r}", line_no)
    if header is None:
        raise ParseError("empty file: missing format header", 1)
    releases = tuple(
        Release(name=name, release_date=date, components=tuple(comp_rows[name]))
        for name, date in release_rows
    )
    corpus = Corpus(
        project_name=header.get("project", "unnamed"),
        releases=releases,
        vulnerabilities=tuple(vuln_rows),
    )
    validate_corpus(corpus)
    return corpus


def corpus_to_jsonl(corpus: Corpus) -> str:
    rows: list[dict] = [
        {
            "kind": "header",
            "format_version": FORMAT_VERSION,
            "project": corpus.project_name,
        }
    ]
    for rel in corpus.releases:
        rows.append(
            {"kind": "release", "name": rel.name, "date": rel.release_date.isoformat()}
        )
        for comp in rel.components:
            rows.append(
                {
                    "kind": "component",
                    "release": rel.name,
                    "path": comp.path,
                    "label": comp.label.value,
                    "source": comp.source,
                    "fixed_source": comp.fixed_source,
                    "vuln_ids": list(comp.vuln_ids),
                }
            )
    for rec in corpus.vulnerabilities:
        rows.append(
            {
                "kind": "vuln",
                "id": rec.vuln_id,
                "detected": rec.detection_date.isoformat(),
                "affected": [list(p) for p in rec.affected_paths],
            }
        )
    return "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)


def save_corpus(corpus: Corpus, path: str) -> None:
    validate_corpus(corpus)
    atomic_write_text(path, corpus_to_jsonl(corpus))


def training_material(
    corpus: Corpus, release_index: int, setting: Setting
) -> TrainingMaterial:
    """Training view of one release under a setting.

    Every vulnerable component is a fix pair, except under the realistic
    setting when none of its vulnerabilities was detected strictly before
    the next release's date (or it has no detection record at all): then
    it lands in non_vulnerable, and that mislabeling is the noise the
    realistic setting models. The last release has no following release
    to test against, so it cannot train.
    """
    if not 0 <= release_index < len(corpus.releases) - 1:
        raise ConfigError(
            f"release index {release_index} out of range: corpus has "
            f"{len(corpus.releases)} releases, so valid train indices are "
            f"0..{len(corpus.releases) - 2}"
        )
    release = corpus.releases[release_index]
    next_date = corpus.releases[release_index + 1].release_date
    detected = {rec.vuln_id: rec.detection_date for rec in corpus.vulnerabilities}
    fix_pairs = []
    non_vulnerable = []
    for comp in release.components:
        is_fix_pair = comp.label is Label.VULNERABLE
        if is_fix_pair and setting is Setting.REALISTIC:
            for vid in comp.vuln_ids:
                if vid not in detected:
                    raise IntegrityError(
                        f"component {comp.path!r} references unknown {vid!r}"
                    )
            is_fix_pair = any(detected[vid] < next_date for vid in comp.vuln_ids)
        (fix_pairs if is_fix_pair else non_vulnerable).append(comp)
    return TrainingMaterial(release.name, tuple(fix_pairs), tuple(non_vulnerable))


def clean_training_set(corpus: Corpus, release_index: int) -> TrainingMaterial:
    """All vulnerable components of the release, regardless of detection date."""
    return training_material(corpus, release_index, Setting.CLEAN)
