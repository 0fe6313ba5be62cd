"""Deterministic synthetic-corpus generator.

Emits real C text so the whole parser path is exercised. The vulnerability
family is an unguarded division/modulo denominator; the fix inserts an
if-guard and drops two calls to a legacy helper (the planted sentinel that
gives the baselines a learnable signal). Non-vulnerable files are built
from a small catalog of filler functions: guard-present arithmetic, struct
field swaps, logging, a loop long enough to need two chunks, and a
comparison helper. Surface identifier names vary per file; abstraction
collapses every instance of a template to one token stream, which is what
makes desk-scale training feasible.
"""

from __future__ import annotations

import datetime
import math
import random
from dataclasses import dataclass

from .corpus import (
    ComponentRecord,
    Corpus,
    Label,
    Release,
    VulnerabilityRecord,
)
from .errors import ConfigError, check_field_types

SENTINEL_FUNCTION = "legacy_mix"

RELEASE_SPACING_DAYS = 90

_FIRST_RELEASE = datetime.date(2019, 1, 15)

_WORDS = [
    "frame", "queue", "cache", "index", "offset", "buffer", "packet",
    "count", "state", "flag", "chan", "route", "table", "node", "slot",
    "page", "block", "chunk", "ring", "mask", "depth", "width", "level",
    "order", "batch", "group", "phase", "token", "shard", "trace",
]

_RESERVED = {SENTINEL_FUNCTION, "log_write", "log_flush"}

_INCLUDE_POOL = ["stdlib.h", "stdio.h", "string.h", "math.h", "time.h"]

N_FILLER_VARIANTS = 5
N_VULN_VARIANTS = 3

# a skew steep enough that every likely name is taken would otherwise
# redraw forever; seeds 0-7 with shared names needed at most 42,892
# draws for one name at skew 6
_MAX_NAME_DRAWS = 100_000


@dataclass(frozen=True)
class SynthesisSpec:
    n_releases: int = 4
    components_per_release: int = 30
    vuln_fraction: float = 0.2
    vocabulary_skew: float = 1.0
    detection_lag_days: int = 30
    # extensions beyond the basic knobs: vulnerability persistence across
    # releases, and whether the sentinel helper is planted at all
    carryover_fraction: float = 0.34
    plant_sentinel: bool = True
    # suffixed identifiers are unique per file; without suffixes files
    # share a small spelling pool, so no name can mark a single component
    name_suffixes: bool = True
    # when a fix lands, either patch the guard into the old file (the
    # default; the fixed file keeps its former shape) or replace the file
    # with unrelated content (a rewrite; nothing vulnerable-looking stays)
    fix_replaces_file: bool = False

    @property
    def vulnerable_per_release(self) -> int:
        return int(self.components_per_release * self.vuln_fraction + 0.5)

    def __post_init__(self):
        check_field_types(self)
        if self.n_releases < 2:
            raise ConfigError("n_releases must be at least 2")
        if self.components_per_release < 1:
            raise ConfigError("components_per_release must be positive")
        if not 0.0 < self.vuln_fraction < 1.0:
            raise ConfigError("vuln_fraction must be in (0, 1)")
        if self.vulnerable_per_release >= self.components_per_release:
            raise ConfigError("vuln_fraction leaves no non-vulnerable components")
        if not (math.isfinite(self.vocabulary_skew) and self.vocabulary_skew >= 0.0):
            raise ConfigError("vocabulary_skew must be finite and non-negative")
        if self.detection_lag_days < 0:
            raise ConfigError("detection_lag_days must be non-negative")
        # the last release's vulnerabilities may be detected the lag plus up
        # to a quarter of it after its date, which must still be a date
        latest = (
            (self.n_releases - 1) * RELEASE_SPACING_DAYS
            + self.detection_lag_days
            + self.detection_lag_days // 4
        )
        if latest > (datetime.date.max - _FIRST_RELEASE).days:
            raise ConfigError(
                "n_releases and detection_lag_days put a detection date "
                f"past {datetime.date.max}"
            )
        if not 0.0 <= self.carryover_fraction < 1.0:
            raise ConfigError("carryover_fraction must be in [0, 1)")


@dataclass(frozen=True)
class GeneratedFile:
    """A rendered file plus the ground truth the templates know about."""

    source: str
    fixed_source: str | None
    roles: dict[str, str]
    defined_functions: tuple[str, ...]


def _zipf_weight(rank: int, skew: float) -> float:
    try:
        return 1.0 / rank**skew
    except OverflowError:  # rank**skew is past the largest float
        return 0.0


class _Namer:
    def __init__(self, rng: random.Random, skew: float, suffixes: bool = True):
        self.rng = rng
        self.suffixes = suffixes
        self.weights = [_zipf_weight(i + 1, skew) for i in range(len(_WORDS))]
        self.used: set[str] = set(_RESERVED)

    def fresh(self) -> str:
        # suffixed names are effectively unique per corpus; unsuffixed ones
        # draw from a small shared pool so spellings recur across files
        for _ in range(_MAX_NAME_DRAWS):
            a, b = self.rng.choices(_WORDS, weights=self.weights, k=2)
            if self.suffixes:
                name = f"{a}_{b}_{self.rng.randrange(1000):03d}"
            else:
                name = f"{a}_{b}"
            if name not in self.used:
                self.used.add(name)
                return name
        raise ConfigError(
            f"no unused identifier after {_MAX_NAME_DRAWS} draws: "
            "the vocabulary skew is too steep"
        )


def _filler_guarded_ratio(n: _Namer) -> tuple[str, dict[str, str]]:
    # deliberately non-static with an early-return guard so its token
    # stream diverges from the fixed-vulnerable shape at the first token
    fn, a, b = n.fresh(), n.fresh(), n.fresh()
    src = (
        f"int {fn}(int {a}, int {b}) {{\n"
        f" if ({b} == 0)\n"
        f"  return 0;\n"
        f" return {a} / {b};\n"
        f"}}\n"
    )
    return src, {fn: "F", a: "V", b: "V"}


def _filler_struct_swap(n: _Namer) -> tuple[str, dict[str, str]]:
    fn, tname, a, b, t, fa = (n.fresh() for _ in range(6))
    src = (
        f"static void {fn}(struct {tname} *{a}, struct {tname} *{b}) {{\n"
        f" int {t};\n"
        f" {t} = {a}->{fa};\n"
        f" {a}->{fa} = {b}->{fa};\n"
        f" {b}->{fa} = {t};\n"
        f"}}\n"
    )
    roles = {fn: "F", tname: "T", a: "V", b: "V", t: "V", fa: "V"}
    return src, roles


def _filler_logger(n: _Namer) -> tuple[str, dict[str, str]]:
    fn, msg = n.fresh(), n.fresh()
    src = (
        f"static void {fn}(const char *{msg}) {{\n"
        f' log_write("begin");\n'
        f" log_write({msg});\n"
        f" log_flush();\n"
        f"}}\n"
    )
    roles = {fn: "F", msg: "V", "log_write": "F", "log_flush": "F"}
    return src, roles


def _filler_loop_sum(n: _Namer) -> tuple[str, dict[str, str]]:
    fn, cnt, i, acc = (n.fresh() for _ in range(4))
    src = (
        f"static int {fn}(int {cnt}) {{\n"
        f" int {i};\n"
        f" int {acc};\n"
        f" {acc} = 0;\n"
        f" for ({i} = 0; {i} < {cnt}; {i} = {i} + 1) {{\n"
        f"  if ({i} % 2)\n"
        f"   {acc} = {acc} + {i};\n"
        f"  else\n"
        f"   {acc} = {acc} + 3;\n"
        f" }}\n"
        f" return {acc};\n"
        f"}}\n"
    )
    return src, {fn: "F", cnt: "V", i: "V", acc: "V"}


def _filler_max2(n: _Namer) -> tuple[str, dict[str, str]]:
    fn, x, y = n.fresh(), n.fresh(), n.fresh()
    src = (
        f"static long {fn}(long {x}, long {y}) {{\n"
        f" if ({x} > {y})\n"
        f"  return {x};\n"
        f" return {y};\n"
        f"}}\n"
    )
    return src, {fn: "F", x: "V", y: "V"}


_FILLERS = [
    _filler_guarded_ratio,
    _filler_struct_swap,
    _filler_logger,
    _filler_loop_sum,
    _filler_max2,
]

# (type keyword, operator, returns-plus-one)
_VULN_SHAPES = [("int", "%", False), ("long", "/", True), ("unsigned", "%", False)]


def _vuln_function(
    n: _Namer, variant: int, plant_sentinel: bool
) -> tuple[str, str, dict[str, str]]:
    ctype, op, plus_one = _VULN_SHAPES[variant % N_VULN_VARIANTS]
    fn, num, den, out = (n.fresh() for _ in range(4))
    ret = f"return {out} + 1;" if plus_one else f"return {out};"
    sentinel_lines = (
        f" {SENTINEL_FUNCTION}({num}, {den});\n"
        f" {SENTINEL_FUNCTION}({den}, {num});\n"
        if plant_sentinel
        else ""
    )
    before = (
        f"static {ctype} {fn}({ctype} {num}, {ctype} {den}) {{\n"
        f" {ctype} {out};\n"
        f"{sentinel_lines}"
        f" {out} = {num} {op} {den};\n"
        f" {ret}\n"
        f"}}\n"
    )
    after = (
        f"static {ctype} {fn}({ctype} {num}, {ctype} {den}) {{\n"
        f" {ctype} {out};\n"
        f" if (!{den})\n"
        f"  {den} = 1;\n"
        f" {out} = {num} {op} {den};\n"
        f" {ret}\n"
        f"}}\n"
    )
    roles = {fn: "F", num: "V", den: "V", out: "V"}
    if plant_sentinel:
        roles[SENTINEL_FUNCTION] = "F"
    return before, after, roles


def _render_file(includes: list[str], bodies: list[str]) -> str:
    banner = "".join(f"#include <{h}>\n" for h in includes)
    return banner + "\n" + "\n".join(bodies)


def filler_file(
    rng: random.Random, skew: float, name_suffixes: bool = True
) -> GeneratedFile:
    """A non-vulnerable file of two randomly chosen filler functions."""
    namer = _Namer(rng, skew, name_suffixes)
    variants = [rng.randrange(N_FILLER_VARIANTS) for _ in range(2)]
    includes = rng.sample(_INCLUDE_POOL, k=2)
    bodies, roles, defined = [], {}, []
    for v in variants:
        src, r = _FILLERS[v](namer)
        bodies.append(src)
        roles.update(r)
        defined.append(next(k for k, role in r.items() if role == "F" and k not in _RESERVED))
    return GeneratedFile(
        source=_render_file(includes, bodies),
        fixed_source=None,
        roles=roles,
        defined_functions=tuple(defined),
    )


def vulnerable_file(
    rng: random.Random,
    skew: float,
    variant: int,
    filler_variants: tuple[int, int],
    plant_sentinel: bool = True,
    name_suffixes: bool = True,
) -> GeneratedFile:
    """A vulnerable file plus its fix: same fillers, guarded core function."""
    namer = _Namer(rng, skew, name_suffixes)
    includes = rng.sample(_INCLUDE_POOL, k=2)
    before_fn, after_fn, roles = _vuln_function(namer, variant, plant_sentinel)
    filler_bodies, defined = [], []
    for v in filler_variants:
        src, r = _FILLERS[v % N_FILLER_VARIANTS](namer)
        filler_bodies.append(src)
        roles.update(r)
        defined.append(next(k for k, role in r.items() if role == "F" and k not in _RESERVED))
    pos = rng.randrange(len(filler_bodies) + 1)
    before_bodies = filler_bodies[:pos] + [before_fn] + filler_bodies[pos:]
    after_bodies = filler_bodies[:pos] + [after_fn] + filler_bodies[pos:]
    vuln_name = next(
        k
        for k, role in roles.items()
        if role == "F" and k not in _RESERVED and k not in defined
    )
    return GeneratedFile(
        source=_render_file(includes, before_bodies),
        fixed_source=_render_file(includes, after_bodies),
        roles=roles,
        defined_functions=tuple(defined) + (vuln_name,),
    )


def generate_synthetic_corpus(seed: int, spec: SynthesisSpec) -> Corpus:
    """Pure function of (seed, spec): same inputs, byte-identical corpus."""
    # random.Random seeds from |seed|, so -5 would silently repeat seed 5
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed!r}")
    rng = random.Random(seed)
    n_vuln = spec.vulnerable_per_release
    paths = [
        f"src/unit_{j:03d}.c" for j in range(spec.components_per_release)
    ]
    current_text = {
        p: filler_file(rng, spec.vocabulary_skew, name_suffixes=spec.name_suffixes).source
        for p in paths
    }

    # path -> (vuln_id, generated file); carried across releases while unfixed
    active: dict[str, tuple[str, GeneratedFile]] = {}
    just_fixed: set[str] = set()
    vuln_meta: dict[str, tuple[datetime.date, list[tuple[str, str]]]] = {}
    cve_counter = 0
    releases = []
    for r in range(spec.n_releases):
        rel_name = f"r{r}"
        rel_date = _FIRST_RELEASE + datetime.timedelta(days=r * RELEASE_SPACING_DAYS)
        just_fixed = set()
        if active:
            prev_paths = sorted(active)
            k_carry = int(len(prev_paths) * spec.carryover_fraction)
            carried = set(rng.sample(prev_paths, k_carry)) if k_carry else set()
            for p in prev_paths:
                if p not in carried:
                    if spec.fix_replaces_file:
                        current_text[p] = filler_file(
                            rng, spec.vocabulary_skew, name_suffixes=spec.name_suffixes
                        ).source
                    else:
                        fixed = active[p][1].fixed_source
                        current_text[p] = fixed if fixed is not None else current_text[p]
                    del active[p]
                    just_fixed.add(p)
        fresh_needed = max(0, n_vuln - len(active))
        # a freshly patched path gets one release of grace before it can
        # turn vulnerable again, so every fix is visible somewhere
        candidates = sorted(set(paths) - set(active) - just_fixed)
        fresh = sorted(rng.sample(candidates, min(fresh_needed, len(candidates))))
        for k, p in enumerate(fresh):
            gen = vulnerable_file(
                rng,
                spec.vocabulary_skew,
                variant=k % N_VULN_VARIANTS,
                filler_variants=((2 * k) % N_FILLER_VARIANTS, (2 * k + 1) % N_FILLER_VARIANTS),
                plant_sentinel=spec.plant_sentinel,
                name_suffixes=spec.name_suffixes,
            )
            cve_counter += 1
            vid = f"CVE-2019-{1000 + cve_counter:04d}"
            jitter = rng.randrange(0, spec.detection_lag_days // 4 + 1)
            detected = rel_date + datetime.timedelta(
                days=spec.detection_lag_days + jitter
            )
            active[p] = (vid, gen)
            vuln_meta[vid] = (detected, [])
        components = []
        for p in paths:
            if p in active:
                vid, gen = active[p]
                vuln_meta[vid][1].append((rel_name, p))
                components.append(
                    ComponentRecord(
                        path=p,
                        source=gen.source,
                        label=Label.VULNERABLE,
                        fixed_source=gen.fixed_source,
                        vuln_ids=(vid,),
                    )
                )
            else:
                components.append(
                    ComponentRecord(
                        path=p,
                        source=current_text[p],
                        label=Label.NON_VULNERABLE,
                    )
                )
        releases.append(
            Release(name=rel_name, release_date=rel_date, components=tuple(components))
        )
    vulnerabilities = tuple(
        VulnerabilityRecord(vid, detected, tuple(affected))
        for vid, (detected, affected) in vuln_meta.items()
    )
    return Corpus(
        project_name="synthetic",
        releases=tuple(releases),
        vulnerabilities=vulnerabilities,
    )
