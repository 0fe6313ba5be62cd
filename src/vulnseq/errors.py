"""Exception types shared across the pipeline, and the field-type rule
that every config dataclass checks when built."""

from dataclasses import fields


class VulnseqError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(VulnseqError):
    """Malformed corpus file record; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IntegrityError(VulnseqError):
    """Cross-reference or invariant violation in a corpus."""


class ConfigError(VulnseqError):
    """Invalid configuration value."""


# bool is an int subclass, so an int field must also refuse a bool
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool}


def check_field_types(config) -> None:
    """Raise ConfigError unless each field of the frozen dataclass config
    holds its annotated type: a bool only where the annotation says bool,
    and a float field also takes an int, stored as a float."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool) != (f.type == "bool") or not isinstance(
            value, _FIELD_TYPES[f.type]
        ):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if f.type == "float":
            try:
                object.__setattr__(config, f.name, float(value))
            except OverflowError:
                raise ConfigError(f"{f.name} is too large for a float") from None


class LexError(VulnseqError):
    """Unterminated string/char literal or block comment; carries byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class StructureError(VulnseqError):
    """Unbalanced braces at file scope."""


class EmptyFunction(VulnseqError):
    """A function abstracted to zero tokens; callers skip these."""


class ShapeError(VulnseqError):
    """Tensor dimensions inconsistent with the model configuration."""


class EmptyCorpus(VulnseqError):
    """No sequences available to build a vocabulary from."""


class NumericalError(VulnseqError):
    """Non-finite values in a fit or in the identity check; the message
    names the training step, when there is one."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None else f"{message} (step {step})")


class VersionError(VulnseqError):
    """Unknown format version, or checkpoint inconsistent with its own header."""


class CorruptCheckpoint(VulnseqError):
    """Truncated checkpoint file or content digest mismatch."""


class DegenerateLabels(VulnseqError):
    """Classifier training material contains a single class."""


class MissingLabel(VulnseqError):
    """A prediction refers to a component without a ground-truth label."""
