"""Exception hierarchy shared across the package.

Each CLI-facing error class carries the process exit code the command
layer maps it to. A setting that breaks its rule raises ConfigError
where the rule is declared (the config dataclasses and the zero-shot
split); ConfigError is also a ValueError. Other bad call arguments
(dimension mismatches, out-of-range parameters) raise plain ValueError.
"""


class ModalMetricError(Exception):
    """Base class for package errors."""

    exit_code = 1


class ConfigError(ModalMetricError, ValueError):
    """Malformed or inconsistent run configuration."""

    exit_code = 2


class DataError(ModalMetricError):
    """Dataset-level failure: parse errors, missing samples, bad labels."""

    exit_code = 3


class MiningError(DataError):
    """A batch anchor has no valid positive or negative candidate."""


class MetricError(DataError):
    """An evaluation set cannot support a requested metric (no relevant
    items for a query, too few samples for a pair average)."""


class ProtocolError(ModalMetricError):
    """Zero-shot protocol violation: evaluated classes overlap training classes."""

    exit_code = 4


class NumericError(ModalMetricError):
    """Non-finite value encountered during training or checking."""

    exit_code = 5
