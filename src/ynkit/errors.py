"""Exception types shared across the toolkit.

Every domain failure raises a subclass of YnkitError so the CLI can map
them to exit code 1 while genuine bugs still surface as ordinary
exceptions.
"""


class YnkitError(Exception):
    """Base class for all toolkit domain errors."""


class CorpusFormatError(YnkitError):
    """Malformed JSONL input (corpus, matches, instances, predictions): bad
    JSON, missing keys, duplicate ids, broken reply chains, or
    non-consecutive ordinals."""


class UnmappedLabelError(YnkitError):
    """A source-corpus label has no entry in the fine-label map."""


class NotAnnotatedError(YnkitError):
    """Dialogue-act identification requested on unannotated input."""


class MalformedMatchError(YnkitError):
    """A question match lacks the answer turn required by the caller."""


class InvalidConfigError(YnkitError):
    """Configuration violates a documented precondition."""


class EmptyPlanError(YnkitError):
    """A training plan would contain no instances."""


class UnlabeledInstanceError(YnkitError):
    """Training requires a label that an instance does not carry."""


class AlignmentError(YnkitError):
    """Gold and prediction sequences differ in length."""


class DegenerateMarginalsError(YnkitError):
    """Cohen's kappa is undefined: expected agreement is 1 while
    observed agreement is not."""


class InsufficientShotsError(YnkitError):
    """More prompt shots requested than worked examples available."""


class MissingRecordingError(YnkitError):
    """Replay client has no recording for the requested prompt."""


class TransportError(YnkitError):
    """Live completion endpoint unreachable after bounded retries."""
