"""Exception types shared across the toolkit, one per thing to change.

Every domain failure raises a subclass of YnkitError, which the CLI maps
to one `error:` line and exit code 1, while genuine bugs still surface as
ordinary exceptions.
"""


class YnkitError(Exception):
    """Base class for all toolkit domain errors."""


class CorpusFormatError(YnkitError):
    """Something read from a file is wrong: bad JSON, a missing key, a
    label outside the scheme, a match with no answer turn, a corpus with
    no dialogue acts, a replay store with no recording for a prompt."""


class InvalidConfigError(YnkitError):
    """An argument, flag, config file or plan breaks a documented
    precondition: a value out of range, an empty or unlabeled plan,
    sequences of unequal length, more shots than worked examples."""


class TransportError(YnkitError):
    """The live completion endpoint failed, after bounded retries."""
