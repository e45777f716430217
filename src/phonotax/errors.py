"""Exception types raised across the package.

Everything derives from PhonotaxError so callers can catch the whole
family; the CLI maps PhonotaxError to exit code 2 (data/validation)
and OSError to exit code 1 (I/O).
"""


class PhonotaxError(Exception):
    """Base class for all data and validation errors."""


# input files
class BadEncoding(PhonotaxError):
    """An input file that is not valid UTF-8."""


# inventory documents
class DuplicateSymbol(PhonotaxError):
    pass


class UnknownClass(PhonotaxError):
    pass


class EmptyDocument(PhonotaxError):
    pass


class ReservedSymbol(PhonotaxError):
    pass


# transcription text
class UnknownSymbol(PhonotaxError):
    pass


class BadStressDigit(PhonotaxError):
    pass


class TooManyBoundaries(PhonotaxError):
    pass


class EmptyTranscription(PhonotaxError):
    pass


# stress and scope
class NoNucleus(PhonotaxError):
    pass


class MissingStress(PhonotaxError):
    pass


class UnsupportedStressPattern(PhonotaxError):
    pass


class OutOfScope(PhonotaxError):
    pass


class ThreePlusNuclei(OutOfScope):
    pass


# path text
class MalformedPath(PhonotaxError):
    pass


class TagMismatch(MalformedPath):
    pass


# training and model files
class EmptyCorpus(PhonotaxError):
    pass


class ModelFormatError(PhonotaxError):
    """Corrupt, truncated, or otherwise unreadable model document."""


class VersionMismatch(ModelFormatError):
    pass


class BadConfig(PhonotaxError):
    """A training setting outside its allowed values."""


# correlation inputs
class BadJudgment(PhonotaxError):
    pass


class LengthMismatch(PhonotaxError):
    pass


class DegenerateVariance(PhonotaxError):
    pass


class JoinEmpty(PhonotaxError):
    pass


class DuplicateWordId(PhonotaxError):
    pass
