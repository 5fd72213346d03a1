"""Exception types shared across the package."""


class EsapError(Exception):
    """Base class for all package errors; ``exit_code`` is the CLI's exit status."""

    exit_code = 1    # user or configuration error


class DataError(EsapError):
    """The input data, a stored corpus or an index is unusable."""

    exit_code = 2


class PortError(EsapError):
    """A model, transport or SQL port failed."""

    exit_code = 3


# corpus / version store
class InvalidChunkConfig(EsapError):
    pass


class StoreWriteError(DataError):
    pass


class VersionNotFound(DataError):
    pass


class CorpusFormatError(DataError):
    pass


# index
class EmptyCorpus(DataError):
    pass


class EmbedderFailure(DataError):
    def __init__(self, message: str, chunk_id: str | None = None):
        super().__init__(message)
        self.chunk_id = chunk_id


class DimensionMismatch(DataError):
    pass


class FormatVersionMismatch(DataError):
    pass


class CorruptIndex(DataError):
    pass


# ports
class ScriptExhausted(PortError):
    pass


class TransportError(PortError):
    pass


class ModelRefusal(PortError):
    pass


class SqlSyntaxError(PortError):
    pass


class SqlRuntimeError(PortError):
    pass


class SqlTimeout(PortError):
    pass


class NonSelectRejected(PortError):
    pass


# answer pipeline
class EmptyIndex(DataError):
    pass


class NoContext(DataError):
    pass


# sql agent
class ThorFailed(PortError):
    def __init__(self, message: str, log=None):
        super().__init__(message)
        self.log = log


# evaluation
class EvidenceNotFound(DataError):
    pass


class DatasetFormatError(DataError):
    pass


class RunsFormatError(DataError):
    pass


# configuration / cli
class ConfigError(EsapError):
    pass
