"""Exception types raised across the mining pipeline."""


class VarxpertError(Exception):
    """Base class for every failure this package raises on purpose."""


class InvalidConfig(VarxpertError):
    """A run configuration value is out of range or malformed."""


class RepoNotFound(VarxpertError):
    """The given path is not a readable git repository."""


class BranchNotFound(VarxpertError):
    """The requested branch or revision does not resolve to a commit."""


class CorruptRepo(VarxpertError):
    """git cannot produce an object or a history the analysis needs."""


class EmptyIdentity(VarxpertError):
    """Author name and email are both blank."""


class AnnotationMismatch(VarxpertError):
    """Line annotations do not line up with the content they describe."""


class DegenerateFile(VarxpertError):
    """No positive degree-of-authorship value exists for a file."""


class EmptyHistory(VarxpertError):
    """A file has no recorded change events."""


class NoEligibleFiles(VarxpertError):
    """Nothing survives filtering, so the requested computation is undefined."""


class MissingAnalysis(VarxpertError):
    """A verb needs analysis artifacts that have not been produced yet."""


# Failures caused by user input or repository state; the CLI maps these
# to exit status 2, everything else to 1.
USER_ERRORS = (
    InvalidConfig,
    RepoNotFound,
    BranchNotFound,
    EmptyIdentity,
    NoEligibleFiles,
    MissingAnalysis,
)
