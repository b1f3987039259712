"""Exception hierarchy shared across the package: one class per exit code.

Each class carries the ``exit_code`` the command line returns for it:
2 for a configuration or consistency error, 3 for bad input data, 4 for a
diverged training run, and 1 for any other package error.
"""


class Loop2MeshError(Exception):
    """Base class for every package-specific failure."""
    exit_code = 1


class ConfigError(Loop2MeshError):
    """Invalid run configuration, or array shapes that disagree with it."""
    exit_code = 2


class InputError(Loop2MeshError):
    """Unusable input: a file that breaks its grammar, a degenerate or
    self-intersecting loop or cloud, or an operand out of its range."""
    exit_code = 3


class TrainingDivergedError(Loop2MeshError):
    """Training loss became non-finite; carries the offending epoch."""
    exit_code = 4

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch
