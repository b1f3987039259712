"""Exception hierarchy shared across the package.

Each class carries the ``exit_code`` the command line returns for it:
2 for a configuration or consistency error, 3 for bad input data, 4 for a
diverged training run, and 1 for any other package error.
"""


class Loop2MeshError(Exception):
    """Base class for every package-specific failure."""
    exit_code = 1


class InvalidGeometryError(Loop2MeshError):
    """Polygon or contour input violates a geometric precondition."""
    exit_code = 3


class DegenerateDataError(Loop2MeshError):
    """Data lacks the spread needed by the requested operation."""
    exit_code = 3


class FrameMismatchError(Loop2MeshError):
    """Operation applied to points living in the wrong coordinate frame."""
    exit_code = 2


class ShapeMismatchError(Loop2MeshError):
    """Array shapes are inconsistent with the declared dimensions."""
    exit_code = 2


class InvalidInputError(Loop2MeshError):
    """Operand violates a precondition (empty set, bad epsilon, bad range, ...)."""
    exit_code = 3


class ParseError(Loop2MeshError):
    """Input file does not conform to its documented grammar."""
    exit_code = 3


class EmptyDatasetError(Loop2MeshError):
    """No usable training pairs were supplied."""
    exit_code = 3


class TrainingDivergedError(Loop2MeshError):
    """Training loss became non-finite; carries the offending epoch."""
    exit_code = 4

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch


class WindowMismatchError(Loop2MeshError):
    """Density grids being compared were built over different windows."""
    exit_code = 2


class DegenerateDensityError(Loop2MeshError):
    """Kernel mass inside the evaluation window is numerically zero."""
    exit_code = 3


class ConfigError(Loop2MeshError):
    """Invalid run configuration."""
    exit_code = 2
