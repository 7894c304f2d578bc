"""Exception types shared across the package."""


class SfmlabError(Exception):
    """Base class for errors raised by this package."""


class UnknownClassError(SfmlabError, KeyError):
    """Requested camera class name is not in the catalog."""

    __str__ = Exception.__str__  # the plain message; KeyError's would quote it


class SingularConfigurationError(SfmlabError, ValueError):
    """A point lies on (or too close to) the singular set of a camera."""

    def __init__(self, message, point_index=None, camera_index=None):
        self.reason = message  # the message without the indices
        known = ", ".join(f"{what} {index}" for what, index in
                          (("point", point_index), ("camera", camera_index)) if index is not None)
        if known:
            message = f"{message} ({known})"
        super().__init__(message)
        self.point_index = point_index
        self.camera_index = camera_index


class ChartRangeError(SfmlabError, ValueError):
    """Retinal chart coordinates outside the admissible range."""


class GroupMismatchError(SfmlabError, ValueError):
    """Group element uses a generator outside the camera class's symmetry group."""


class DegenerateConfigurationError(SfmlabError, ValueError):
    """Configuration too degenerate to determine the requested quantity."""


class InfeasibleCountError(SfmlabError, ValueError):
    """Point/camera counts violate the dimension inequality."""


class FormatError(SfmlabError, ValueError):
    """Malformed scene or measurements document."""
