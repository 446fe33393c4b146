"""Exception hierarchy. Each class carries the CLI exit code it ends a run with."""


class SkybeamError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidArgumentError(SkybeamError, ValueError):
    """A parameter is outside its documented domain."""


class DegenerateGeometryError(SkybeamError):
    """Geometry places a focus or observation point on top of an emitter."""


class ResolutionError(SkybeamError):
    """A sampled map is too coarse or too small for the requested integral."""


class NoVisiblePanelError(SkybeamError):
    """No receiver panel faces the incoming beam (aircraft shadowed)."""


class ScenarioFileError(SkybeamError):
    """Scenario file missing or unreadable."""

    exit_code = 2


class ScenarioParseError(SkybeamError):
    """Scenario file is not well-formed JSON."""

    exit_code = 3


class ScenarioValidationError(SkybeamError):
    """Scenario contents violate a field constraint."""

    exit_code = 4

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


class NearFieldWarning(UserWarning):
    """Observation point within one element spacing of an emitter (1/r blowup)."""
