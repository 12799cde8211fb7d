"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with one ``except`` clause while still
letting programming errors (``TypeError`` and friends) propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly (e.g. scheduling an
    event in the past, or running a stopped engine)."""


class NetworkError(ReproError):
    """Malformed packet, unroutable address, or misconfigured topology."""


class CodecError(NetworkError):
    """A TCP options block could not be encoded or decoded."""


class PortsExhaustedError(NetworkError):
    """Every ephemeral port toward a destination is in use — what a real
    ``connect()`` reports as ``EADDRNOTAVAIL``."""


class PuzzleError(ReproError):
    """Puzzle construction, solving, or verification failed structurally
    (distinct from a well-formed solution that is simply *wrong*)."""


class GameError(ReproError):
    """The game-theoretic model was given parameters outside its domain
    (e.g. an infeasible difficulty, or a load exceeding the service rate)."""


class ExperimentError(ReproError):
    """An experiment configuration is inconsistent."""
