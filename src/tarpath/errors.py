"""Exception types shared across the package.

The CLI maps TarPathError subclasses to exit code 1 (domain errors);
argparse usage problems exit with 2.
"""


class TarPathError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInputError(TarPathError, ValueError):
    """Malformed input: unknown token, bad sequence, schema violation."""


class InvalidInstanceError(TarPathError, ValueError):
    """A problem instance violates its invariants (e.g. empty feasible set)."""


class UnsupportedNoiseError(TarPathError):
    """The noise model has no closed-form conditional variance."""


class GeneratorError(TarPathError):
    """The random-instance spec cannot be satisfied."""


class TrainingDivergedError(TarPathError):
    """Optimization produced a non-finite loss or gradient."""

    def __init__(self, iteration: int, detail: str = ""):
        self.iteration = iteration
        msg = f"non-finite loss or gradient at iteration {iteration}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
