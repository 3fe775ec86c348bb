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
    """Optimization produced a non-finite loss or gradient, or found the loss
    unbounded below (``unbounded``), where nothing is non-finite."""

    def __init__(self, iteration: int, detail: str = "", unbounded: bool = False):
        self.iteration = iteration
        what = "the loss is unbounded below" if unbounded else "non-finite loss or gradient"
        msg = f"{what} at iteration {iteration}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
