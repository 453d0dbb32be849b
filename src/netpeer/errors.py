"""Exception hierarchy shared across the package.

ValidationError maps to CLI exit code 2, ComputationError to exit code 3.
"""


class ValidationError(ValueError):
    """Bad user input: out-of-range parameter, malformed file, unknown config key."""


class ComputationError(RuntimeError):
    """A well-formed request that cannot be computed from the given data."""


class AllIsolatedSampleError(ComputationError):
    """No sampled unit has a positive observed degree."""

    def __init__(self):
        super().__init__("every sampled unit is isolated in the recruitment graph")


class RankDeficiencyError(ComputationError):
    """The observed design does not have full column rank."""

    def __init__(self, detail: str):
        super().__init__(f"rank-deficient design: {detail}")


class AllRepsFailedError(ComputationError):
    """Every replication in a Monte Carlo cell failed."""

    def __init__(self, reps: int):
        super().__init__(f"all {reps} replications failed")
