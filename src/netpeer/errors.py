"""Exception hierarchy shared across the package.

ValidationError maps to CLI exit code 2, ComputationError to exit code 3.
"""


class ValidationError(ValueError):
    """Bad user input: out-of-range parameter, malformed file, unknown config key."""


class ComputationError(RuntimeError):
    """A well-formed request that cannot be computed from the given data."""


class ConnectivityError(ComputationError):
    """Every graph draw of the retry budget had, or could be expected to have,
    an isolated vertex; `expected`, the expected edge count, marks the latter."""

    def __init__(self, attempts: int, n: int, p: float, expected: float = None):
        self.attempts = attempts
        why = "" if expected is None else (
            f": such a graph needs at least {-(-n // 2)} edges and {expected:.3g} are expected,"
            " so none was drawn")
        super().__init__(
            f"no graph without an isolated vertex in {attempts} attempts (n={n}, p={p}){why}"
        )


class IsolatedVertexError(ComputationError):
    """A neighborhood mean was requested for a vertex of degree zero."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} is isolated: neighborhood mean undefined")


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
