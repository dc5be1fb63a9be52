"""Error taxonomy shared by every module.

Each error carries a stable symbol (the class name) and the process exit
code used by the command line front end: 1 usage, 2 data, 3 convergence,
4 positivity/extreme weights, 5 equivalence check violated.
"""


class MnarError(Exception):
    """Base class; exit_code drives the CLI status."""

    exit_code = 1

    def diagnostic(self) -> str:
        """Single-line machine-parseable form."""
        return f"code={type(self).__name__} message={self}"


# usage (exit 1)

class DimensionMismatch(MnarError):
    exit_code = 1


class BadConfig(MnarError):
    exit_code = 1


# data (exit 2)

class DataError(MnarError):
    exit_code = 2


class SchemaMismatch(DataError):
    pass


class BadValue(DataError):
    pass


class EmptyData(DataError):
    pass


class RankDeficient(DataError):
    pass


class TooFewDonors(DataError):
    pass


# convergence / numerical (exit 3)

class ConvergenceError(MnarError):
    exit_code = 3


class NoConvergence(ConvergenceError):
    pass


class SingularJacobian(ConvergenceError):
    pass


class NonFiniteEvaluation(ConvergenceError):
    pass


class Separation(ConvergenceError):
    pass


class MissingnessDegenerate(ConvergenceError):
    pass


class QuadratureFailure(ConvergenceError):
    pass


class AllReplicationsFailed(ConvergenceError):
    pass


class TooManyFailures(ConvergenceError):
    pass


# positivity / weights (exit 4)

class ExtremeWeight(MnarError):
    exit_code = 4


# equivalence check (exit 5)

class EquivalenceViolated(MnarError):
    exit_code = 5
