"""Exception types shared across the package."""


class OptiloopError(Exception):
    """Base class for all package errors."""


class CyclicLogicalGraph(OptiloopError):
    """The per-endpoint VNF graph induced by the chi ratios contains a cycle."""


class ShapeMismatch(OptiloopError):
    """A configuration references ids or index tuples unknown to the scenario."""


class InvalidMode(OptiloopError):
    """A variable mode assignment is not allowed (e.g. fixing a flow variable)."""


class SolverStall(OptiloopError):
    """The simplex iteration limit was hit before reaching a conclusive status."""


class NotInfeasible(OptiloopError):
    """IIS extraction was requested for a problem that is not infeasible."""


class InstanceInfeasible(OptiloopError):
    """The problem instance admits no feasible operating point at all.

    ``context`` carries a short tag describing where infeasibility surfaced
    (e.g. a consolidation stage name).
    """

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context


class RepairDiverged(OptiloopError):
    """The repair procedure exhausted its activation budget without success."""


class BudgetExceeded(OptiloopError):
    """Exhaustive enumeration ran out of budget; carries the best result so far."""

    def __init__(self, message, best=None, assignments=0):
        super().__init__(message)
        self.best = best
        self.assignments = assignments


class GenerationFailed(OptiloopError):
    """The scenario generator could not synthesize a usable instance."""


class BaselineMissing(OptiloopError):
    """Metrics were requested against a missing or unusable baseline result."""


class InvariantBroken(OptiloopError):
    """The control loop or the solver reached a state its own construction
    rules out.

    Raised when a phase boundary finds the current configuration violating
    a constraint, when an accepted shutdown raised the energy at held
    flows, when the shutdown guidance LP of a feasible point came back
    infeasible, or when ``lp.solve`` would return a point that breaks a
    row, divided by its largest coefficient, by more than the simplex's
    ``FEAS_TOL``.  Any of these is a defect in the loop or the solver, not
    in the instance.
    """


class ScenarioFormatError(OptiloopError):
    """A scenario document is malformed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
