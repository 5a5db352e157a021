"""Energy-aware joint management of compute-capable network nodes.

Decides node/link activation, function placement and traffic routing by
repeatedly solving LP relaxations inside a control loop, and benchmarks the
result against an all-active baseline, a consolidation heuristic, and an
exact enumeration optimum.
"""

from .baselines import (
    StrategyResult,
    all_active,
    consolidation,
    exact_optimum,
    optiloop_strategy,
    relaxed_bound,
)
from .errors import (
    BaselineMissing,
    BudgetExceeded,
    CyclicLogicalGraph,
    GenerationFailed,
    InstanceInfeasible,
    InvalidMode,
    InvariantBroken,
    NotInfeasible,
    OptiloopError,
    RepairDiverged,
    ScenarioFormatError,
    ShapeMismatch,
    SolverStall,
)
from .iis import IisReport, compute_iis
from .loop import LoopState, fix_problems, initial_solution, run_loop, save_energy
from .lp import (
    RELAXED,
    LpProblem,
    LpSolution,
    VarRef,
    build_problem,
    fix,
    fixed,
    relax,
    solve,
    to_lp_text,
)
from .metrics import ExperimentConfig, MetricsRow, compute_metrics, run_experiment
from .model import (
    EnergyBreakdown,
    EnergyModel,
    Link,
    LogicalGraph,
    NetworkConfiguration,
    Node,
    PhysicalGraph,
    Scenario,
    Violation,
    derive_logical_flows,
    energy_of,
    validate_configuration,
)
from .scenario import (
    GeneratorParams,
    configuration_from_dict,
    configuration_to_dict,
    generate,
    load_scenario,
    save_scenario,
    scale_demand,
    strategy_result_to_dict,
    vepc_logical_graph,
    vepc_two_node,
)

__version__ = "0.1.0"
