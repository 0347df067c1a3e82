"""Multi-agent block-communication SCA solver with push-sum gradient tracking."""

from .blockcomm import (
    BlockSchedule,
    build_all_weights,
    select_block,
)
from .graph import (
    DiGraph,
    algebraic_connectivity,
    erdos_renyi_symmetric,
    is_strongly_connected,
)
from .harness import RunConfig, load_config, run_single
from .objective import (
    DCRegularizer,
    GroundTruth,
    ProblemInstance,
    block_gradient,
    full_gradient,
    generate_instance,
    log_penalty_slope,
    objective_value,
    soft_threshold,
    solve_block_subproblem,
)
from .solver import (
    RunTrace,
    SolverState,
    StepSizeSchedule,
    disagreement,
    init_solver_state,
    local_optimization,
    run_block_sca,
    run_gradient_push,
    solver_round,
    stationarity_gap,
)
from .tracking import push_sum_mix, tracking_payload

__version__ = "0.1.0"
