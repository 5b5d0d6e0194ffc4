"""Evolutionary dynamics on random financial liability networks.

Agents repeatedly choose between a risk-free and a risky investment strategy,
borrow from each other through a random liability network, clear their debts,
and imitate better-returning peers.  The package provides the closed-form
large-network limits, the mean-field ODE of the population flow, the
finite-network Monte-Carlo engine, evolutionary-stability checks, and an
experiment harness that reproduces the reference tables and figures.
"""
from .analytic import (
    ClearingLimit,
    DefaultRegime,
    LimitReturns,
    Thresholds,
    clearing_limit,
    drift_rates,
    limit_returns,
    q_eps,
    thresholds,
)
from .clearing import (
    ClearingResult,
    DefaultStats,
    ReturnsVector,
    compute_returns,
    default_stats,
    solve_clearing,
)
from .ess import (
    EssMode,
    EssVerdict,
    check_avg_ess,
    check_mixed_ess,
    check_multi_mutation,
    switch_utility_gap,
)
from .harness import (
    ContrastReport,
    ExperimentConfig,
    TableReport,
    TableRow,
    TableSpec,
    config_digest,
    load_config,
    reproduce_figures,
    reproduce_table,
    run_many,
    save_config,
    systemic_contrast,
    table2_spec,
    table3_spec,
    table4_spec,
    write_trajectories,
)
from .model import DerivedQuantities, DynamicsParams, MarketParams, ParamError, SolverError, derive
from .netgen import LiabilityGraph, ShockVector, sample_network, sample_shocks
from .odeflow import (
    AttractorReport,
    AvgLimit,
    DegenerateFlowError,
    avg_limit,
    classify_attractors,
    finite_round_estimate,
    ode_numeric,
    ode_solution,
    ode_solution_departures,
)
from .records import OdeState, RoundRecord, Trajectory
from .replicator import estimate_limit, initial_state, run_simulation, step_round

__version__ = "0.1.0"
