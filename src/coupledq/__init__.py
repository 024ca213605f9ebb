"""coupledq: stability of parallel queues with coupled, state-dependent service rates.

Library layout:

- :mod:`coupledq.allocation` -- service allocations, structural checks,
  saturated limit evaluation
- :mod:`coupledq.ctmc` -- truncated generators, stationary solves with box
  escalation
- :mod:`coupledq.engine` -- saturated prefix laws and averages, per-queue and
  system stability classification, certificate checks, region sweeps
- :mod:`coupledq.simulate` -- uniformized path and coupled-pair simulation,
  empirical stability probe
- :mod:`coupledq.scenario` -- scenario files and built-in presets
- :mod:`coupledq.cli` -- command-line front end
"""

from .allocation import (
    AllocationSpec,
    ArrivalRates,
    StructureReport,
    base_station_pair,
    build_product_allocation,
    busy_table_allocation,
    check_partially_decreasing,
    check_uniform_limits,
    constant_allocation,
    exp_interference,
    log_gain,
    lower_partial_limit,
    one_server_power_law,
    poly_interference,
    three_queue_table,
)
from .ctmc import (
    SolveReport,
    StationaryDistribution,
    TruncatedGenerator,
    adaptive_stationary,
    build_truncated_generator,
    solve_stationary,
)
from .engine import (
    Label,
    RegionSample,
    StabilityEngine,
    StabilityVerdict,
    SystemLabel,
    Tolerances,
    region_label,
    verify_certificate,
)
from .errors import (
    BoundViolation,
    BoxTooLarge,
    CoupledQError,
    HypothesisViolated,
    InvalidShape,
    NoConvergence,
    PermutationCapExceeded,
    SaturationNotConverged,
    ScenarioError,
)
from .scenario import Scenario, builtin_scenario, load_scenario, resolve_scenario
from .simulate import (
    CouplingReport,
    PathSample,
    ProbeDiagnostic,
    empirical_stability_probe,
    random_hypothesis_pair,
    simulate_coupled_pair,
    simulate_path,
)

__version__ = "0.1.0"
