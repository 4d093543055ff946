"""Multiple domination in graphs: verifiers, probabilistic upper bounds,
randomized constructions, exact solvers and a threshold-constant tuner."""

from ._kernels import USING_NUMBA
from .bounds import (
    BoundReport,
    applicability_caro_yuster,
    binomial_exact,
    bound_caro_roditty,
    bound_classical,
    bound_ln_threshold_ktuple,
    bound_ln_threshold_parametric,
    bound_ln_threshold_rs,
    bound_parametric,
    bound_parametric_alt,
    bound_parametric_alt_log,
    bound_parametric_log,
    bound_rs,
    bound_rs_log,
    bound_rs_log_optimized,
    bound_rv,
    bound_threshold_ktuple,
    bound_threshold_parametric,
    bound_threshold_rs,
    bound_total_rs,
    bound_total_rs_log,
    bounds_for_spec,
    log_binomial,
)
from .construct import (
    ConstructionResult,
    construct_parametric,
    construct_rs,
    construct_total_rs,
)
from .errors import (
    CapViolationError,
    GraphFormatError,
    InfeasibleSpecError,
    MultidomError,
    NotApplicableError,
    ResourceLimitError,
)
from .graph import (
    Graph,
    GraphFamilySpec,
    complete,
    complete_bipartite,
    coverage,
    cycle,
    generate,
    gnp,
    load_graph,
    path,
    petersen,
    random_regular,
    read_graph,
    save_graph,
    write_graph,
)
from .oracle import ExactResult, exact_function_number, exact_set_number
from .tuner import (
    ComparisonReport,
    CubicSpec,
    compare_bounds,
    solve_cubic,
    tune_c,
    tune_details,
)
from .verify import (
    DominationSpec,
    VerifyReport,
    VertexFunction,
    verify_function,
    verify_set,
    weight,
)

__version__ = "0.1.0"
