"""Stable marriage with tied preferences.

Solvers and certificates for matchings that minimize the worst-case number
of blocking pairs over every way the submitted ties could resolve, which is
the same thing as minimizing super-blocking pairs.
"""

from .core import (
    Completion,
    Instance,
    Matching,
    TierList,
    ValidationError,
    build_witness_completion,
    compute_delta,
    count_super_blocking_pairs,
    is_super_stable,
    is_weakly_stable,
    obvious_blocking_pairs,
    restrict_instance,
    super_blocking_pairs,
    validate_one_sided_top_truncated,
)
from .solvers import (
    DegenerateInstanceError,
    PreconditionError,
    SolveReport,
    WorkingInstance,
    assemble_from_deletion,
    deletion_stages,
    exact_min_super_bp,
    find_exposed_rotation,
    gale_shapley_completion,
    min_delete_approx,
    min_vertex_cover_bipartite,
    propose_with,
    super_stable_solve,
)
from .oracles import (
    BudgetExceededError,
    OracleBudget,
    enumerate_completions,
    max_bp_over_completions,
    max_internal_super_stable_size,
    min_delete,
    min_super_bp,
)
from .generators import (
    GeneratorError,
    ReductionCertificate,
    UndirectedGraph,
    build_yes_matching,
    gen_fig1,
    gen_fig3,
    gen_fig4,
    gen_random,
    gen_vc_reduction,
)

__version__ = "0.1.0"
