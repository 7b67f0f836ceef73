"""mclab: a numerical laboratory for time-inhomogeneous finite Markov chains.

Exact merging distances and times, singular-value and coupling bounds,
stability envelopes over kernel word trees, a zoo of worked kernel
families, spectral comparison on weighted graphs, and a reproducible
scenario runner.
"""

__version__ = "0.1.0"

from .chain_core import (
    KernelSequence,
    ProbMeasure,
    ReducibleKernelError,
    StateSpace,
    StochasticKernel,
    StructureReport,
    adjoint_kernel,
    classify_structure,
    compose,
    contraction_coefficient,
    evolve,
    product,
    stationary_measure,
    total_variation,
)
from .merging import (
    DoeblinCertificate,
    MergingReport,
    UniformConditionsCertificate,
    backward_envelopes,
    block_contraction_bound,
    doeblin_bound,
    merging_time,
    pairwise_distances,
    uniform_conditions_certificate,
)
from .singular import (
    HomogeneousBoundReport,
    SingularBoundReport,
    homogeneous_bounds,
    pi_kernel,
    step_sigma,
    singular_value_bounds,
)
from .stability import (
    EnumerationBudgetError,
    LimitRowEstimate,
    StabilityReport,
    envelope_summary_csv,
    limit_row_estimate,
    product_invariant_criterion,
    ratio_envelope,
    search_stable_measure,
    two_point_classify,
)
from .zoo import (
    BirthDeathSpec,
    WeightedGraph,
    circle_relabeling,
    closed_form_invariant,
    constant_rate_bd,
    constant_rate_bd_set,
    general_bd,
    graph_kernel,
    lazy_stick,
    metropolis_ratio_bound,
    metropolis_reweight,
    perturbed_stick_pair,
    random_regular_graph,
    random_weights,
    small_example,
    stick_pair_measures,
)
from .spectral import (
    ComparisonReport,
    SpectralReport,
    comparison_check,
    dirichlet_forms,
    second_singular_value,
    srw_spectrum,
)
from .scenarios import ResultSet, emit, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
