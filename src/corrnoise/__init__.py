"""corrnoise: exact simulation and Fisher-information analysis of
correlated N-qubit pure dephasing, with probe/time optimization,
entanglement-advantage sweeps and a parity-measurement estimation pipeline.
"""

from .model import (
    DephasingFamily,
    FamilyValidationError,
    SpectralData,
    build_n_qubit,
    build_single_qubit,
    build_two_qubit,
    from_spectral_density,
    load_spectral_csv,
    with_perturbation,
)
from .evolution import (
    CoherencePair,
    ProductState,
    ResourceLimitError,
    coherence_spectrum,
    decay_rate,
    decay_rate_derivative,
    drho_dxi,
    evolve,
    ghz_density,
    ghz_pair,
    pair_density,
    pair_state,
    plus_product,
    superoperator_spectrum,
    validate_density_matrix,
)
from .qfi import (
    DivergentQfiError,
    EigenDecomposition,
    ExtrapolationError,
    QfiResult,
    bures_distance_sq,
    coherence_pair_qfi_shot,
    coherence_pair_qfi_shot_peak,
    coherence_pair_qfi_timeavg,
    fidelity,
    hermitian_eig,
    qfi_exact,
    qfi_exact_value,
    qfi_fidelity_check,
    time_averaged_qfi,
    time_averaged_qfi_limit,
    time_averaged_qfi_limit_pure,
)
from .optimize import (
    AdvantageRatio,
    OptimizationReport,
    advantage_ratio,
    dynamical_range_threshold,
    maximize_over_time,
    optimal_coherence_pair,
    optimal_product_state,
)
from .estimation import (
    EstimateReport,
    ExperimentRecord,
    NoInformationError,
    PromiseReport,
    ReplicationStudy,
    estimate_xi,
    promise_check,
    replication_study,
    shot_uncertainty,
    simulate_parity_counts,
    splitmix64,
    uniform_stream,
)

__version__ = "0.1.0"
