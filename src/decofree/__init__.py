"""Decoherence-free structure of finite-dimensional open quantum systems.

Heisenberg-picture channels and GKLS semigroups, their decoherence-free
subalgebras computed through commutants and multiplicative domains, Wedderburn
block decompositions, permutation-symmetric dissipation models, and
Born-approximation error budgets for time-dependent controls.
"""

from .operators import (
    LiouvilleMetric,
    dag,
    eye,
    is_hermitian,
    sandwich_superop,
    tensor_product,
    unvec,
    vec,
)
from .channels import (
    KrausMap,
    choi_matrix,
    compose,
    cp_check,
    dephasing_channel,
    kadison_defect,
    random_unital_channel,
    unitary_channel,
)
from .lindblad import (
    GKLSGenerator,
    GibbsGenerator,
    build_gibbs_generator,
    detailed_balance_check,
    dissipativity_defect,
    evolve_state,
    gibbs_state,
)
from .algebra import (
    BlockDecomposition,
    DetailedBalanceChannel,
    MatrixAlgebra,
    block_decompose,
    commutant,
    commutant_bounds,
    detailed_balance_channel_from_gibbs,
    df_algebra_discrete,
    df_algebra_semigroup,
    fixed_points,
    generated_algebra,
    multiplicative_domain,
    relaxation_trace,
)
from .symmetry import (
    build_permutation_rep,
    build_private_bath_generator,
    build_superradiance_generator,
    collective_op,
    collective_spin,
    global_invariance_residual,
    local_invariance_check,
    singlet_state,
)
from .born import (
    Bath,
    ControlTrajectory,
    Coupling,
    FrequencyGrid,
    born_state,
    constant_trajectory,
    device_correlator,
    error_frequency_domain,
    error_map,
    error_time_domain,
    filter_operators,
    flat_bath,
    gate_speed_scan,
    gaussian_bath,
    ohmic_bath,
    quartic_gaussian_bath,
    route_errors,
    tabulated_bath,
)

__version__ = "0.1.0"
