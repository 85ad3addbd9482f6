"""gltkit: spectral symbols of 1-D FD/FE discretization matrices.

Build the classical matrix families (diffusion, convection-diffusion-
reaction under several schemes and boundary conditions, fourth-order and
fourth-derivative stencils, mapped grids, FE stiffness/mass/Schur/pencil),
attach the predicted symbol kappa(x, theta) to each, and verify the
predicted singular-value/eigenvalue distribution at finite n through
monotone rearrangement, Weyl test functionals, zero-distribution trend
checks, and proof-inequality certificates.
"""

from .linalg import (
    BandedMatrix,
    ComplexSpectrumError,
    EigenConvergenceError,
    Pencil,
    RankOneUpdate,
    SpdError,
    SpectralSet,
    SymmetryError,
    as_dense,
    generalized_sym_eigvals,
    is_symmetric,
    nonsym_eigvals,
    real_eigvals,
    schatten_norm,
    singular_spectrum,
    singular_values,
    solve_spd_banded,
    spectral_norm,
    sym_eigpairs,
    sym_eigvals,
)
from .symbols import (
    Coefficient,
    CoeffFactor,
    ComplexSymbolError,
    COEFFICIENT_PRESETS,
    FOURTH_DERIVATIVE_SYMBOL,
    FOURTH_ORDER_LAPLACE_SYMBOL,
    LAPLACE_SYMBOL,
    MASS_SYMBOL,
    Rearrangement,
    SIN_SYMBOL,
    SymbolExpr,
    SymbolSingularityError,
    TrigFactor,
    TrigPoly,
    add,
    coefficient_preset,
    conjugate,
    divide,
    modulus_of_integral_continuity,
    modulus_upper_bound,
    monotone_rearrangement,
    multiply,
)
from .builders import (
    DiscretizationCase,
    GridMap,
    arrow_sampling,
    case_names,
    diag_sampling,
    fd_cdr_dirichlet,
    fd_cdr_neumann,
    fd_diffusion,
    fd_fourth_derivative,
    fd_fourth_order_scheme,
    fd_interior_grid,
    fd_nondiv,
    fd_nonuniform,
    fe_cdr,
    fe_convection,
    fe_eigproblem,
    fe_gradient_coupling,
    fe_mass,
    fe_stiffness,
    fe_system_schur,
    get_case,
    power_map,
    registry_lines,
    toeplitz,
    uniform_grid,
)
from .analysis import (
    DistributionReport,
    FunctionalGap,
    SymbolSamples,
    TestFunction,
    TrendReport,
    UnboundedSymbolError,
    default_suite,
    empirical_functional,
    hat,
    inflate,
    monomial,
    outlier_count,
    rearrangement_compare,
    rearrangement_nodes,
    symbol_samples,
    weyl_compare,
    zero_distribution_check,
)
from .certificates import (
    CertificateCheck,
    certificate_families,
    run_all_certificates,
    run_certificates,
)

__version__ = "0.1.0"
