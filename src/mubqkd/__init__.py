"""High-dimensional QKD toolkit built on mutually unbiased bases.

The package covers the full chain of the filter-based protocol: basis
construction, two-qudit state probabilities, the photon-pair source and
detector model, Monte Carlo session simulation with sifting and parameter
estimation, and the security analysis down to the asymptotic key rate.
"""

from .bases import (
    Basis,
    Ket,
    MubSet,
    UnbiasednessReport,
    eigenbasis_xzl,
    load_bases,
    mub_set,
    save_bases,
    standard_basis,
    unbiasedness_report,
)
from .counts import CountMatrix, load_counts, normalize_blocks, save_counts
from .errors import (
    ConfigError,
    ConstructionError,
    CountDataError,
    DimensionError,
    MubQkdError,
    NumericError,
    ParseError,
)
from .photonics import (
    EfficiencyTable,
    PairRouting,
    SourceParams,
    UniformityReport,
    efficiency_uniformity,
    estimate_efficiency,
    expected_coincidences,
    expected_singles,
    load_efficiency_table,
    pair_routing_probs,
    save_efficiency_table,
    synthesize_conjugate_records,
)
from .protocol import (
    ParameterEstimate,
    ProtocolConfig,
    SessionRecord,
    SiftedData,
    default_basis_bias,
    estimate_parameters,
    expected_count_matrix,
    run_eb_session,
    run_pm_session,
    sift,
)
from .security import (
    SecurityReport,
    analyze_counts,
    average_qber,
    empirical_qber,
    holevo_gap,
    isotropic_joint_distribution,
    joint_distribution_from_counts,
    key_rate,
    mutual_information,
    q_max,
    shannon_entropy,
)
from .states import (
    DensityOperator,
    JointProbMatrix,
    isotropic_state,
    joint_prob_matrix,
    maximally_entangled,
    visibility_for_qber,
)

__version__ = "0.1.0"
