"""Semi-parametric least squares for partially linear models whose
scalar covariate is a null recurrent Markov chain, plus the simulation
and unit root tooling used to study the estimators.

The public API is every name imported below."""

from .bandwidth import CvResult, cv_select, default_h_grid
from .dataset import TimeSeriesDataset, ValidationIssue, load_csv, validate, write_csv
from .errors import (
    ExperimentError,
    NoVisitsError,
    ParameterError,
    ParseError,
    PartlinError,
    RankError,
    SchemaError,
    SelectionError,
    TruncationError,
)
from .kernel import (
    DEFAULT_SMALL_SET,
    KernelSpec,
    TruncationSpec,
    default_bandwidth,
    default_density_floor,
    default_truncation,
    kernel_eval,
    smooth,
    truncation_mask,
)
from .markov import (
    BlockDecomposition,
    SmallSet,
    count_small_set_visits,
    estimate_beta,
    regeneration_blocks,
    simulate_ar1,
    simulate_random_walk,
)
from .montecarlo import (
    GCltReport,
    McCellResult,
    McConfig,
    NormalityReport,
    ThetaDraws,
    g_clt_check,
    normality_check,
    run_g_experiment,
    run_theta_experiment,
    simulate_block,
    simulate_replication,
    table_grid,
    theta_experiment_details,
)
from .sls import (
    CurveEstimate,
    LongRunCovariance,
    ResidualSet,
    SlsFit,
    asymptotic_ci,
    default_max_lag,
    estimate_g,
    estimate_h,
    longrun_covariance,
    naive_sls,
    residuals,
    truncated_sls,
    truncated_theta,
)
from .unitroot import DfResult, df_statistic, df_test, simulated_pvalue

__version__ = "0.1.0"
