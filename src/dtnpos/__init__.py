"""Dirichlet-to-Neumann matrices on metric graphs and positivity of e^{-tD}."""

from .assembly import (
    DtnMatrix,
    EdgeCoefficients,
    assemble_full,
    assemble_outer,
    edge_alpha_beta,
    pole_residue_probe,
    schur_reduce,
)
from .catalog import catalog, catalog_names
from .errors import (
    AtPole,
    BudgetExhausted,
    DtnError,
    GraphValidationError,
    IndependenceNotAsserted,
    InnerBlockSingular,
    MuOutOfRange,
    NoCycle,
    NotCommensurable,
    NumericallyMarginal,
    PatternViolation,
    PoleCluster,
    ResolutionTooLow,
)
from .graphs import (
    AdjacencyPattern,
    Edge,
    MetricGraph,
    ReducedGraph,
    adjacency_pattern,
    graph_laplacian,
    has_cycle,
    is_tree,
    load_graph,
    reduced_graph,
    validate,
)
from .positivity import (
    ClassifierConfig,
    GroupProbe,
    OracleReport,
    SemigroupClass,
    classify,
    expm_oracle,
    group_positivity_probe,
    is_irreducible,
    is_metzler,
)
from .search import (
    CommensurableFamily,
    KroneckerSequence,
    SearchResult,
    TargetSpec,
    commensurable_family,
    find_eventual_not_positive_above,
    find_not_eventually_positive_above,
    find_strongly_positive_above,
    kronecker_sequence,
    limit_matrix_Q,
    limit_schur,
    rationally_independent,
    surds_independent,
    verify_limit,
)
from .spectra import (
    SpectrumList,
    dirichlet_spectrum_full,
    kirchhoff_spectrum,
    lambda_1,
    pole_scan,
)
from .sweep import Band, SweepRecord, report, sweep, write_csv, write_json

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
