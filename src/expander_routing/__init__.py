"""Online edge-disjoint path routing in regular expander graphs."""

from .errors import (
    CallerError,
    ExpansionViolation,
    FormatError,
    GenerationError,
    RoutingError,
)
from .expanders import (
    ExpansionReport,
    SpectralReport,
    check_expansion_exhaustive,
    estimate_second_eigenvalue,
    gen_random_regular_graph,
)
from .graph import (
    Digraph,
    EdgeSubset,
    UndirectedGraph,
    format_graph,
    load_graph,
    parse_graph,
    reverse,
    save_graph,
)
from .harness import (
    RunReport,
    TraceCommand,
    gen_workload,
    parse_trace,
    run_trace,
)
from .oracle import EdgeOracle, Findings
from .preprocess import (
    SplitResult,
    eulerian_orient,
    extract_perfect_matching,
    pre_process,
    split_regular,
)
from .profiles import (
    OracleProfile,
    RouterProfile,
    canonical_oracle_profile,
    derive_profile,
    desk_profile,
    load_profile,
)
from .router import Ledger, PathRecord, RoutingEngine

__version__ = "0.1.0"
