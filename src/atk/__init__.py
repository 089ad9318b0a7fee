"""Approximate Turing kernelization for graph problems parameterized by treewidth."""

from .errors import InternalInvariantViolation, OracleRefused
from .graph import Graph
from .problems import (
    CLIQUE_COVER,
    CVC,
    ECC,
    EDS,
    ETP,
    FVS,
    IS,
    VC,
    ProblemKind,
    Solution,
    h_packing,
    is_feasible,
)
from .treedecomp import (
    NiceTreeDecomposition,
    TreeDecomposition,
    ValidationReport,
    heuristic_td,
    make_nice,
    make_subconnected,
    validate,
)
from .oracles import (
    Oracle,
    OracleAudit,
    audited,
    brute_force_solve,
    exact_brute_oracle,
    exact_dp_oracle,
    lossy_wrap,
    td_dp_solve,
    trianglefree_ecc_oracle,
)
from .approx import ApproximateKernel
from .kernels import (
    KernelConfig,
    RunReport,
    approx_cvc_turing,
    approx_ecc_turing,
    approx_etp_turing,
    approx_is_turing,
    approx_vc_turing,
)
from .friendly import (
    FriendlyProblem,
    approx_friendly_turing,
    builtin_instances,
)
from .generate import gen_connected_partial_ktree, gen_partial_ktree
from .pace import ParseError, parse_gr, parse_td, write_gr, write_td

__version__ = "0.1.0"
