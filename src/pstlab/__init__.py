"""pstlab: deciding, certifying, and exploring perfect quantum state
transfer in the single-excitation subspace of coupling-graph Hamiltonians.
"""

from .graphs import (
    BipartiteColoring,
    Graph,
    MalformedGraph6,
    bipartite_coloring,
    cartesian_product,
    complement,
    complete_graph,
    conjunction,
    cycle_graph,
    diameter,
    distance,
    encode_graph6,
    hypercube_graph,
    join,
    parse_graph6,
    path_graph,
    strong_product,
    support_graph,
)
from .hamiltonians import (
    EdgeNotInGraph,
    NonPositiveCoupling,
    adjacency_hamiltonian,
    asymmetric_5chain_couplings,
    chain_hamiltonian,
    check_coupling_identity_5chain,
    laplacian_hamiltonian,
    model_hamiltonian,
    standard_pst_chain_couplings,
    weighted_hamiltonian,
)
from .spectral import (
    CommensurabilityResult,
    DegenerateInput,
    EigensolverFailure,
    SpectralDecomposition,
    decompose,
    integer_char_poly,
    is_integral_spectrum,
    real_gcd,
)
from .transfer import (
    NO_TRANSFER,
    PERFECT,
    UNDECIDED,
    NotPerfect,
    TransferVerdict,
    VertexCoincide,
    check_transfer,
    decide,
    evolve,
    fidelity,
    fidelity_curve,
    symmetry_operator,
)
from .limits import (
    DiameterBoundsReport,
    RateReport,
    autocorrelation_zeros,
    complement_pst_condition,
    laplacian_diameter_bounds,
    rate_report,
    routing_bound_check,
    routing_impossibility_scan,
)
from .search import (
    CensusResult,
    MalformedRecord,
    NTooLarge,
    SearchRecord,
    canonical_form,
    census,
    enumerate_connected_graphs,
    read_graph6_stream,
    read_records,
    write_records,
    write_records_csv,
)

__version__ = "0.1.0"

__all__ = [
    # graphs
    "BipartiteColoring", "Graph", "MalformedGraph6", "bipartite_coloring",
    "cartesian_product", "complement", "complete_graph", "conjunction",
    "cycle_graph", "diameter", "distance", "encode_graph6",
    "hypercube_graph", "join", "parse_graph6", "path_graph", "strong_product",
    "support_graph",
    # hamiltonians
    "EdgeNotInGraph", "NonPositiveCoupling", "adjacency_hamiltonian",
    "asymmetric_5chain_couplings", "chain_hamiltonian",
    "check_coupling_identity_5chain", "laplacian_hamiltonian",
    "model_hamiltonian", "standard_pst_chain_couplings", "weighted_hamiltonian",
    # spectral
    "CommensurabilityResult", "DegenerateInput", "EigensolverFailure",
    "SpectralDecomposition", "decompose", "integer_char_poly",
    "is_integral_spectrum", "real_gcd",
    # transfer
    "NO_TRANSFER", "PERFECT", "UNDECIDED", "NotPerfect", "TransferVerdict",
    "VertexCoincide", "check_transfer", "decide", "evolve",
    "fidelity", "fidelity_curve", "symmetry_operator",
    # limits
    "DiameterBoundsReport", "RateReport", "autocorrelation_zeros",
    "complement_pst_condition", "laplacian_diameter_bounds", "rate_report",
    "routing_bound_check", "routing_impossibility_scan",
    # search
    "CensusResult", "MalformedRecord", "NTooLarge", "SearchRecord",
    "canonical_form", "census", "enumerate_connected_graphs",
    "read_graph6_stream", "read_records", "write_records",
    "write_records_csv",
]
