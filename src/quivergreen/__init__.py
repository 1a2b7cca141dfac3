"""Quiver mutation, maximal green sequences, and exchange-graph exploration."""

from .core import (
    DirectSumDecomposition,
    Quiver,
    Rank3Params,
    RFamilyParams,
    b_matrix_rank,
    find_direct_sum,
    find_ending_kcycle,
    induced_cycles,
    induced_subquiver,
    is_acyclic,
    mutate,
    mutate_sequence,
    opposite,
    relabel,
    separating_edges,
    sinks,
    sources,
)
from .canonical import CanonicalKey, are_isomorphic, canonical_form, canonical_key
from .green import (
    FramedQuiver,
    MgsCertificate,
    SearchResult,
    acyclic_mgs,
    apply_green_sequence,
    direct_sum_mgs,
    frame,
    kcycle_mgs,
    mutate_framed,
    rank3_mgs,
    reverse_rotate_mgs,
    rotate_mgs,
    search_mgs,
    verify_mgs,
    vertex_status,
)
from .errors import (
    CapabilityError,
    CertificateError,
    InternalInvariantError,
    QuiverError,
)
from .obstructions import (
    AdmissibilityResult,
    CatalogNoMgsObstruction,
    CompanionAssignment,
    LouiseAcyclicLeaf,
    LouiseNoEdges,
    LouiseNode,
    MgsVerdict,
    Rank3CyclicObstruction,
    RFamilyObstruction,
    SubquiverObstruction,
    decide_mgs,
    describe_obstruction,
    good_vertices,
    louise_from_json,
    louise_to_json,
    r_family_trajectory,
    recheck_obstruction,
    solve_admissibility,
    verify_louise_certificate,
)
from .exchange import (
    ExchangeGraph,
    PsiResult,
    enumerate_acyclic,
    explore,
    graph_to_dot,
    graph_to_json,
    invariant_report,
    is_mutation_acyclic,
    psi_component,
)
from .io import (
    dumps_quiver,
    load_quiver,
    loads_quiver,
    quiver_from_json,
    quiver_to_json,
    save_quiver,
)

__version__ = "0.1.0"
