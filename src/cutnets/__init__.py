"""q-cuttable phylogenetic networks: recognition, orientation, containment."""

from .nets import (
    Blob,
    Chain,
    RootedNet,
    Split,
    UndirectedNet,
    ValidationReport,
    canon_edge,
    eliminate_edge,
    split_of_cut_edge,
    subdivide,
    suppress,
    validate_rooted,
    validate_unrooted,
)
from .cuttable import (
    CuttabilityReport,
    is_q_cuttable,
    is_q_cuttable_via_chain_deletion,
    max_cuttability,
)
from .orient import (
    CherryPickingSequence,
    OrientationSpec,
    apply_orientation,
    choose_s_prime,
    is_tree_child,
    reduce_pair,
    replay_sequence,
    tree_child_orient_2cuttable,
    underlying_unrooted,
)
from .sat import (
    Assignment,
    CnfInstance,
    GadgetMap,
    assignment_satisfies,
    build_n_phi,
    build_u_phi,
    extract_assignment,
    validate_2balanced,
)
from .containment import (
    Embedding,
    PendantQuad,
    PendantTriple,
    RuleOutcome,
    apply_reduction,
    branch_on_cut_edge,
    conflicting_split,
    entangled_path,
    find_pendant_structures,
    three_cuttable_tc,
    verify_embedding,
)
from .generate import (
    GenConfig,
    make_q_cuttable,
    random_2balanced_cnf,
    random_q_cuttable,
    random_tree,
    sample_displayed_tree,
)
from .reference import (
    brute_force_tree_child_orientation,
    cherry_picking_sequence,
    display_oracle,
    is_entangled,
    is_q_cuttable_bruteforce,
    labeled_isomorphic,
    rooted_isomorphic,
    sat_bruteforce,
)

__version__ = "0.1.0"
