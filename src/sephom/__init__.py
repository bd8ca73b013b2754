"""Dichotomy tools for list homomorphism to separable signed graphs."""

from .sgcore import (
    BICOLOURED,
    BLUE,
    RED,
    Bipartition,
    EdgeColour,
    SignedGraph,
    Switching,
    apply_switching,
    bipartition,
    is_anti_balanced,
    is_balanced,
    is_semi_balanced,
    relabel,
    switching_equivalent,
    walk_sign,
)
from .files import (
    ParseError,
    parse_graph,
    parse_instance,
    parse_quadcsp,
    serialize_graph,
    serialize_instance,
    serialize_quadcsp,
)
from .targets import build_h0, build_h1, build_hl, build_reduction_target, template_pairs
from .separable import (
    CycleForm,
    PathForm,
    Segment,
    SegmentedForm,
    cycle_form,
    find_segments,
    path_form,
    segment_leaning,
    segmented_form,
)
from .witness import (
    Chain,
    InvertiblePair,
    find_chain,
    find_invertible_pair,
    verify_chain,
    verify_invertible_pair,
)
from .ordering import (
    Ordering,
    ordering_for_cycle_target,
    ordering_for_segmented,
    verify_min_ordering,
    verify_special,
)
from .solver import (
    Gf2System,
    Instance,
    Solution,
    arc_consistency,
    check_solution,
    gf2_solve,
    solve,
    solve_h1,
    solve_oracle,
    solve_ordered,
)
from .classify import Verdict, classify, classify_cycle, classify_path, verdict_dict
from .hardness import QuadCsp, build_gadget, build_reduction, csp_solve, quad_relation
from .cli import enum_targets

__version__ = "0.1.0"
