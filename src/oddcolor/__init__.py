"""Odd colorings of 1-planar graphs.

Exact odd-chromatic search, odd-coloring verification, associated plane
graphs of 1-planar drawings, the easy/special/poor structural taxonomy,
and a discharging engine with an exact-rational charge audit.
"""

from .graph import Graph, parse_edge_list, format_edge_list
from .embedding import (
    AssociatedPlaneGraph,
    Face,
    OnePlanarDrawing,
    build_associated_plane_graph,
    drawing_from_json,
    drawing_to_json,
    trace_faces,
)
from .coloring import (
    Coloring,
    OddReport,
    color_by_reduction,
    exact_odd_chromatic_number,
    extend_at_vertex,
    find_odd_coloring,
    verify_odd_coloring,
)
from .structure import (
    FaceClass,
    FaceTags,
    LemmaReport,
    VertexTags,
    classify_faces,
    classify_vertices,
    detect_lemma_violations,
    easy_vertices,
)
from .discharging import ChargeLedger, apply_rules, audit, initial_charges
from .generators import (
    complete,
    complete_minus_edge,
    cycle,
    random_one_planar,
    subdivided_complete,
)

__all__ = [
    "AssociatedPlaneGraph",
    "ChargeLedger",
    "Coloring",
    "Face",
    "FaceClass",
    "FaceTags",
    "Graph",
    "LemmaReport",
    "OddReport",
    "OnePlanarDrawing",
    "VertexTags",
    "apply_rules",
    "audit",
    "build_associated_plane_graph",
    "classify_faces",
    "classify_vertices",
    "color_by_reduction",
    "complete",
    "complete_minus_edge",
    "cycle",
    "detect_lemma_violations",
    "drawing_from_json",
    "drawing_to_json",
    "easy_vertices",
    "exact_odd_chromatic_number",
    "extend_at_vertex",
    "find_odd_coloring",
    "format_edge_list",
    "initial_charges",
    "parse_edge_list",
    "random_one_planar",
    "subdivided_complete",
    "trace_faces",
    "verify_odd_coloring",
]
