"""Ribbon graph calculus; a module is imported when one of its names is first used."""

from importlib import import_module

__version__ = "0.1.0"

# each module and the public names it defines
_EXPORTS = {
    "assembly": (
        "BUILTIN_TEMPLATE_NAMES", "LocalTemplate", "TaggedArc", "assemble_global",
        "assembly_diagram", "basicness_check", "builtin_template", "star_template",
        "tagged_triangulation", "validate_template",
    ),
    "graph": (
        "BoundaryWalk", "InvalidGraphError", "PLAIN", "RibbonGraph", "SINGULAR",
        "Subgraph", "SurfaceInvariants", "ValidationReport", "boundary_walks",
        "corner_permutation", "dual", "require_valid", "rotate_to_min", "subgraph",
        "surface_invariants", "validate_graph",
    ),
    "quiver": (
        "AmalgamationDiagram", "IceQuiver", "QuiverArrow", "QuiverMorphism",
        "QuiverVertex", "amalgamate", "quivers_isomorphic", "validate_morphism",
    ),
    "serialization": (
        "ParseError", "export_dot", "graph_dot", "parse_assignments", "parse_choices",
        "parse_diagram", "parse_graph", "parse_quiver", "parse_template", "serialize",
        "to_jsonable",
    ),
    "trajectory": (
        "CCW", "CW", "EdgeRef", "HalfedgeRef", "Itinerary", "TrajectoryHit",
        "VertexRef", "curve_trajectory", "itinerary", "trajectory_counts",
        "web_trajectory",
    ),
    "words": (
        "Atom", "Decomposition", "FunctorWord", "Marker", "Summand",
        "check_unit_split", "decompose", "decompose_subgraph", "transport_word",
        "twist_rotation_check", "word_typechecks",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the module that defines a public name and bind all of that
    module's public names here, so later reads are plain attribute reads
    (PEP 562)."""
    if name not in _OWNER:
        raise AttributeError("module {!r} has no attribute {!r}".format(__name__, name))
    module = import_module("." + _OWNER[name], __name__)
    for export in _EXPORTS[_OWNER[name]]:
        globals()[export] = getattr(module, export)
    # CPython does not specialise attribute reads on a module that has a
    # __getattr__, so the hook goes once every name is bound
    if _OWNER.keys() <= globals().keys():
        globals().pop("__getattr__", None)
    return globals()[name]
