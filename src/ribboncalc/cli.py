"""Command line interface.

One graph (or diagram) per invocation, read from a JSON file.  Results
go to stdout, problems to stderr.  Exit status 0 on success, 1 on any
validation or parse failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

# reading input and writing output need only these two modules; each
# subcommand imports the computing modules it runs, so it loads no others
from .graph import RibbonGraph, surface_invariants, validate_graph
from .serialization import (
    export_dot,
    graph_dot,
    parse_assignments,
    parse_choices,
    parse_diagram,
    parse_graph,
    parse_quiver,
    serialize,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> RibbonGraph:
    return parse_graph(_read(path))


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    report = validate_graph(g)
    _emit(serialize(report))
    return 0 if report.ok else 1


def _cmd_info(args) -> int:
    g = _load_graph(args.graph)
    _emit(serialize(surface_invariants(g)))
    return 0


def _start_kind(g: RibbonGraph, start: str, kind: Optional[str]) -> str:
    if kind is not None:
        return kind
    if g.has_vertex(start):
        return "vertex"
    if g.has_halfedge(start):
        return "halfedge"
    raise ValueError("unknown start {!r}; name a vertex or halfedge".format(start))


def _cmd_traj(args) -> int:
    from .trajectory import curve_trajectory, itinerary, web_trajectory

    g = _load_graph(args.graph)
    kind = _start_kind(g, args.start, args.kind)
    if kind == "halfedge":
        result = itinerary(g, args.start, args.orient)
    elif kind == "edge":
        result = {"curve": list(curve_trajectory(g, args.start, args.orient))}
    else:
        result = {"web": web_trajectory(g, args.start, args.orient)}
    _emit(serialize(result))
    return 0


def _object_ref(kind: str, name: str):
    from .trajectory import EdgeRef, VertexRef

    return EdgeRef(name) if kind == "edge" else VertexRef(name)


def _cmd_decompose(args) -> int:
    from .words import decompose

    g = _load_graph(args.graph)
    source = _object_ref(args.source_kind, args.source)
    target = _object_ref(args.target_kind, args.target)
    _emit(serialize(decompose(g, target, source, args.side)))
    return 0


def _cmd_amalgamate(args) -> int:
    from .quiver import amalgamate

    diagram = parse_diagram(_read(args.diagram))
    q = amalgamate(diagram)
    _emit(export_dot(q) if args.format == "dot" else serialize(q))
    return 0


def _cmd_assemble(args) -> int:
    from .assembly import assemble_global, basicness_check

    g = _load_graph(args.graph)
    assign = parse_assignments(_read(args.templates))
    q = assemble_global(g, assign)
    for warning in basicness_check(g):
        print("warning: {}".format(warning), file=sys.stderr)
    _emit(export_dot(q) if args.format == "dot" else serialize(q))
    return 0


def _cmd_tagged(args) -> int:
    from .assembly import tagged_triangulation

    g = _load_graph(args.graph)
    choices = parse_choices(_read(args.choices))
    arcs = tagged_triangulation(g, choices)
    _emit(serialize({"arcs": arcs}))
    return 0


def _cmd_export(args) -> int:
    if args.graph is not None:
        value, dot = _load_graph(args.graph), graph_dot
    else:
        value, dot = parse_quiver(_read(args.quiver)), export_dot
    _emit(dot(value) if args.format == "dot" else serialize(value))
    return 0


# built once per process: parsing keeps no state in the parser, and
# usage errors go to the sys.stderr of the moment
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribboncalc",
        description="Ribbon graph trajectories, decompositions and quiver assembly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    graph = argparse.ArgumentParser(add_help=False)  # its --graph leads each usage line
    graph.add_argument("--graph", required=True)

    p = sub.add_parser("validate", parents=[graph], help="report every violated graph invariant")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("info", parents=[graph], help="genus and boundary marked-point counts")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("traj", parents=[graph], help="walk a trajectory, web or curve")
    p.add_argument("--start", required=True, help="halfedge, edge or vertex id")
    p.add_argument(
        "--kind",
        choices=("halfedge", "edge", "vertex"),
        help="how to read --start; edges always need this since edge ids "
        "double as halfedge ids",
    )
    p.add_argument("--orient", choices=("cw", "ccw"), default="cw")
    p.set_defaults(fn=_cmd_traj)

    p = sub.add_parser("decompose", parents=[graph], help="decompose an evaluation into words")
    p.add_argument("--source", required=True)
    p.add_argument("--source-kind", choices=("edge", "vertex"), required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--target-kind", choices=("edge", "vertex"), required=True)
    p.add_argument("--side", choices=("L", "R"), default="L")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("amalgamate", help="glue the quivers of a diagram file")
    p.add_argument("--diagram", required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(fn=_cmd_amalgamate)

    p = sub.add_parser("assemble", parents=[graph], help="assemble templates over a graph")
    p.add_argument("--templates", required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(fn=_cmd_assemble)

    p = sub.add_parser("tagged", parents=[graph], help="tagged triangulation arcs")
    p.add_argument("--choices", required=True, help="JSON: puncture to T1..T4")
    p.set_defaults(fn=_cmd_tagged)

    p = sub.add_parser("export", help="canonical JSON or DOT")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph")
    group.add_argument("--quiver")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(fn=_cmd_export)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
