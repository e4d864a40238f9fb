"""Command line interface.

`main` reads each file a subcommand declares, in the order graph,
quiver, diagram, templates, choices, and puts the parsed value in its
option's place; the first fault found is the one reported.  The
subcommand's handler computes a value and an exit code from them, and
`main` writes the value to stdout, as canonical JSON or, with ``--format
dot``, as DOT.  Problems go to stderr.  Exit status 0 on success, 1 on any
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


def _cmd_validate(args):
    report = validate_graph(args.graph)
    return report, 0 if report.ok else 1


def _cmd_info(args):
    return surface_invariants(args.graph), 0


def _start_kind(g: RibbonGraph, start: str, kind: Optional[str]) -> str:
    if kind is not None:
        return kind
    if g.has_vertex(start):
        return "vertex"
    if g.has_halfedge(start):
        return "halfedge"
    raise ValueError("unknown start {!r}; name a vertex or halfedge".format(start))


def _cmd_traj(args):
    from .trajectory import curve_trajectory, itinerary, web_trajectory

    g, start, orient = args.graph, args.start, args.orient
    kind = _start_kind(g, start, args.kind)
    if kind == "halfedge":
        return itinerary(g, start, orient), 0
    if kind == "edge":
        return {"curve": list(curve_trajectory(g, start, orient))}, 0
    return {"web": web_trajectory(g, start, orient)}, 0


def _object_ref(kind: str, name: str):
    from .trajectory import EdgeRef, VertexRef

    return EdgeRef(name) if kind == "edge" else VertexRef(name)


def _cmd_decompose(args):
    from .words import decompose

    source = _object_ref(args.source_kind, args.source)
    target = _object_ref(args.target_kind, args.target)
    return decompose(args.graph, target, source, args.side), 0


def _cmd_amalgamate(args):
    from .quiver import amalgamate

    return amalgamate(args.diagram), 0


def _cmd_assemble(args):
    from .assembly import assemble_global, basicness_check

    q = assemble_global(args.graph, args.templates)
    for warning in basicness_check(args.graph):
        print("warning: {}".format(warning), file=sys.stderr)
    return q, 0


def _cmd_tagged(args):
    from .assembly import tagged_triangulation

    return {"arcs": tagged_triangulation(args.graph, args.choices)}, 0


def _cmd_export(args):
    return (args.quiver if args.graph is None else args.graph), 0


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
    # each parser is looked up per call, so a rebinding of this module's names is seen
    parsers = (parse_graph, parse_quiver, parse_diagram, parse_assignments, parse_choices)
    try:
        for option, parse in zip(("graph", "quiver", "diagram", "templates", "choices"), parsers):
            path = getattr(args, option, None)
            if path is not None:
                setattr(args, option, parse(_read(path)))
        value, code = args.fn(args)
        if getattr(args, "format", "json") == "dot":
            text = (graph_dot if isinstance(value, RibbonGraph) else export_dot)(value)
        else:
            text = serialize(value)
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return code
    except (ValueError, OSError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
