"""The located-input helpers of the earlier parsers, verbatim, shared by
the parser oracles of `test_graph_load` and `test_quiver_load`: they
build JSON pointers and raise the located `ParseError` of a value of the
wrong type, a missing key or an unknown key."""

from ribboncalc import ParseError


def _ptr(*tokens) -> str:
    out = []
    for t in tokens:
        t = str(t).replace("~", "~0").replace("/", "~1")
        out.append(t)
    return "/" + "/".join(out) if out else ""


def _loc(where) -> str:
    """The pointer of a location ``(pointer, token, ...)``.  Locations stay
    tuples until an error is raised, so valid input builds no pointers."""
    return where[0] + _ptr(*where[1:])


def _want(obj, typ, where, what):
    if not isinstance(obj, typ):
        raise ParseError(_loc(where), "expected {}".format(what))
    return obj


def _want_keys(obj, where, required, optional=()):
    _want(obj, dict, where, "an object")
    for key in required:
        if key not in obj:
            raise ParseError(_loc(where), "missing key {!r}".format(key))
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(_loc(where + (key,)), "unknown key")
    return obj


def _want_str(obj, where):
    return _want(obj, str, where, "a string")
