"""JSON ingestion with path-carrying validation errors.

Every loader reports failures through :class:`ParseError` (a value that
cannot be read, e.g. a malformed rational), :class:`SchemaError` (wrong
structure), or :class:`DomainError` (structurally fine input rejected by
a domain invariant, e.g. a non positive definite Gram matrix).  Each
error carries the owning module name and the JSON path of the offending
field; ``_field`` forms every field's path.  Schemas are documented in
docs/formats.md.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .heights import EllipticPlaces, FloatRangeError, NonArchPlace
from .lattice import GramLattice, LatticeError, validate
from .metricgraph import DisconnectedGraphError, Edge, MetricGraph

__all__ = [
    "FormatError",
    "ParseError",
    "SchemaError",
    "DomainError",
    "parse_rational",
    "load_json_file",
    "load_lattice",
    "load_graph",
    "load_places",
]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class FormatError(Exception):
    def __init__(self, module: str, path: str, message: str):
        super().__init__(f"{module}: {path}: {message}")
        self.module = module
        self.path = path
        self.message = message


class ParseError(FormatError):
    pass


class SchemaError(FormatError):
    pass


class DomainError(FormatError):
    pass


def parse_rational(value, module: str, path: str) -> Fraction:
    """Exact rational from an int or a ``p/q`` string; floats rejected."""
    if isinstance(value, bool):
        raise ParseError(module, path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise ParseError(module, path, f"malformed rational {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ParseError(module, path, "zero denominator") from None
        except ValueError:  # past the digit limit of int(str)
            raise ParseError(module, path, "too many digits") from None
    raise ParseError(
        module, path, f"expected int or 'p/q' string, got {type(value).__name__}"
    )


def _expect_int(value, module: str, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(module, path, f"expected an integer, got {value!r}")
    return value


def _expect_number(value, module: str, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(module, path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(module, path, "expected a finite number")
    return number


def _field(obj: dict, key: str, module: str, path: str, read=None):
    """``obj[key]``, read by ``read(value, module, field path)`` if given; the
    only code that forms a field's error path."""
    if not isinstance(obj, dict):
        raise SchemaError(module, path, "expected an object")
    field = f"{path}.{key}" if path else key
    if key not in obj:
        raise SchemaError(module, field, "missing field")
    return obj[key] if read is None else read(obj[key], module, field)


def load_json_file(path, module: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(module, str(path), f"cannot read file: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, an int past the digit limit,
        # or nesting past the recursion limit
        raise ParseError(module, str(path), f"invalid JSON: {exc}") from None


def load_lattice(obj) -> GramLattice:
    """{"rank": g, "gram": [["p/q", ...], ...]}"""
    module = "lattice"
    rank = _field(obj, "rank", module, "", _expect_int)
    gram_obj = _field(obj, "gram", module, "")
    if not isinstance(gram_obj, list) or len(gram_obj) != rank:
        raise SchemaError(module, "gram", f"expected {rank} rows")
    rows = []
    for i, row in enumerate(gram_obj):
        if not isinstance(row, list) or len(row) != rank:
            raise SchemaError(module, f"gram[{i}]", f"expected {rank} entries")
        rows.append(
            [parse_rational(x, module, f"gram[{i}][{j}]") for j, x in enumerate(row)]
        )
    try:
        return validate(rows)
    except LatticeError as exc:
        raise DomainError(module, "gram", str(exc)) from None


def load_graph(obj) -> MetricGraph:
    """{"vertices": n, "edges": [{"tail": i, "head": j, "length": "p/q"}, ...]}"""
    module = "metricgraph"
    n = _field(obj, "vertices", module, "", _expect_int)
    edges_obj = _field(obj, "edges", module, "")
    if not isinstance(edges_obj, list):
        raise SchemaError(module, "edges", "expected a list")
    edges = []
    for i, e in enumerate(edges_obj):
        tail = _field(e, "tail", module, f"edges[{i}]", _expect_int)
        head = _field(e, "head", module, f"edges[{i}]", _expect_int)
        length = _field(e, "length", module, f"edges[{i}]", parse_rational)
        try:
            edges.append(Edge(tail, head, length))
        except ValueError as exc:
            raise DomainError(module, f"edges[{i}]", str(exc)) from None
    try:
        return MetricGraph(vertex_count=n, edges=tuple(edges))
    except (DisconnectedGraphError, ValueError) as exc:
        raise DomainError(module, "edges", str(exc)) from None


def load_places(obj) -> EllipticPlaces:
    """{"degree": d, "nonarch": [{"ord_delta": n, "log_nv": x}, ...],
        "arch": [{"tau_re": a, "tau_im": b}, ...]}"""
    module = "heights"
    degree = _field(obj, "degree", module, "", _expect_int)
    nonarch_obj = _field(obj, "nonarch", module, "")
    arch_obj = _field(obj, "arch", module, "")
    if not isinstance(nonarch_obj, list):
        raise SchemaError(module, "nonarch", "expected a list")
    if not isinstance(arch_obj, list):
        raise SchemaError(module, "arch", "expected a list")
    nonarch = []
    for i, entry in enumerate(nonarch_obj):
        ord_delta = _field(entry, "ord_delta", module, f"nonarch[{i}]", _expect_int)
        log_nv = _field(entry, "log_nv", module, f"nonarch[{i}]", _expect_number)
        try:
            nonarch.append(NonArchPlace(ord_delta=ord_delta, log_nv=log_nv))
        except ValueError as exc:
            raise DomainError(module, f"nonarch[{i}]", str(exc)) from None
    arch = []
    for i, entry in enumerate(arch_obj):
        re_part = _field(entry, "tau_re", module, f"arch[{i}]", _expect_number)
        im_part = _field(entry, "tau_im", module, f"arch[{i}]", _expect_number)
        if not im_part > 0:
            raise DomainError(module, f"arch[{i}].tau_im",
                              "period must lie in the upper half plane")
        arch.append(complex(re_part, im_part))
    try:
        return EllipticPlaces(degree=degree, nonarch=tuple(nonarch), arch=tuple(arch))
    except FloatRangeError as exc:  # the nonarch terms overflow in sum
        raise DomainError(module, "nonarch", str(exc)) from None
    except ValueError as exc:
        raise DomainError(module, "arch", str(exc)) from None
