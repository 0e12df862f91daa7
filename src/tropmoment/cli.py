"""Batch command line front-end.

Subcommands: moment, voronoi, theta, graph, elliptic-height, ffheight,
neron, selftest.  Inputs are JSON files against the schemas documented in
docs/formats.md; reports go to stdout as JSON (default) or flattened CSV.
Exit status 0 on success, 2 on any validation failure, in which case a
machine-readable error object naming the module and offending field path
is printed instead.  Output is byte-identical for identical inputs,
options and seeds, whatever the environment.

The argument parser is built on the first call of ``main`` and is the only
object kept for the life of the process; each command parses into a fresh
namespace.  What a command derives (a lattice's Voronoi cell, a cell's
triangulation, a graph's Jacobian and tau) is kept on the object it
derives from, so it is built once per command and freed with that object
when the command returns.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from fractions import Fraction

from . import formats, heights, neron, selftest
from .formats import DomainError, FormatError, parse_rational
from .lattice import LatticeError
from .metricgraph import (
    DisconnectedGraphError,
    RankZeroError,
    graph_second_moment,
    jacobian_gram,
    moment_identity_residual,
    tau,
    total_length,
)
from .polytope import VertexBudgetError, second_moment, volume, voronoi_cell
from .troptheta import (
    QuadratureGridError,
    moment_by_quadrature,
    trop_theta,
    trop_theta_norm,
    trop_theta_norm_shifted0,
    trop_theta_shifted0,
)

__all__ = ["main"]

_DOMAIN_EXCEPTIONS = (
    LatticeError,
    DisconnectedGraphError,
    RankZeroError,
    heights.NonPositiveImaginaryPartError,
    heights.NegativeOrderError,
    neron.AtDivisorError,
    neron.BadModulusError,
    neron.OutOfRangeError,
)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _flatten(value, prefix, rows):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(value[k], f"{prefix}.{k}" if prefix else k, rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, value))


def _render(payload: dict, fmt: str) -> str:
    """The report as one string.  A number past Python's 4300-digit limit
    on int-to-string conversion raises ValueError here, before anything
    is written."""
    payload = _jsonable(payload)
    if fmt == "csv":
        rows: list[tuple[str, object]] = []
        _flatten(payload, "", rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in rows:
            writer.writerow([key, json.dumps(value) if value is None else value])
        return buf.getvalue()
    return json.dumps(payload, sort_keys=True) + "\n"


def _parse_point(text: str, module: str, path: str):
    return tuple(
        parse_rational(part.strip(), module, f"{path}[{i}]")
        for i, part in enumerate(text.split(","))
    )


def _cmd_moment(args) -> dict:
    lat = formats.load_lattice(formats.load_json_file(args.lattice, "lattice"))
    cell = voronoi_cell(lat)
    out = {
        "I": second_moment(lat),
        "facets": len(cell.halfspaces),
        "vertices": cell.vertex_count,
        "volume_coord": volume(cell),
    }
    if args.grid is not None:
        try:
            out["I_quadrature"] = moment_by_quadrature(lat, args.grid)
        except QuadratureGridError as exc:
            raise DomainError("troptheta", "--grid", str(exc)) from None
    return out


def _cmd_voronoi(args) -> dict:
    lat = formats.load_lattice(formats.load_json_file(args.lattice, "lattice"))
    cell = voronoi_cell(lat)
    return {
        "rank": lat.rank,
        "facets": [
            {"normal": list(hs.normal), "offset": hs.offset}
            for hs in cell.halfspaces
        ],
        "vertices": [list(v) for v in cell.vertices],
    }


def _cmd_theta(args) -> dict:
    lat = formats.load_lattice(formats.load_json_file(args.lattice, "lattice"))
    point = _parse_point(args.point, "troptheta", "--point")
    out: dict = {"point": list(point)}
    if args.kappa is not None:
        kappa = _parse_point(args.kappa, "troptheta", "--kappa")
        out["kappa"] = list(kappa)
        if args.normalized:
            out["mode"] = "norm_shifted0"
            out["value"] = trop_theta_norm_shifted0(lat, kappa, point)
        else:
            out["mode"] = "shifted0"
            out["value"] = trop_theta_shifted0(lat, kappa, point)
    elif args.normalized:
        out["mode"] = "norm"
        out["value"] = trop_theta_norm(lat, point)
    else:
        out["mode"] = "plain"
        out["value"] = trop_theta(lat, point)
    return out


def _cmd_graph(args) -> dict:
    graph = formats.load_graph(formats.load_json_file(args.input, "metricgraph"))
    betti = len(graph.edges) - graph.vertex_count + 1  # graphs are connected
    out = {
        "total_length": total_length(graph),
        "tau": tau(graph),
        "betti": betti,
        "I": graph_second_moment(graph),
        "remarkable_residual": moment_identity_residual(graph),
    }
    if betti > 0:
        out["gram"] = [list(row) for row in jacobian_gram(graph).gram]
    else:
        out["gram"] = []
    return out


def _cmd_elliptic_height(args) -> dict:
    places = formats.load_places(formats.load_json_file(args.input, "heights"))
    try:
        report = heights.height_identity_report(places)
    except heights.FloatRangeError as exc:
        path = "arch" if exc.index is None else f"arch[{exc.index}].tau_im"
        raise DomainError("heights", path, str(exc)) from None
    return {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "residual": report.residual,
        "terms": report.terms,
    }


def _cmd_ffheight(args) -> dict:
    h_nt = parse_rational(args.hnt, "heights", "--hnt")
    # a list, as _flatten walks only lists
    moments = list(_parse_point(args.moments, "heights", "--moments")) if args.moments else []
    try:
        value = heights.function_field_height(args.g, h_nt, moments)
    except ValueError as exc:  # g < 1
        raise DomainError("heights", "--g", str(exc)) from None
    return {"g": args.g, "h_nt_theta": h_nt, "moments": moments, "h": value}


def _cmd_neron(args) -> dict:
    tropical = args.ell is not None or args.nu is not None
    archimedean = any(
        v is not None for v in (args.q_re, args.q_im, args.z_re, args.z_im)
    )
    if tropical == archimedean:
        raise formats.SchemaError(
            "neron", "arguments",
            "give either --ell/--nu (tropical) or --q-re/--q-im/--z-re/--z-im",
        )
    if tropical:
        if args.ell is None or args.nu is None:
            raise formats.SchemaError("neron", "arguments",
                                      "tropical mode needs both --ell and --nu")
        ell = parse_rational(args.ell, "neron", "--ell")
        nu = parse_rational(args.nu, "neron", "--nu")
        value = neron.tate_local_height_tropical(ell, nu)
        out = {"mode": "tropical", "ell": ell, "nu": nu, "value": value}
        if ell.denominator == 1 and nu.denominator == 1 and nu < ell:
            out["component"] = int(nu)
            out["component_multiplicity"] = neron.component_multiplicity(int(nu), int(ell))
        return out
    floats = (("--q-re", args.q_re), ("--q-im", args.q_im),
              ("--z-re", args.z_re), ("--z-im", args.z_im))
    missing = [name for name, v in floats if v is None]
    if missing:
        raise formats.SchemaError("neron", ",".join(missing),
                                  "archimedean mode needs all of q and z")
    q_re, q_im, z_re, z_im = (formats._expect_number(v, "neron", name) for name, v in floats)
    q = complex(q_re, q_im)
    z = complex(z_re, z_im)
    try:
        lam, b2_term = neron._evaluate(q, z)
    except neron.BadModulusError as exc:
        raise DomainError("neron", "--q-re,--q-im", str(exc)) from None
    except (neron.AtDivisorError, neron.OutOfRangeError) as exc:
        raise DomainError("neron", "--z-re,--z-im", str(exc)) from None
    return {
        "mode": "archimedean",
        "value": lam.value,
        "log_abs_theta": b2_term - lam.value,
        "theta_tail_bound": lam.tail_bound,
    }


def _cmd_selftest(args) -> tuple[dict, int]:
    for option in ("triples", "lattices", "graphs", "heights", "tate"):
        if getattr(args, option) < 0:
            raise DomainError("cli", f"--{option}", "must be >= 0")
    results = selftest.run_selftest(
        seed=args.seed,
        theta_count=args.triples,
        graph_count=args.graphs,
        lattice_count=args.lattices,
        height_count=args.heights,
        tate_count=args.tate,
    )
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        print(f"{status} {r.name}: {r.detail}", file=sys.stderr)
    payload = {
        "seed": args.seed,
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
        "passed": all(r.ok for r in results),
    }
    return payload, 0 if payload["passed"] else 1


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a SchemaError naming the
    option, so it reaches stdout as an error object like every other
    validation failure.  ``--help`` still prints usage and exits 0."""

    def error(self, message):
        named = re.match(r"argument (\S+): (.*)", message, re.DOTALL)
        if named:
            raise formats.SchemaError("cli", named[1], named[2])
        missing = re.match(r"the following arguments are required: (.*)", message)
        if missing:
            raise formats.SchemaError("cli", missing[1].replace(" ", ""), "required")
        raise formats.SchemaError("cli", "arguments", message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tropmoment",
        description="Exact tropical second moments, metric-graph invariants, "
                    "and elliptic height identities.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moment", help="second moment of a Gram lattice")
    p.add_argument("--lattice", required=True)
    p.add_argument("--grid", type=int,
                   help="also report the midpoint-quadrature cross-check")

    p = sub.add_parser("voronoi", help="H- and V-representation of the cell")
    p.add_argument("--lattice", required=True)

    p = sub.add_parser("theta", help="tropical theta values at a point")
    p.add_argument("--lattice", required=True)
    p.add_argument("--point", required=True, help='e.g. "1/3,1/7"')
    p.add_argument("--kappa", help="optional shift vector")
    p.add_argument("--normalized", action="store_true",
                   help="norm-modified (periodic) variant")

    p = sub.add_parser("graph", help="metric graph invariants")
    p.add_argument("--input", required=True)

    p = sub.add_parser("elliptic-height", help="height identity report")
    p.add_argument("--input", required=True)

    p = sub.add_parser("ffheight", help="function-field height")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--hnt", required=True, help="canonical height, p/q")
    p.add_argument("--moments", default="", help="comma-separated p/q list")

    p = sub.add_parser("neron", help="Tate curve local height")
    p.add_argument("--ell")
    p.add_argument("--nu")
    p.add_argument("--q-re", type=float, dest="q_re")
    p.add_argument("--q-im", type=float, dest="q_im")
    p.add_argument("--z-re", type=float, dest="z_re")
    p.add_argument("--z-im", type=float, dest="z_im")

    p = sub.add_parser("selftest", help="seeded cross-module invariant suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--triples", type=int, default=60)
    p.add_argument("--lattices", type=int, default=20)
    p.add_argument("--graphs", type=int, default=20)
    p.add_argument("--heights", type=int, default=20)
    p.add_argument("--tate", type=int, default=30)
    return parser


_COMMANDS = {
    "moment": ("polytope", _cmd_moment),
    "voronoi": ("polytope", _cmd_voronoi),
    "theta": ("troptheta", _cmd_theta),
    "graph": ("metricgraph", _cmd_graph),
    "elliptic-height": ("heights", _cmd_elliptic_height),
    "ffheight": ("heights", _cmd_ffheight),
    "neron": ("neron", _cmd_neron),
}


def main(argv=None) -> int:
    # parsed into a namespace made here, so that the error report of a
    # malformed command line still honours a --format read before it
    args = argparse.Namespace()
    try:
        _build_parser().parse_args(argv, args)
        if args.command == "selftest":
            payload, status = _cmd_selftest(args)
            sys.stdout.write(_render(payload, args.format))
            return status
        module, handler = _COMMANDS[args.command]
        try:
            payload = handler(args)
        except _DOMAIN_EXCEPTIONS as exc:
            raise DomainError(module, "input", str(exc)) from None
        except VertexBudgetError as exc:
            path = "--lattice" if hasattr(args, "lattice") else "--input"
            raise DomainError("polytope", path, str(exc)) from None
        try:
            text = _render(payload, args.format)
        except ValueError:
            raise DomainError(module, "output", "result has too many digits to write") from None
    except FormatError as exc:
        sys.stdout.write(_render(
            {
                "error": {
                    "type": type(exc).__name__,
                    "module": exc.module,
                    "path": exc.path,
                    "message": exc.message,
                }
            },
            args.format,
        ))
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
