"""Spans around the program's public functions, and the per-layer table.

The tracer rebinds each wrapped function in every ``tropmoment`` module
namespace that holds it, because ``cli``, ``metricgraph``, ``polytope`` and
``troptheta`` import names such as ``tau``, ``second_moment`` and
``relevant_vectors`` with ``from ... import``; rebinding only the defining
module would miss those calls.  Spans stay in memory as
``[name, start, end, parent, item]`` lists and are written out when the run
ends.  Nothing here runs inside the program's own code: a layer is seen
only where a caller crosses into it through a public function.
"""

from __future__ import annotations

import functools
import sys
import time

# Public functions wrapped per module.  The private ``_linalg`` runs only
# inside other layers and has no public boundary to wrap.
WRAPPED = {
    "cli": ("main",),
    "formats": ("load_json_file", "load_lattice", "load_graph", "load_places"),
    "lattice": ("validate", "relevant_vectors", "closest_vector", "closest_vectors_all"),
    "polytope": ("voronoi_cell", "second_moment", "volume"),
    "troptheta": ("trop_theta", "trop_theta_norm", "trop_theta_shifted",
                  "trop_theta_shifted0", "trop_theta_norm_shifted0",
                  "functional_equation_residual", "moment_by_quadrature"),
    "metricgraph": ("make_graph", "total_length", "effective_resistance", "tau",
                    "cycle_basis", "jacobian_gram", "graph_second_moment",
                    "moment_identity_residual"),
    "heights": ("height_identity_report",),
    "neron": ("tate_local_height", "tate_theta_log_abs"),
}
LAYERS = tuple(WRAPPED)
PACKAGE = "tropmoment"
ITEM = "bench.item"
SETUP = "setup"
# The span whose return value is kept until the item ends, for work counts.
CELL = "polytope.voronoi_cell"

NAME, START, END, PARENT, ITEM_ID = range(5)


class Tracer:
    def __init__(self, count_cell):
        """``count_cell(polytope)`` gives the (facets, vertices, simplices)
        of a Voronoi cell; it runs in ``after_item``, off the clock."""
        self.spans: list[list] = []
        self.cells: list[tuple[int, int, int]] = []  # each item's first cell
        self._count_cell = count_cell
        self._kept: list = []
        self._stack: list[int] = []
        self._item: object = None
        self._bindings: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._item]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func):
        keep = name == CELL

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if keep:
                self._kept.append(result)
            return result

        return wrapper

    def item(self, item_id, call):
        """Run ``call()`` as one item; its spans carry ``item_id``."""
        self._item = item_id
        span = self._open(ITEM)
        try:
            return call()
        finally:
            self._close(span)
            self._item = None

    def after_item(self) -> None:
        """Count the item's first Voronoi cell and drop the kept results."""
        if self._kept:
            self.cells.append(self._count_cell(self._kept[0]))
        self._kept.clear()

    def setup(self, call):
        """Run ``call()`` with its spans marked as set-up work."""
        self._item = SETUP
        try:
            return call()
        finally:
            self._item = None

    # -- binding -------------------------------------------------------------

    def install(self) -> None:
        """Rebind every wrapped function in every namespace that holds it."""
        if self._bindings:
            return
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        originals = {}
        for layer, names in WRAPPED.items():
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:  # e.g. cli and formats in library workloads
                continue
            for fname in names:
                func = getattr(module, fname)
                originals[id(func)] = (func, self._wrap(f"{layer}.{fname}", func))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._bindings.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._bindings:
            setattr(module, attr, value)
        self._bindings.clear()


# ---------------------------------------------------------------------------
# the per-layer table


def _outermost(spans, names, only=None):
    """Spans named in ``names`` with no ancestor named in ``names``.

    ``only`` keeps spans whose item id passes the filter."""
    out = []
    for span in spans:
        if span[NAME] not in names or (only is not None and not only(span[ITEM_ID])):
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            out.append(span)
    return out


def _busy(spans):
    return sum(s[END] - s[START] for s in spans)


def _self_time(spans, names, only):
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return sum(s[END] - s[START] - child[i] for i, s in enumerate(spans)
               if s[NAME] in names and only(s[ITEM_ID]))


def layer_table(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per traced pass: ``{name: (value, unit)}``."""
    spans = tracer.spans
    in_pass = lambda item: item is not None and item != SETUP  # noqa: E731

    def outer(*names):
        return _outermost(spans, set(names), in_pass)

    def per_item(name):
        calls = outer(name)
        items = {s[ITEM_ID] for s in calls}
        return len(calls) / len(items) if items else 0.0

    cvp = ("lattice.closest_vector", "lattice.closest_vectors_all")
    theta = tuple(f"troptheta.{n}" for n in WRAPPED["troptheta"]
                  if n != "moment_by_quadrature")
    tate = ("neron.tate_local_height", "neron.tate_theta_log_abs")
    totals = {
        "cli.self_s": (_self_time(spans, {"cli.main"}, in_pass), "s"),
        "formats.load_s": (_busy(outer(*(f"formats.{n}" for n in WRAPPED["formats"]))), "s"),
        "lattice.relevant_vectors_s": (_busy(outer("lattice.relevant_vectors")), "s"),
        "lattice.relevant_vectors_calls": (len(outer("lattice.relevant_vectors")), "count"),
        "lattice.cvp_s": (_busy(outer(*cvp)), "s"),
        "lattice.cvp_calls": (len(outer(*cvp)), "count"),
        "polytope.voronoi_cell_s": (_busy(outer(CELL)), "s"),
        "polytope.second_moment_self_s": (
            _self_time(spans, {"polytope.second_moment"}, in_pass), "s"),
        "polytope.volume_s": (_busy(outer("polytope.volume")), "s"),
        "polytope.facets": (sum(c[0] for c in tracer.cells), "count"),
        "polytope.vertices": (sum(c[1] for c in tracer.cells), "count"),
        "polytope.simplices": (sum(c[2] for c in tracer.cells), "count"),
        "troptheta.theta_s": (_busy(outer(*theta)), "s"),
        "troptheta.theta_calls": (len(outer(*theta)), "count"),
        "troptheta.quadrature_s": (_busy(outer("troptheta.moment_by_quadrature")), "s"),
        "metricgraph.tau_s": (_busy(outer("metricgraph.tau")), "s"),
        "metricgraph.effective_resistance_s": (
            _busy(outer("metricgraph.effective_resistance")), "s"),
        "metricgraph.jacobian_gram_s": (_busy(outer("metricgraph.jacobian_gram")), "s"),
        "heights.report_s": (_busy(outer("heights.height_identity_report")), "s"),
        "heights.report_calls": (len(outer("heights.height_identity_report")), "count"),
        "neron.tate_s": (_busy(outer(*tate)), "s"),
        "neron.tate_calls": (len(outer(*tate)), "count"),
    }
    table = {name: (value / passes, unit) for name, (value, unit) in totals.items()}

    # set-up work happens once per run, so it is not divided by passes
    validate = _outermost(spans, {"lattice.validate"}, lambda item: True)
    table["lattice.validate_s"] = (
        _busy(s for s in validate if s[ITEM_ID] == SETUP)
        + _busy(s for s in validate if s[ITEM_ID] != SETUP) / passes, "s")

    for name in (CELL, "metricgraph.tau",
                 "metricgraph.graph_second_moment"):
        table[f"{name}_calls_per_item"] = (per_item(name), "count")

    busy_all = _busy(outer(ITEM))
    for layer in LAYERS:
        busy = _busy(outer(*(f"{layer}.{n}" for n in WRAPPED[layer])))
        table[f"{layer}.busy_frac"] = (busy / busy_all if busy_all else 0.0, "frac")
    return dict(sorted(table.items()))
