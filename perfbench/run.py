"""Benchmark of the tropmoment package: one workload per run.

    python3 perfbench/run.py --workload graph-cli --seed 20260810 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout the script sits in;
nothing needs installing.  A run makes its inputs from ``--seed``, sets the
program up several times (the median is ``setup_s``), then runs whole
passes over the workload's fixed input set, one item at a time in one
thread, while the next pass is expected to end within ``--seconds``; the
first pass always runs.  Every time is rescaled to a reference speed of
the host (see ``refspeed.py``); an item's latency is the median of its
rescaled times over the passes, and ``batch_s`` is their sum.  Every
item's output is checked; a failed item is counted and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, which come
from spans around the package's public functions (see ``tracing.py``).
The report goes to standard output, one metric a line with its unit, and
its last line is a JSON object; the full record, and with ``--trace 1``
the spans, are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from math import ceil
from pathlib import Path
from types import SimpleNamespace

import refspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
PACKAGE = tracing.PACKAGE
# Set-ups per run: most before the first item, the rest after the last pass,
# so that the median spans the run rather than one phase of the host.
SETUP_BEFORE = 8
SETUP_AFTER = 7

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "item_ms.p50": "ms",
    "item_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
# Per-layer metrics carried on the last line of a traced run: work counts,
# the share of item time each layer is busy, and the tracing overhead.
# The per-layer times are printed in the report and kept in the record.
PER_LAYER = (
    [f"{layer}.busy_frac" for layer in tracing.LAYERS]
    + ["lattice.relevant_vectors_calls", "lattice.cvp_calls",
       "polytope.voronoi_cell_calls_per_item", "polytope.facets",
       "polytope.vertices", "polytope.simplices", "troptheta.theta_calls",
       "metricgraph.tau_calls_per_item",
       "metricgraph.graph_second_moment_calls_per_item",
       "heights.report_calls", "neron.tate_calls", "trace.overhead_frac"]
)


class SetupError(RuntimeError):
    pass


def import_program(uses_cli: bool) -> SimpleNamespace:
    """Import the package afresh from ``src/`` and return its modules."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    package = importlib.import_module(PACKAGE)
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"{PACKAGE} was imported from {package.__file__}, not from {SRC}")
    if uses_cli:
        importlib.import_module(f"{PACKAGE}.cli")
    return SimpleNamespace(**{
        name: sys.modules[f"{PACKAGE}.{name}"]
        for name in tracing.LAYERS if f"{PACKAGE}.{name}" in sys.modules
    })


def set_up(workload, data):
    """Import and prepare the program once: ((start, end), api, state)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    gc.collect()  # the previous import's modules are garbage by now
    t0 = time.perf_counter()
    api = import_program(workload.uses_cli)
    state = workload.prepare(api, data)
    return (t0, time.perf_counter()), api, state


def _label(item, index):
    return getattr(item, "label", f"item{index}")


def run_pass(workload, api, state, items, tracer=None, first_id=0):
    """One pass over ``items``: per-item (start, end) times and failures."""
    times, failures = [], []
    for k, item in enumerate(items):
        def call(item=item):
            return workload.run(api, state, item)
        t0 = time.perf_counter()
        try:
            result = call() if tracer is None else tracer.item(first_id + k, call)
            error = None
        except Exception as exc:  # an item that raises is a failed item
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.after_item()
        if error is None:
            try:
                error = workload.check(item, result)
            except Exception as exc:  # a malformed result is a failed item
                error = f"check raised {type(exc).__name__}: {exc}"
        times.append((t0, t1))
        if error is not None:
            failures.append((_label(item, k), error))
    return times, failures


def measure(workload, api, state, items, seconds, tracer=None):
    """Whole passes while the next one is expected to end in time.

    Without a tracer every pass is untraced.  With one, passes alternate
    untraced and traced, starting untraced, and at least one of each runs.
    Returns ``{False: [...], True: [...]}`` lists of (times, failures) per
    pass, keyed by whether the pass was traced.
    """
    passes = {False: [], True: []}
    walls = []
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        t0 = time.perf_counter()
        if traced:
            tracer.install()
        try:
            result = run_pass(workload, api, state, items,
                              tracer if traced else None,
                              first_id=len(passes[True]) * len(items))
        finally:
            if traced:
                tracer.uninstall()
        passes[traced].append(result)
        walls.append(time.perf_counter() - t0)
        if tracer is not None:
            traced = not traced
        done = tracer is None or (passes[False] and passes[True])
        if done and time.perf_counter() + statistics.median(walls) > deadline:
            return passes


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, ceil(p * len(sorted_values)) - 1)]


def item_times(passes, seconds):
    """Each item's median time over the passes; ``seconds(start, end)``
    turns an interval into a time."""
    return [statistics.median(seconds(*span) for span in samples)
            for samples in zip(*(times for times, _ in passes))]


def end_to_end(passes, setups, probe):
    per_item = item_times(passes, probe.scale)
    ranked = sorted(per_item)
    return {
        "setup_s": (statistics.median(probe.scale(*span) for span in setups), "s"),
        "batch_s": (sum(per_item), "s"),
        "item_ms.p50": (1e3 * nearest_rank(ranked, 0.5), "ms"),
        "item_ms.p90": (1e3 * nearest_rank(ranked, 0.9), "ms"),
        "item_ms.max": (1e3 * ranked[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def count_cell(api):
    def count(poly):
        return (len(poly.halfspaces), len(poly.vertices),
                len(api.polytope.star_triangulation(poly)))
    return count


def measure_all(workload, items, data, seconds, trace):
    """Set-ups before and after the passes: (set-up spans, passes, tracer)."""
    setups = []
    for _ in range(SETUP_BEFORE):
        span, api, state = set_up(workload, data)
        setups.append(span)
    tracer = None
    if trace:
        tracer = tracing.Tracer(count_cell(api))
        tracer.install()
        try:
            state = tracer.setup(lambda: workload.prepare(api, data))
        finally:
            tracer.uninstall()
    gc.collect()
    passes = measure(workload, api, state, items, seconds, tracer)
    setups += [set_up(workload, data)[0] for _ in range(SETUP_AFTER)]
    return setups, passes, tracer


def run(workload, seed, seconds, trace, workdir, quick=False):
    """Run one workload; returns the record that the report is made from."""
    items, data = workload.make_inputs(seed, workdir, quick)
    probe = refspeed.SpeedProbe()
    probe.start()
    try:
        setups, passes, tracer = measure_all(workload, items, data, seconds, trace)
    finally:
        probe.stop()
    all_passes = passes[False] + passes[True]
    failures = [f for _, fails in all_passes for f in fails]
    attempted = len(items) * len(all_passes)
    metrics = end_to_end(passes[False], setups, probe)
    if tracer is not None:
        metrics.update(tracing.layer_table(tracer, len(passes[True])))
        untraced = sum(item_times(passes[False], probe.scale))
        traced = sum(item_times(passes[True], probe.scale))
        metrics["trace.overhead_frac"] = (traced / untraced - 1, "frac")
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "items_per_pass": len(items),
        "passes": len(passes[False]),
        "traced_passes": len(passes[True]),
        "samples": sum(len(t) for t, _ in passes[False]),
        "reference_s": refspeed.REFERENCE_SECONDS,
        "probes": len(probe.seconds),
        "probe_s": {"min": min(probe.seconds),
                    "median": statistics.median(probe.seconds),
                    "max": max(probe.seconds)},
        "setup_samples_s": [probe.scale(*span) for span in setups],
        "setup_samples_raw_s": [end - start for start, end in setups],
        "pass_raw_s": [sum(end - start for start, end in t) for t, _ in passes[False]],
        "batch_raw_s": sum(item_times(passes[False], lambda start, end: end - start)),
        "item_ms": {_label(item, k): 1e3 * t for k, (item, t) in
                    enumerate(zip(items, item_times(passes[False], probe.scale)))},
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:50],
        "metrics": metrics,
        "spans": tracer.spans if tracer is not None else None,
    }


def report(record) -> list[str]:
    lines = [
        f"workload {record['workload']}: {record['why']}",
        f"seed {record['seed']}  python {record['python']}  nproc {record['nproc']}  "
        f"items/pass {record['items_per_pass']}  passes {record['passes']} untraced"
        + (f", {record['traced_passes']} traced" if record["trace"] else "")
        + f"  item samples {record['samples']}",
        f"times at reference speed: reference loop {record['reference_s']:.6g} s, "
        f"measured {record['probe_s']['median']:.6g} s (median of {record['probes']} "
        f"probes); unscaled batch {record['batch_raw_s']:.6g} s",
    ]
    for name, (value, unit) in record["metrics"].items():
        lines.append(f"{name:<48} {value:.6g} {unit}")
    lines.append(f"{'failed_frac':<48} {record['failed_frac']:.6g} "
                 f"({record['failed']} of {record['attempted']} items)")
    for label, error in record["failures"]:
        lines.append(f"FAILED {label}: {error}")
    return lines


def result_line(record) -> str:
    names = PER_LAYER if record["trace"] else END_TO_END
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name][0],
                           "unit": record["metrics"][name][1]} for name in names},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        record = run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (ImportError, SetupError) as exc:
        print(f"error: cannot set up {PACKAGE}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = OUT / f"{workload.name}-{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans))
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(report(record)))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
