"""Fast self-check of the benchmark: each workload on a few items, through
the same code paths and the same correctness checks as a full run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import refspeed
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _det(a) -> Fraction:
    m = [[Fraction(x) for x in row] for row in a]
    n, det = len(m), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def quick_record(name, tmp_path, trace):
    return run.run(workloads.WORKLOADS[name], workloads.ACCEPTANCE_SEED, 0.0,
                   trace, tmp_path, quick=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_quick_run_is_correct(name, tmp_path):
    record = quick_record(name, tmp_path, trace=False)
    assert record["failures"] == []
    assert record["attempted"] == record["items_per_pass"] * record["passes"] > 0
    line = json.loads(run.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == set(run.END_TO_END)
    for metric in line["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_quick_run_reports_every_layer_metric(name, tmp_path):
    record = quick_record(name, tmp_path, trace=True)
    assert record["failures"] == []
    assert record["passes"] >= 1 and record["traced_passes"] >= 1
    line = json.loads(run.result_line(record))
    assert set(line["metrics"]) == set(run.PER_LAYER)
    metrics = record["metrics"]
    touches_polytope = name in ("graph-cli", "root-moments")
    assert (metrics["polytope.busy_frac"][0] > 0) == touches_polytope
    if touches_polytope:
        # each item builds its cell twice: the waste the issue counts
        assert metrics["polytope.voronoi_cell_calls_per_item"][0] == 2.0
        assert metrics["polytope.simplices"][0] > 0
    else:
        assert not any(s[tracing.NAME].startswith("polytope.") for s in record["spans"])
    if name == "graph-cli":
        assert metrics["metricgraph.tau_calls_per_item"][0] == 2.0
        assert metrics["metricgraph.graph_second_moment_calls_per_item"][0] == 2.0
    if name == "tau-resistance":
        assert metrics["metricgraph.busy_frac"][0] >= 0.9
    if name == "point-queries":
        assert metrics["lattice.validate_s"][0] > 0
        for layer in ("lattice", "troptheta", "heights", "neron"):
            assert metrics[f"{layer}.busy_frac"][0] > 0


def test_speed_probe_rescales_stretches_and_leaves_probes_out():
    probe = refspeed.SpeedProbe()
    # probes of 2, 2 and 1 ms: the host at half, then full reference speed
    probe.starts, probe.ends = [0.0, 0.102, 0.2], [0.002, 0.104, 0.201]
    probe.seconds = [0.002, 0.002, 0.001]
    ref = refspeed.REFERENCE_SECONDS
    assert probe.scale(0.002, 0.2) == pytest.approx(ref * (0.1 / 0.002 + 0.096 / 0.0015))
    assert probe.scale(0.01, 0.03) == pytest.approx(0.02 * ref / 0.002)
    with pytest.raises(ValueError):
        probe.scale(0.15, 0.25)  # no probe after the interval


def test_a_run_stops_its_probe_timer(tmp_path):
    handler = signal.getsignal(signal.SIGALRM)
    record = quick_record("tau-resistance", tmp_path, trace=False)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert record["probes"] >= 2


def test_tracer_rebinds_names_imported_with_from():
    sys.path.insert(0, str(run.SRC))
    api = run.import_program(uses_cli=True)
    originals = (api.cli.tau, api.metricgraph.second_moment,
                 api.polytope.relevant_vectors, api.troptheta.closest_vector)
    tracer = tracing.Tracer(count_cell=None)
    tracer.install()
    try:
        wrapped = (api.cli.tau, api.metricgraph.second_moment,
                   api.polytope.relevant_vectors, api.troptheta.closest_vector)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
        assert api.metricgraph.tau is api.cli.tau
    finally:
        tracer.uninstall()
    assert (api.cli.tau, api.metricgraph.second_moment,
            api.polytope.relevant_vectors, api.troptheta.closest_vector) == originals


def test_failed_items_are_counted_and_the_run_goes_on(tmp_path):
    def run_item(api, state, item):
        if item == "raises":
            raise ValueError("boom")
        return item

    fake = workloads.Workload(
        name="fake", why="", uses_cli=False,
        make_inputs=lambda seed, workdir, quick: (["ok", "wrong", "raises"], None),
        prepare=workloads._no_prepare,
        run=run_item,
        check=lambda item, result: None if result == "ok" else "wrong answer",
    )
    record = run.run(fake, 1, 0.0, False, tmp_path)
    assert record["attempted"] == 3
    assert record["failed"] == 2
    assert json.loads(run.result_line(record))["correct"] is False


def test_without_sources_it_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "tau-resistance", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_criterion02_family_matches_the_acceptance_generator():
    sys.path.insert(0, str(run.SRC))
    sys.path.insert(0, str(ROOT / "tests"))
    conftest = pytest.importorskip("conftest")
    rng = random.Random(workloads.ACCEPTANCE_SEED)
    expected = [conftest.random_connected_multigraph(rng, max_edges=6) for _ in range(200)]
    got = workloads.criterion02_graphs(workloads.ACCEPTANCE_SEED)
    assert [(g.vertex_count, [(e.tail, e.head, e.length) for e in g.edges])
            for g in expected] == got
    other = workloads.criterion02_graphs(1)
    assert [(n, [(t, h) for t, h, _ in e]) for n, e in other] == \
        [(n, [(t, h) for t, h, _ in e]) for n, e in got]
    assert [e for _, e in other] != [e for _, e in got]


def test_root_lattice_gold_values_agree_with_conway_sloane():
    # G = I / (n det^(1/n)); G(D4) = 0.0766032, G(D5) = 0.0757858
    for gram, moment, g_value in ((workloads.CARTAN_D4, Fraction(13, 30), 0.0766032),
                                  (workloads.CARTAN_D5, Fraction(1, 2), 0.0757858)):
        n = len(gram)
        det = float(_det(gram))
        assert abs(float(moment) / (n * det ** (1 / n)) - g_value) < 1e-7
    assert workloads.a_moment(2) == Fraction(5, 18)
    g = workloads.sheared(workloads.cartan_a(3), random.Random(3))
    assert _det(g) == _det(workloads.cartan_a(3)) == 4
    assert max(abs(x) for row in g for x in row) > 2


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
