import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import tropmoment
from conftest import count_calls
from tropmoment import metricgraph, neron, polytope
from tropmoment.cli import main
from tropmoment.selftest import run_selftest

F_ID2 = {"rank": 2, "gram": [[1, 0], [0, 1]]}
F_A2 = {"rank": 2, "gram": [[2, 1], [1, 2]]}
F_CIRCLE12 = {"vertices": 1, "edges": [{"tail": 0, "head": 0, "length": 12}]}
F_THETA = {"vertices": 2, "edges": [{"tail": 0, "head": 1, "length": n} for n in (1, 2, 3)]}
F_LOOPS_BRIDGE = {"vertices": 2, "edges": [{"tail": t, "head": h, "length": n}
                                           for t, h, n in ((0, 0, 3), (1, 1, "5/4"), (0, 1, 2))]}
F_PLACES = {"degree": 1, "nonarch": [{"ord_delta": 1, "log_nv": 1.0}],
            "arch": [{"tau_re": 0.1, "tau_im": 1.2}]}
NERON_ARCH = ("neron", "--q-re", "0.1", "--q-im", "0", "--z-re", "0.5", "--z-im", "0.1")
# past Python's 4300-digit limit on int(str)
HUGE = "1" * 5000


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_moment_identity2(tmp_path, capsys):
    path = write(tmp_path, "id2.json", F_ID2)
    code, out = run_cli(capsys, "moment", "--lattice", path)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"I": "1/6", "facets": 4, "vertices": 4, "volume_coord": "1"}


def test_moment_a2(tmp_path, capsys):
    path = write(tmp_path, "a2.json", F_A2)
    code, out = run_cli(capsys, "moment", "--lattice", path)
    assert code == 0
    assert json.loads(out)["I"] == "5/18"


def test_moment_quadrature_cross_check(tmp_path, capsys):
    path = write(tmp_path, "a2.json", F_A2)
    code, out = run_cli(capsys, "moment", "--lattice", path, "--grid", "48")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["I_quadrature"] - 5 / 18) < 5e-3
    code, out = run_cli(capsys, "moment", "--lattice", path, "--grid", "1")
    assert code == 2
    assert json.loads(out)["error"]["path"] == "--grid"


def test_moment_grid_over_budget_fails_fast(tmp_path, capsys):
    # A3 has 96 quadrature candidates: 200^3 x 96 evaluations is far over
    # the work budget, and the command must refuse before running them.
    path = write(tmp_path, "a3.json",
                 {"rank": 3, "gram": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]})
    start = time.perf_counter()
    code, out = run_cli(capsys, "moment", "--lattice", path, "--grid", "200")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError"
    assert error["path"] == "--grid"


def test_moment_over_vertex_budget_fails_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(polytope, "VERTEX_BUDGET", 10)
    path = write(tmp_path, "a4.json", {"rank": 4, "gram": [
        [2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]})
    code, out = run_cli(capsys, "moment", "--lattice", path)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError"
    assert error["module"] == "polytope"
    assert error["path"] == "--lattice"
    assert "10" in error["message"]


def test_moment_on_a_rank_beyond_the_vertex_budget_fails_before_any_search(
        tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, polytope, "relevant_vectors")
    path = write(tmp_path, "z17.json", {"rank": 17, "gram": [
        [int(i == j) for j in range(17)] for i in range(17)]})
    code, out = run_cli(capsys, "moment", "--lattice", path)
    assert code == 2
    error = json.loads(out)["error"]
    assert (error["type"], error["module"], error["path"]) == ("DomainError", "polytope", "--lattice")
    assert "2^17 start corners" in error["message"]
    assert calls == []


def test_graph_circle12(tmp_path, capsys):
    path = write(tmp_path, "circle12.json", F_CIRCLE12)
    code, out = run_cli(capsys, "graph", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["I"] == "1"
    assert payload["tau"] == "1"
    assert payload["remarkable_residual"] == "0"
    assert payload["betti"] == 1
    assert payload["gram"] == [["12"]]
    assert payload["total_length"] == "12"


def test_graph_on_a_tree_has_an_empty_gram(tmp_path, capsys):
    path = write(tmp_path, "tree.json", {"vertices": 2, "edges": [{"tail": 0, "head": 1, "length": 3}]})
    code, out = run_cli(capsys, "graph", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert (payload["betti"], payload["gram"], payload["I"]) == (0, [], "0")


def test_moment_builds_and_triangulates_its_cell_once(tmp_path, capsys, monkeypatch):
    # the six facets of A_2 form one orbit: one sweep of one edge, in
    # dimension 1, and no sweep or half star of the whole hexagon
    dd = count_calls(monkeypatch, polytope, "_vertices_dd")
    cones = count_calls(monkeypatch, polytope, "_facet_cones")
    star = count_calls(monkeypatch, polytope, "_star_facet_simplices")
    path = write(tmp_path, "a2.json", F_A2)
    code, out = run_cli(capsys, "moment", "--lattice", path)
    assert code == 0
    payload = json.loads(out)
    assert (payload["volume_coord"], payload["facets"], payload["vertices"]) == ("1", 6, 6)
    assert [args[2] for args in dd] == [1]
    assert (len(cones), len(star)) == (1, 0)


def test_voronoi_builds_the_whole_cell_once(tmp_path, capsys, monkeypatch):
    dd = count_calls(monkeypatch, polytope, "_vertices_dd")
    cones = count_calls(monkeypatch, polytope, "_facet_cones")
    path = write(tmp_path, "a2.json", F_A2)
    code, out = run_cli(capsys, "voronoi", "--lattice", path)
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 6
    assert [args[2] for args in dd] == [2]
    assert cones == []


def test_graph_builds_one_cell_and_one_green_function(tmp_path, capsys, monkeypatch):
    dd = count_calls(monkeypatch, polytope, "_vertices_dd")
    green = count_calls(monkeypatch, metricgraph, "_green")
    path = write(tmp_path, "theta.json", F_THETA)
    code, out = run_cli(capsys, "graph", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert (payload["betti"], payload["I"], payload["remarkable_residual"]) == (2, "6/11", "0")
    assert (len(dd), len(green)) == (1, 1)


def test_graph_solves_once_per_block(tmp_path, capsys, monkeypatch):
    # two loops and the bridge between them: three blocks
    dd = count_calls(monkeypatch, polytope, "_vertices_dd")
    green = count_calls(monkeypatch, metricgraph, "_green")
    path = write(tmp_path, "loops_bridge.json", F_LOOPS_BRIDGE)
    code, out = run_cli(capsys, "graph", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert (payload["betti"], payload["tau"], payload["I"]) == (2, "41/48", "17/48")
    assert payload["remarkable_residual"] == "0"
    assert (len(dd), len(green)) == (1, 3)


def _run_alone(*argv) -> str:
    """stdout of one command in a fresh interpreter."""
    src = str(Path(tropmoment.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "tropmoment", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return done.stdout


def test_reused_parser_carries_nothing_between_commands(tmp_path, capsys):
    lattice = write(tmp_path, "a2.json", F_A2)
    graph = write(tmp_path, "theta.json", F_THETA)
    commands = [
        ("--format", "csv", "moment", "--grid", "x"),
        ("--format", "csv", "moment", "--lattice", lattice),
        ("moment", "--lattice", lattice),
        ("graph", "--input", graph),
    ]
    outputs = [run_cli(capsys, *argv)[1] for argv in commands]
    assert outputs == [_run_alone(*argv) for argv in commands]
    assert outputs[0].startswith("key,value\n")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: tropmoment" in capsys.readouterr().out


def test_theta_value(tmp_path, capsys):
    path = write(tmp_path, "a2.json", F_A2)
    code, out = run_cli(capsys, "theta", "--lattice", path, "--point", "1/3,1/7")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "plain"
    assert payload["value"] == "0"
    code, out = run_cli(
        capsys, "theta", "--lattice", path, "--point", "1/3,1/7", "--normalized"
    )
    # nu = (1/3, 1/7) lies in the central cell, so the value is half the
    # squared norm: (2/9 + 2/21 + 2/49) / 2 = 79/441
    assert json.loads(out)["value"] == "79/441"


def test_theta_shifted(tmp_path, capsys):
    path = write(tmp_path, "l12.json", {"rank": 1, "gram": [[12]]})
    code, out = run_cli(
        capsys,
        "theta", "--lattice", path,
        "--point", "1/4", "--kappa", "1/2", "--normalized",
    )
    assert code == 0
    # metric nu = 3 on [[12]]: 3 * (3 - 12) / 24 = -9/8
    assert json.loads(out)["value"] == "-9/8"
    # without --normalized: the plain theta at nu + kappa minus its value at kappa
    code, out = run_cli(capsys, "theta", "--lattice", path, "--point", "1/4", "--kappa", "1/2")
    assert code == 0
    payload = json.loads(out)
    plain = [json.loads(run_cli(capsys, "theta", "--lattice", path, "--point", p)[1])["value"]
             for p in ("3/4", "1/2")]
    assert payload["mode"] == "shifted0"
    assert F(payload["value"]) == F(plain[0]) - F(plain[1])


def test_voronoi_structure(tmp_path, capsys):
    path = write(tmp_path, "id2.json", F_ID2)
    code, out = run_cli(capsys, "voronoi", "--lattice", path)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["facets"]) == 4
    assert len(payload["vertices"]) == 4
    assert {"normal": [0, 1], "offset": "1/2"} in payload["facets"]
    # --format csv flattens the nested lists into indexed keys
    code, out = run_cli(capsys, "--format", "csv", "voronoi", "--lattice", path)
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    facet = payload["facets"][0]
    assert rows["facets[0].normal[0]"] == str(facet["normal"][0])
    assert rows["facets[0].offset"] == facet["offset"]
    assert rows["rank"] == "2"


def test_elliptic_height_runs(tmp_path, capsys):
    path = write(
        tmp_path,
        "places.json",
        {
            "degree": 1,
            "nonarch": [{"ord_delta": 4, "log_nv": 1.0986122886681098}],
            "arch": [{"tau_re": 0.5, "tau_im": 3.0}],
        },
    )
    code, out = run_cli(capsys, "elliptic-height", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["residual"]) < 1e-10
    assert payload["terms"]["nonarch"][0]["moment"] == "1/3"


def test_ffheight_quarter(capsys):
    code, out = run_cli(
        capsys, "ffheight", "--g", "1", "--hnt", "0", "--moments", "1/12,1/6"
    )
    assert code == 0
    assert json.loads(out)["h"] == "1/4"


def test_neron_tropical_with_component(capsys):
    code, out = run_cli(capsys, "neron", "--ell", "12", "--nu", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "-9/8"
    assert payload["component"] == 3
    assert payload["component_multiplicity"] == "-9/8"


def test_neron_tropical_fractional_no_component(capsys):
    code, out = run_cli(capsys, "neron", "--ell", "12", "--nu", "1/2")
    payload = json.loads(out)
    assert "component" not in payload
    assert payload["value"] == "-23/96"


def test_neron_archimedean(capsys):
    code, out = run_cli(
        capsys,
        "neron", "--q-re", "0.25", "--q-im", "0.0", "--z-re", "-1.0", "--z-im", "0.0",
    )
    assert code == 0
    payload = json.loads(out)
    ell = -math.log(0.25)
    expected = (ell / 2) * (1 / 6) - payload["log_abs_theta"]
    assert abs(payload["value"] - expected) < 1e-12


def test_neron_archimedean_sums_one_theta_series(capsys, monkeypatch):
    reductions = count_calls(monkeypatch, neron, "_reduce_period")
    products = count_calls(monkeypatch, neron, "_q_product")
    code, out = run_cli(capsys, *NERON_ARCH)
    assert code == 0
    assert (len(reductions), len(products)) == (1, 1)
    payload = json.loads(out)
    q, z = 0.1 + 0j, 0.5 + 0.1j
    assert payload["value"] == neron.tate_local_height(q, z)
    theta = neron.tate_theta_log_abs(q, z)
    assert (payload["log_abs_theta"], payload["theta_tail_bound"]) == (theta.value, theta.tail_bound)


def test_neron_mode_conflict(capsys):
    code, out = run_cli(capsys, "neron", "--ell", "3")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "SchemaError"
    code, out = run_cli(capsys, "neron", "--ell", "3", "--q-re", "0.5")
    assert code == 2


def test_invalid_json_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, "moment", "--lattice", str(path))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ParseError"
    assert err["module"] == "lattice"
    missing = str(tmp_path / "missing.json")
    assert_structured_error(*run_cli(capsys, "graph", "--input", missing),
                            "ParseError", "metricgraph", missing)


def test_oversized_rational_in_a_lattice_file_is_a_parse_error(tmp_path, capsys):
    path = write(tmp_path, "huge.json", {"rank": 2, "gram": [["2", "1"], ["1", HUGE]]})
    for command in ("moment", "voronoi"):
        code, out = run_cli(capsys, command, "--lattice", path)
        assert_structured_error(code, out, "ParseError", "lattice", "gram[1][1]")
        assert json.loads(out)["error"]["message"] == "too many digits"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_result_past_the_digit_limit_is_a_domain_error(tmp_path, capsys, fmt):
    # the point parses (3000 digits), but theta's value has about twice as many
    lattice = write(tmp_path, "z.json", {"rank": 1, "gram": [[2]]})
    code, out = run_cli(capsys, "--format", fmt, "theta", "--lattice", lattice,
                        "--point", "1" * 3000 + "/7")
    assert code == 2
    if fmt == "json":
        assert_structured_error(code, out, "DomainError", "troptheta", "output")
    else:
        assert out.splitlines() == [
            "key,value", "error.message,result has too many digits to write",
            "error.module,troptheta", "error.path,output", "error.type,DomainError"]


def test_schema_error_names_path(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"rank": 2, "gram": [[1, 0]]})
    code, out = run_cli(capsys, "moment", "--lattice", str(path))
    assert code == 2
    assert json.loads(out)["error"]["path"] == "gram"


def test_domain_error_names_module(tmp_path, capsys):
    path = write(tmp_path, "npd.json", {"rank": 2, "gram": [[1, 2], [2, 1]]})
    code, out = run_cli(capsys, "moment", "--lattice", str(path))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "DomainError"
    assert err["module"] == "lattice"
    assert "minor" in err["message"]


def test_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "a2.json", F_A2)
    _, first = run_cli(capsys, "moment", "--lattice", path)
    _, second = run_cli(capsys, "moment", "--lattice", path)
    assert first == second


def test_csv_format(tmp_path, capsys):
    path = write(tmp_path, "id2.json", F_ID2)
    code, out = run_cli(capsys, "--format", "csv", "moment", "--lattice", path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert "I,1/6" in lines


def test_selftest_quick(capsys):
    code, out = run_cli(
        capsys,
        "selftest", "--seed", "7",
        "--triples", "10", "--lattices", "4", "--graphs", "4",
        "--heights", "4", "--tate", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["seed"] == 7
    assert len(payload["checks"]) == 8


@pytest.mark.parametrize("option", ["--triples", "--lattices", "--graphs", "--heights", "--tate"])
def test_selftest_rejects_a_negative_count(capsys, option):
    code, out = run_cli(capsys, "selftest", option, "-1")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "DomainError", "module": "cli", "path": option, "message": "must be >= 0"}


def test_selftest_reports_foster_check():
    results = run_selftest(seed=3, theta_count=2, lattice_count=1,
                           graph_count=12, height_count=1, tate_count=1)
    foster = [r for r in results if r.name == "foster-theorem"]
    assert len(foster) == 1
    assert foster[0].ok, foster[0].detail
    assert foster[0].detail == "12 seeded graphs"


def assert_structured_error(code, out, error_type, module, path):
    assert code == 2
    err = json.loads(out)["error"]
    assert (err["type"], err["module"], err["path"]) == (error_type, module, path)


@pytest.mark.parametrize("argv, error_type, module, path", [
    # raised in the library and reported by the command's domain handler:
    # a point of the wrong length, and l = 0
    (("theta", "--lattice", "{rank1}", "--point", "1,2"), "DomainError", "troptheta", "input"),
    (("neron", "--ell", "0", "--nu", "0"), "DomainError", "neron", "input"),
    # the path names every missing option
    (NERON_ARCH[:3], "SchemaError", "neron", "--q-im,--z-re,--z-im"),
    (("ffheight", "--g", "0", "--hnt", "1"), "DomainError", "heights", "--g"),
    (("ffheight", "--g", "-2", "--hnt", "1"), "DomainError", "heights", "--g"),
    (NERON_ARCH[:5] + ("--z-re", "nan", "--z-im", "0.1"), "SchemaError", "neron", "--z-re"),
    (NERON_ARCH[:5] + ("--z-re", "inf", "--z-im", "0.1"), "SchemaError", "neron", "--z-re"),
    (NERON_ARCH[:7] + ("--z-im=-inf",), "SchemaError", "neron", "--z-im"),
    (("neron", "--q-re", "nan") + NERON_ARCH[3:], "SchemaError", "neron", "--q-re"),
    # caught by argparse itself
    (("ffheight", "--g", "x", "--hnt", "1"), "SchemaError", "cli", "--g"),
    # the series picks its own length: there is no --terms option
    (NERON_ARCH + ("--terms", "64"), "SchemaError", "cli", "arguments"),
    (("moment", "--lattice", "{lattice}", "--grid", "abc"), "SchemaError", "cli", "--grid"),
    (NERON_ARCH[:7] + ("--z-im", "-inf"), "SchemaError", "cli", "--z-im"),
    (("moment",), "SchemaError", "cli", "--lattice"),
    (("moment", "--lattice", "{lattice}", "--grid"), "SchemaError", "cli", "--grid"),
    (("--format", "xml", "moment", "--lattice", "{lattice}"), "SchemaError", "cli", "--format"),
    (("moment", "--lattice", "{lattice}", "--bogus"), "SchemaError", "cli", "arguments"),
    (("ffheight", "--g", "1", "--hnt", HUGE), "ParseError", "heights", "--hnt"),
    (("neron", "--ell", HUGE, "--nu", "1"), "ParseError", "neron", "--ell"),
    (("theta", "--lattice", "{lattice}", "--point", f"{HUGE},0"),
     "ParseError", "troptheta", "--point[0]"),
    (("elliptic-height", "--input", "{lattice}", "--terms", "64"), "SchemaError", "cli", "arguments"),
])
def test_malformed_arguments_exit_2(tmp_path, capsys, argv, error_type, module, path):
    lattice = write(tmp_path, "a2.json", F_A2)
    rank1 = write(tmp_path, "z.json", {"rank": 1, "gram": [[2]]})
    argv = [a.replace("{lattice}", lattice).replace("{rank1}", rank1) for a in argv]
    assert_structured_error(*run_cli(capsys, *argv), error_type, module, path)


def test_argument_error_honours_csv_format_and_help_still_exits_0(tmp_path, capsys):
    lattice = write(tmp_path, "a2.json", F_A2)
    code, out = run_cli(capsys, "--format", "csv", "moment", "--lattice", lattice,
                        "--grid", "abc")
    assert code == 2
    assert out.splitlines()[:4] == ["key,value", "error.message,invalid int value: 'abc'",
                                    "error.module,cli", "error.path,--grid"]
    with pytest.raises(SystemExit) as exit_info:
        main(["moment", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tropmoment moment")


@pytest.mark.parametrize("places, path", [
    # -2 pi tau_im overflows; the S-image of a subnormal tau_im does
    ({**F_PLACES, "arch": [{"tau_re": 0.1, "tau_im": 1e308}]}, "arch[0].tau_im"),
    ({**F_PLACES, "arch": [{"tau_re": 0.1, "tau_im": 1e-310}]}, "arch[0].tau_im"),
    ({**F_PLACES, "nonarch": [{"ord_delta": 100, "log_nv": 1e308}]}, "nonarch[0]"),
    ({**F_PLACES, "nonarch": [{"ord_delta": 10**400, "log_nv": 1.0}]}, "nonarch[0]"),
    ({**F_PLACES, "nonarch": [{"ord_delta": 1, "log_nv": 1e308}] * 2}, "nonarch"),
    ({**F_PLACES, "degree": 2, "arch": [{"tau_re": 0, "tau_im": 2e307}] * 2}, "arch"),
    ({**F_PLACES, "degree": 2, "arch": [{"tau_re": 0, "tau_im": 1}, {"tau_re": 0, "tau_im": 1e308}]},
     "arch[1].tau_im"),
])
def test_extreme_finite_place_numbers_exit_2(tmp_path, capsys, places, path):
    file = write(tmp_path, "places.json", places)
    code, out = run_cli(capsys, "elliptic-height", "--input", file)
    assert_structured_error(code, out, "DomainError", "heights", path)


@pytest.mark.parametrize("argv, path", [
    (NERON_ARCH[:5] + ("--z-re", "1e300", "--z-im", "0"), "--z-re,--z-im"),  # on q^-300
    (NERON_ARCH[:5] + ("--z-re", "1.7e308", "--z-im", "1.7e308"), "--z-re,--z-im"),
    (NERON_ARCH[:5] + ("--z-re", "5e-324", "--z-im", "0"), "--z-re,--z-im"),
    (("neron", "--q-re", "1e-320") + NERON_ARCH[3:], "--q-re,--q-im"),
    (("neron", "--q-re", "1e308", "--q-im", "1e308") + NERON_ARCH[5:], "--q-re,--q-im"),
])
def test_extreme_finite_neron_numbers_exit_2(capsys, argv, path):
    assert_structured_error(*run_cli(capsys, *argv), "DomainError", "neron", path)


def test_extreme_finite_z_off_the_divisor_evaluates(capsys):
    # |z| = 1.4e308: the raw product has no tail bound within 64 terms
    code, out = run_cli(capsys, *NERON_ARCH[:5], "--z-re", "1e308", "--z-im", "1e308")
    assert code == 0
    payload = json.loads(out)
    assert all(math.isfinite(payload[k]) for k in ("value", "log_abs_theta", "theta_tail_bound"))


def test_inputs_near_the_cusp_reduce_and_print_finite_values(tmp_path, capsys, monkeypatch):
    # the raw series would need about 1e10 terms; both reduce first, and
    # every float they print is finite
    argv = ("neron", "--q-re", "0.99999999", "--q-im", "0", "--z-re", "-1", "--z-im", "0")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert all(math.isfinite(payload[k]) for k in ("value", "log_abs_theta", "theta_tail_bound"))
    places = {"degree": 2, "nonarch": [],
              "arch": [{"tau_re": 0, "tau_im": 1}, {"tau_re": 0, "tau_im": 1e-9}]}
    file = write(tmp_path, "places.json", places)
    code, out = run_cli(capsys, "elliptic-height", "--input", file)
    assert code == 0
    report = json.loads(out)
    floats = [report["lhs"], report["rhs"], report["residual"]]
    assert all(math.isfinite(x) for x in floats + [t["invariant"] for t in report["terms"]["arch"]])
    # no environment variable changes a report
    monkeypatch.setenv("TROPMOMENT_TERMS", "1")
    assert run_cli(capsys, "elliptic-height", "--input", file) == (0, out)


def test_neron_reads_one_pair_near_the_unit_circle(capsys):
    # value, log_abs_theta and theta_tail_bound all come from the reduced
    # pair, and lambda(-1) = -pi^2 / (6 l) + O(l) as l -> 0
    start = time.perf_counter()
    code, out = run_cli(capsys, "neron", "--q-re", "0.99999999", "--q-im", "0",
                        "--z-re", "-1", "--z-im", "0")
    assert time.perf_counter() - start < 0.1
    assert code == 0
    payload = json.loads(out)
    ell = -math.log(0.99999999)
    value = payload["value"]
    assert abs(value - (ell / 12 - payload["log_abs_theta"])) <= 1e-12 * abs(value)
    assert abs(value + math.pi**2 / (6 * ell)) <= 1e-6 * abs(value)
    assert payload["theta_tail_bound"] < 1e-15


@pytest.mark.parametrize("field, text, path", [
    ("tau_re", "NaN", "arch[0].tau_re"),
    ("tau_re", "1e400", "arch[0].tau_re"),
    ("tau_im", "Infinity", "arch[0].tau_im"),
    ("log_nv", "1e400", "nonarch[0].log_nv"),
    ("log_nv", "-Infinity", "nonarch[0].log_nv"),
    ("log_nv", "1" + "0" * 400, "nonarch[0].log_nv"),
])
def test_non_finite_place_numbers_exit_2(tmp_path, capsys, field, text, path):
    raw = json.dumps(F_PLACES).replace(f'"{field}": ', f'"{field}": {text}, "_": ')
    file = tmp_path / "places.json"
    file.write_text(raw)
    code, out = run_cli(capsys, "elliptic-height", "--input", str(file))
    assert_structured_error(code, out, "SchemaError", "heights", path)
    assert "Infinity" not in out and "NaN" not in out


@pytest.mark.parametrize("raw", [
    b"[" * 100000,
    b'{"rank": ' + b"1" * 5000 + b"}",
    b'{"rank": 1, "gram": [["\xff"]]}',
])
def test_unreadable_json_is_a_parse_error(tmp_path, capsys, raw):
    file = tmp_path / "lattice.json"
    file.write_bytes(raw)
    assert_structured_error(*run_cli(capsys, "moment", "--lattice", str(file)),
                            "ParseError", "lattice", str(file))
