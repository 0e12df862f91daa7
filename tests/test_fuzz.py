"""Fuzz the JSON loaders through the command line.

Every document below is malformed by construction: a required field is
dropped, a field holds a value its schema rejects (wrong JSON type,
non-finite or out-of-range number, malformed rational, out-of-range
index), a list has the wrong length, or the file is not a JSON object at
all.  Each must exit 2 with a structured error object, never a traceback.
The valid documents stay at rank 3 or less and 4 edges or less, because
relevant vectors cost 2^g closest-vector searches.
"""

import copy
import io
import json
import math
import re
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmoment.cli import main

FUZZ = settings(derandomize=True, deadline=None, max_examples=100)

LATTICE = {"rank": 3, "gram": [[2, -1, 0], [-1, 2, "-1"], [0, "-1", "5/2"]]}
GRAPH = {"vertices": 2, "edges": [
    {"tail": 0, "head": 1, "length": "3/2"},
    {"tail": 0, "head": 1, "length": 1},
    {"tail": 1, "head": 0, "length": "2/3"},
    {"tail": 1, "head": 1, "length": 4},
]}
PLACES = {"degree": 2,
          "nonarch": [{"ord_delta": 3, "log_nv": 0.6931471805599453}],
          "arch": [{"tau_re": 0.25, "tau_im": 1.5}, {"tau_re": -0.25, "tau_im": 1.5}]}
DOCUMENTS = {
    "lattice": (LATTICE, ("moment", "--lattice")),
    "graph": (GRAPH, ("graph", "--input")),
    "places": (PLACES, ("elliptic-height", "--input")),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
NOT_INT = JSON_VALUES.filter(lambda v: isinstance(v, bool) or not isinstance(v, int))
NOT_NUMBER = JSON_VALUES.filter(
    lambda v: isinstance(v, bool) or not isinstance(v, (int, float)))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf]) | st.integers(min_value=2**1024)
NOT_POSITIVE = st.floats(max_value=0.0, allow_nan=False) | st.integers(max_value=0)
NOT_RATIONAL = (
    JSON_VALUES.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, str)))
    | st.text(max_size=8).filter(lambda s: not re.fullmatch(r"[+-]?\d+(/\d+)?", s))
    | st.just("1/0")
)


def _wrong_values(doc, path, value):
    """Values the schema rejects at ``path``, where the document holds
    ``value``."""
    if isinstance(value, dict):
        return JSON_VALUES.filter(lambda v: not isinstance(v, dict))
    if isinstance(value, list):
        return JSON_VALUES.filter(lambda v: not isinstance(v, list))
    key = path[-1]
    if key in ("rank", "vertices", "degree"):
        return NOT_INT | st.integers().filter(lambda n: n != value)
    if key in ("tail", "head"):
        return NOT_INT | st.integers().filter(lambda n: not 0 <= n < doc["vertices"])
    if key == "ord_delta":
        return NOT_INT | st.integers(max_value=-1)
    if key in ("log_nv", "tau_im"):
        return NOT_NUMBER | NON_FINITE | NOT_POSITIVE
    if key == "tau_re":
        return NOT_NUMBER | NON_FINITE
    if key == "length":
        return NOT_RATIONAL | st.integers(max_value=0)
    return NOT_RATIONAL  # a Gram entry


def _fields(value, path=()):
    """(path, value) for every node below the root, containers included."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from _fields(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def malformed(draw, doc):
    """A copy of ``doc`` broken in one place."""
    doc = copy.deepcopy(doc)
    fields = list(_fields(doc))
    # lists whose length the schema fixes: the Gram rows and the
    # archimedean embeddings
    sized = [p for p, v in fields if isinstance(v, list) and p[0] in ("gram", "arch")]
    kind = draw(st.sampled_from(["drop", "replace"] + ["grow"] * bool(sized)))
    if kind == "drop":
        keyed = [(p, v) for p, v in fields if isinstance(v, dict)] + [((), doc)]
        path, obj = draw(st.sampled_from(keyed))
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "replace":
        path, value = draw(st.sampled_from(fields))
        _at(doc, path[:-1])[path[-1]] = draw(_wrong_values(doc, path, value))
    else:
        grown = _at(doc, draw(st.sampled_from(sized)))
        grown.append(copy.deepcopy(grown[-1]))
    return doc


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def _assert_structured_error(input_file, argv, raw: bytes):
    input_file.write_bytes(raw)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*argv, str(input_file)])
    assert code == 2, out.getvalue()
    error = json.loads(out.getvalue())["error"]
    assert error["type"] in ("ParseError", "SchemaError", "DomainError")
    assert all(isinstance(error[k], str) for k in ("module", "path", "message"))


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_valid_documents_pass(input_file, name):
    doc, argv = DOCUMENTS[name]
    input_file.write_text(json.dumps(doc))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([*argv, str(input_file)]) == 0


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_malformed_documents_exit_2(input_file, name):
    doc, argv = DOCUMENTS[name]

    @FUZZ
    @given(malformed(doc))
    def check(broken):
        _assert_structured_error(input_file, argv, json.dumps(broken).encode())

    check()


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_unreadable_files_exit_2(input_file, name):
    doc, argv = DOCUMENTS[name]
    text = json.dumps(doc).encode()

    @FUZZ
    @given(st.binary(max_size=40)
           | st.integers(0, len(text) - 1).map(lambda n: text[:n])
           | JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(
               lambda v: json.dumps(v).encode()))
    def check(raw):
        _assert_structured_error(input_file, argv, raw)

    check()
