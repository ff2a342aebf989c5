"""The text readers on damaged documents.

The feature CSV (``read_dataset``), the spec JSON (``load_synth_spec``) and
the selection JSON that ``train --features-from`` reads are built from valid
documents with a few fields replaced by any value.  Each reader must either
return valid objects or raise FormatError or ContractError, which the CLI
turns into exit 1 or 2, and nothing else.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowident.classifier import load_model
from flowident.cli import main
from flowident.errors import ContractError, FormatError
from flowident.features import NUM_FEATURES, read_dataset, validate_feature_ids, write_dataset
from flowident.flow import Proto
from flowident.selection import fcbf_select
from flowident.synth import generate_dataset, load_synth_spec, parse_synth_spec
from helpers import json_paths

FIXTURE_SPEC = Path(__file__).parent / "fixtures" / "demo_spec.json"
DEMO_ROWS = generate_dataset(parse_synth_spec({"seed": 5, "classes": [
    {"label": "bulk", "flows": 4, "features": {"pps": {"mean": 900.0, "std": 40.0}}},
    {"label": "chat", "flows": 4, "features": {"pps": {"mean": 40.0, "std": 6.0}}},
]}))
# An integer token past the 4,300 digits Python's int() converts by default.
LONG_INTEGER = "9" * 5000
ODD_TEXT = ("", " ", "nan", "inf", "-inf", "1e400", "-0", "1_000", " 2 ", "0x10", "١٢",
            "\x00", '"', ",", "\n", "bulk", LONG_INTEGER)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from((0, 1, 7, 16, 17, -1, 10**400, 2.5, "udp", "tcp", "normal", "fixed")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


with tempfile.TemporaryDirectory() as tmp:
    write_dataset(DEMO_ROWS, Path(tmp) / "features.csv")
    FEATURE_TEXT = (Path(tmp) / "features.csv").read_text(encoding="utf-8")
FEATURE_ROWS = list(csv.reader(io.StringIO(FEATURE_TEXT, newline="")))


@st.composite
def damaged_feature_csvs(draw):
    """The demo feature CSV with 1-3 cells replaced by any text, dropped or
    added, and perhaps the text cut at any character."""
    rows = [list(row) for row in FEATURE_ROWS]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        col = draw(st.integers(0, len(row) - 1))
        action = draw(st.sampled_from(("replace", "replace", "replace", "drop", "add")))
        if action == "drop":
            del row[col]
        elif action == "add":
            row.insert(col, draw(st.sampled_from(ODD_TEXT)))
        else:
            row[col] = draw(st.one_of(st.text(max_size=8), st.sampled_from(ODD_TEXT),
                                      st.floats().map(str), st.integers().map(str)))
    text = csv_text(rows)
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def damaged_json(draw, doc) -> str:
    """``doc`` with 1-3 values replaced by any JSON value or keys deleted,
    as text; a value may also become an integer too long for int()."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(json_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parents:
            parent = parent[step]
        action = draw(st.sampled_from(("replace", "replace", "delete", "long")))
        if action == "delete":
            del parent[key]
        else:
            parent[key] = "LONG_INTEGER" if action == "long" else draw(JSON_VALUES)
    return json.dumps(doc).replace('"LONG_INTEGER"', LONG_INTEGER)


def read_text_as(reader, text: str, name: str):
    """``reader`` over ``text`` written to a file called ``name``: what it
    returns, or the FormatError or ContractError it raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        try:
            return reader(path)
        except (FormatError, ContractError) as exc:
            assert str(exc).startswith(f"{path}: ") or isinstance(exc, ContractError)
            return exc


@settings(max_examples=300, deadline=None)
@given(damaged_feature_csvs())
def test_a_damaged_feature_csv_reads_or_is_refused(text):
    ds = read_text_as(read_dataset, text, "features.csv")
    if isinstance(ds, Exception):
        return
    assert ds.data.shape == (len(ds.codes), NUM_FEATURES)
    assert np.isfinite(ds.data).all()
    assert all(isinstance(label, str) and label for label in ds.alphabet)
    assert ((-1 <= ds.codes) & (ds.codes < len(ds.alphabet))).all()


SPEC_DOC = json.loads(FIXTURE_SPEC.read_text(encoding="utf-8"))


def finite_dist(dist) -> bool:
    return dist is None or all(math.isfinite(p) for p in dist.params)


@settings(max_examples=300, deadline=None)
@given(damaged_json(SPEC_DOC))
@example(json.dumps({**SPEC_DOC, "seed": "LONG_INTEGER"}).replace('"LONG_INTEGER"', LONG_INTEGER))
def test_a_damaged_spec_loads_or_is_refused(text):
    spec = read_text_as(load_synth_spec, text, "spec.json")
    if isinstance(spec, Exception):
        return
    assert type(spec.seed) is int and spec.seed >= 0
    assert spec.classes and len({cls.label for cls in spec.classes}) == len(spec.classes)
    for cls in spec.classes:
        assert isinstance(cls.label, str) and type(cls.flows) is int and cls.flows >= 1
        assert cls.proto in Proto and 0 <= cls.server_port <= 0xFFFF
        assert all(math.isfinite(g.mean) and g.std >= 0 for g in cls.features.values())
        assert all(map(finite_dist, (cls.pkt_count, cls.pkt_size, cls.iat)))
        assert cls.pkt_count is None or cls.pkt_count.params[-1] < 2**32


SELECTION_DOC = fcbf_select(DEMO_ROWS).to_json_dict()


@settings(max_examples=200, deadline=None)
@given(damaged_json(SELECTION_DOC))
@example(json.dumps({"selected": ["LONG_INTEGER"]}).replace('"LONG_INTEGER"', LONG_INTEGER))
def test_train_takes_a_damaged_selection_or_exits_one(text):
    with tempfile.TemporaryDirectory() as tmp:
        features, selection, model = (Path(tmp) / name for name in ("f.csv", "sel.json", "m.json"))
        write_dataset(DEMO_ROWS, features)
        selection.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", str(features), "--features-from", str(selection), "--out", str(model)])
        if code == 0:
            selected = validate_feature_ids(json.loads(text)["selected"])
            assert load_model(model).feature_ids == selected
        else:
            assert code == 1 and err.getvalue().startswith(f"error: {selection}: ")
            assert not model.exists()
