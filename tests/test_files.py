"""The JSON writer of the text-file boundary."""

import json

import numpy as np
import pytest

from flowident.files import read_json, write_json
from flowident.errors import FormatError

DOC = {"k": 3, "name": "café", "values": [1.5, -0.0, 1e300], "nested": {"empty": []}}


def test_write_json_writes_the_text_json_dump_writes(tmp_path):
    """Two-space indent and a final newline, the bytes of ``json.dump`` then "\\n"."""
    target = tmp_path / "doc.json"
    write_json(target, DOC)
    with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
        json.dump(DOC, fh, indent=2)
        fh.write("\n")
    assert target.read_bytes() == (tmp_path / "dumped.json").read_bytes()
    assert read_json(target, FormatError) == DOC


def test_a_document_json_cannot_hold_leaves_no_file(tmp_path):
    target = tmp_path / "report.json"
    with pytest.raises(TypeError, match="int64"):
        write_json(target, {"flows": 3, "seed": np.int64(1)})
    assert not target.exists()


def test_a_document_json_cannot_hold_leaves_the_old_file_as_it_was(tmp_path):
    target = tmp_path / "report.json"
    write_json(target, DOC)
    before = target.read_bytes()
    with pytest.raises(TypeError, match="int64"):
        write_json(target, {**DOC, "k": np.int64(3)})
    assert target.read_bytes() == before
