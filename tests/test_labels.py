"""Label-file parsing, canonicalisation, and lookup."""

import pytest

from flowident.flow import FlowKey, Proto
from flowident.ingest.labels import (
    HEADER,
    LabelFile,
    LabelFileError,
    LabelRow,
    load_labels,
    write_labels,
)
from helpers import ip, label_rows

KEY = FlowKey(ip("10.0.0.1"), 80, ip("10.0.0.2"), 5000, Proto.TCP)
UDP_KEY = FlowKey(ip("10.0.0.3"), 53, ip("10.0.0.4"), 40000, Proto.UDP)


def write_text(tmp_path, lines):
    path = tmp_path / "labels.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_write_then_load_roundtrip(tmp_path):
    rows = [
        LabelRow(KEY, 1_000_000, "web"),
        LabelRow(KEY, 2_000_000, "bulk"),
        LabelRow(UDP_KEY, 1_500_000, "dns"),
    ]
    path = tmp_path / "labels.csv"
    write_labels(path, rows)
    loaded = load_labels(path)
    assert label_rows(loaded) == rows
    assert len(loaded) == 3


def test_reversed_endpoints_are_canonicalised(tmp_path):
    path = write_text(tmp_path, [
        ",".join(HEADER),
        "10.0.0.2,5000,10.0.0.1,80,TCP,1000000,web",
    ])
    [row] = label_rows(load_labels(path))
    assert row.key == KEY  # lower address listed first regardless of input order


def test_proto_spellings(tmp_path):
    path = write_text(tmp_path, [
        ",".join(HEADER),
        "10.0.0.1,80,10.0.0.2,5000,tcp,1,a",
        "10.0.0.1,80,10.0.0.2,5000,6,2,a",
        "10.0.0.3,53,10.0.0.4,40000,udp,3,a",
        "10.0.0.3,53,10.0.0.4,40000,17,4,a",
    ])
    rows = label_rows(load_labels(path))
    assert [r.key.proto for r in rows] == [Proto.TCP, Proto.TCP, Proto.UDP, Proto.UDP]


def test_unknown_proto_names_line(tmp_path):
    path = write_text(tmp_path, [
        ",".join(HEADER),
        "10.0.0.1,80,10.0.0.2,5000,TCP,1,a",
        "10.0.0.1,80,10.0.0.2,5000,ICMP,2,a",
    ])
    with pytest.raises(LabelFileError, match="line 3: unknown protocol 'ICMP'"):
        load_labels(path)


def test_duplicate_key_and_start_names_both_lines(tmp_path):
    path = write_text(tmp_path, [
        ",".join(HEADER),
        "10.0.0.1,80,10.0.0.2,5000,TCP,1000000,web",
        "10.0.0.1,80,10.0.0.2,5000,TCP,2000000,web",
        "10.0.0.2,5000,10.0.0.1,80,TCP,1000000,bulk",
    ])
    # line 4 reverses the endpoints but lands on the same canonical key
    with pytest.raises(LabelFileError, match="line 4: duplicate of line 2"):
        load_labels(path)


def test_lines_are_physical_after_a_label_holding_a_line_break(tmp_path):
    two_lines = '10.0.0.1,80,10.0.0.2,5000,TCP,1000000,"two\nlines"'
    path = write_text(tmp_path, [
        ",".join(HEADER),
        two_lines,
        "10.0.0.1,80,10.0.0.2,70000,TCP,2000000,web",
    ])
    with pytest.raises(LabelFileError, match="line 4: port_hi 70000 outside 0..65535"):
        load_labels(path)
    path = write_text(tmp_path, [
        ",".join(HEADER),
        '10.0.0.1,80,10.0.0.2,5000,TCP,3000000,"cr\r\nlf"',
        two_lines,
        "10.0.0.2,5000,10.0.0.1,80,TCP,1000000,bulk",
    ])
    with pytest.raises(LabelFileError, match="line 6: duplicate of line 4"):
        load_labels(path)


def test_bad_header(tmp_path):
    path = write_text(tmp_path, ["ip_a,port_a,label"])
    with pytest.raises(LabelFileError, match="header must be"):
        load_labels(path)


def test_empty_file(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(LabelFileError, match="empty file"):
        load_labels(path)


def test_wrong_field_count(tmp_path):
    path = write_text(tmp_path, [
        ",".join(HEADER),
        "10.0.0.1,80,10.0.0.2,5000,TCP,1",
    ])
    with pytest.raises(LabelFileError, match="line 2: expected 7 fields"):
        load_labels(path)


def test_unparseable_address_and_timestamp(tmp_path):
    path = write_text(tmp_path, [
        ",".join(HEADER),
        "10.0.0.999,80,10.0.0.2,5000,TCP,1,a",
    ])
    with pytest.raises(LabelFileError, match="line 2"):
        load_labels(path)
    path = write_text(tmp_path, [
        ",".join(HEADER),
        "10.0.0.1,80,10.0.0.2,5000,TCP,soon,a",
    ])
    with pytest.raises(LabelFileError, match="line 2"):
        load_labels(path)


@pytest.mark.parametrize("row, message", [
    ("10.0.0.1,70000,10.0.0.2,5000,TCP,1,a", "line 3: port_lo 70000 outside 0..65535"),
    ("10.0.0.1,80,10.0.0.2,-5,TCP,1,a", "line 3: port_hi -5 outside 0..65535"),
    ("10.0.0.1,80,10.0.0.2,5000,TCP,-7,a", "line 3: first_ts -7 is negative"),
    ("10.0.0.1,80,10.0.0.2,5000,TCP,9223372036854775808,a",
     r"line 3: first_ts 9223372036854775808 is above 2\^63 - 1"),
    ("10.0.0.1,80,10.0.0.2,5000,TCP,18446744073709551616,a",
     r"line 3: first_ts 18446744073709551616 is above 2\^63 - 1"),
])
def test_out_of_range_port_or_start_names_line(tmp_path, row, message):
    path = write_text(tmp_path, [",".join(HEADER), "10.0.0.1,80,10.0.0.2,5000,TCP,1,a", row])
    with pytest.raises(LabelFileError, match=message) as exc_info:
        load_labels(path)
    assert str(exc_info.value).startswith(f"{path}: line 3: ")


def test_range_limits_are_accepted(tmp_path):
    path = write_text(tmp_path, [
        ",".join(HEADER),
        "10.0.0.2,65535,10.0.0.1,0,UDP,0,edge",
        "10.0.0.2,65535,10.0.0.1,0,UDP,9223372036854775807,last",
    ])
    first, last = label_rows(load_labels(path))
    assert first.key == last.key == FlowKey(ip("10.0.0.1"), 0, ip("10.0.0.2"), 65535, Proto.UDP)
    assert (first.first_ts, last.first_ts) == (0, 2**63 - 1)


def test_lookup_hit_and_miss():
    table = LabelFile({(*KEY.sort_tuple(), 1_000_000): "web"})
    assert table.lookup(KEY, 1_000_000) == "web"
    assert table.lookup(KEY, 999_999) is None
    assert table.lookup(UDP_KEY, 1_000_000) is None
