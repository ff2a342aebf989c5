"""Readers and writers for capture files, export datagrams, and label lists."""

from .labels import LabelFile, LabelRow, load_labels, write_labels
from .netflow import (
    EncodingError,
    MalformedDatagramError,
    UnsupportedVersionError,
    decode_netflow_v5,
    encode_netflow_v5,
    read_netflow_file,
    read_netflow_table,
)
from .pcap import (
    PcapDecodeError,
    PcapReader,
    UnsupportedFormatError,
    read_pcap,
    write_pcap,
)

__all__ = [
    "EncodingError",
    "LabelFile",
    "LabelRow",
    "MalformedDatagramError",
    "PcapDecodeError",
    "PcapReader",
    "UnsupportedFormatError",
    "UnsupportedVersionError",
    "decode_netflow_v5",
    "encode_netflow_v5",
    "load_labels",
    "read_netflow_file",
    "read_netflow_table",
    "read_pcap",
    "write_pcap",
]
