"""Synthetic workload generation for tests and demos.

A spec file describes labeled traffic classes twice over: per-feature
Gaussians for generating feature datasets directly, and packet-level
distributions (packet count, packet size, inter-arrival time) for
generating whole captures.  Everything is driven by one seed, so a spec
generates identical bytes on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, FormatError
from .features import FEATURE_NAMES, Dataset
from .files import is_finite_number, read_json
from .flow import TCP_ACK, TCP_FIN, TCP_SYN, FlowKey, PacketTable, Proto
from .ingest.labels import LabelRow

_BASE_EPOCH_US = 1_700_000_000_000_000
_START_WINDOW_S = 60.0
_MAX_PKT_LEN = 1500
_MAX_COUNT = 2**32 - 1  # NetFlow v5's 32-bit packet counter
_MAX_TS_S = 2**32  # pcap's 32-bit seconds
# Values a spec may ask numpy for, 1 GiB as float64: a flow draws one value per
# feature for a dataset, and a count, a start and a size, a gap and a
# direction per packet for a capture.
_MAX_DRAWS = 2**27


@dataclass(frozen=True)
class Dist:
    """A one-dimensional sampling distribution from a spec file."""

    kind: str
    params: tuple[float, ...]

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "fixed":
            return np.full(size, self.params[0])
        if self.kind == "uniform":
            return rng.uniform(self.params[0], self.params[1], size)
        if self.kind == "uniform_int":
            return rng.integers(int(self.params[0]), int(self.params[1]) + 1, size).astype(float)
        if self.kind == "normal":
            return rng.normal(self.params[0], self.params[1], size)
        if self.kind == "exponential":
            return rng.exponential(self.params[0], size)
        raise ContractError(f"unknown distribution kind {self.kind!r}")

    @property
    def top(self) -> float:
        """The high, fixed value or mean: what a spec bounds a packet count by."""
        return self.params[1] if self.kind.startswith("uniform") else self.params[0]


_DIST_PARAMS = {
    "fixed": ("value",),
    "uniform": ("low", "high"),
    "uniform_int": ("low", "high"),
    "normal": ("mean", "std"),
    "exponential": ("mean",),
}


def _number(value, where: str, lo: float | None = None) -> float:
    if not is_finite_number(value):
        raise FormatError(f"{where} must be a finite number, got {value!r}")
    if lo is not None and value < lo:
        raise FormatError(f"{where} must be >= {lo}, got {value!r}")
    return float(value)


def _integer(value, where: str, lo: int, hi: int | None = None) -> int:
    if type(value) is not int:
        raise FormatError(f"{where} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        raise FormatError(f"{where} must be " + (f">= {lo}" if hi is None else f"in {lo}..{hi}"))
    return value


def _parse_dist(doc, context: str, count: bool = False) -> Dist:
    """A distribution numpy can draw from; for a packet ``count``, one whose
    high, fixed value or mean fits NetFlow v5's packet counter."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError(f"{context}: distribution needs a 'kind'")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _DIST_PARAMS:
        raise FormatError(f"{context}: unknown distribution kind {kind!r}")
    names = _DIST_PARAMS[kind]
    try:
        params = tuple(_number(doc[name], f"{context}: {name}") for name in names)
    except KeyError as exc:
        raise FormatError(f"{context}: {kind} distribution needs {exc.args[0]!r}") from None
    if kind in ("normal", "exponential"):  # the last parameter is a spread
        _number(doc[names[-1]], f"{context}: {names[-1]}", 0)
    elif kind != "fixed" and params[1] < params[0]:
        raise FormatError(f"{context}: high {params[1]!r} is below low {params[0]!r}")
    if kind == "uniform" and math.isinf(params[1] - params[0]):
        raise FormatError(f"{context}: high - low must be a finite number, got inf")
    if kind == "uniform_int" and not -(2**63) <= int(params[0]) <= int(params[1]) < 2**63:
        raise FormatError(f"{context}: low and high must lie in the int64 range")
    dist = Dist(kind, params)
    if count and dist.top > _MAX_COUNT:
        raise FormatError(f"{context}: packet count {dist.top!r} is above NetFlow v5's "
                          f"32-bit counter ({_MAX_COUNT})")
    return dist


@dataclass(frozen=True)
class FeatureGen:
    mean: float
    std: float


@dataclass
class ClassSpec:
    label: str
    flows: int
    proto: Proto = Proto.UDP
    server_port: int = 9000
    features: dict[str, FeatureGen] = field(default_factory=dict)
    pkt_count: Dist | None = None
    pkt_size: Dist | None = None
    iat: Dist | None = None


@dataclass
class SynthSpec:
    seed: int
    classes: list[ClassSpec]


def parse_synth_spec(doc: dict) -> SynthSpec:
    if not isinstance(doc, dict) or not isinstance(doc.get("classes"), list):
        raise FormatError("spec needs a 'classes' list")
    classes = []
    draws = 0
    for i, cls in enumerate(doc["classes"]):
        context = f"classes[{i}]"
        if not isinstance(cls, dict):
            raise FormatError(f"{context}: a class must be an object, got {cls!r}")
        if "label" not in cls or "flows" not in cls:
            raise FormatError(f"{context}: needs 'label' and 'flows'")
        flows = _integer(cls["flows"], f"{context}: flows", 1)
        proto_name = str(cls.get("proto", "udp")).upper()
        if proto_name not in ("TCP", "UDP"):
            raise FormatError(f"{context}: proto must be tcp or udp")
        gens = cls.get("features", {})
        if not isinstance(gens, dict):
            raise FormatError(f"{context}: features must be an object, got {gens!r}")
        features = {}
        for name, gen in gens.items():
            if name not in FEATURE_NAMES:
                raise FormatError(f"{context}: unknown feature {name!r}")
            if not isinstance(gen, dict) or "mean" not in gen or "std" not in gen:
                raise FormatError(f"{context}: feature {name!r} needs mean and std")
            where = f"{context}: feature {name!r}:"
            features[name] = FeatureGen(
                _number(gen["mean"], f"{where} mean"), _number(gen["std"], f"{where} std", 0)
            )
        packets = cls.get("packets")
        pkt_count = pkt_size = iat = None
        if packets is not None:
            if not isinstance(packets, dict):
                raise FormatError(f"{context}: packets must be an object, got {packets!r}")
            for key in ("count", "size", "iat"):
                if key not in packets:
                    raise FormatError(f"{context}: packets needs a {key!r} distribution")
            pkt_count = _parse_dist(packets["count"], f"{context}.packets.count", count=True)
            pkt_size = _parse_dist(packets["size"], f"{context}.packets.size")
            iat = _parse_dist(packets["iat"], f"{context}.packets.iat")
        per_flow = len(FEATURE_NAMES) + (2 + 3 * max(math.ceil(pkt_count.top), 1) if packets else 0)
        draws += flows * per_flow
        if draws > _MAX_DRAWS:
            raise FormatError(f"{context}: {flows} flows of up to {per_flow} draws each take "
                              f"the spec past its budget of {_MAX_DRAWS} draws")
        classes.append(
            ClassSpec(
                label=str(cls["label"]),
                flows=flows,
                proto=Proto[proto_name],
                server_port=_integer(cls.get("server_port", 9000),
                                     f"{context}: server_port", 0, 0xFFFF),
                features=features,
                pkt_count=pkt_count,
                pkt_size=pkt_size,
                iat=iat,
            )
        )
    if not classes:
        raise FormatError("spec has no classes")
    labels = [c.label for c in classes]
    if len(set(labels)) != len(labels):
        raise FormatError("class labels must be distinct")
    return SynthSpec(seed=_integer(doc.get("seed", 0), "seed", 0), classes=classes)


def load_synth_spec(path) -> SynthSpec:
    doc = read_json(path, FormatError)
    try:
        return parse_synth_spec(doc)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def generate_dataset(spec: SynthSpec) -> Dataset:
    """Draw labeled feature vectors straight from the per-class Gaussians.

    Features a class does not mention default to the standard normal, which
    gives classifier tests a supply of uninformative columns for free.  A
    draw past the float range refuses the spec.
    """
    rng = np.random.default_rng(spec.seed)
    alphabet = tuple(sorted({c.label for c in spec.classes}))
    blocks, codes = [], []
    for i, cls in enumerate(spec.classes):
        columns = []
        for name in FEATURE_NAMES:
            gen = cls.features.get(name, FeatureGen(0.0, 1.0))
            column = rng.normal(gen.mean, gen.std, cls.flows)
            if not np.isfinite(column).all():
                raise FormatError(f"classes[{i}]: feature {name!r}: drew "
                                  f"{column[~np.isfinite(column)][0]}, not a finite number")
            columns.append(column)
        blocks.append(np.column_stack(columns))
        codes.append(np.full(cls.flows, alphabet.index(cls.label)))
    return Dataset.from_arrays(np.vstack(blocks), np.concatenate(codes), alphabet)


def _flow_flags(forward: np.ndarray) -> np.ndarray:
    """The TCP flags of one flow whose first packet travels forward: the
    client's SYN, the server's SYN-ACK on its first packet, a FIN-ACK on
    each side's last packet after those, and ACK on the rest."""
    flags = np.full(len(forward), TCP_ACK, dtype=np.uint8)
    fwd, bwd = np.flatnonzero(forward), np.flatnonzero(~forward)
    flags[fwd[-1]] = TCP_FIN | TCP_ACK
    flags[0] = TCP_SYN
    if bwd.size:
        flags[bwd[-1]] = TCP_FIN | TCP_ACK
        flags[bwd[0]] = TCP_SYN | TCP_ACK
    return flags


def generate_packets(spec: SynthSpec) -> tuple[PacketTable, list[LabelRow]]:
    """Generate a time-ordered capture and the matching flow labels.

    Each flow is one client talking to its class's server; its first packet
    travels from the client.  The flows are drawn one after another and
    merged by time with a stable sort.
    """
    rng = np.random.default_rng(spec.seed)
    parts: list[tuple[np.ndarray, ...]] = []  # each flow's PacketTable columns
    labels: list[LabelRow] = []
    serial = drawn_packets = 0
    for cls_idx, cls in enumerate(spec.classes):
        if cls.pkt_count is None or cls.pkt_size is None or cls.iat is None:
            raise ContractError(f"class {cls.label!r} has no packet generators")
        min_len = 40 if cls.proto is Proto.TCP else 28
        server = ((192 << 24) | (168 << 16) | (cls_idx << 8) | 1, cls.server_port)
        where = f"classes[{cls_idx}].packets"
        for _ in range(cls.flows):
            drawn = max(float(cls.pkt_count.draw(rng, 1)[0]), 1.0)
            if not drawn <= _MAX_COUNT:
                raise FormatError(f"{where}.count: drew packet count {drawn!r}, above "
                                  f"NetFlow v5's 32-bit counter ({_MAX_COUNT})")
            count = int(round(drawn))
            drawn_packets += count  # a normal or exponential count may pass the parsed budget
            if 3 * drawn_packets > _MAX_DRAWS:
                raise FormatError(f"{where}.count: drew {drawn_packets} packets, past the "
                                  f"spec's budget of {_MAX_DRAWS} draws")
            sizes = np.clip(
                np.round(cls.pkt_size.draw(rng, count)), min_len, _MAX_PKT_LEN
            ).astype(int)
            # A gap past the horizon alone overflows it; clipping first keeps the sum finite.
            iat = np.minimum(cls.iat.draw(rng, max(count - 1, 1)), _MAX_TS_S)
            gaps_us = np.maximum(np.round(iat * 1e6), 0)[: count - 1]
            start = _BASE_EPOCH_US + int(rng.uniform(0, _START_WINDOW_S) * 1e6)
            if not start + gaps_us.sum() < _MAX_TS_S * 1e6:
                raise FormatError(f"{where}.iat: packet times pass the 32-bit seconds "
                                  f"of the pcap format (year 2106)")
            ts = start + np.concatenate(([0], np.cumsum(gaps_us.astype(np.int64))))
            forward = np.concatenate(([True], rng.random(count - 1) < 0.5))
            flags = _flow_flags(forward) if cls.proto is Proto.TCP else np.zeros(count, np.uint8)
            client = ((10 << 24) + serial + 1, 40000 + serial % 20000)
            src = np.where(forward[:, None], client, server)  # (ip, port) of each packet
            dst = np.where(forward[:, None], server, client)
            parts.append((ts, src[:, 0], dst[:, 0], src[:, 1], dst[:, 1], np.full(count, cls.proto),
                          sizes, flags, np.zeros(count, np.uint8)))
            low, high = sorted((client, server))
            labels.append(LabelRow(FlowKey(*low, *high, cls.proto), int(ts[0]), cls.label))
            serial += 1
    columns = [np.concatenate(column) for column in zip(*parts)]
    order = np.argsort(columns[0], kind="stable")
    return PacketTable(*(column[order] for column in columns)), labels
