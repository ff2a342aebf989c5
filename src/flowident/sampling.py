"""Bernoulli packet sampling and its per-flow error laws.

Sampling keeps each packet independently with probability p.  Scaling the
surviving packet and byte counts by 1/p gives unbiased estimates of flow
length (packets) and flow size (bytes); the sampled duration (last minus
first surviving timestamp) is biased low because the head and tail of the
flow rarely both survive.

The per-metric degradation measure is
    unbiased metrics: var((M - M_hat) / M), i.e. the relative-error variance,
    biased metrics:   E(M - M_hat),
estimated by seeded Monte Carlo resampling; its average over the flows of a
trace summarises a whole capture at one sampling ratio.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .flow import (
    DEFAULT_ACTIVE_TIMEOUT, DEFAULT_INACTIVE_TIMEOUT, Episode, FlowAggregator, PacketRecord,
)

MIN_TRIALS = 1000
DEFAULT_TRIALS = 20000

# Rough per-chunk uniform draw budget for Monte Carlo vectorisation.
_CHUNK_BUDGET = 2_000_000


class Metric(enum.Enum):
    LENGTH = "length"
    SIZE = "size"
    DURATION = "duration"

    @property
    def unbiased(self) -> bool:
        return self is not Metric.DURATION


@dataclass(frozen=True)
class SamplingConfig:
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ContractError(f"sampling probability {self.p} outside (0, 1]")


@dataclass(frozen=True)
class FlowEstimates:
    """Inverse-probability estimates recovered from one sampled flow."""

    l_hat: float
    s_hat: float
    fd_hat: float
    sampled_count: int


@dataclass(frozen=True)
class FlowTrace:
    """One flow as parallel arrays of packet sizes and timestamps (us)."""

    sizes: np.ndarray
    ts: np.ndarray

    def __post_init__(self) -> None:
        if self.sizes.ndim != 1 or self.sizes.shape != self.ts.shape:
            raise ContractError("sizes and ts must be equal-length 1-D arrays")
        if self.sizes.size == 0:
            raise ContractError("a flow trace has at least one packet")

    @classmethod
    def from_packets(cls, packets) -> "FlowTrace":
        packets = sorted(packets, key=lambda p: p.ts)
        return cls(
            sizes=np.array([p.length for p in packets], dtype=np.int64),
            ts=np.array([p.ts for p in packets], dtype=np.int64),
        )

    @property
    def length(self) -> int:
        return int(self.sizes.size)

    @property
    def size(self) -> int:
        return int(self.sizes.sum())

    @property
    def duration(self) -> float:
        return float(self.ts[-1] - self.ts[0]) / 1e6

    def true_value(self, metric: Metric) -> float:
        if metric is Metric.LENGTH:
            return float(self.length)
        if metric is Metric.SIZE:
            return float(self.size)
        return self.duration


def bernoulli_sample(packets, cfg: SamplingConfig) -> list[PacketRecord]:
    """Keep each packet independently with probability cfg.p, preserving order."""
    packets = list(packets)
    rng = np.random.default_rng(cfg.seed)
    keep = rng.random(len(packets)) < cfg.p
    return [pkt for pkt, kept in zip(packets, keep) if kept]


def estimate(sampled, p: float) -> FlowEstimates:
    """Scale a sampled packet list back up to whole-flow estimates."""
    if not 0.0 < p <= 1.0:
        raise ContractError(f"sampling probability {p} outside (0, 1]")
    sampled = list(sampled)
    count = len(sampled)
    fd_hat = (sampled[-1].ts - sampled[0].ts) / 1e6 if count >= 2 else 0.0
    return FlowEstimates(
        l_hat=count / p,
        s_hat=sum(pkt.length for pkt in sampled) / p,
        fd_hat=fd_hat,
        sampled_count=count,
    )


def relative_error_variance(metric: Metric, trace: FlowTrace, p: float) -> float:
    """Closed-form var((M - M_hat)/M) for the unbiased metrics.

    length: (1 - p) / (l * p)
    size:   ((1 - p) / p) * sum(s_i^2) / (sum(s_i))^2

    Duration has no closed form here; ask :func:`dre` instead.
    """
    if not 0.0 < p <= 1.0:
        raise ContractError(f"sampling probability {p} outside (0, 1]")
    if metric is Metric.LENGTH:
        return (1.0 - p) / (trace.length * p)
    if metric is Metric.SIZE:
        sizes = trace.sizes.astype(np.float64)
        total = sizes.sum()
        return ((1.0 - p) / p) * float((sizes * sizes).sum()) / float(total * total)
    raise ContractError(f"no closed-form error variance for metric {metric.value!r}")


def _mc_estimates(
    trace: FlowTrace, p: float, seed: int, trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate `trials` independent samplings of one flow.

    Returns per-trial arrays (l_hat, s_hat, fd_hat).  Uniform draws are
    float32 to halve the memory bandwidth; chunking does not change the
    consumed random stream, so results depend only on (seed, trials).
    """
    n = trace.length
    sizes = trace.sizes.astype(np.float64)
    t_sec = (trace.ts - trace.ts[0]).astype(np.float64) / 1e6
    rng = np.random.default_rng(seed)
    rows = max(1, _CHUNK_BUDGET // n)
    l_hat = np.empty(trials)
    s_hat = np.empty(trials)
    fd_hat = np.empty(trials)
    done = 0
    while done < trials:
        c = min(rows, trials - done)
        mask = rng.random((c, n), dtype=np.float32) < p
        k = mask.sum(axis=1)
        sums = mask.astype(np.float64) @ sizes
        first = mask.argmax(axis=1)
        last = n - 1 - mask[:, ::-1].argmax(axis=1)
        window = np.where(k >= 2, t_sec[last] - t_sec[first], 0.0)
        sl = slice(done, done + c)
        l_hat[sl] = k / p
        s_hat[sl] = sums / p
        fd_hat[sl] = window
        done += c
    return l_hat, s_hat, fd_hat


def simulate_estimates(
    trace: FlowTrace, cfg: SamplingConfig, trials: int = DEFAULT_TRIALS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (l_hat, s_hat, fd_hat) arrays for one flow at rate cfg.p."""
    if trials < MIN_TRIALS:
        raise ContractError(f"Monte Carlo needs at least {MIN_TRIALS} trials")
    return _mc_estimates(trace, cfg.p, cfg.seed, trials)


def _reduce_dre(metric: Metric, trace: FlowTrace, l_hat, s_hat, fd_hat) -> float:
    if metric is Metric.LENGTH:
        return float(np.var(l_hat / trace.length, ddof=1))
    if metric is Metric.SIZE:
        return float(np.var(s_hat / trace.size, ddof=1))
    return float(np.mean(trace.duration - fd_hat))


def dre(metric: Metric, trace: FlowTrace, cfg: SamplingConfig, trials: int = DEFAULT_TRIALS) -> float:
    """Monte Carlo degradation of one flow's metric at sampling rate cfg.p.

    Unbiased metrics report the variance of the relative error (sample
    variance across trials); duration reports the mean shortfall E(M - M_hat),
    which is non-negative because a sampled window never exceeds the real one.
    """
    if not isinstance(metric, Metric):
        raise ContractError(f"unknown metric {metric!r}")
    l_hat, s_hat, fd_hat = simulate_estimates(trace, cfg, trials)
    return _reduce_dre(metric, trace, l_hat, s_hat, fd_hat)


def adre(metric: Metric, traces, cfg: SamplingConfig, trials: int = DEFAULT_TRIALS) -> float:
    """Mean of the per-flow degradations across a trace collection."""
    traces = list(traces)
    if not traces:
        raise ContractError("adre needs at least one flow")
    return float(np.mean([dre(metric, trace, cfg, trials) for trace in traces]))


def traces_from_packets(packets, inactive_timeout: float = DEFAULT_INACTIVE_TIMEOUT,
                        active_timeout: float = DEFAULT_ACTIVE_TIMEOUT):
    """Group a packet stream into per-episode FlowTraces, in the
    aggregator's episode order."""
    agg = FlowAggregator(inactive_timeout, active_timeout)
    members: dict[Episode | None, list[PacketRecord]] = {}
    for pkt in packets:
        # Rejected packets gather under None, which no episode looks up.
        members.setdefault(agg.add(pkt), []).append(pkt)
    agg.flush()
    return [FlowTrace.from_packets(members[episode]) for episode in agg.episodes()]


@dataclass(frozen=True)
class ReportRow:
    metric: str
    ratio: int  # denominator N of a 1:N sampling ratio
    adre: float


@dataclass
class SamplingReport:
    rows: list[ReportRow]
    flows: int
    trials: int
    seed: int

    def to_json_dict(self) -> dict:
        metrics: dict[str, dict] = {}
        for metric in Metric:
            metrics[metric.value] = {
                "estimator": "unbiased" if metric.unbiased else "biased",
                "adre": {
                    f"1:{row.ratio}": row.adre
                    for row in self.rows
                    if row.metric == metric.value
                },
            }
        return {
            "flows": self.flows,
            "trials": self.trials,
            "seed": self.seed,
            "metrics": metrics,
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("metric,ratio,adre\n")
            for row in self.rows:
                fh.write(f"{row.metric},1:{row.ratio},{row.adre:.9g}\n")


def build_sampling_report(
    traces, ratios, seed: int = 0, trials: int = DEFAULT_TRIALS
) -> SamplingReport:
    """ADRE for every metric at every 1:N ratio in ``ratios``.

    One simulation per (flow, ratio) feeds all three metrics, so a report
    row equals what a standalone :func:`adre` call would produce.
    """
    traces = list(traces)
    ratios = list(ratios)
    if not traces:
        raise ContractError("adre needs at least one flow")
    if not ratios:
        raise ContractError("need at least one sampling ratio")
    for n in ratios:
        if n < 1:
            raise ContractError(f"ratio denominator {n} must be >= 1")
    means: dict[tuple[str, int], float] = {}
    for n in ratios:
        cfg = SamplingConfig(1.0 / n, seed)
        per_metric = {metric: [] for metric in Metric}
        for trace in traces:
            l_hat, s_hat, fd_hat = simulate_estimates(trace, cfg, trials)
            for metric in Metric:
                per_metric[metric].append(_reduce_dre(metric, trace, l_hat, s_hat, fd_hat))
        for metric in Metric:
            means[(metric.value, n)] = float(np.mean(per_metric[metric]))
    rows = [
        ReportRow(metric.value, n, means[(metric.value, n)])
        for metric in Metric
        for n in ratios
    ]
    return SamplingReport(rows=rows, flows=len(traces), trials=trials, seed=seed)
