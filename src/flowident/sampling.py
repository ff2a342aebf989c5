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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .flow import DEFAULT_ACTIVE_TIMEOUT, DEFAULT_INACTIVE_TIMEOUT, PacketTable, aggregate_table

MIN_TRIALS = 1000
DEFAULT_TRIALS = 20000

# Rough bytes per Monte Carlo chunk.  A chunk row costs a float32 uniform and a
# comparison byte per packet, plus about 45 bytes of survivor lists for each
# packet that survives the highest rate.
_CHUNK_BUDGET = 10_000_000


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
class FlowTrace:
    """One flow as parallel arrays of packet sizes and timestamps (us)."""

    sizes: np.ndarray
    ts: np.ndarray

    def __post_init__(self) -> None:
        if self.sizes.ndim != 1 or self.sizes.shape != self.ts.shape:
            raise ContractError("sizes and ts must be equal-length 1-D arrays")
        if self.sizes.size == 0:
            raise ContractError("a flow trace has at least one packet")

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


def _mc_estimates(trace: FlowTrace, ps, seed: int, trials: int) -> np.ndarray:
    """Simulate `trials` independent samplings of one flow at every rate in `ps`.

    Returns a (3, len(ps), trials) array of per-trial l_hat, s_hat and fd_hat.
    One float32 uniform per (trial, packet) serves every rate: the packet
    survives rate p when its uniform is below p.  Chunking by trials does not
    change the consumed random stream, so results depend only on (seed,
    trials), and a rate's estimates do not depend on the other rates asked for.
    """
    if trials < MIN_TRIALS:
        raise ContractError(f"Monte Carlo needs at least {MIN_TRIALS} trials")
    ps = [float(p) for p in ps]  # a Python float compares in float32, like the uniforms
    n = trace.length
    sizes = trace.sizes.astype(np.float64)
    t_sec = (trace.ts - trace.ts[0]).astype(np.float64) / 1e6
    rng = np.random.default_rng(seed)
    rows = max(1, int(_CHUNK_BUDGET // (n * (5 + 45 * max(ps)))))
    est = np.empty((3, len(ps), trials))
    for lo in range(0, trials, rows):
        c = min(rows, trials - lo)
        u = rng.random((c, n), dtype=np.float32)
        # Survivors at the highest rate in row-major order: each trial's run is
        # contiguous and in packet order, and so is every lower rate's subset of it.
        trial, pkt = np.nonzero(u < max(ps))
        u = u[trial, pkt]
        for j, p in enumerate(ps):
            keep = u < p
            t, i = trial[keep], pkt[keep]
            k = np.bincount(t, minlength=c)
            end = np.cumsum(k)
            two = k >= 2
            window = np.zeros(c)
            window[two] = t_sec[i[end[two] - 1]] - t_sec[i[end[two] - k[two]]]
            est[:, j, lo : lo + c] = k / p, np.bincount(t, sizes[i], minlength=c) / p, window
    return est


def _degradations(trace: FlowTrace, est: np.ndarray) -> np.ndarray:
    """(3, rates) degradations in Metric order from :func:`_mc_estimates`'s output."""
    return np.array([
        np.var(est[0] / trace.length, axis=1, ddof=1),
        np.var(est[1] / trace.size, axis=1, ddof=1),
        np.mean(trace.duration - est[2], axis=1),
    ])


def simulate_estimates(
    trace: FlowTrace, cfg: SamplingConfig, trials: int = DEFAULT_TRIALS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (l_hat, s_hat, fd_hat) arrays for one flow at rate cfg.p."""
    return tuple(_mc_estimates(trace, [cfg.p], cfg.seed, trials)[:, 0])


def dre(metric: Metric, trace: FlowTrace, cfg: SamplingConfig, trials: int = DEFAULT_TRIALS) -> float:
    """Monte Carlo degradation of one flow's metric at sampling rate cfg.p.

    Unbiased metrics report the variance of the relative error (sample
    variance across trials); duration reports the mean shortfall E(M - M_hat),
    which is non-negative because a sampled window never exceeds the real one.
    """
    if not isinstance(metric, Metric):
        raise ContractError(f"unknown metric {metric!r}")
    est = _mc_estimates(trace, [cfg.p], cfg.seed, trials)
    return float(_degradations(trace, est)[list(Metric).index(metric), 0])


def adre(metric: Metric, traces, cfg: SamplingConfig, trials: int = DEFAULT_TRIALS) -> float:
    """Mean of the per-flow degradations across a trace collection."""
    traces = list(traces)
    if not traces:
        raise ContractError("adre needs at least one flow")
    return float(np.mean([dre(metric, trace, cfg, trials) for trace in traces]))


def traces_from_table(table: PacketTable, inactive_timeout: float = DEFAULT_INACTIVE_TIMEOUT,
                      active_timeout: float = DEFAULT_ACTIVE_TIMEOUT) -> list[FlowTrace]:
    """One FlowTrace per flow episode of a packet table, in episode order:
    the episode's packets sorted by time, ties in arrival order."""
    agg = aggregate_table(table, inactive_timeout, active_timeout)
    episode = np.repeat(np.arange(len(agg.flows)), np.diff(agg.bounds))
    ts = table.ts[agg.packets].astype(np.int64)
    by_time = np.lexsort((ts, episode))
    ts, sizes = ts[by_time], table.length[agg.packets[by_time]].astype(np.int64)
    bounds = agg.bounds.tolist()
    return [FlowTrace(sizes[lo:hi], ts[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def traces_from_packets(packets, inactive_timeout: float = DEFAULT_INACTIVE_TIMEOUT,
                        active_timeout: float = DEFAULT_ACTIVE_TIMEOUT) -> list[FlowTrace]:
    """:func:`traces_from_table` over a packet stream."""
    return traces_from_table(PacketTable.from_records(packets), inactive_timeout, active_timeout)


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
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("metric,ratio,adre\n")
            for row in self.rows:
                fh.write(f"{row.metric},1:{row.ratio},{row.adre:.9g}\n")


def sampling_rate(n) -> float:
    """The rate 1/n of a 1:n sampling ratio, for n from 1 up to the largest
    float, past which 1/n is no positive float."""
    if not 1 <= n <= sys.float_info.max:
        raise ContractError(f"ratio denominator {n} must be in 1..{sys.float_info.max:.6g}")
    return 1.0 / n


def build_sampling_report(
    traces, ratios, seed: int = 0, trials: int = DEFAULT_TRIALS
) -> SamplingReport:
    """ADRE for every metric at every 1:N ratio in ``ratios``.

    One simulation per flow serves every ratio and all three metrics; a
    rate's estimates do not depend on the other rates, so a report row
    equals what a standalone :func:`adre` call would produce.
    """
    traces = list(traces)
    ratios = list(ratios)
    if not traces:
        raise ContractError("adre needs at least one flow")
    if not ratios:
        raise ContractError("need at least one sampling ratio")
    ps = [sampling_rate(n) for n in ratios]
    dres = np.empty((3, len(ratios), len(traces)))
    for f, trace in enumerate(traces):
        dres[:, :, f] = _degradations(trace, _mc_estimates(trace, ps, seed, trials))
    # Along the contiguous flow axis, the mean sums as np.mean does over adre's list.
    means = dres.mean(axis=2)
    rows = [
        ReportRow(metric.value, n, float(means[m, j]))
        for m, metric in enumerate(Metric)
        for j, n in enumerate(ratios)
    ]
    return SamplingReport(rows=rows, flows=len(traces), trials=trials, seed=seed)
