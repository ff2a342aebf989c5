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
trace summarises a whole capture at one sampling ratio.  A degradation is an
exact rational of integer sums over the trials' survivors, rounded once, so a
report holds no per-trial array and costs in proportion to the survivors.

A report draws from one stream: flow f's (trials, n_f) uniforms are the
first trials * n_f float32 draws of ``default_rng(seed)``.  One list of the
survivors at the highest rate grows only when a flow needs more of the
stream than the flows before it, so the flows may come in any order and the
stream is drawn once, up to the longest flow's prefix.  The list stops
growing at ``_CHUNK_BUDGET`` bytes; a longer flow draws the rest of its
prefix, a chunk of trials at a time, from the generator state saved where
the list ends, so memory stays bounded for any flow length.  Each flow's
estimates depend only on (flow, seed, trials), so identical flows still get
identical estimates.
"""

from __future__ import annotations

import bisect
import enum
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .flow import DEFAULT_ACTIVE_TIMEOUT, DEFAULT_INACTIVE_TIMEOUT, Aggregation, PacketTable, aggregate_table

MIN_TRIALS = 1000
DEFAULT_TRIALS = 20000

# Rough bytes per Monte Carlo chunk, and the most the kept survivor list may
# hold.  A chunk row costs a float32 uniform and a comparison byte per packet,
# plus about 45 bytes of survivor lists for each packet that survives the
# highest rate.
_CHUNK_BUDGET = 10_000_000

# simulate_estimates returns three float64 per-trial arrays (24 bytes a trial),
# and reducing them, as np.var does, makes about five float64 temporaries of
# the same length (40 bytes).  Keeping those 64 bytes a trial within the budget
# bounds the trials at 10,000,000 // 64 = 156,250.
MAX_TRIALS = _CHUNK_BUDGET // 64


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
    """One flow as parallel integer arrays of packet sizes (bytes, an IPv4 total
    length) and non-decreasing stamps (us), the ranges its exact sums assume."""

    sizes: np.ndarray
    ts: np.ndarray

    def __post_init__(self) -> None:
        if self.sizes.ndim != 1 or self.sizes.shape != self.ts.shape:
            raise ContractError("sizes and ts must be equal-length 1-D arrays")
        if self.sizes.size == 0:
            raise ContractError("a flow trace has at least one packet")
        if not (np.isfinite(self.sizes) & (self.sizes > 0)).all():
            raise ContractError("packet sizes must be positive finite numbers")
        if not (np.diff(self.ts) >= 0).all():
            raise ContractError("packet stamps must not decrease")
        if self.sizes.dtype.kind not in "iu" or int(self.sizes.max()) > 65535:
            raise ContractError("packet sizes must be integers in 1..65535")
        if self.ts.dtype.kind not in "iu" or int(self.ts[0]) < 0 or int(self.ts[-1]) > 2**63 - 1:
            raise ContractError("packet stamps must be integers in 0..2**63-1")

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


class _SurvivorStream:
    """The survivors at the highest rate of one seed's float32 stream, whose
    position trial * n + packet holds an n-packet flow's (trial, packet)
    uniform; kept as stretches of positions and uniforms, 12 bytes a survivor."""

    def __init__(self, seed: int, top: float):
        self.rng = np.random.default_rng(seed)
        self.top = top
        self.kept: list[tuple[np.ndarray, np.ndarray]] = []  # one stretch of the stream each
        self.ends: list[int] = []  # the stream position each kept stretch ends at
        self.size = 0  # survivors kept
        self.end = 0  # the kept survivors are those of stream positions 0..end-1
        self.state = self.rng.bit_generator.state  # the generator at position end
        self.growing = True  # until a stretch does not fit in _CHUNK_BUDGET

    def survivors(self, trace: FlowTrace, ps, trials: int):
        """Simulate `trials` independent samplings of one flow at every rate in `ps`.

        Yields, for each chunk of trials and each rate ps[j], (j, trial,
        count, byte_sum, first, last): the trials in which some packet
        survives ps[j], in order, with their int64 survivor count and byte
        sum and their first and last surviving packet.  One uniform per
        (trial, packet) serves every rate: the packet survives rate p when its
        uniform is below p.  Results depend only on (seed, trials), not on
        the other flows or rates asked for.
        """
        n = trace.length
        sizes = trace.sizes.astype(np.int64)
        rows = max(1, int(_CHUNK_BUDGET // (n * (5 + 45 * self.top))))
        for lo in range(0, trials, rows):
            # Survivors at the highest rate in stream order: each trial's run is
            # contiguous and in packet order, and so is every lower rate's subset of it.
            idx, u = self._read(lo * n, (lo + min(rows, trials - lo)) * n)
            trial, pkt = np.divmod(idx, n)
            for j, p in enumerate(ps):
                keep = u < p
                t, i = trial[keep], pkt[keep]
                if t.size:
                    # Run r, the survivors of one trial, is t[bounds[r]:bounds[r + 1]].
                    starts = np.empty(t.size + 1, bool)
                    starts[0] = starts[-1] = True
                    np.not_equal(t[1:], t[:-1], out=starts[1:-1])
                    bounds = np.flatnonzero(starts)
                    first, end = bounds[:-1], bounds[1:]
                    yield j, t[first], end - first, np.add.reduceat(sizes[i], first), i[first], i[end - 1]

    def _read(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Survivors of stream positions a..b-1.  A read that starts past the
        kept list continues the one before it, where the generator stands."""
        parts = self.kept[bisect.bisect_right(self.ends, a) : bisect.bisect_left(self.ends, b) + 1]
        if b > self.end:
            if a <= self.end:
                self.rng.bit_generator.state = self.state
            start = max(a, self.end)
            drawn = self.rng.random(b - start, dtype=np.float32)
            hit = np.flatnonzero(drawn < self.top)
            uniforms = drawn[hit]
            hit += start  # stream positions
            parts.append((hit, uniforms))
            self.growing &= (self.size + hit.size) * 12 <= _CHUNK_BUDGET
            if self.growing:
                self.kept.append(parts[-1])
                self.ends.append(b)
                self.size += hit.size
                self.end, self.state = b, self.rng.bit_generator.state
        idx, u = parts[0] if len(parts) == 1 else (np.concatenate(col) for col in zip(*parts))
        lo, hi = np.searchsorted(idx, (a, b))
        return idx[lo:hi], u[lo:hi]


def check_trials(trials: int) -> None:
    """Refuse a trial count outside MIN_TRIALS..MAX_TRIALS, before anything is drawn."""
    if trials < MIN_TRIALS:
        raise ContractError(f"Monte Carlo needs at least {MIN_TRIALS} trials, got {trials}")
    if trials > MAX_TRIALS:
        raise ContractError(f"Monte Carlo takes at most {MAX_TRIALS} trials, got {trials}")


def _mc_degradations(traces: list[FlowTrace], ps, seed: int, trials: int) -> np.ndarray:
    """(3, rates, flows) degradations in Metric order, every flow reading one stream.

    Per flow and rate, the trials add up exactly as integers: A = sum c,
    B = sum c^2, A_S = sum S, B_S = sum S^2 and W = sum window (us).  With
    p = pn / pd and T trials, var(c / (p l)) = (T B - A^2) pd^2 / (T (T-1)
    (pn l)^2), the same for sizes, and E(D - window) in seconds is
    (T D - W) / (T 10^6) with D in us; each is one int / int division,
    rounded once.  A flow's sums are int64 where T times its largest square
    or window fits, Python ints past that.
    """
    check_trials(trials)
    if not traces:
        raise ContractError("sampling needs at least one flow")
    ps = [float(p) for p in ps]  # a Python float compares in float32, like the uniforms
    stream = _SurvivorStream(seed, max(ps))
    scale = trials * (trials - 1)
    dres = np.empty((3, len(ps), len(traces)))
    for f, trace in enumerate(traces):
        length, size, ts = trace.length, trace.size, trace.ts.astype(np.int64)
        span = int(ts[-1] - ts[0])
        dtype = np.int64 if trials * max(size * size, span) < 2**63 else object
        sums = [[0] * 5 for _ in ps]
        for j, _, count, byte_sum, first, last in stream.survivors(trace, ps, trials):
            count, byte_sum = count.astype(dtype, copy=False), byte_sum.astype(dtype, copy=False)
            window = (ts[last] - ts[first]).astype(dtype, copy=False)
            for k, v in enumerate((count, count * count, byte_sum, byte_sum * byte_sum, window)):
                sums[j][k] += int(v.sum())
        for j, (p, (a, b, a_s, b_s, w)) in enumerate(zip(ps, sums)):
            pn, pd = p.as_integer_ratio()
            dres[:, j, f] = ((trials * b - a * a) * pd * pd / (scale * (pn * length) ** 2),
                             (trials * b_s - a_s * a_s) * pd * pd / (scale * (pn * size) ** 2),
                             (trials * span - w) / (trials * 10**6))
    return dres


def simulate_estimates(
    trace: FlowTrace, cfg: SamplingConfig, trials: int = DEFAULT_TRIALS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (l_hat, s_hat, fd_hat) arrays for one flow at rate cfg.p."""
    check_trials(trials)
    p = float(cfg.p)
    t_sec = (trace.ts - trace.ts[0]).astype(np.float64) / 1e6
    est = np.zeros((3, trials))
    for _, trial, count, byte_sum, first, last in _SurvivorStream(cfg.seed, p).survivors(trace, [p], trials):
        est[:, trial] = count / p, byte_sum / p, t_sec[last] - t_sec[first]
    return tuple(est)


def dre(metric: Metric, trace: FlowTrace, cfg: SamplingConfig, trials: int = DEFAULT_TRIALS) -> float:
    """Monte Carlo degradation of one flow's metric at sampling rate cfg.p.

    Unbiased metrics report the variance of the relative error (sample
    variance across trials); duration reports the mean shortfall E(M - M_hat),
    which is non-negative because a sampled window never exceeds the real one.
    Either is the exact rational of the trials' integer counts, byte sums and
    windows, rounded once to a float.
    """
    return adre(metric, [trace], cfg, trials)


def adre(metric: Metric, traces, cfg: SamplingConfig, trials: int = DEFAULT_TRIALS) -> float:
    """Mean of the per-flow degradations, each as :func:`dre` gives it, across
    a trace collection."""
    if not isinstance(metric, Metric):
        raise ContractError(f"unknown metric {metric!r}")
    dres = _mc_degradations(list(traces), [cfg.p], cfg.seed, trials)
    return float(dres[list(Metric).index(metric), 0].mean())


def traces_from_table(table: PacketTable, agg: Aggregation) -> list[FlowTrace]:
    """One FlowTrace per flow episode of ``agg``, the aggregation of ``table``,
    in episode order: the episode's packets sorted by time, ties in arrival order."""
    episode = np.repeat(np.arange(len(agg.flows)), np.diff(agg.bounds))
    ts = table.ts[agg.packets].astype(np.int64)
    by_time = np.lexsort((ts, episode))
    ts, sizes = ts[by_time], table.length[agg.packets[by_time]].astype(np.int64)
    bounds = agg.bounds.tolist()
    return [FlowTrace(sizes[lo:hi], ts[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def traces_from_packets(packets, inactive_timeout: float = DEFAULT_INACTIVE_TIMEOUT,
                        active_timeout: float = DEFAULT_ACTIVE_TIMEOUT) -> list[FlowTrace]:
    """:func:`traces_from_table` over a packet stream."""
    table = PacketTable.from_records(packets)
    return traces_from_table(table, aggregate_table(table, inactive_timeout, active_timeout))


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
    if not ratios:
        raise ContractError("need at least one sampling ratio")
    dres = _mc_degradations(traces, [sampling_rate(n) for n in ratios], seed, trials)
    # Along the contiguous flow axis, the mean sums as np.mean does over adre's list.
    means = dres.mean(axis=2)
    rows = [
        ReportRow(metric.value, n, float(means[m, j]))
        for m, metric in enumerate(Metric)
        for j, n in enumerate(ratios)
    ]
    return SamplingReport(rows=rows, flows=len(traces), trials=trials, seed=seed)
