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

The engine reads one trace table of every flow's packets, and draws from one
stream: flow f's (trials, n_f) uniforms are the first trials * n_f float32
draws of ``default_rng(seed)``.  The stream is drawn once, from the start up
to the longest flow's prefix, in stretches of about ``_CHUNK_BUDGET`` bytes
that hold only the survivors at the highest rate; after each stretch every
unfinished flow reads the whole trials of its prefix drawn so far.  The
integer sums do not depend on the order in which trials are read, so memory
stays bounded for any flow length, the flows may come in any order, and each
flow's estimates depend only on (flow, seed, trials): identical flows still
get identical estimates.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .flow import DEFAULT_ACTIVE_TIMEOUT, DEFAULT_INACTIVE_TIMEOUT, Aggregation, PacketTable, aggregate_table

MIN_TRIALS = 1000
DEFAULT_TRIALS = 20000

# Rough bytes per stretch of the Monte Carlo stream: 5 bytes a position for a
# float32 uniform and its comparison, plus about 45 bytes of survivor arrays
# for each position that survives the highest rate.  A stretch is never
# shorter than the longest flow, and its uniforms are drawn _PIECE at a time.
_CHUNK_BUDGET = 10_000_000
_PIECE = 1 << 18  # 1 MiB of float32 uniforms

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


class TraceTable:
    """Flows as one table: int64 columns of packet sizes (bytes, an IPv4 total
    length) and stamps (us), flow f at rows ``bounds[f]:bounds[f + 1]`` with its
    stamps non-decreasing, in the ranges the exact sums assume.  ``len()``
    counts the flows; iterating yields each as a FlowTrace of column views."""

    def __init__(self, sizes: np.ndarray, ts: np.ndarray, bounds) -> None:
        if not (isinstance(sizes, np.ndarray) and isinstance(ts, np.ndarray)) \
                or sizes.ndim != 1 or sizes.shape != ts.shape:
            raise ContractError("sizes and ts must be equal-length 1-D arrays")
        bounds = np.asarray(bounds)
        if bounds.ndim != 1 or bounds.dtype.kind not in "iu" \
                or bounds.size and (bounds[0] != 0 or bounds[-1] != sizes.size):
            raise ContractError("flow bounds must run from 0 to the packet count")
        if bounds.size < 2:
            raise ContractError("sampling needs at least one flow")
        if not (bounds[1:] > bounds[:-1]).all():
            raise ContractError("a flow trace has at least one packet")
        if sizes.dtype.kind not in "iu" or int(sizes.min()) < 1 or int(sizes.max()) > 65535:
            raise ContractError("packet sizes must be integers in 1..65535")
        if ts.dtype.kind not in "iu" or int(ts.min()) < 0 or int(ts.max()) > 2**63 - 1:
            raise ContractError("packet stamps must be integers in 0..2**63-1")
        rises = np.concatenate(([True], ts[1:] >= ts[:-1]))
        rises[bounds[:-1]] = True  # a flow may start before the one ahead of it ends
        if not rises.all():
            raise ContractError("packet stamps must not decrease")
        self.sizes, self.ts, self.bounds = (c.astype(np.int64, copy=False) for c in (sizes, ts, bounds))

    def __len__(self) -> int:
        return self.bounds.size - 1

    def __iter__(self):
        rows = self.bounds.tolist()
        for lo, hi in zip(rows[:-1], rows[1:]):
            yield FlowTrace(self.sizes[lo:hi], self.ts[lo:hi])


class FlowTrace(TraceTable):
    """One flow: the one-flow case of a :class:`TraceTable`."""

    def __init__(self, sizes: np.ndarray, ts: np.ndarray) -> None:
        super().__init__(sizes, ts, (0, np.size(sizes)))

    @property
    def length(self) -> int:
        return int(self.sizes.size)

    @property
    def size(self) -> int:
        return int(self.sizes.sum())

    @property
    def duration(self) -> float:
        return float(self.ts[-1] - self.ts[0]) / 1e6


def _check_flow(trace) -> None:
    if not isinstance(trace, FlowTrace):
        raise ContractError(f"expected one FlowTrace, got {type(trace).__name__}")


def _table(traces) -> TraceTable:
    """``traces`` as it is when a TraceTable, else its FlowTraces joined into one."""
    if isinstance(traces, TraceTable):
        return traces
    traces, empty = list(traces), np.empty(0, np.int64)
    return TraceTable(np.concatenate([empty, *(t.sizes for t in traces)]),
                      np.concatenate([empty, *(t.ts for t in traces)]),
                      np.cumsum([0, *(t.length for t in traces)]))


def relative_error_variance(metric: Metric, trace: FlowTrace, p: float) -> float:
    """Closed-form var((M - M_hat)/M) for the unbiased metrics.

    length: (1 - p) / (l * p)
    size:   ((1 - p) / p) * sum(s_i^2) / (sum(s_i))^2

    Duration has no closed form here; ask :func:`dre` instead.
    """
    _check_flow(trace)
    if not isinstance(metric, Metric):
        raise ContractError(f"unknown metric {metric!r}")
    if not 0.0 < p <= 1.0:
        raise ContractError(f"sampling probability {p} outside (0, 1]")
    if metric is Metric.LENGTH:
        return (1.0 - p) / (trace.length * p)
    if metric is Metric.SIZE:
        sizes = trace.sizes.astype(np.float64)
        total = sizes.sum()
        return ((1.0 - p) / p) * float((sizes * sizes).sum()) / float(total * total)
    raise ContractError(f"no closed-form error variance for metric {metric.value!r}")


def _runs(table: TraceTable, ps, seed: int, trials: int):
    """Simulate `trials` independent samplings of every flow at every rate in `ps`.

    Yields, for flow f, rate ps[j] and a stretch of trials, (f, j, trial,
    count, byte_sum, first, last): the trials in which some packet survives
    ps[j], in order, with their int64 survivor count and byte sum and the
    table rows of their first and last surviving packet.  Flow f's (trial,
    packet) uniform is position trial * n_f + packet of one seed's float32
    stream; a packet survives rate p when its uniform is below p.  Results
    depend only on (flow, seed, trials), not on the other flows or rates
    asked for.
    """
    top = max(ps)
    sizes, rows = table.sizes, table.bounds.tolist()
    lengths = np.diff(table.bounds).tolist()
    longest = max(lengths)
    stretch = max(longest, int(_CHUNK_BUDGET // (5 + 45 * top)))
    rng = np.random.default_rng(seed)
    read = [0] * len(lengths)  # flow f has read stream positions 0..read[f]-1
    unfinished = range(len(lengths))
    # The survivors at the highest rate in stream order: each trial's run is
    # contiguous and in packet order, and so is every lower rate's subset of it.
    idx, u, drawn_to = np.empty(0, np.int64), np.empty(0, np.float32), 0
    while unfinished:
        # A stretch is no shorter than the longest flow, so every unfinished
        # flow has read past drawn_to - longest.
        carry = np.searchsorted(idx, drawn_to - longest)
        parts = [(idx[carry:], u[carry:])]
        start, drawn_to = drawn_to, min(drawn_to + stretch, trials * longest)
        for a in range(start, drawn_to, _PIECE):
            drawn = rng.random(min(_PIECE, drawn_to - a), dtype=np.float32)
            hit = np.flatnonzero(drawn < top)
            parts.append((hit + a, drawn[hit]))
        idx, u = (np.concatenate(column) for column in zip(*parts))
        for f in unfinished:
            n = lengths[f]
            upto = min(drawn_to // n, trials) * n  # the whole trials drawn so far
            lo, hi = np.searchsorted(idx, (read[f], upto))
            read[f] = upto
            trial, pkt = np.divmod(idx[lo:hi], n)
            pkt += rows[f]  # the packet's table row
            for j, p in enumerate(ps):
                keep = u[lo:hi] < p
                t, i = trial[keep], pkt[keep]
                if t.size:
                    # Run r, the survivors of one trial, is t[bounds[r]:bounds[r + 1]].
                    starts = np.empty(t.size + 1, bool)
                    starts[0] = starts[-1] = True
                    np.not_equal(t[1:], t[:-1], out=starts[1:-1])
                    bounds = np.flatnonzero(starts)
                    first, end = bounds[:-1], bounds[1:]
                    yield f, j, t[first], end - first, np.add.reduceat(sizes[i], first), i[first], i[end - 1]
        unfinished = [f for f in unfinished if read[f] < trials * lengths[f]]


def check_trials(trials: int) -> None:
    """Refuse a trial count outside MIN_TRIALS..MAX_TRIALS, before anything is drawn."""
    if trials < MIN_TRIALS:
        raise ContractError(f"Monte Carlo needs at least {MIN_TRIALS} trials, got {trials}")
    if trials > MAX_TRIALS:
        raise ContractError(f"Monte Carlo takes at most {MAX_TRIALS} trials, got {trials}")


def _mc_degradations(table: TraceTable, ps, seed: int, trials: int) -> np.ndarray:
    """(3, rates, flows) degradations in Metric order, every flow reading one stream.

    Per flow and rate, the trials add up exactly as integers: A = sum c,
    B = sum c^2, A_S = sum S, B_S = sum S^2 and W = sum window (us).  With
    p = pn / pd and T trials, var(c / (p l)) = (T B - A^2) pd^2 / (T (T-1)
    (pn l)^2), the same for sizes, and E(D - window) in seconds is
    (T D - W) / (T 10^6) with D in us; each is one int / int division,
    rounded once.  A flow's sums are int64 where T times its largest square
    or window fits, Python ints past that.
    """
    ps = [float(p) for p in ps]  # a Python float compares in float32, like the uniforms
    starts, ends = table.bounds[:-1], table.bounds[1:]
    lengths = (ends - starts).tolist()
    sizes = np.add.reduceat(table.sizes, starts).tolist()
    spans = (table.ts[ends - 1] - table.ts[starts]).tolist()
    dtypes = [np.int64 if trials * max(size * size, span) < 2**63 else object
              for size, span in zip(sizes, spans)]
    sums = [[[0] * 5 for _ in ps] for _ in lengths]
    for f, j, _, count, byte_sum, first, last in _runs(table, ps, seed, trials):
        dtype = dtypes[f]
        count, byte_sum = count.astype(dtype, copy=False), byte_sum.astype(dtype, copy=False)
        window = (table.ts[last] - table.ts[first]).astype(dtype, copy=False)
        for k, v in enumerate((count, count * count, byte_sum, byte_sum * byte_sum, window)):
            sums[f][j][k] += int(v.sum())
    scale = trials * (trials - 1)
    dres = np.empty((3, len(ps), len(lengths)))
    for f, (length, size, span) in enumerate(zip(lengths, sizes, spans)):
        for j, (p, (a, b, a_s, b_s, w)) in enumerate(zip(ps, sums[f])):
            pn, pd = p.as_integer_ratio()
            dres[:, j, f] = ((trials * b - a * a) * pd * pd / (scale * (pn * length) ** 2),
                             (trials * b_s - a_s * a_s) * pd * pd / (scale * (pn * size) ** 2),
                             (trials * span - w) / (trials * 10**6))
    return dres


def simulate_estimates(
    trace: FlowTrace, cfg: SamplingConfig, trials: int = DEFAULT_TRIALS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (l_hat, s_hat, fd_hat) arrays for one flow at rate cfg.p."""
    _check_flow(trace)
    check_trials(trials)
    p = float(cfg.p)
    t_sec = (trace.ts - trace.ts[0]).astype(np.float64) / 1e6
    est = np.zeros((3, trials))
    for *_, trial, count, byte_sum, first, last in _runs(trace, [p], cfg.seed, trials):
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
    _check_flow(trace)
    return adre(metric, trace, cfg, trials)


def adre(metric: Metric, traces, cfg: SamplingConfig, trials: int = DEFAULT_TRIALS) -> float:
    """Mean of the per-flow degradations, each as :func:`dre` gives it, across
    a TraceTable or an iterable of FlowTraces."""
    if not isinstance(metric, Metric):
        raise ContractError(f"unknown metric {metric!r}")
    check_trials(trials)
    dres = _mc_degradations(_table(traces), [cfg.p], cfg.seed, trials)
    return float(dres[list(Metric).index(metric), 0].mean())


def traces_from_table(table: PacketTable, agg: Aggregation) -> TraceTable:
    """The episodes of ``agg``, the aggregation of ``table``, as one TraceTable
    in episode order: each episode's packets sorted by time, ties in arrival order."""
    episode = np.repeat(np.arange(len(agg.flows)), np.diff(agg.bounds))
    ts = table.ts[agg.packets]
    by_time = np.lexsort((ts, episode))
    return TraceTable(table.length[agg.packets[by_time]], ts[by_time], agg.bounds)


def traces_from_packets(packets, inactive_timeout: float = DEFAULT_INACTIVE_TIMEOUT,
                        active_timeout: float = DEFAULT_ACTIVE_TIMEOUT) -> TraceTable:
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
    if isinstance(n, bool) or not 1 <= n <= sys.float_info.max:
        raise ContractError(f"ratio denominator {n} must be in 1..{sys.float_info.max:.6g}")
    return 1.0 / n


def build_sampling_report(
    traces, ratios, seed: int = 0, trials: int = DEFAULT_TRIALS
) -> SamplingReport:
    """ADRE for every metric at every 1:N ratio in ``ratios``.

    One simulation per flow serves every ratio and all three metrics; a
    rate's estimates do not depend on the other rates, so a report row
    equals what a standalone :func:`adre` call would produce from ``traces``.
    """
    ratios = list(ratios)
    if not ratios:
        raise ContractError("need at least one sampling ratio")
    rates = [sampling_rate(n) for n in ratios]
    check_trials(trials)
    dres = _mc_degradations(_table(traces), rates, seed, trials)
    # Along the contiguous flow axis, the mean sums as np.mean does over adre's list.
    means = dres.mean(axis=2)
    rows = [
        ReportRow(metric.value, n, float(means[m, j]))
        for m, metric in enumerate(Metric)
        for j, n in enumerate(ratios)
    ]
    return SamplingReport(rows=rows, flows=dres.shape[2], trials=trials, seed=seed)
