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
that hold only the survivors at the highest rate.  After each stretch, each
rate takes its subset of them once, and each distinct flow length reads the
whole trials of its prefix drawn so far: flows of one length read the same
positions, so they share their survivors and runs, and only their sizes
and stamps differ.  The integer sums do not depend on the order in which
trials are read, so memory stays bounded for any flow length, the flows may
come in any order, and each flow's estimates depend only on (flow, seed,
trials): identical flows still get identical estimates.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, check_integer
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

    With p = pn / pd exactly, each is one int / int division, rounded once:
    the exact expectation of the report's cell.  A value past the largest
    float is refused.  Duration has no closed form here; ask :func:`dre`.
    """
    _check_flow(trace)
    if not isinstance(metric, Metric):
        raise ContractError(f"unknown metric {metric!r}")
    if not 0.0 < p <= 1.0:
        raise ContractError(f"sampling probability {p} outside (0, 1]")
    pn, pd = float(p).as_integer_ratio()
    if metric is Metric.LENGTH:
        num, den = pd - pn, pn * trace.length
    elif metric is Metric.SIZE:
        sizes = trace.sizes.tolist()
        num, den = (pd - pn) * sum(s * s for s in sizes), pn * sum(sizes) ** 2
    else:
        raise ContractError(f"no closed-form error variance for metric {metric.value!r}")
    try:
        return num / den
    except OverflowError:
        raise ContractError(f"{metric.value} error variance at p={p} is past the largest float") from None


def _runs(lengths, ps, seed: int, trials: int):
    """Simulate `trials` independent samplings of a flow of each length in
    `lengths` at every rate in `ps`.

    Yields, for length lengths[g], rate ps[j] and a stretch of trials,
    (g, j, trial, pkt, first, end): pkt is the packet (0..n-1) of every
    survivor of the stretch's whole trials, in order, and run r, the
    survivors of trial trial[r], is pkt[first[r]:end[r]]; a trial in which
    nothing survives has no run.  A flow of length n reads position
    trial * n + packet of one seed's float32 stream, and a packet survives
    rate p when its uniform is below p, so every flow of one length reads
    the same positions and shares the same runs.  Results depend only on
    (length, seed, trials), not on the other lengths or rates asked for.
    """
    top, longest = max(ps), max(lengths)
    stretch = max(longest, int(_CHUNK_BUDGET // (5 + 45 * top)))
    rng = np.random.default_rng(seed)
    read = [0] * len(lengths)  # length g has read stream positions 0..read[g]-1
    unfinished = range(len(lengths))
    # The survivors at the highest rate in stream order: each trial's run is
    # contiguous and in packet order, and so is every lower rate's subset of it.
    idx, u, drawn_to = np.empty(0, np.int64), np.empty(0, np.float32), 0
    while unfinished:
        # A stretch is no shorter than the longest flow, so every unfinished
        # length has read past drawn_to - longest.
        carry = np.searchsorted(idx, drawn_to - longest)
        parts = [(idx[carry:], u[carry:])]
        start, drawn_to = drawn_to, min(drawn_to + stretch, trials * longest)
        for a in range(start, drawn_to, _PIECE):
            drawn = rng.random(min(_PIECE, drawn_to - a), dtype=np.float32)
            hit = np.flatnonzero(drawn < top)
            parts.append((hit + a, drawn[hit]))
        idx, u = (np.concatenate(column) for column in zip(*parts))
        del parts, drawn, hit  # hold only this stretch's survivors while its runs are read
        upto = [min(drawn_to // n, trials) * n for n in lengths]  # the whole trials drawn so far
        for j, p in enumerate(ps):
            kept = idx[u < p]  # one rate's survivors, held for one rate at a time
            for g in unfinished:
                n = lengths[g]
                lo, hi = np.searchsorted(kept, (read[g], upto[g]))
                if lo < hi:
                    trial, pkt = np.divmod(kept[lo:hi], n)
                    # Run r is the survivors pkt[bounds[r]:bounds[r + 1]] of one trial.
                    starts = np.empty(trial.size + 1, bool)
                    starts[0] = starts[-1] = True
                    np.not_equal(trial[1:], trial[:-1], out=starts[1:-1])
                    bounds = np.flatnonzero(starts)
                    yield g, j, trial[bounds[:-1]], pkt, bounds[:-1], bounds[1:]
        read = upto
        unfinished = [g for g in unfinished if read[g] < trials * lengths[g]]


def check_trials(trials: int) -> int:
    """``trials`` as an int; a trial count that is not an integer in
    MIN_TRIALS..MAX_TRIALS raises, before any draw."""
    trials = check_integer("trials", trials)
    if trials < MIN_TRIALS:
        raise ContractError(f"Monte Carlo needs at least {MIN_TRIALS} trials, got {trials}")
    if trials > MAX_TRIALS:
        raise ContractError(f"Monte Carlo takes at most {MAX_TRIALS} trials, got {trials}")
    return trials


def _mc_degradations(table: TraceTable, ps, seed: int, trials: int) -> np.ndarray:
    """(3, rates, flows) degradations in Metric order, every flow reading one stream.

    Per flow and rate, the trials add up exactly as integers: A = sum c,
    B = sum c^2, A_S = sum S, B_S = sum S^2 and W = sum window (us).  With
    p = pn / pd and T trials, var(c / (p l)) = (T B - A^2) pd^2 / (T (T-1)
    (pn l)^2), the same for sizes, and E(D - window) in seconds is
    (T D - W) / (T 10^6) with D in us; each is one int / int division,
    rounded once.

    The flows of one length share their runs, so A and B are added once
    per length.  Each length's flows are held as (flows, n) blocks of sizes
    and of stamps relative to the flow's first packet: one gather of the
    size block at the survivors and one reduceat give every flow's byte
    sums S, and W is the stamp block @ (bincount(last) - bincount(first)),
    since each run adds ts[last] - ts[first].  The gather takes as many
    flows at a time as fit the budget.  A length's sums are int64 where T
    times the largest squared byte total or duration (us) among its flows
    fits, and Python ints past that; either way they are exact.
    """
    ps = [float(p) for p in ps]  # a Python float compares in float32, like the uniforms
    lengths = np.diff(table.bounds)
    order = np.argsort(lengths, kind="stable")
    groups = []  # per length: its flows, their (flows, n) size and stamp blocks, their sums
    for flows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        rows = table.bounds[flows, None] + np.arange(lengths[flows[0]])
        sizes, stamps = table.sizes[rows], table.ts[rows]
        stamps -= stamps[:, :1]  # relative to each flow's first packet
        largest = max(int(sizes.sum(axis=1).max()) ** 2, int(stamps[:, -1].max()))
        dtype = np.int64 if trials * largest < 2**63 else object
        groups.append((flows, sizes, stamps.astype(dtype), np.zeros((len(ps), 5, flows.size), dtype)))
    for g, j, _, pkt, first, end in _runs([sizes.shape[1] for _, sizes, _, _ in groups], ps, seed, trials):
        _, sizes, stamps, sums = groups[g]
        n, dtype = sizes.shape[1], stamps.dtype
        count = (end - first).astype(dtype, copy=False)
        sums[j, 0] += pkt.size
        sums[j, 1] += count @ count
        # Run r adds ts[last_r] - ts[first_r]: each packet's stamp counts once
        # for every run it ends and minus once for every run it starts.
        net = np.bincount(pkt[end - 1], minlength=n) - np.bincount(pkt[first], minlength=n)
        sums[j, 4] += stamps @ net.astype(dtype, copy=False)
        # As many flows at a time as fit the budget: 8 bytes a survivor for the
        # int64 gather, 96 where S and S^2 also become Python ints.
        step = max(1, _CHUNK_BUDGET // ((8 if dtype == np.int64 else 96) * pkt.size))
        for c in range(0, len(sizes), step):
            byte_sum = np.add.reduceat(sizes[c:c + step].take(pkt, axis=1), first, axis=1)
            byte_sum = byte_sum.astype(dtype, copy=False)
            sums[j, 2, c:c + step] += byte_sum.sum(axis=1)
            sums[j, 3, c:c + step] += (byte_sum * byte_sum).sum(axis=1)
    scale = trials * (trials - 1)
    dres = np.empty((3, len(ps), len(lengths)))
    for flows, sizes, stamps, sums in groups:
        length, totals, spans = sizes.shape[1], sizes.sum(axis=1).tolist(), stamps[:, -1].tolist()
        for j, p in enumerate(ps):
            pn, pd = p.as_integer_ratio()
            a, b, a_s, b_s, w = sums[j].tolist()
            dres[0, j, flows] = (trials * b[0] - a[0] * a[0]) * pd * pd / (scale * (pn * length) ** 2)
            dres[1, j, flows] = [(trials * y - x * x) * pd * pd / (scale * (pn * size) ** 2)
                                 for x, y, size in zip(a_s, b_s, totals)]
            dres[2, j, flows] = [(trials * span - v) / (trials * 10**6) for span, v in zip(spans, w)]
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
    for *_, trial, pkt, first, end in _runs([trace.length], [p], cfg.seed, trials):
        byte_sum = np.add.reduceat(trace.sizes[pkt], first)
        est[:, trial] = (end - first) / p, byte_sum / p, t_sec[pkt[end - 1]] - t_sec[pkt[first]]
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

    One simulation per flow length serves its flows, every ratio and all
    three metrics; a flow's estimates do not depend on the other flows or
    rates, so a report row equals what a standalone :func:`adre` call would
    produce from ``traces``.
    """
    ratios = list(ratios)
    if not ratios:
        raise ContractError("need at least one sampling ratio")
    rates = [sampling_rate(n) for n in ratios]
    trials, seed = check_trials(trials), check_integer("seed", seed)
    dres = _mc_degradations(_table(traces), rates, seed, trials)
    # Along the contiguous flow axis, the mean sums as np.mean does over adre's list.
    means = dres.mean(axis=2)
    rows = [
        ReportRow(metric.value, n, float(means[m, j]))
        for m, metric in enumerate(Metric)
        for j, n in enumerate(ratios)
    ]
    return SamplingReport(rows=rows, flows=dres.shape[2], trials=trials, seed=seed)
