"""Bernoulli sampling, inverse-probability estimators, and error reports."""

import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowident.sampling as sampling
from flowident.errors import ContractError
from flowident.flow import Proto, aggregate_table
from flowident.sampling import (
    DEFAULT_TRIALS,
    MAX_TRIALS,
    MIN_TRIALS,
    FlowTrace,
    Metric,
    SamplingConfig,
    TraceTable,
    adre,
    build_sampling_report,
    dre,
    relative_error_variance,
    sampling_rate,
    simulate_estimates,
    traces_from_packets,
    traces_from_table,
)
from flowident.synth import generate_packets, load_synth_spec
from helpers import FlowEstimates, bernoulli_sample, estimate, mk_packet, trace_from_packets


def make_trace(sizes, ts=None):
    sizes = np.asarray(sizes, dtype=np.int64)
    if ts is None:
        ts = np.arange(sizes.size, dtype=np.int64) * 1000
    return FlowTrace(sizes=sizes, ts=np.asarray(ts, dtype=np.int64))


def uniform_trace(length, size=100):
    return make_trace([size] * length)


DEMO_SPEC = Path(__file__).parent / "fixtures" / "demo_spec.json"


# ----------------------------------------------------------------- plumbing

def test_config_validation():
    SamplingConfig(1.0)
    SamplingConfig(1 / 1024)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ContractError, match="outside"):
            SamplingConfig(bad)


def test_flow_trace_properties_and_validation():
    trace = make_trace([60, 52, 40], ts=[1_000_000, 1_300_000, 1_500_000])
    assert trace.length == 3
    assert trace.size == 152
    assert trace.duration == 0.5
    with pytest.raises(ContractError, match="equal-length"):
        FlowTrace(sizes=np.array([1, 2]), ts=np.array([1, 2, 3]))
    with pytest.raises(ContractError, match="at least one packet"):
        FlowTrace(sizes=np.array([], dtype=np.int64), ts=np.array([], dtype=np.int64))
    with pytest.raises(ContractError, match="at least one packet"):
        trace_from_packets([])


@pytest.mark.parametrize("sizes, ts, message", [
    ([0, 0], [0, 1], r"sizes must be integers in 1\.\.65535"),
    ([40, -1], [0, 1], r"sizes must be integers in 1\.\.65535"),
    ([40.0, np.nan], [0, 1], r"sizes must be integers in 1\.\.65535"),
    ([40.0, np.inf], [0, 1], r"sizes must be integers in 1\.\.65535"),
    ([10, 10], [5, 1], "stamps must not decrease"),
    ([10, 10], [5.0, np.nan], r"stamps must be integers in 0\.\.2\*\*63-1"),
    ([10, 10], np.array([5, 1], dtype=np.uint64), "stamps must not decrease"),
])
def test_flow_trace_refuses_sizes_and_stamps_no_error_law_takes(sizes, ts, message):
    """A zero size total, a NaN size or a negative duration would reach the
    error laws as a division by zero or a NaN."""
    with pytest.raises(ContractError, match=message):
        FlowTrace(sizes=np.array(sizes), ts=np.array(ts))


@pytest.mark.parametrize("sizes, ts, message", [
    ([40.5, 60], [0, 1], r"sizes must be integers in 1\.\.65535"),
    ([40, 70_000], [0, 1], r"sizes must be integers in 1\.\.65535"),
    ([40, 60], [0.0, 1.5], r"stamps must be integers in 0\.\.2\*\*63-1"),
    ([40, 60], np.array([0, 2**63], dtype=np.uint64), r"stamps must be integers in 0\.\.2\*\*63-1"),
    (["a"], [1], r"sizes must be integers in 1\.\.65535"),
    (np.array([40, 60], dtype=object), [0, 1], r"sizes must be integers in 1\.\.65535"),
    ([40, 60], ["0", "1"], r"stamps must be integers in 0\.\.2\*\*63-1"),
])
def test_flow_trace_refuses_sizes_and_stamps_the_exact_sums_cannot_hold(sizes, ts, message):
    """The degradations add sizes and stamps as integers, sizes within an IPv4
    total length and stamps within int64."""
    with pytest.raises(ContractError, match=message):
        FlowTrace(sizes=np.array(sizes), ts=np.array(ts))


def test_flow_trace_from_packets_sorts_by_time():
    packets = [
        mk_packet(ts=3_000_000, length=40),
        mk_packet(ts=1_000_000, length=60),
        mk_packet(ts=2_000_000, length=52),
    ]
    trace = trace_from_packets(packets)
    assert trace.sizes.tolist() == [60, 52, 40]
    assert trace.ts.tolist() == [1_000_000, 2_000_000, 3_000_000]


def test_traces_from_packets_splits_on_inactivity():
    packets = [
        mk_packet(ts=0, proto=Proto.UDP),
        mk_packet(ts=1_000_000, proto=Proto.UDP),
        mk_packet(ts=5_000_000, src="10.0.0.9", dst="10.0.0.1",
                  sport=1234, dport=80, proto=Proto.UDP, length=90),
        mk_packet(ts=30_000_000, proto=Proto.UDP),  # a 29 s gap: new episode
    ]
    traces = sorted(traces_from_packets(packets), key=lambda t: int(t.ts[0]))
    assert [t.length for t in traces] == [2, 1, 1]
    assert traces[1].sizes.tolist() == [90]


def test_traces_from_packets_is_one_table_with_a_length_and_its_flows_in_order():
    packets = [
        mk_packet(ts=0, src="10.0.0.9", sport=999, length=90),
        mk_packet(ts=1_000_000, length=52),
        mk_packet(ts=2_000_000, length=60),
        mk_packet(ts=3_000_000, src="10.0.0.9", sport=999, length=40),
    ]
    traces = traces_from_packets(packets)
    assert isinstance(traces, TraceTable)
    assert len(traces) == 2
    flows = list(traces)
    assert all(type(trace) is FlowTrace and len(trace) == 1 for trace in flows)
    assert [(t.sizes.tolist(), t.ts.tolist()) for t in flows] == [
        ([90, 40], [0, 3_000_000]), ([52, 60], [1_000_000, 2_000_000])]
    assert traces.bounds.tolist() == [0, 2, 4]
    assert traces.ts.tolist() == [0, 3_000_000, 1_000_000, 2_000_000]  # steps back between flows


@pytest.mark.parametrize("make", [
    lambda sizes, ts: FlowTrace(sizes, ts),
    lambda sizes, ts: TraceTable(sizes, ts, [0, 2]),
], ids=["FlowTrace", "TraceTable"])
def test_trace_constructors_refuse_columns_that_are_not_arrays(make):
    for sizes, ts in (([40, 60], [0, 10]), (np.array([40, 60]), [0, 10]),
                      ([40, 60], np.array([0, 10])), (np.array([40, 60]), None)):
        with pytest.raises(ContractError, match="equal-length 1-D arrays"):
            make(sizes, ts)
    assert make(np.array([40, 60]), np.array([0, 10])).sizes.tolist() == [40, 60]


def test_trace_table_refuses_bounds_that_do_not_cover_its_rows():
    sizes, ts = np.array([40, 60, 52]), np.array([0, 10, 20])
    for bounds in ([1, 3], [0, 2], [0, 4], [[0, 3]], [0.0, 3.0]):
        with pytest.raises(ContractError, match="bounds must run from 0"):
            TraceTable(sizes, ts, bounds)
    with pytest.raises(ContractError, match="at least one flow"):
        TraceTable(sizes[:0], ts[:0], [0])
    with pytest.raises(ContractError, match="at least one packet"):
        TraceTable(sizes, ts, [0, 2, 2, 3])
    assert len(TraceTable(sizes, ts, [0, 1, 3])) == 2


# ------------------------------------------- the per-trial oracle (helpers)

def test_p_one_keeps_everything():
    packets = [mk_packet(ts=i * 1000) for i in range(50)]
    assert bernoulli_sample(packets, SamplingConfig(1.0, seed=3)) == packets


def test_sampler_is_seed_deterministic():
    packets = [mk_packet(ts=i * 1000) for i in range(500)]
    a = bernoulli_sample(packets, SamplingConfig(0.25, seed=7))
    b = bernoulli_sample(packets, SamplingConfig(0.25, seed=7))
    c = bernoulli_sample(packets, SamplingConfig(0.25, seed=8))
    assert a == b
    assert a != c
    assert all(x in packets for x in a)


def test_sampler_keep_rate_within_four_sigma():
    n, p = 100_000, 1 / 256
    packets = [mk_packet(ts=i) for i in range(n)]
    kept = len(bernoulli_sample(packets, SamplingConfig(p, seed=0)))
    sigma = (n * p * (1 - p)) ** 0.5  # binomial stddev ~ 19.7
    assert abs(kept - n * p) < 4 * sigma


# ----------------------------------------------------------------- estimate

def test_estimate_frozen_example():
    sampled = [
        mk_packet(ts=1_000_000, length=60),
        mk_packet(ts=1_300_000, length=52),
        mk_packet(ts=1_500_000, length=40),
    ]
    est = estimate(sampled, p=0.5)
    assert est.l_hat == 6.0
    assert est.s_hat == 304.0
    assert est.fd_hat == 0.5
    assert est.sampled_count == 3


def test_estimate_under_two_survivors_has_zero_duration():
    assert estimate([], p=0.5) == FlowEstimates(0.0, 0.0, 0.0, 0)
    est = estimate([mk_packet(ts=9_000_000, length=80)], p=0.1)
    assert est.l_hat == 10.0
    assert est.s_hat == 800.0
    assert est.fd_hat == 0.0
    with pytest.raises(ContractError, match="outside"):
        estimate([], p=0.0)


# ------------------------------------------------------------- closed forms

def test_closed_form_frozen_values():
    assert relative_error_variance(Metric.LENGTH, uniform_trace(100), 0.25) == 0.03
    trace = make_trace([100, 200, 300])
    assert relative_error_variance(Metric.SIZE, trace, 0.25) == pytest.approx(
        1.1666666666666667, rel=1e-15
    )


def test_closed_form_size_reduces_to_length_for_equal_sizes():
    trace = uniform_trace(500, size=333)
    assert relative_error_variance(Metric.SIZE, trace, 1 / 64) == relative_error_variance(
        Metric.LENGTH, trace, 1 / 64
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 65535), min_size=1, max_size=20),
       st.floats(5e-324, 1.0) | st.sampled_from((0.1, 1 / 3, 1e-300, 5e-324, 1.0)))
@example([100, 100, 100], 0.1)  # rounded twice, the length cell was 2.9999999999999996
@example([40], 5e-324)  # (1 - p) / (l p) overflowed to inf
def test_closed_forms_are_the_exact_rationals_rounded_once(sizes, p):
    trace = make_trace(sizes)
    q = Fraction(p)
    laws = {Metric.LENGTH: (1 - q) / (q * len(sizes)),
            Metric.SIZE: (1 - q) / q * sum(s * s for s in sizes) / sum(sizes) ** 2}
    for metric, law in laws.items():
        try:
            want = float(law)
        except OverflowError:
            with pytest.raises(ContractError, match="past the largest float"):
                relative_error_variance(metric, trace, p)
        else:
            assert relative_error_variance(metric, trace, p) == want


def test_closed_form_rejects_duration():
    with pytest.raises(ContractError, match="duration"):
        relative_error_variance(Metric.DURATION, uniform_trace(10), 0.5)
    with pytest.raises(ContractError, match="outside"):
        relative_error_variance(Metric.LENGTH, uniform_trace(10), 0.0)


def test_closed_form_refuses_a_metric_name_as_adre_does():
    for call in (relative_error_variance, lambda metric, trace, p: adre(metric, trace, SamplingConfig(p))):
        with pytest.raises(ContractError, match="unknown metric 'length'"):
            call("length", uniform_trace(10), 0.5)


def two_flow_table():
    sizes = np.array([40, 60, 80, 100, 120])
    return TraceTable(sizes, np.arange(5) * 1000, [0, 2, 5])


def test_relative_error_variance_refuses_a_table_of_several_flows():
    for metric in (Metric.LENGTH, Metric.SIZE):
        with pytest.raises(ContractError, match="expected one FlowTrace, got TraceTable"):
            relative_error_variance(metric, two_flow_table(), 0.5)


def test_simulate_estimates_refuses_a_table_of_several_flows():
    with pytest.raises(ContractError, match="expected one FlowTrace, got TraceTable"):
        simulate_estimates(two_flow_table(), SamplingConfig(0.5), MIN_TRIALS)


def test_dre_refuses_a_table_of_several_flows():
    with pytest.raises(ContractError, match="expected one FlowTrace, got TraceTable"):
        dre(Metric.LENGTH, two_flow_table(), SamplingConfig(0.5), MIN_TRIALS)


def test_p_one_gives_exact_recovery():
    trace = make_trace([60, 52, 40], ts=[0, 250_000, 1_000_000])
    cfg = SamplingConfig(1.0, seed=5)
    assert relative_error_variance(Metric.LENGTH, trace, 1.0) == 0.0
    assert dre(Metric.LENGTH, trace, cfg) == 0.0
    assert dre(Metric.SIZE, trace, cfg) == 0.0
    assert dre(Metric.DURATION, trace, cfg) == 0.0
    l_hat, s_hat, fd_hat = simulate_estimates(trace, cfg, MIN_TRIALS)
    assert np.all(l_hat == 3.0)
    assert np.all(s_hat == 152.0)
    assert np.all(fd_hat == 1.0)


# --------------------------------------------------------------- simulation

def test_dre_length_matches_analytic_variance():
    trace = uniform_trace(1000)
    got = dre(Metric.LENGTH, trace, SamplingConfig(0.25, seed=1), trials=20000)
    want = relative_error_variance(Metric.LENGTH, trace, 0.25)  # 0.003
    assert got == pytest.approx(want, rel=0.15)


def test_dre_size_matches_analytic_variance():
    trace = make_trace(np.linspace(40, 1500, 800).astype(np.int64))
    got = dre(Metric.SIZE, trace, SamplingConfig(1 / 16, seed=2), trials=20000)
    want = relative_error_variance(Metric.SIZE, trace, 1 / 16)
    assert got == pytest.approx(want, rel=0.10)


def test_duration_shortfall_is_bounded_by_true_duration():
    trace = make_trace([100] * 40, ts=np.arange(40) * 500_000)
    shortfall = dre(Metric.DURATION, trace, SamplingConfig(1 / 64, seed=3), trials=2000)
    assert 0.0 <= shortfall <= trace.duration
    _, _, fd_hat = simulate_estimates(trace, SamplingConfig(1 / 64, seed=3), 2000)
    assert np.all(fd_hat <= trace.duration)
    assert np.all(fd_hat >= 0.0)


def test_invalid_metric_and_trials():
    trace = uniform_trace(10)
    with pytest.raises(ContractError, match="unknown metric"):
        dre("length", trace, SamplingConfig(0.5))
    with pytest.raises(ContractError, match="at least 1000"):
        simulate_estimates(trace, SamplingConfig(0.5), trials=999)
    with pytest.raises(ContractError, match="at least 1000"):
        dre(Metric.LENGTH, trace, SamplingConfig(0.5), trials=0)
    assert DEFAULT_TRIALS == 20000
    assert MIN_TRIALS == 1000


def test_trials_past_the_budget_are_refused_before_anything_is_drawn(count_generators):
    made, _ = count_generators()
    sampling.check_trials(MAX_TRIALS)
    assert MAX_TRIALS * 64 <= sampling._CHUNK_BUDGET < (MAX_TRIALS + 1) * 64
    for trials in (MAX_TRIALS + 1, 10**30):
        with pytest.raises(ContractError, match=f"at most {MAX_TRIALS} trials"):
            build_sampling_report([uniform_trace(10)], [8], trials=trials)
        with pytest.raises(ContractError, match=f"at most {MAX_TRIALS} trials"):
            simulate_estimates(uniform_trace(10), SamplingConfig(0.5), trials=trials)
    assert made == []


@pytest.mark.parametrize("trials", [1500.5, 2000.0, float("nan")])
def test_trial_count_must_be_an_integer(count_generators, trials):
    """A float trial count is refused before anything is drawn."""
    made, _ = count_generators()
    message = f"trials must be an integer, got {trials!r}"
    with pytest.raises(ContractError, match=message):
        build_sampling_report([uniform_trace(10)], [8], trials=trials)
    with pytest.raises(ContractError, match=message):
        simulate_estimates(uniform_trace(10), SamplingConfig(0.5), trials=trials)
    with pytest.raises(ContractError, match=message):
        dre(Metric.LENGTH, uniform_trace(10), SamplingConfig(0.5), trials=trials)
    assert made == []
    assert build_sampling_report([uniform_trace(10)], [8], trials=np.int64(MIN_TRIALS)).rows


def test_dre_is_deterministic_per_seed():
    trace = make_trace(np.arange(40, 140))
    a = dre(Metric.SIZE, trace, SamplingConfig(1 / 8, seed=11), trials=1500)
    b = dre(Metric.SIZE, trace, SamplingConfig(1 / 8, seed=11), trials=1500)
    c = dre(Metric.SIZE, trace, SamplingConfig(1 / 8, seed=12), trials=1500)
    assert a == b
    assert a != c


def test_chunking_does_not_change_results(monkeypatch):
    trace = make_trace(np.arange(60, 160))
    cfg = SamplingConfig(1 / 4, seed=9)
    whole = simulate_estimates(trace, cfg, 1200)
    monkeypatch.setattr(sampling, "_CHUNK_BUDGET", 3500)  # forces many chunks
    chunked = simulate_estimates(trace, cfg, 1200)
    for a, b in zip(whole, chunked):
        assert np.array_equal(a, b)


# --------------------------------------------------------------------- adre

def test_adre_of_one_flow_equals_dre():
    trace = make_trace(np.arange(50, 120))
    cfg = SamplingConfig(1 / 32, seed=4)
    for metric in Metric:
        assert adre(metric, [trace], cfg, trials=1500) == dre(
            metric, trace, cfg, trials=1500
        )


def test_adre_of_identical_flows_equals_single_dre():
    trace = make_trace(np.arange(50, 120))
    cfg = SamplingConfig(1 / 32, seed=4)
    # every flow reads the same prefix of the seed's one stream, so copies agree
    assert adre(Metric.LENGTH, [trace, trace, trace], cfg, trials=1500) == dre(
        Metric.LENGTH, trace, cfg, trials=1500
    )


def test_adre_validation():
    with pytest.raises(ContractError, match="at least one flow"):
        adre(Metric.LENGTH, [], SamplingConfig(0.5))


# ------------------------------------------------------------------- report

def short_heavy_traces(count=12, seed=6):
    rnd = np.random.default_rng(seed)
    traces = []
    t0 = 1_700_000_000_000_000
    for _ in range(count):
        n = int(rnd.integers(5, 60))
        sizes = rnd.integers(40, 1500, n)
        gaps = rnd.integers(1000, 50_000, n)
        traces.append(make_trace(sizes, ts=t0 + np.cumsum(gaps)))
    return traces


def test_report_rows_match_standalone_adre_exactly():
    traces = short_heavy_traces()
    report = build_sampling_report(traces, ratios=[64, 8], seed=5, trials=1000)
    assert report.flows == len(traces)
    assert report.trials == 1000
    assert report.seed == 5
    got = {(row.metric, row.ratio): row.adre for row in report.rows}
    for metric in Metric:
        for n in (64, 8):
            standalone = adre(metric, traces, SamplingConfig(1 / n, seed=5), trials=1000)
            assert got[(metric.value, n)] == standalone


class CountingGenerator:
    """A generator that records the size of every draw asked of it."""

    def __init__(self, rng, drawn):
        self.rng, self.drawn = rng, drawn

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def random(self, size, dtype):
        self.drawn.append(int(np.prod(size)))
        return self.rng.random(size, dtype=dtype)


@pytest.fixture
def count_generators(monkeypatch):
    """Once called, record the seed of every default_rng call and the size of every draw."""
    def install():
        made, drawn = [], []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed)
                            or CountingGenerator(default_rng(seed), drawn))
        return made, drawn
    return install


def test_report_builds_one_generator_for_any_number_of_flows_and_ratios(count_generators):
    traces = short_heavy_traces(count=12)
    made, _ = count_generators()
    for count in (1, 5, 12):
        for ratios in ([8], [1024, 256, 8, 2, 1]):
            made.clear()
            build_sampling_report(traces[:count], ratios, seed=4, trials=1000)
            assert made == [4]


@pytest.mark.parametrize("chunk_budget", [None, 20_000], ids=["default", "many-stretches"])
def test_report_draws_the_longest_flows_prefix_once(monkeypatch, count_generators, chunk_budget):
    """At any budget the stream is drawn once, from the start, up to the longest flow's prefix."""
    traces = short_heavy_traces(count=12)
    whole = build_sampling_report(traces, [2, 8], seed=4, trials=1000)
    _, drawn = count_generators()
    if chunk_budget is not None:
        monkeypatch.setattr(sampling, "_CHUNK_BUDGET", chunk_budget)  # ~730 positions a stretch at 1:2
    assert build_sampling_report(traces, [2, 8], seed=4, trials=1000).rows == whole.rows
    assert sum(drawn) == 1000 * max(trace.length for trace in traces)


def test_report_memory_is_bounded_by_the_budget_for_any_flow_length():
    """A 50,000-packet flow at 1:1 has 5e7 survivors, 600 MB at 12 bytes each;
    the stream is drawn in stretches of about the budget, and each stretch
    holds only its own survivors plus the tail carried from the one before,
    under one flow's length, so the peak is a few arrays of about the budget."""
    trace = make_trace(np.full(50_000, 100), ts=np.arange(50_000) * 10)
    tracemalloc.start()
    try:
        report = build_sampling_report([trace], [1], seed=0, trials=MIN_TRIALS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(row.adre == 0.0 for row in report.rows)
    assert peak < 3 * sampling._CHUNK_BUDGET


def test_report_memory_is_bounded_by_the_budget_for_one_large_group():
    """32 flows of 2,000 packets share one length, and so each stretch's
    200,000 survivors at 1:1: gathered for all 32 flows at once their sizes
    would take 51 MB, so the gather takes a few flows at a time."""
    traces = [make_trace(np.full(2000, 100 + f), ts=np.arange(2000) * 10) for f in range(32)]
    tracemalloc.start()
    try:
        report = build_sampling_report(traces, [1], seed=0, trials=MIN_TRIALS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(row.adre == 0.0 for row in report.rows)
    assert peak < 3 * sampling._CHUNK_BUDGET


def test_report_memory_is_bounded_by_the_budget_for_any_number_of_ratios():
    """50 ratios hold one chunk's survivors and one rate's runs at a time;
    every row still equals a standalone adre."""
    trace = uniform_trace(10)
    ratios = list(range(1, 51))
    tracemalloc.start()
    try:
        report = build_sampling_report([trace], ratios, seed=3, trials=DEFAULT_TRIALS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * sampling._CHUNK_BUDGET
    got = {(row.metric, row.ratio): row.adre for row in report.rows}
    for metric in Metric:
        for n in ratios:
            standalone = adre(metric, [trace], SamplingConfig(1 / n, seed=3), trials=DEFAULT_TRIALS)
            assert got[(metric.value, n)] == standalone


def test_report_improves_with_higher_rate():
    traces = short_heavy_traces(seed=10)
    report = build_sampling_report(traces, ratios=[256, 16, 2], seed=0, trials=1000)
    by_metric = {
        metric.value: [row.adre for row in report.rows if row.metric == metric.value]
        for metric in Metric
    }
    for metric in ("length", "size", "duration"):
        values = by_metric[metric]  # ratio order 256, 16, 2 = increasing p
        assert values[0] > values[1] > values[2]


def test_report_serialisation(tmp_path):
    traces = short_heavy_traces(count=3)
    report = build_sampling_report(traces, ratios=[4], seed=1, trials=1000)
    doc = report.to_json_dict()
    assert doc["flows"] == 3
    assert doc["metrics"]["length"]["estimator"] == "unbiased"
    assert doc["metrics"]["duration"]["estimator"] == "biased"
    assert set(doc["metrics"]["size"]["adre"]) == {"1:4"}

    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric,ratio,adre"
    assert len(lines) == 1 + 3  # three metrics at one ratio
    assert lines[1].startswith("length,1:4,")


def test_report_validation():
    traces = short_heavy_traces(count=2)
    with pytest.raises(ContractError, match="at least one flow"):
        build_sampling_report([], ratios=[4])
    with pytest.raises(ContractError, match="at least one sampling ratio"):
        build_sampling_report(traces, ratios=[])
    with pytest.raises(ContractError, match="denominator 0"):
        build_sampling_report(traces, ratios=[4, 0])
    for huge in (10**400, float("inf")):  # 1/N overflows or rounds to zero
        with pytest.raises(ContractError, match=r"must be in 1\.\.1\.79769e\+308"):
            build_sampling_report(traces, ratios=[4, huge])
    assert build_sampling_report(traces, ratios=[10**308], seed=0, trials=1000).rows


def test_a_bool_is_no_ratio_denominator():
    for flag in (True, False):
        with pytest.raises(ContractError, match=f"ratio denominator {flag} must be in"):
            sampling_rate(flag)
        with pytest.raises(ContractError, match="ratio denominator"):
            build_sampling_report(short_heavy_traces(count=1), [flag], trials=1000)
    assert sampling_rate(1) == 1.0


def test_report_over_a_trace_table_is_the_report_over_its_flows():
    table, _ = generate_packets(load_synth_spec(DEMO_SPEC))
    traces = traces_from_table(table, aggregate_table(table))
    flows = list(traces)
    assert len(flows) == len(traces) == 80
    reports = [build_sampling_report(t, [1, 64, 1024], seed=3, trials=1000) for t in (traces, flows)]
    assert len({json.dumps(report.to_json_dict()) for report in reports}) == 1
    assert reports[0].to_json_dict()["flows"] == 80


def test_ratio_one_report_is_error_free():
    traces = short_heavy_traces(count=4)
    report = build_sampling_report(traces, ratios=[1], seed=0, trials=1000)
    assert all(row.adre == 0.0 for row in report.rows)
