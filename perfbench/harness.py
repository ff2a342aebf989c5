"""One benchmark run: set up a workload's inputs, drive the flowident CLI in a
closed loop with a single caller, check every output, and summarise.

A pass is the CLI walkthrough in order: ingest a labeled pcap, ingest the
same flows as NetFlow v5, select features, train, classify, cross-validate,
stream the dataset test-then-train through the library, and report
sampling degradation.  Every workload runs every step, so every run reports
every metric; the workloads differ in which input is large.

The run first makes one pass with every command in its own interpreter, as
a user runs it, which gives the peak memory of a command.  The timed passes
then call the CLI's ``main`` in this process: a command that takes about
0.2 s from the shell spends most of it starting Python and importing
numpy, which no change to flowident's layers moves and which makes the
timings of small steps too noisy to compare.  A step shorter than
MIN_STEP_S repeats within a pass until it has run that long.  Passes repeat
until the run's time is up.

Each sample of a timed step is taken with ``hostclock.steady_time``, which
scales it to the host's nominal speed, and each timing is the median of
its samples.  On a shared host the processor slows by up to 1.5 times for
seconds at a time, which moved the plain timings of the same code by more
than their bounds from one run to the next.
"""

from __future__ import annotations

import gc
import io
import os
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

from flowident import classifier, cli
from flowident.features import Dataset, read_dataset

import checks
import tracing
from hostclock import steady_time, wall_time
from inputs import Inputs, Sizes, setup

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "ingest_pcap_pkt_per_s": ("packets/s", "higher"),
    "ingest_netflow_flow_per_s": ("flows/s", "higher"),
    "select_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "classify_row_per_s": ("rows/s", "higher"),
    "cv_s": ("s", "lower"),
    "cv_oa": ("ratio", "higher"),
    "prequential_row_per_s": ("rows/s", "higher"),
    "sample_report_s": ("s", "lower"),
}

# Each workload makes one stage's input large and keeps the others small.
WORKLOADS = {
    # demo classes x50: 4,000 flows, ~100k packets, ~100 MB pcap
    "capture": Sizes(capture_flows=2000, model_rows=80, sampling_flows=20),
    # 8 overlapping classes x 150 rows = 1,200 feature rows
    "model": Sizes(capture_flows=40, model_rows=150, sampling_flows=20),
    # demo classes x1: 80 flows, ~2k packets, at the CLI's default 20,000 trials
    "sampling": Sizes(capture_flows=40, model_rows=80, sampling_flows=40),
}
# The small inputs are not smaller because the timings follow their size:
# below 80 rows per class FCBF keeps 5 to 7 features depending on the seed,
# at 4 flows per class the sampling capture held 147 to 237 packets over
# seeds 1-10, and at 10 flows per class sample_report_s still spread 0.12
# over those seeds.

# Set-up repeats until both limits are reached; setup_s is their median.
SETUP_REPEATS = 3
SETUP_MIN_S = 5.0
# A step repeats within a pass until it has run this long, so that small
# steps contribute as many samples to their median as large ones.
MIN_STEP_S = 0.2
PREQUENTIAL_BATCH = 20
CV_FOLDS = 10
CLI_TIMEOUT_S = 150
DEFAULT_TRIALS = cli.build_parser().parse_args(["sample-report", "--pcap", "-"]).trials


@dataclass
class Command:
    name: str
    argv: list[str]
    output: Path
    check: Callable[[], object]


def commands(inp: Inputs, out: Path) -> list[Command]:
    d = str(inp.model_csv)
    sel, model = out / "selection.json", out / "model.json"
    pcap_csv, nf_csv = out / "pcap_features.csv", out / "netflow_features.csv"
    pred, cv, report = out / "predictions.csv", out / "cv.json", out / "sampling.json"
    return [
        Command("ingest_pcap",
                ["ingest", "--pcap", str(inp.capture_pcap), "--labels", str(inp.capture_labels),
                 "--out", str(pcap_csv)],
                pcap_csv, lambda: checks.check_capture(pcap_csv, inp.capture)),
        Command("ingest_netflow",
                ["ingest", "--netflow", str(inp.capture_netflow), "--out", str(nf_csv)],
                nf_csv, lambda: checks.check_netflow(nf_csv, inp.capture)),
        Command("select", ["select", d, "--delta", "0.1", "--out", str(sel)],
                sel, lambda: checks.check_selection(sel)),
        Command("train", ["train", d, "--features-from", str(sel), "--out", str(model)],
                model, lambda: checks.check_model(model, checks.check_selection(sel), inp.model_labels)),
        Command("classify", ["classify", str(model), d, "--out", str(pred)],
                pred, lambda: checks.check_classify(pred, model, d)),
        Command("evaluate",
                ["evaluate", d, "--k", str(CV_FOLDS), "--features-from", str(sel), "--report", str(cv)],
                cv, lambda: checks.check_cv(cv, len(inp.model_labels), CV_FOLDS)),
        Command("sample_report", ["sample-report", "--pcap", str(inp.sampling_pcap), "--out-json", str(report)],
                report, lambda: checks.check_sampling(report, inp.sampling, DEFAULT_TRIALS)),
    ]


Runner = Callable[[list[str]], tuple[float, int, str]]


def in_process(argv: list[str], timer=wall_time) -> tuple[float, int, str]:
    """Run a command through ``flowident.cli.main`` in this interpreter."""
    out, err = io.StringIO(), io.StringIO()

    def call() -> tuple[int, str]:
        try:
            with redirect_stdout(out), redirect_stderr(err):
                return cli.main(argv), ""
        except Exception as exc:  # a crash of the program is a failed operation
            return 1, f"raised {exc!r}"

    gc.collect()
    seconds, (code, crash) = timer(call)
    return seconds, code, crash or err.getvalue()


def steady_in_process(argv: list[str]) -> tuple[float, int, str]:
    return in_process(argv, steady_time)


def attempt(cmd: Command, run: Runner, failures: list[str]) -> tuple[float, object]:
    """Run and check one command; a failure is recorded, not raised."""
    cmd.output.unlink(missing_ok=True)
    seconds, code, stderr = run(cmd.argv)
    if code != 0:
        failures.append(f"{cmd.name}: exit {code}: {stderr.strip()[-300:]}")
        return seconds, None
    try:
        return seconds, cmd.check()
    except (checks.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
        failures.append(f"{cmd.name}: {exc}")
        return seconds, None


PEAK_MARK = "\nperfbench-peak-kib "
# ``python -m flowident.cli ARGS``, which then writes the peak resident
# memory of its own image to standard error.  The child's ru_maxrss would not
# do: on Linux it includes the parent's peak, which it inherits across fork
# and exec, and this process holds the generated inputs.
CLI_WITH_PEAK = f"""
import runpy, sys
try:
    runpy.run_module("flowident.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write({PEAK_MARK!r} + kib)
"""


def shell_pass(cmds: list[Command], env: dict, failures: list[str]) -> float:
    """Run each command once in its own interpreter, as from the shell.

    Returns the peak resident memory of the largest command, in MiB.
    """
    peaks_kib = [0]

    def run(argv: list[str]) -> tuple[float, int, str]:
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_WITH_PEAK, *argv],
            env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        stderr, _, peak = proc.stderr.rpartition(PEAK_MARK)
        peaks_kib.append(int(peak) if peak.isdigit() else 0)
        return perf_counter() - start, proc.returncode, stderr

    for cmd in cmds:
        attempt(cmd, run, failures)
    return max(peaks_kib) / 1024


def prequential(ds: Dataset, tracer, failures: list[str], timer=wall_time) -> tuple[float, int]:
    """Test-then-train stream: predict a batch, then update with its labels.

    The model starts from two rows of each class; the other rows arrive in
    file order in fixed-size batches.  Returns the stream's seconds and row
    count; a failed check is recorded in ``failures``.
    """
    warm, rest, taken = [], [], Counter()
    for vec in ds.vectors:
        if taken[vec.label] < 2:
            taken[vec.label] += 1
            warm.append(vec)
        else:
            rest.append(vec)
    stream = rest
    model = classifier.train(Dataset(warm, ds.alphabet))

    def run_stream():
        current = model
        for i in range(0, len(stream), PREQUENTIAL_BATCH):
            batch = Dataset(stream[i : i + PREQUENTIAL_BATCH], ds.alphabet)
            with tracer.span("classifier.predict"):
                classifier.predict(current, batch)
            with tracer.span("classifier.update"):
                current = classifier.update(current, batch)
        return current

    gc.collect()
    seconds, model = timer(run_stream)
    try:
        checks.check_class_counts(model, dict(Counter(v.label for v in warm + stream)))
    except checks.CheckError as exc:
        failures.append(f"prequential: {exc}")
    return seconds, len(stream)


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failures: list[str]
    passes: int
    digests: dict[str, str]


def measure(sizes: Sizes, seed: int, seconds: float, work: Path, src: Path) -> Outcome:
    """The untraced run: end-to-end metrics."""
    null = tracing.NullTracer()
    setups = []
    started = perf_counter()
    while len(setups) < SETUP_REPEATS or perf_counter() - started < SETUP_MIN_S:
        setup_s, inp = steady_time(lambda: setup(sizes, seed, work / "inputs", null))
        setups.append(setup_s)
    inp.sync()
    ds = read_dataset(inp.model_csv)
    out = work / "out"
    out.mkdir(exist_ok=True)
    cmds = commands(inp, out)
    failures: list[str] = []
    peak_rss_mib = shell_pass(cmds, cli_env(src), failures)
    names = [cmd.name for cmd in cmds] + ["prequential"]
    times: dict[str, list[float]] = {name: [] for name in names}
    results: dict[str, list] = {name: [] for name in names}

    def step(name, once) -> None:
        """Run ``once`` until it has taken MIN_STEP_S; keep each time and result."""
        spent = 0.0
        while spent < MIN_STEP_S:
            step_s, result = once()
            times[name].append(step_s)
            results[name].append(result)
            spent += step_s

    passes = 0
    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        for cmd in cmds:
            step(cmd.name, lambda: attempt(cmd, steady_in_process, failures))
        step("prequential", lambda: prequential(ds, null, failures, steady_time))
        passes += 1
    attempted = len(cmds) + sum(len(v) for v in times.values())
    t = {name: median(v) for name, v in times.items()}
    rows = len(inp.model_labels)
    metrics = {
        "setup_s": median(setups),
        "wall_s": sum(t.values()),
        "peak_rss_mib": peak_rss_mib,
        "ingest_pcap_pkt_per_s": inp.capture.packets / t["ingest_pcap"],
        "ingest_netflow_flow_per_s": len(inp.capture.flows) / t["ingest_netflow"],
        "select_s": t["select"],
        "train_s": t["train"],
        "classify_row_per_s": rows / t["classify"],
        "cv_s": t["evaluate"],
        "cv_oa": median(oa or 0.0 for oa in results["evaluate"]),
        "prequential_row_per_s": results["prequential"][0] / t["prequential"],
        "sample_report_s": t["sample_report"],
    }
    return Outcome(metrics, attempted, failures, passes, inp.digests())


def startup_s(env: dict) -> float:
    """Seconds to start Python and import the CLI, paid by every shell command."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import flowident.cli"], env=env, check=True,
                   timeout=CLI_TIMEOUT_S)
    return perf_counter() - start


def measure_traced(sizes: Sizes, seed: int, seconds: float, work: Path, src: Path,
                   spans_out: Path) -> Outcome:
    """The traced run: per-layer metrics from spans around library calls."""
    tracer = tracing.Tracer()
    with tracer.span("bench.setup"):
        inp = setup(sizes, seed, work / "inputs", tracer)
    inp.sync()
    setup_spans = list(tracer.spans)
    generated_packets = inp.capture.packets + inp.sampling.packets
    fixed = tracing.setup_metrics(setup_spans, generated_packets, len(inp.model_labels),
                                  len(inp.capture.records))
    setup_self = tracing.layer_self_s(setup_spans)
    ds = read_dataset(inp.model_csv)
    records = netflow_record_count(inp.capture_netflow)
    env = cli_env(src)
    out = work / "out"
    out.mkdir(exist_ok=True)
    cmds = commands(inp, out)
    failures: list[str] = []
    shell_pass(cmds, env, failures)
    attempted = len(cmds)
    parser = cli.build_parser()
    per_pass: dict[str, list[float]] = {}
    passes = 0
    span_cost = tracing.span_cost_s()
    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        offset = len(tracer.spans)
        with tracer.span("bench.probe"), tracer.span("features.matrix"):
            ds.matrix()
        cli_s, counts = {}, {}
        for cmd in cmds:
            cli_s[cmd.name], _ = attempt(cmd, in_process, failures)
            with tracer.span(f"cli.{cmd.name}"):
                counts[cmd.name] = tracing.REPLAYS[cmd.name](tracer, parser.parse_args(cmd.argv))
        broken = tracing.conservation_errors(counts["ingest_pcap"])
        if broken:
            failures.append("ingest_pcap replay: " + "; ".join(broken))
        with tracer.span("bench.prequential"):
            _, stream_rows = prequential(ds, tracer, failures)
        attempted += 2 * len(cli_s) + 1
        passes += 1
        spans = tracer.spans[offset:]
        values = tracing.pass_metrics(spans, offset, counts, cli_s, stream_rows,
                                      records, inp.capture.bidirectional)
        for layer, own in tracing.layer_self_s(spans, offset).items():
            values[f"{layer}.self_s"] = own + setup_self[layer]
        values["cli.startup_s"] = startup_s(env)
        values["trace.spans"] = len(spans) + len(setup_spans)
        values["trace.overhead_ms"] = values["trace.spans"] * span_cost * 1e3
        for name, value in values.items():
            per_pass.setdefault(name, []).append(value)
    tracer.write(spans_out)
    metrics = {name: median(v) for name, v in per_pass.items()}
    metrics.update(fixed)
    return Outcome(metrics, attempted, failures, passes, inp.digests())


def netflow_record_count(path: Path) -> int:
    """Records in a file of concatenated v5 datagrams, read from the headers."""
    data = path.read_bytes()
    offset = records = 0
    while offset < len(data):
        count = int.from_bytes(data[offset + 2 : offset + 4], "big")
        records += count
        offset += 24 + 48 * count
    return records


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 sizes: Sizes | None = None) -> tuple[dict, Outcome]:
    """Run one workload inside ``root`` and return (result line, outcome)."""
    sizes = sizes or WORKLOADS[name]
    work = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    src = root / "src"
    try:
        if trace:
            spans_out = root / ".perfbench_out" / f"spans-{name}-seed{seed}.json"
            outcome = measure_traced(sizes, seed, seconds, work, src, spans_out)
            table = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
        else:
            outcome = measure(sizes, seed, seconds, work, src)
            table = {k: v[0] for k, v in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {k: {"value": outcome.metrics[k], "unit": unit} for k, unit in table.items()},
    }
    return result, outcome
