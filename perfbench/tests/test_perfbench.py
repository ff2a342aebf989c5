"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import harness  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from inputs import Sizes, setup  # noqa: E402


def tiny(sizes: Sizes) -> Sizes:
    """The same workload shape at a size that runs in seconds."""
    return Sizes(max(3, sizes.capture_flows // 100), max(12, sizes.model_rows // 25),
                 max(3, sizes.sampling_flows // 20))


@pytest.fixture
def root(tmp_path):
    (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """Inputs and checked CLI outputs of one tiny pass."""
    work = tmp_path_factory.mktemp("produced")
    inp = setup(tiny(harness.WORKLOADS["capture"]), 11, work / "inputs", tracing.NullTracer())
    out = work / "out"
    out.mkdir()
    failures = []
    cmds = {cmd.name: cmd for cmd in harness.commands(inp, out)}
    harness.shell_pass(list(cmds.values()), harness.cli_env(ROOT / "src"), failures)
    assert failures == []
    return inp, out, cmds


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean_at_tiny_size(root, workload, trace):
    result, outcome = harness.run_workload(
        workload, 5, 0, trace, root, sizes=tiny(harness.WORKLOADS[workload])
    )
    assert outcome.failures == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    listed = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:  # a CLI process holds at least Python and numpy
        assert result["metrics"]["peak_rss_mib"]["value"] > 10
    assert not (root / ".perfbench_work").exists() or not any((root / ".perfbench_work").iterdir())


def test_checks_pass_on_real_outputs(produced):
    _, _, cmds = produced
    for cmd in cmds.values():
        cmd.check()


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _corrupted(produced, name, edit):
    """Check a corrupted copy of one command's output."""
    _, _, cmds = produced
    cmd = cmds[name]
    original = cmd.output.read_bytes()
    try:
        edit(cmd.output)
        with pytest.raises(checks.CheckError):
            cmd.check()
    finally:
        cmd.output.write_bytes(original)


def test_dropped_feature_row_is_caught(produced):
    _corrupted(produced, "ingest_pcap", lambda p: _rewrite_csv(p, lambda rows: rows.pop()))


def test_wrong_packet_count_is_caught(produced):
    def edit(rows):
        col = rows[0].index("bidir_packets")
        rows[1][col] = str(float(rows[1][col]) + 1)
    _corrupted(produced, "ingest_pcap", lambda p: _rewrite_csv(p, edit))


def test_lost_netflow_row_is_caught(produced):
    _corrupted(produced, "ingest_netflow", lambda p: _rewrite_csv(p, lambda rows: rows.pop()))


def test_flipped_prediction_is_caught(produced):
    inp, _, _ = produced

    def edit(rows):
        other = next(label for label in sorted(set(inp.model_labels)) if label != rows[1][1])
        rows[1][1] = other
    _corrupted(produced, "classify", lambda p: _rewrite_csv(p, edit))


def test_biased_sampling_report_is_caught(produced):
    def edit(path):
        doc = json.loads(path.read_text())
        adre = doc["metrics"]["size"]["adre"]
        ratio = next(iter(adre))
        adre[ratio] *= 1.5
        path.write_text(json.dumps(doc))
    _corrupted(produced, "sample_report", edit)


def test_duration_adre_above_mean_duration_is_caught(produced):
    inp, _, _ = produced

    def edit(path):
        doc = json.loads(path.read_text())
        adre = doc["metrics"]["duration"]["adre"]
        adre[next(iter(adre))] = 2 * max(inp.sampling.durations_s)
        path.write_text(json.dumps(doc))
    _corrupted(produced, "sample_report", edit)


def test_prequential_count_mismatch_is_caught(produced):
    inp, out, _ = produced
    from flowident import classifier

    model = classifier.load_model(out / "model.json")
    shown = {state.label: state.n for state in model.classes}
    checks.check_class_counts(model, shown)
    shown[model.alphabet[0]] += 1
    with pytest.raises(checks.CheckError):
        checks.check_class_counts(model, shown)


def test_conservation_identities_flag_a_lost_packet_or_label():
    counts = dict(frames=10, skipped=1, packets=9, accepted=9, rejected=0,
                  episode_packets=9, matched=3, label_rows=3)
    assert tracing.conservation_errors(counts) == []
    for key in ("episode_packets", "matched"):
        assert len(tracing.conservation_errors(dict(counts, **{key: counts[key] - 1}))) == 1


def test_steady_time_returns_the_result_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    seconds, result = hostclock.steady_time(lambda: sum(range(3_000_000)))
    assert result == sum(range(3_000_000))
    assert 0 < seconds < 10
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_steady_time_scales_by_the_host_speed(monkeypatch):
    # On a host where the probe takes twice its nominal time, a step that
    # takes 0.4 s would take 0.2 s at nominal speed.
    monkeypatch.setattr(hostclock, "probe", lambda: 2 * hostclock.NOMINAL_PROBE_S)
    seconds, _ = hostclock.steady_time(lambda: time.sleep(0.4))
    assert 0.19 < seconds < 0.3


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    sizes = tiny(harness.WORKLOADS["sampling"])
    null = tracing.NullTracer()
    a = setup(sizes, 21, tmp_path / "a", null).digests()
    b = setup(sizes, 21, tmp_path / "b", null).digests()
    c = setup(sizes, 22, tmp_path / "c", null).digests()
    assert a == b
    assert all(a[name] != c[name] for name in a)


def test_benchmark_json_matches_the_harness():
    doc = _benchmark_json()
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in doc["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "capture", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
