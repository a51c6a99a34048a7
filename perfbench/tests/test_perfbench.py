"""Tests of the benchmark itself (not of the simulator).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import self_times, union_length  # noqa: E402
from workloads import WORKLOADS as BENCHED, tier_percentile  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- span arithmetic ----------------------------------------------------------


def test_self_time_of_nested_spans():
    # root [0, 10] > child [1, 6] > grandchild [2, 3]
    parent = [-1, 0, 1]
    start = [0.0, 1.0, 2.0]
    end = [10.0, 6.0, 3.0]
    assert self_times(parent, start, end) == [5.0, 4.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    # Two children of the root overlap on [3, 4]; a third sticks out
    # past the root's end and only its inside part is covered.
    parent = [-1, 0, 0, 0]
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 4.0, 6.0, 12.0]
    own = self_times(parent, start, end)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[1:] == [3.0, 3.0, 4.0]


def test_union_length_clips_to_window():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 1.0, 6.0) == 3.0
    assert union_length([], 0.0, 1.0) == 0.0


def test_self_times_and_uncovered_time_sum_to_wall():
    parent = [-1, 0, 0, -1, 3]
    start = [1.0, 1.5, 2.5, 6.0, 6.5]
    end = [4.0, 2.0, 3.5, 7.0, 6.6]
    roots = [(s, e) for s, e, p in zip(start, end, parent) if p < 0]
    uncovered = 8.0 - union_length(roots, 0.0, 8.0)
    assert sum(self_times(parent, start, end)) + uncovered == pytest.approx(8.0)


# -- output checks -------------------------------------------------------------


def _storm_round(seed: int) -> run.Round:
    clock = run.PhaseClock()
    return run.run_round(BENCHED["resume_storm"], seed, clock)


def test_digest_check_rejects_a_one_byte_change():
    storm = BENCHED["resume_storm"]
    rnd = _storm_round(0)
    pinned = run.pinned_digests(storm.name)
    assert pinned[0] == rnd.digest, "pinned digest of the default seed is stale"

    clean = run.Checker(storm, run.DEFAULT_SEED, pinned)
    clean.check(rnd)
    assert clean.ok, clean.problems

    text = storm.render(rnd.result)
    flipped = text[:-1] + chr(ord(text[-1]) ^ 1)
    assert len(flipped.encode()) == len(text.encode())
    rnd.digest = run.digest(flipped)
    checker = run.Checker(storm, run.DEFAULT_SEED, pinned)
    checker.check(rnd)
    assert not checker.ok
    assert "pinned" in checker.problems[0]


def test_violations_fail_the_check():
    storm = BENCHED["resume_storm"]
    rnd = _storm_round(1)
    rnd.violations = ["1 of 4000 not completed"]
    checker = run.Checker(storm, seed=7, pinned=[])
    checker.check(rnd)
    assert checker.problems == ["seed 1: 1 of 4000 not completed"]


def test_tier_percentile_interpolates_inside_the_bucket():
    counts = {132: 90, 1_300_000: 5, 1_500_000_000: 5}
    # rank 99 of 100 is 4/5 of the way through the top bucket
    assert tier_percentile(counts, 99.0) == pytest.approx(
        1_300_000 + 0.8 * (1_500_000_000 - 1_300_000)
    )
    assert tier_percentile(counts, 50.0) == pytest.approx(132 * 50 / 90)


def test_phase_clock_counts_time_before_each_engines_first_event():
    clock = run.PhaseClock()
    clock.marks.extend([[1.0, 3.0], [5.0, 5.5], [6.0, None]])
    # 0.5 s to the first engine, then 2.0 + 0.5 s before first events;
    # the engine that never ran is not counted
    assert clock.setup_since(0.5) == pytest.approx(3.0)
    assert clock.marks == []


# -- seeds and the metric set ---------------------------------------------------


def test_a_different_seed_changes_the_inputs():
    assert set(run.subseeds(0, 8)).isdisjoint(run.subseeds(1, 8))
    storm = BENCHED["resume_storm"]
    times = [
        [event.time for event in storm.prepare(seed).faas.engine.pending_events()]
        for seed in (0, 1)
    ]
    assert len(times[0]) == len(times[1]) == storm.requests
    assert times[0] != times[1]


@pytest.mark.parametrize("name", ["chaos_mix", "gateway_recovery", "azure_replay"])
def test_a_different_seed_changes_what_the_program_generates(name):
    # These workloads generate their arrivals inside the program, from
    # the config's seed: two sub-seeds must give different simulations.
    workload = BENCHED[name]
    rendered = [workload.render(workload.run(workload.prepare(seed))) for seed in (0, 1)]
    assert rendered[0] != rendered[1]


class _Tiny:
    """A stand-in workload: instant rounds, seed-dependent results."""

    name = "tiny"
    subseeds = 2

    def prepare(self, seed):
        return seed

    def run(self, seed):
        return seed

    def submitted(self, seed):
        return 10 + seed

    completed = submitted

    def render(self, seed):
        return f"tiny {seed}"

    def violations(self, seed):
        return []

    def sim(self, seed):
        return {
            "sim_p50_us": 1.0 + seed,
            "sim_p99_us": 2.0,
            "sim_ull_p99_us": 3.0,
        }

    def layer_stats(self, seed):
        return {}


def test_a_different_seed_keeps_the_metric_set():
    names = set(run.END_TO_END)
    seen = []
    for seed in (1, 2):
        checker, attempted, metrics, _rounds = run.measure(
            _Tiny(), seed, 0.0, run.PhaseClock(), import_s=0.1
        )
        assert checker.ok and attempted > 0
        assert set(metrics) == names
        seen.append(metrics["sim_p50_us"][0])
    assert seen[0] != seen[1]


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    checker, _attempted, metrics, _rounds = run.measure_traced(
        _Tiny(), 3, 0.0, run.PhaseClock(), out_dir=tmp_path
    )
    assert (tmp_path / "tiny-seed3.trace.json").is_file()
    assert checker.ok, checker.problems
    assert set(metrics) == set(run.PER_LAYER)


def test_traced_storm_splits_time_across_its_layers(tmp_path):
    storm = BENCHED["resume_storm"]
    checker, _attempted, metrics, _notes = run.measure_traced(
        storm, 1, 0.0, run.PhaseClock(), out_dir=tmp_path
    )
    assert checker.ok, checker.problems
    value = {name: v for name, (v, _unit) in metrics.items()}
    assert value["faas.triggers"] == storm.requests
    assert value["core.resumes"] + value["hypervisor.resumes"] == storm.requests
    assert value["core.self_s"] > 0 and value["hypervisor.self_s"] > 0
    assert value["resilience.self_s"] == value["controlplane.self_s"] == 0.0
    assert value["traces.self_s"] == value["faas.prewarm.self_s"] == 0.0


# -- BENCHMARK.json ----------------------------------------------------------------


def test_benchmark_json_names_counts_and_bounds():
    spec = run.SPEC
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert len(spec["end_to_end"]) <= 16
    assert len(spec["per_layer"]) <= 128
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64, metric
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert set(run.WORKLOADS) | set(run.UNGATED) == set(BENCHED)
    assert not set(run.WORKLOADS) & set(run.UNGATED)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- end to end ------------------------------------------------------------------


def test_command_prints_every_metric_and_a_json_last_line():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "resume_storm",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    for name, unit in run.END_TO_END.items():
        assert last["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.endswith(unit) for line in lines)


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gateway_recovery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
