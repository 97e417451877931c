"""Tests of the benchmark itself: python3 -m pytest bench

Each correctness check must pass on a real output and reject a corrupted
one; a run that completes no operation must fail; the independent
reference computations must agree with the program where both apply.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bhecke  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from bhecke import report as report_module  # noqa: E402
from bhecke import splitting  # noqa: E402
from layers import Tracer  # noqa: E402
from worker import measure  # noqa: E402


# ---------------------------------------------------- reference computations

@pytest.mark.parametrize("m2", range(7))
def test_root_count_matches_program(m2):
    for l in range(1, 10):
        for lam in ref.partitions(l):
            assert ref.root_counts(lam, m2) == splitting.residual_counts(lam, Fraction(m2, 2))


def test_partitions_match_program():
    for n in range(12):
        assert list(ref.partitions(n)) == bhecke.enumerate_partitions(n)
        assert ref.partition_count(n) == len(bhecke.enumerate_partitions(n))


@pytest.mark.parametrize("m2", range(5))
def test_pole_order_matches_program(m2):
    for mu in ((),) + ref.residual_list(4, m2) + ref.residual_list(6, m2):
        for p in range(1, 8):
            assert ref.short_pole_order(p, mu, m2) == \
                bhecke.pole_order_short_direct(p, mu, Fraction(m2, 2))


@pytest.mark.parametrize("m2", range(1, 7))
def test_symbol_and_a_value_match_program(m2):
    variant = bhecke.variants_for_m(Fraction(m2, 2))[0]
    for first in ref.partitions(3):
        for second in ref.partitions(2):
            b = bhecke.Bipartition(first, second)
            s = bhecke.symbol(b, variant)
            assert ref.padded_rows(first, second, m2) == (s.top, s.bottom)
            assert ref.a_value(first, second, m2) == bhecke.a_m(b, variant)


def test_generated_group_is_the_span():
    flip = (-1, 2, 3)
    swap = (2, 1, 3)
    assert len(ref.generated_group([flip], 3)) == 2
    assert len(ref.generated_group([flip, swap], 3)) == 8


# ------------------------------------------- checks reject corrupted outputs

@pytest.fixture(scope="module")
def captured_report():
    wl.prepare_report()
    return wl.run_report(wl.EXAMPLE)


def test_report_check_passes_the_paper_example(captured_report):
    assert wl.check_report(wl.EXAMPLE, captured_report) == []


def test_report_check_rejects_d_off_by_one(captured_report):
    rep, cls = copy.deepcopy(captured_report)
    rep["d"] += 1
    assert wl.check_report(wl.EXAMPLE, (rep, cls))


def test_report_check_rejects_a_wrong_class_size(captured_report):
    rep, cls = copy.deepcopy(captured_report)
    rep["springerClass"]["size"] -= 1
    assert wl.check_report(wl.EXAMPLE, (rep, cls))


def test_oracle_check_rejects_a_dropped_element():
    op = (3, 0, (1, 1, 1), ())         # principal series at m = 0: d = 1
    out = wl.run_oracle(op)
    assert out[0] == 1
    assert wl.check_oracle(op, out) == []
    d, gens, order, members = out
    assert wl.check_oracle(op, (d, gens, order, members[:-1]))
    assert wl.check_oracle(op, (d + 1, gens, order, members))
    assert wl.check_oracle(op, (d, gens, order + 1, members))


def test_residual_check_rejects_a_non_residual_partition():
    op = (7, 2, True)
    out = wl.run_residual(op)
    assert wl.check_residual(op, out) == []
    outsider = next(lam for lam in ref.partitions(7) if lam not in out)
    assert wl.check_residual(op, out + [outsider])
    assert wl.check_residual(op, out[1:])


def test_gluing_check_rejects_a_disagreeing_path():
    op = ((3,), 2, 3)
    glue, direct, blockwise, geometric = out = wl.run_gluing(op)
    assert wl.check_gluing(op, out) == []
    for bad in ((not glue, direct, blockwise, geometric),
                (glue, direct, blockwise + 1, geometric),
                (glue, direct, blockwise, geometric + [(1,) * (sum(op[0]) + 3)])):
        assert wl.check_gluing(op, bad)


# ------------------------------------------------------- runs and results

def _record(latencies, failed, errors=0):
    return {"latencies_s": latencies, "failed": failed, "error_count": errors,
            "peak_rss_kb": 1024, "layers": None}


def test_a_run_with_no_completed_operation_fails():
    assert not run.summarize(_record([], 0), [0.1], False)["correct"]
    assert not run.summarize(_record([4.0, 4.0], 2), [0.1], False)["correct"]
    assert run.summarize(_record([0.1, 4.0], 1), [0.1], False)["correct"]


def test_a_failed_check_makes_the_run_incorrect():
    assert not run.summarize(_record([0.1, 0.2], 0, errors=1), [0.1], False)["correct"]


def test_failed_operations_count_at_the_limit():
    def op(x):
        if x:
            time.sleep(1.0)
        return x

    latencies, outputs = measure(op, [0, 1, 0], 0.2)
    assert outputs == [0, None, 0]
    assert latencies[1] == 0.2 and latencies[0] < 0.2


def test_same_seed_same_operations_and_whole_rounds():
    assert wl.report_ops(3, 2) == wl.report_ops(3, 2)
    ops = wl.report_ops(3, 2)
    assert ops[0] == wl.EXAMPLE and len(set(ops)) == len(ops) - 2
    assert sum(op in wl.MANY_STRIP for op in ops) == 2 * len(wl.MANY_STRIP)
    for make in (wl.oracle_ops, wl.gluing_ops, wl.residual_ops):
        assert make(5, 1) == make(5, 1)
        assert len(make(5, 2)) == 2 * len(make(6, 1))


# ------------------------------------------------------------------ tracing

def test_tracer_wraps_every_binding_and_restores_them():
    original = splitting.split
    tracer = Tracer()
    tracer.install()
    try:
        assert splitting.split is not original
        assert report_module.split is splitting.split is bhecke.split
        started = time.perf_counter()
        bhecke.residual_partitions(8, Fraction(1))
        wall_ms = (time.perf_counter() - started) * 1e3
        report_module.split((2, 1), Fraction(1))
    finally:
        tracer.uninstall()
    assert splitting.split is original and report_module.split is original
    metrics = tracer.metrics()
    assert metrics["splitting.split.calls"] == 1
    assert metrics["splitting.residual_partitions.calls"] == 1
    assert metrics["splitting.residual_counts.calls"] == ref.partition_count(8)
    assert metrics["splitting.residual_partitions.yield"] == \
        len(ref.residual_list(8, 2)) / ref.partition_count(8)
    # the nested residual_counts calls are not self time of their caller
    outer = metrics["splitting.residual_partitions.self_ms"]
    inner = metrics["splitting.residual_counts.self_ms"]
    assert outer < inner and outer + inner <= wall_ms


# ------------------------------------------------------------ command line

def test_benchmark_json_is_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.spec()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in on_disk["workloads"]] == list(wl.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "residual", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
