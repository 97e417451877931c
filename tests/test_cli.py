"""End-to-end tests for the command line: exit codes, golden outputs,
and byte-level determinism of the machine-readable formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bhecke
from bhecke import selftest
from bhecke.cli import main


def run_cli(argv, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestRGroupCommand:
    def test_worked_example_counts(self, capsys):
        code, out, _ = run_cli(
            ["rgroup", "-n", "36", "-m", "3",
             "--kappa", "11,7,4,3", "--mu", "4,3,2,1,1", "--json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["d"] == 2
        assert rep["componentCount"] == 4
        assert all(rep["checks"].values())

    def test_principal_series_rank_two(self, capsys):
        code, out, _ = run_cli(
            ["rgroup", "-n", "2", "-m", "0", "--kappa", "1,1", "--json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["d"] == 1
        assert rep["componentCount"] == 2
        assert rep["rootSystemFactors"] == [{"type": "D", "rank": 2}]

    def test_discrete_series_datum(self, capsys):
        code, out, _ = run_cli(
            ["rgroup", "-n", "2", "-m", "1/2", "--kappa", "", "--mu", "2",
             "--json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["d"] == 0
        assert rep["componentCount"] == 1

    def test_human_output_carries_key_lines(self, capsys):
        code, out, _ = run_cli(
            ["rgroup", "-n", "36", "-m", "3",
             "--kappa", "11,7,4,3", "--mu", "4,3,2,1,1"], capsys)
        assert code == 0
        assert "d            2" in out
        assert "components   4" in out
        assert "(0 2 4 6 8 10 13 15)/(3 6 11 16 18)" in out

    def test_oracle_block(self, capsys):
        code, out, _ = run_cli(
            ["rgroup", "-n", "2", "-m", "0", "--kappa", "1,1",
             "--oracle", "--json"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["oracle"]["rGroupOrder"] == 2
        assert rep["checks"]["oracleRGroup"] is True
        assert rep["checks"]["oracleStabilizerOrder"] is True

    def test_oracle_bound_is_enforced(self, capsys, monkeypatch):
        monkeypatch.setenv("HECKE_RGROUP_BOUND_N", "1")
        code, _, err = run_cli(
            ["rgroup", "-n", "2", "-m", "0", "--kappa", "1,1", "--oracle"],
            capsys)
        assert code == 2
        assert "HECKE_RGROUP_BOUND_N" in err

    @pytest.mark.parametrize("raw", ["eight", "0", "-3", "8.5", ""])
    def test_oracle_rejects_bad_bound(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("HECKE_RGROUP_BOUND_N", raw)
        code, out, err = run_cli(
            ["rgroup", "-n", "2", "-m", "0", "--kappa", "1,1", "--oracle"],
            capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("bhecke rgroup: HECKE_RGROUP_BOUND_N must be")
        assert repr(raw) in err
        assert "Traceback" not in err

    def test_strict_passes_on_clean_datum(self, capsys):
        code, _, _ = run_cli(
            ["rgroup", "-n", "4", "-m", "1/2", "--kappa", "2", "--mu", "2",
             "--strict"], capsys)
        assert code == 0

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(
            ["rgroup", "-n", "4", "-m", "1", "--kappa", "2,1", "--mu", "1",
             "--json"], capsys)
        rep = json.loads(out)
        assert json.dumps(rep, indent=2, sort_keys=True) + "\n" == out

    def test_repeat_runs_are_byte_identical(self, capsys):
        argv = ["rgroup", "-n", "36", "-m", "3",
                "--kappa", "11,7,4,3", "--mu", "4,3,2,1,1", "--json"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second


class TestRGroupErrors:
    def test_decimal_m_is_rejected(self, capsys):
        code, _, err = run_cli(
            ["rgroup", "-n", "2", "-m", "0.5", "--kappa", "2"], capsys)
        assert code == 2
        assert "exact fraction" in err

    def test_non_residual_mu(self, capsys):
        code, _, err = run_cli(
            ["rgroup", "-n", "5", "-m", "1", "--kappa", "2", "--mu", "1,1,1"],
            capsys)
        assert code == 2
        assert "not residual" in err

    def test_weight_mismatch(self, capsys):
        code, _, err = run_cli(
            ["rgroup", "-n", "3", "-m", "1", "--kappa", "2", "--mu", "2"],
            capsys)
        assert code == 2
        assert "!= n" in err


class TestResidualCommand:
    def test_weight_one(self, capsys):
        code, out, _ = run_cli(["residual", "-l", "1", "-m", "1", "--json"], capsys)
        assert code == 0
        assert [p["lam"] for p in json.loads(out)["partitions"]] == [[1]]

    def test_weight_two_integer_m(self, capsys):
        code, out, _ = run_cli(["residual", "-l", "2", "-m", "1", "--json"], capsys)
        assert code == 0
        assert [p["lam"] for p in json.loads(out)["partitions"]] == [[2]]

    def test_weight_two_half_m(self, capsys):
        # (1,1) ties at entry 1/2 twice, so the split is undefined and the
        # root count gives poles - zeros = 1 != 2: only (2) survives.
        code, out, _ = run_cli(["residual", "-l", "2", "-m", "1/2", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert [p["lam"] for p in doc["partitions"]] == [[2]]
        assert doc["partitions"][0]["symbols"] == [
            {"variant": "1/2", "top": [2], "bottom": []}]

    def test_generic_m_keeps_all_partitions(self, capsys):
        code, out, _ = run_cli(["residual", "-l", "2", "-m", "1/3", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert [p["lam"] for p in doc["partitions"]] == [[2], [1, 1]]
        assert all(p["symbols"] == [] for p in doc["partitions"])


class TestSplitCommand:
    def test_blocks_of_the_worked_mu(self, capsys):
        code, out, _ = run_cli(
            ["split", "--lam", "4,3,2,1,1", "-m", "3", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["defined"] is True
        assert doc["first"] == [4, 3, 2]
        assert doc["second"] == [2]
        assert [b["length"] for b in doc["blocks"]] == [4, 3, 2, 2]

    def test_undefined_split_still_exits_zero(self, capsys):
        code, out, _ = run_cli(["split", "--lam", "3,2,2,1", "-m", "1"], capsys)
        assert code == 0
        assert "undefined" in out


class TestSymbolsCommand:
    def test_plus_zero_golden(self, capsys):
        code, out, _ = run_cli(
            ["symbols", "--first", "2,1", "--second", "3", "-m", "+0",
             "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["top"], doc["bottom"]) == ([1, 4], [0, 5])
        assert doc["aValue"] == 4
        assert doc["classSize"] == 4

    def test_sign_character_a_value(self, capsys):
        code, out, _ = run_cli(
            ["symbols", "--first", "", "--second", "1,1,1,1", "-m", "1",
             "--json"], capsys)
        assert code == 0
        assert json.loads(out)["aValue"] == 16

    def test_unsigned_zero_is_rejected(self, capsys):
        code, _, err = run_cli(
            ["symbols", "--first", "1", "--second", "", "-m", "0"], capsys)
        assert code == 2
        assert "+0" in err

    def test_third_integer_m_is_rejected(self, capsys):
        code, _, err = run_cli(
            ["symbols", "--first", "1", "--second", "", "-m", "1/3"], capsys)
        assert code == 2
        assert "half-integer" in err


class TestTableCommand:
    def test_rank_two_m_zero_rows(self, capsys):
        code, out, _ = run_cli(["table", "-n", "2", "--m-list", "0", "--json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        principal = [r for r in rows if r["kappa"] == [1, 1]]
        assert len(principal) == 1
        assert principal[0]["d"] == 1
        assert principal[0]["components"] == 2

    def test_rank_four_half_m_glued_row(self, capsys):
        code, out, _ = run_cli(["table", "-n", "4", "--m-list", "1/2", "--json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        glued = [r for r in rows if r["kappa"] == [2] and r["mu"] == [2]]
        assert len(glued) == 1
        assert glued[0]["d"] == 1
        assert glued[0]["gluable"] == [2]

    def test_discrete_series_rows_are_irreducible(self, capsys):
        code, out, _ = run_cli(
            ["table", "-n", "3", "--m-list", "0,1,3/2", "--json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows, "sweep produced no rows"
        assert all(r["components"] == 1 for r in rows if r["kappa"] == [])

    def test_csv_header_matches_documented_columns(self, capsys):
        code, out, _ = run_cli(["table", "-n", "2", "--m-list", "1", "--csv"], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header == ("n,m,kappa,mu,d,components,gluable,classSize,"
                          "aValue,residual,blockwise,cardinality,intervalCount")

    def test_jobs_do_not_change_bytes(self, capsys):
        argv = ["table", "-n", "5", "--m-list", "0,1/2,1", "--json"]
        _, serial, _ = run_cli(argv, capsys)
        _, parallel, _ = run_cli(argv + ["--jobs", "2"], capsys)
        assert serial == parallel

    def test_csv_and_json_agree_on_row_count(self, capsys):
        _, csv_out, _ = run_cli(["table", "-n", "3", "--m-list", "1", "--csv"], capsys)
        _, json_out, _ = run_cli(["table", "-n", "3", "--m-list", "1", "--json"], capsys)
        assert len(csv_out.splitlines()) - 1 == len(json.loads(json_out)["rows"])


class TestSelftestCommand:
    def test_fast_suites_pass(self, capsys):
        code, out, _ = run_cli(
            ["selftest", "--suite", "symbols", "--suite", "pairs"], capsys)
        assert code == 0
        assert "all suites passed" in out

    def test_suite_with_no_checks_fails(self, capsys):
        code, out, _ = run_cli(
            ["selftest", "--suite", "symbols", "--suite", "rgroup",
             "--suite", "counting", "--bound-n", "0"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert lines[0].split()[:3] == ["suite", "symbols", "ok"]
        assert lines[1].split()[:4] == ["suite", "rgroup", "FAIL", "0"]
        assert "no checks ran" in lines[2]
        assert lines[3].split()[:4] == ["suite", "counting", "FAIL", "0"]
        assert "all suites passed" not in out
        assert lines[-1] == "selftest: 0 failures; failed suites: rgroup, counting"

    def test_unknown_suite_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(["selftest", "--suite", "nonsense"], capsys)
        assert code == 2

    def test_rgroup_suite_writes_nothing_to_stderr(self):
        # A separate interpreter, because pytest captures what a plain run
        # prints to stderr. Rank 7 includes data whose component labels
        # break a gluing tie, which the sweep leaves unreported.
        src = str(Path(bhecke.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from bhecke.cli import main; sys.exit(main())",
             "selftest", "--suite", "rgroup", "--bound-n", "7"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "all suites passed" in proc.stdout


@pytest.mark.parametrize("argv, field", [
    (["rgroup", "-n", "2", "-m", "1/0", "--kappa", "2"], "-m"),
    (["symbols", "--first", "1", "--second", "", "-m", "1/0"], "-m"),
    (["residual", "-l", "-1", "-m", "1"], "-l"),
    (["table", "-n", "0"], "-n"),
    (["table", "-n", "2", "--jobs", "0"], "--jobs"),
    (["selftest", "--suite", "pairs", "--jobs", "0"], "--jobs"),
    (["selftest", "--suite", "pairs", "--bound-n", "-1", "--bound-l", "-5"], "--bound-n"),
    (["selftest", "--suite", "gluing", "--bound-l", "-1"], "--bound-l"),
    (["residual", "-l", "41", "-m", "1/2"], "-l"),
    (["table", "-n", "41", "--m-list", "1"], "-n"),
], ids=["rgroup-zero-denominator", "symbols-zero-denominator",
        "residual-negative-weight", "table-rank-zero", "table-jobs-zero",
        "selftest-jobs-zero", "selftest-negative-rank-bound",
        "selftest-negative-weight-bound", "residual-weight-over-bound",
        "table-rank-over-bound"])
def test_bad_input_is_a_usage_error(capsys, argv, field):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"argument {field}:" in err
    assert "Traceback" not in err


class _FakePool:
    """Stands in for ProcessPoolExecutor: records the worker count, runs in-process."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, cases, chunksize=1):
        return map(fn, cases)


class TestJobs:
    @pytest.fixture
    def pool(self, monkeypatch):
        _FakePool.started = []
        monkeypatch.setattr(selftest, "ProcessPoolExecutor", _FakePool)
        return _FakePool.started

    @pytest.mark.parametrize("jobs, cpus, cases, workers", [
        (64, 3, 10, [3]),    # clamped to the CPU count
        (64, 16, 2, [2]),    # clamped to the number of cases
        (2, 16, 10, [2]),
        (1, 16, 10, []),     # one job never starts a pool
        (4, 1, 10, []),      # nor does one CPU
        (4, None, 10, []),   # an unknown CPU count counts as one
        (4, 4, 1, []),       # nor does a single case
    ])
    def test_worker_count_is_clamped(self, pool, monkeypatch, jobs, cpus, cases, workers):
        monkeypatch.setattr(selftest.os, "cpu_count", lambda: cpus)
        assert selftest.map_jobs(abs, range(-cases, 0), jobs) == list(range(cases, 0, -1))
        assert pool == workers

    def test_jobs_below_one_are_rejected(self, pool):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            selftest.map_jobs(abs, [1, 2], 0)
        assert pool == []

    def test_table_clamps_jobs(self, pool, monkeypatch, capsys):
        monkeypatch.setattr(selftest.os, "cpu_count", lambda: 2)
        argv = ["table", "-n", "3", "--m-list", "1", "--json"]
        _, serial, _ = run_cli(argv, capsys)
        assert pool == []
        code, clamped, _ = run_cli(argv + ["--jobs", "1000"], capsys)
        assert code == 0
        assert pool == [2]
        assert clamped == serial


class TestConvertC:
    def test_label_halving(self, capsys):
        code, out, _ = run_cli(["convert-c", "--k1c", "1", "--k2c", "3"], capsys)
        assert code == 0
        assert "k2 = 3/2" in out
        assert "m  = 3/2" in out

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(
            ["convert-c", "--k1c", "2", "--k2c", "1", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["k1"], doc["k2"], doc["m"]) == ("2", "1/2", "1/4")

    def test_zero_k1c_is_rejected(self, capsys):
        code, _, err = run_cli(["convert-c", "--k1c", "0", "--k2c", "1"], capsys)
        assert code == 2
        assert "nonzero" in err


def test_partition_arguments_normalize_order(capsys):
    _, increasing, _ = run_cli(
        ["rgroup", "-n", "36", "-m", "3",
         "--kappa", "3,4,7,11", "--mu", "1,1,2,3,4", "--json"], capsys)
    _, decreasing, _ = run_cli(
        ["rgroup", "-n", "36", "-m", "3",
         "--kappa", "11,7,4,3", "--mu", "4,3,2,1,1", "--json"], capsys)
    assert increasing == decreasing
