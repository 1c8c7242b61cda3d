"""Benchmark layer: run dispatch, the report CSV, and aggregation."""

import csv

import pytest

from kmft.bench import (CSV_HEADER, SUMMARY_HEADER, RunConfig, append_rows,
                        config_id, read_rows, run_experiment, summarize,
                        write_summary)
from kmft.datasets import make_blobs
from kmft.errors import ConfigError
from kmft.simcluster import FailPhase, FailureEvent

# loose blobs with k > blobs so runs take a couple dozen iterations
DATA, _ = make_blobs(n=500, d=3, blobs=5, spread=2.5, seed=17)


def cfg(**kw):
    base = dict(n=500, d=3, k=9, seed=17)
    base.update(kw)
    return RunConfig(**base)


VT_COLS = ("vt_compute", "vt_comm", "vt_ckpt_start", "vt_ckpt_commit",
           "vt_detect", "vt_restore")


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            cfg(procs=0)
        with pytest.raises(ConfigError):
            cfg(spares=-1)
        with pytest.raises(ConfigError):
            cfg(interval=0)
        with pytest.raises(ConfigError):
            cfg(timeout=-50)
        with pytest.raises(ConfigError):
            cfg(method="kmeans++")
        with pytest.raises(ConfigError):
            cfg(method="sequential", force_iters=10)
        with pytest.raises(ConfigError):
            cfg(method="samples", procs=2, force_iters=0)
        with pytest.raises(ConfigError):
            cfg(method="centers", procs=4, force_iters=-2)
        kill = (FailureEvent(rank=0, iteration=2, phase=FailPhase.BEFORE_BARRIER),)
        with pytest.raises(ConfigError):
            cfg(method="sequential", procs=4, failures=kill)
        with pytest.raises(ConfigError):
            cfg(method="samples", procs=1, failures=kill)

    def test_config_id_stable_and_sensitive(self):
        a = config_id(cfg(procs=4, method="samples"))
        assert a == config_id(cfg(procs=4, method="samples"))
        assert a == "cbf526fdfe"    # ids of rows already in report CSVs
        assert len(a) == 10
        assert a != config_id(cfg(procs=8, method="samples"))
        assert a != config_id(cfg(procs=4, method="centers"))
        assert a != config_id(cfg(procs=4, method="samples", seed=18))
        fail = (FailureEvent(rank=1, iteration=3, phase=FailPhase.BEFORE_BARRIER),)
        assert a != config_id(cfg(procs=4, method="samples", failures=fail))


class TestRunExperiment:
    def test_dataset_shape_must_match(self):
        with pytest.raises(ConfigError):
            run_experiment(DATA, cfg(n=400))

    def test_sequential_and_method1_agree_exactly(self):
        seq = run_experiment(DATA, cfg(method="sequential"))
        one = run_experiment(DATA, cfg(method="centers", procs=1))
        ft = run_experiment(DATA, cfg(method="centers", procs=4, interval=5))
        assert seq.row["iterations"] == one.row["iterations"] == ft.row["iterations"]
        assert seq.objective == one.objective == ft.objective
        assert seq.row["converged"] and ft.row["converged"]
        assert seq.row["iterations"] > 10   # fixture must exercise checkpoints

    def test_method2_agrees_to_rounding(self):
        seq = run_experiment(DATA, cfg(method="sequential"))
        ft = run_experiment(DATA, cfg(method="samples", procs=4, interval=5))
        assert ft.row["iterations"] == seq.row["iterations"]
        assert ft.objective == pytest.approx(seq.objective, rel=1e-12)

    def test_plain_runs_have_no_ticks(self):
        seq = run_experiment(DATA, cfg(method="sequential"))
        one = run_experiment(DATA, cfg(method="samples", procs=1))
        for report in (seq, one):
            assert all(report.row[c] == 0 for c in VT_COLS)
            assert report.row["overhead_frac"] == 0.0
            assert report.row["epochs_committed"] == 0

    def test_ticks_sum_to_world_total(self):
        ft = run_experiment(DATA, cfg(method="centers", procs=4, spares=1,
                                      interval=5))
        assert sum(ft.row[c] for c in VT_COLS) == sum(ft.outcome.vt_total.values())

    def test_overhead_fraction_matches_ledger(self):
        ft = run_experiment(DATA, cfg(method="samples", procs=4, interval=5))
        total = sum(ft.row[c] for c in VT_COLS)
        protect = (ft.row["vt_ckpt_start"] + ft.row["vt_ckpt_commit"]
                   + ft.row["vt_detect"] + ft.row["vt_restore"])
        assert ft.row["overhead_frac"] == protect / total
        assert 0.0 <= ft.row["overhead_frac"] <= 1.0

    def test_failure_run_recovers(self):
        plain = run_experiment(DATA, cfg(method="samples", procs=4, interval=5))
        hurt = run_experiment(DATA, cfg(
            method="samples", procs=4, spares=1, interval=5,
            failures=(FailureEvent(rank=2, iteration=7,
                                   phase=FailPhase.BEFORE_BARRIER),)))
        assert hurt.row["recoveries"] == 1
        assert hurt.row["converged"]
        assert hurt.row["reason"] == ""
        assert hurt.row["iterations"] == plain.row["iterations"]
        # the rebuilt group folds partial sums in the same position order
        assert hurt.objective == plain.objective
        assert hurt.row["vt_detect"] > 0 and hurt.row["vt_restore"] > 0

    def test_abort_recorded_not_raised(self):
        report = run_experiment(DATA, cfg(
            method="centers", procs=4, spares=0, interval=5,
            failures=(FailureEvent(rank=1, iteration=4,
                                   phase=FailPhase.DURING_COMPUTE),)))
        assert report.row["converged"] is False
        assert "spares" in report.row["reason"]
        assert report.objective is None

    def test_forced_iterations_checkpoint_count(self):
        small, _ = make_blobs(n=120, d=2, blobs=3, spread=0.8, seed=4)
        report = run_experiment(small, RunConfig(
            n=120, d=2, k=3, procs=2, method="samples", interval=50,
            max_iters=600, force_iters=550, seed=4))
        assert report.row["iterations"] == 550
        assert report.row["epochs_committed"] == 11

    def test_deterministic_rerun_identical_except_wall(self):
        spec = cfg(method="samples", procs=4, spares=1, interval=5,
                   failures=(FailureEvent(rank=0, iteration=9,
                                          phase=FailPhase.DURING_CHECKPOINT),))
        a = run_experiment(DATA, spec)
        b = run_experiment(DATA, spec)
        diff = {c for c in CSV_HEADER if a.row[c] != b.row[c]}
        assert diff <= {"wall_ms"}


class TestCsvRoundTrip:
    def _rows(self):
        seq = run_experiment(DATA, cfg(method="sequential"))
        ft = run_experiment(DATA, cfg(method="samples", procs=4, interval=5))
        return [seq.row, ft.row]

    def test_write_then_read(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = self._rows()
        append_rows(path, rows[:1])
        append_rows(path, rows[1:])      # second append must not re-add header
        back = read_rows(path)
        assert back == rows
        with path.open() as fh:
            assert sum(1 for line in fh if line.startswith("config_id")) == 1

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError, match="line 1"):
            read_rows(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            read_rows(path)

    def test_short_row_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "r.csv"
        append_rows(path, self._rows())
        with path.open("a") as fh:
            fh.write("only,three,cols\n")
        with pytest.raises(ConfigError, match="line 4"):
            read_rows(path)

    def test_bad_value_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "r.csv"
        rows = self._rows()
        append_rows(path, rows)
        text = path.read_text().splitlines()
        text[2] = text[2].replace(str(rows[1]["iterations"]), "soon", 1)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ConfigError, match="line 3"):
            read_rows(path)

    def test_overhead_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        row = dict(self._rows()[1])
        row["overhead_frac"] = 1.5
        append_rows(path, [row])
        with pytest.raises(ConfigError, match="line 2.*overhead"):
            read_rows(path)

    @pytest.mark.parametrize("column, value", [("procs", 0), ("procs", -4),
                                               ("vt_comm", -1)])
    def test_impossible_procs_or_ticks_rejected(self, tmp_path, column, value):
        path = tmp_path / "r.csv"
        row = dict(self._rows()[1])
        row[column] = value
        append_rows(path, [row])
        with pytest.raises(ConfigError, match=f"line 2.*{column}"):
            read_rows(path)


class TestSummarize:
    def test_single_row_aggregate_equals_row(self):
        ft = run_experiment(DATA, cfg(method="samples", procs=4, interval=5))
        row = ft.row
        (agg,) = summarize([row])
        assert agg["method"] == row["method"]
        assert agg["procs"] == row["procs"] and agg["k"] == row["k"]
        assert agg["runs"] == 1
        assert agg["iterations_mean"] == row["iterations"]
        assert agg["converged_all"] == row["converged"]
        assert agg["recoveries_total"] == row["recoveries"]
        assert agg["overhead_mean"] == row["overhead_frac"]
        assert agg["time_mean"] == sum(row[c] for c in VT_COLS) / row["procs"]
        assert agg["speedup"] == 1.0

    def test_speedup_is_baseline_over_row_time(self):
        two = run_experiment(DATA, cfg(method="samples", procs=2, interval=5)).row
        four = run_experiment(DATA, cfg(method="samples", procs=4, interval=5)).row
        summary = summarize([two, four])
        t2 = sum(two[c] for c in VT_COLS) / 2
        t4 = sum(four[c] for c in VT_COLS) / 4
        by_procs = {s["procs"]: s for s in summary}
        assert by_procs[2]["speedup"] == 1.0
        assert by_procs[4]["speedup"] == t2 / t4
        assert by_procs[4]["speedup"] > 1.0

    def test_plain_rows_do_not_anchor_speedup(self):
        one = run_experiment(DATA, cfg(method="samples", procs=1)).row
        four = run_experiment(DATA, cfg(method="samples", procs=4, interval=5)).row
        by_procs = {s["procs"]: s for s in summarize([one, four])}
        assert by_procs[1]["speedup"] == 1.0
        assert by_procs[4]["speedup"] == 1.0   # no simulated-time baseline

    def test_groups_split_by_method_and_k(self):
        rows = [run_experiment(DATA, cfg(method="samples", procs=2, interval=5)).row,
                run_experiment(DATA, cfg(method="centers", procs=2, interval=5)).row,
                run_experiment(DATA, cfg(method="samples", procs=2, interval=5, k=4)).row]
        summary = summarize(rows)
        assert len(summary) == 3
        assert all(s["speedup"] == 1.0 for s in summary)

    def test_mean_over_repeats(self):
        a = run_experiment(DATA, cfg(method="samples", procs=4, interval=5)).row
        b = dict(a)
        b["iterations"] = a["iterations"] + 2
        (agg,) = summarize([a, b])
        assert agg["runs"] == 2
        assert agg["iterations_mean"] == a["iterations"] + 1

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            summarize([])

    def test_summary_csv(self, tmp_path):
        ft = run_experiment(DATA, cfg(method="samples", procs=4, interval=5))
        summary = summarize([ft.row])
        path = tmp_path / "s.csv"
        write_summary(path, summary)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SUMMARY_HEADER
        assert len(rows) == 2
        assert rows[1][0] == "samples"
