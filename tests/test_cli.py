"""Command-line behavior, driven through main(argv)."""

import logging

import numpy as np
import pytest

from kmft.bench import read_rows
from kmft.cli import main, parse_fail
from kmft.datasets import make_blobs, read_dataset, write_dataset
from kmft.simcluster import FailPhase


class TestParseFail:
    def test_default_phase_is_barrier(self):
        ev = parse_fail("2@7")
        assert (ev.rank, ev.iteration, ev.phase) == (2, 7, FailPhase.BEFORE_BARRIER)

    def test_explicit_phases(self):
        assert parse_fail("0@3:compute").phase is FailPhase.DURING_COMPUTE
        assert parse_fail("1@9:ckpt").phase is FailPhase.DURING_CHECKPOINT
        assert parse_fail("1@9:barrier").phase is FailPhase.BEFORE_BARRIER

    @pytest.mark.parametrize("bad", ["2", "2@", "@7", "a@b", "2@7:later",
                                     "-1@3", "2@0"])
    def test_malformed_specs_rejected(self, bad):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_fail(bad)


class TestGenerate:
    def test_writes_readable_dataset(self, tmp_path, capsys):
        out = tmp_path / "d.kmds"
        rc = main(["generate", "--points", "200", "--dims", "3", "--blobs", "4",
                   "--spread", "0.5", "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert "200 x 3" in capsys.readouterr().out
        data = read_dataset(out)
        assert (data.n, data.d) == (200, 3)

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.kmds", tmp_path / "b.kmds"
        args = ["generate", "--points", "150", "--dims", "2", "--blobs", "3",
                "--seed", "8"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_dims_is_an_error(self, tmp_path, capsys):
        rc = main(["generate", "--points", "100", "--blobs", "3",
                   "--out", str(tmp_path / "d.kmds")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blobs.kmds"
    data, _ = make_blobs(n=500, d=3, blobs=5, spread=2.5, seed=17)
    write_dataset(path, data)
    return path


class TestRun:
    def test_sequential_from_file(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["run", "--data", str(dataset_file), "--k", "9",
                   "--seed", "17", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "converged" in text and "objective" in text
        (row,) = read_rows(out)
        assert row["method"] == "sequential"
        assert row["converged"] is True

    def test_synthesizes_when_no_data_given(self, tmp_path, capsys):
        rc = main(["run", "--points", "200", "--dims", "2", "--blobs", "4",
                   "--spread", "0.5", "--seed", "6", "--k", "4",
                   "--method", "samples", "--procs", "2"])
        assert rc == 0
        assert "converged" in capsys.readouterr().out

    def test_needs_data_or_synth_flags(self, capsys):
        rc = main(["run", "--k", "4"])
        assert rc == 2
        assert "--data" in capsys.readouterr().err

    def test_failure_injection_round_trip(self, dataset_file, tmp_path):
        out = tmp_path / "r.csv"
        base = ["run", "--data", str(dataset_file), "--k", "9", "--seed", "17",
                "--method", "samples", "--procs", "4", "--ckpt-interval", "5",
                "--out", str(out)]
        assert main(base) == 0
        assert main(base + ["--spares", "1", "--fail", "2@7"]) == 0
        plain, hurt = read_rows(out)
        assert plain["recoveries"] == 0
        assert hurt["recoveries"] == 1
        assert hurt["converged"] is True
        assert hurt["iterations"] == plain["iterations"]

    def test_kill_after_the_last_pass_recovers(self, capsys):
        """The victim dies after its last collective; the end-of-run barrier
        finds it."""
        rc = main(["run", "--points", "400", "--dims", "3", "--blobs", "4",
                   "--spread", "2", "--seed", "3", "--k", "6", "--procs", "4",
                   "--spares", "1", "--method", "samples", "--ckpt-interval", "5",
                   "--force-iters", "12", "--fail", "1@12:ckpt"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert "1 recoveries" in out
        assert "note:" not in err

    def test_kill_that_never_fires_is_noted(self, capsys):
        """The run converges at iteration 2, before the planned kill."""
        rc = main(["run", "--points", "300", "--dims", "2", "--blobs", "3",
                   "--k", "3", "--seed", "2", "--method", "samples", "--procs", "2",
                   "--spares", "0", "--fail", "0@3"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert "0 recoveries" in out
        assert "note: kill 0@3:barrier never fired" in err

    def test_abort_sets_exit_code_and_reason(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["run", "--data", str(dataset_file), "--k", "9",
                   "--seed", "17", "--method", "centers", "--procs", "4",
                   "--spares", "0", "--fail", "1@4:compute",
                   "--out", str(out)])
        assert rc == 1
        (row,) = read_rows(out)
        assert row["converged"] is False
        assert "spares" in row["reason"]
        assert "failed:" in capsys.readouterr().out

    def test_forced_iterations_and_checkpoint_count(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["run", "--points", "120", "--dims", "2", "--blobs", "3",
                   "--spread", "0.8", "--seed", "4", "--k", "3",
                   "--method", "samples", "--procs", "2",
                   "--ckpt-interval", "50", "--max-iters", "600",
                   "--force-iters", "550", "--out", str(out)])
        assert rc == 0
        (row,) = read_rows(out)
        assert row["iterations"] == 550
        assert row["epochs_committed"] == 11

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_non_positive_forced_iterations_are_a_usage_error(self, iters, capsys):
        rc = main(["run", "--points", "50", "--dims", "2", "--blobs", "3",
                   "--k", "3", "--seed", "1", "--procs", "2", "--method", "samples",
                   "--force-iters", iters])
        assert rc == 2
        assert "force_iters" in capsys.readouterr().err

    def test_concurrent_mode_flag(self, dataset_file, capsys):
        """The flag went with the concurrent scheduler; it must not be ignored."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--data", str(dataset_file), "--k", "9",
                  "--seed", "17", "--method", "samples", "--procs", "2",
                  "--mode", "conc"])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err

    def test_negative_synth_seed_is_a_usage_error(self, capsys):
        rc = main(["run", "--points", "200", "--dims", "2", "--blobs", "4",
                   "--spread", "0.5", "--seed", "-3", "--k", "4"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_timeout_is_a_usage_error(self, dataset_file, capsys):
        rc = main(["run", "--data", str(dataset_file), "--k", "9",
                   "--method", "samples", "--procs", "2", "--timeout-ticks", "-5"])
        assert rc == 2
        assert "timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("spares", ["1", "2"])
    def test_losing_every_active_rank_is_a_failed_run(self, spares, capsys):
        rc = main(["run", "--points", "400", "--dims", "3", "--blobs", "4",
                   "--k", "4", "--procs", "2", "--spares", spares,
                   "--method", "samples", "--fail", "0@3", "--fail", "1@3",
                   "--seed", "1", "--force-iters", "8"])
        assert rc == 1
        assert "failed: every active rank failed" in capsys.readouterr().out

    @pytest.mark.parametrize("plain", [["--method", "sequential"],
                                       ["--method", "samples", "--procs", "1"]])
    def test_kills_in_a_plain_run_are_a_usage_error(self, dataset_file, plain, capsys):
        rc = main(["run", "--data", str(dataset_file), "--k", "9",
                   "--fail", "0@2"] + plain)
        assert rc == 2
        assert "failures need" in capsys.readouterr().err

    def test_missing_k_rejected_by_argparse(self, dataset_file):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--data", str(dataset_file)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("method", [["--method", "sequential"],
                                        ["--method", "samples", "--procs", "2"]])
    def test_k_above_the_distinct_samples_is_a_usage_error(self, method, capsys):
        """Exit 1 means a failed run; a k the data cannot seed is bad input."""
        rc = main(["run", "--points", "10", "--dims", "2", "--blobs", "2",
                   "--k", "20", "--seed", "1"] + method)
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["csv", "kmds"])
    def test_out_onto_a_non_report_file_is_refused_untouched(self, tmp_path, kind,
                                                            capsys):
        """`--out` naming the input dataset must not append a row to it."""
        data, _ = make_blobs(n=60, d=2, blobs=2, spread=0.5, seed=2)
        path = tmp_path / f"pts.{kind}"
        if kind == "csv":
            np.savetxt(path, data.values, delimiter=",")
        else:
            write_dataset(path, data)
        before = path.read_bytes()
        rc = main(["run", "--data", str(path), "--k", "2", "--out", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "header mismatch" in captured.err
        assert captured.out == ""             # refused before the run
        assert path.read_bytes() == before
        assert read_dataset(path).values.tobytes() == data.values.tobytes()

    def test_missing_data_file_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["run", "--data", str(tmp_path / "missing.kmds"), "--k", "3"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestReport:
    def _fill(self, dataset_file, out):
        for procs in ("2", "4"):
            assert main(["run", "--data", str(dataset_file), "--k", "9",
                         "--seed", "17", "--method", "samples",
                         "--procs", procs, "--ckpt-interval", "5",
                         "--out", str(out)]) == 0

    def test_prints_table_and_writes_summary(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "r.csv"
        self._fill(dataset_file, out)
        summary = tmp_path / "s.csv"
        rc = main(["report", str(out), "--out", str(summary)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "speedup" in text
        assert summary.exists()
        lines = summary.read_text().splitlines()
        assert lines[0].startswith("method,procs,k")
        assert len(lines) == 3

    def test_default_summary_path(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "r.csv"
        self._fill(dataset_file, out)
        assert main(["report", str(out)]) == 0
        assert (tmp_path / "r-summary.csv").exists()

    def test_missing_csv_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "missing.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "r.csv"
        bad.write_text("not,a,report\n")
        rc = main(["report", str(bad)])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_row_with_no_procs_is_a_usage_error(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "r.csv"
        self._fill(dataset_file, out)
        lines = out.read_text().splitlines()
        procs = lines[0].split(",").index("procs")
        cells = lines[1].split(",")
        cells[procs] = "0"
        lines[1] = ",".join(cells)
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["report", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "line 2" in err


class TestLogging:
    def test_env_var_sets_level(self, dataset_file, monkeypatch, capsys):
        monkeypatch.setenv("KMFT_LOG", "INFO")
        root = logging.getLogger()
        old = root.level, root.handlers[:]
        try:
            rc = main(["run", "--data", str(dataset_file), "--k", "9",
                       "--seed", "17"])
            assert rc == 0
            assert logging.getLogger("kmft.bench").isEnabledFor(logging.INFO)
        finally:
            root.setLevel(old[0])
            root.handlers[:] = old[1]
