"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--figure", "fig3"])
        assert args.dataset == "ipums"
        assert args.trials == 5
        assert args.seed == 0

    def test_invalid_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--figure", "fig99"])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.protocol == "grr"
        assert args.beta == 0.05

    def test_olh_cohort_flag(self):
        args = build_parser().parse_args(
            ["run", "--figure", "fig7", "--olh-cohort", "256"]
        )
        assert args.olh_cohort == 256
        assert build_parser().parse_args(["run", "--figure", "fig7"]).olh_cohort is None

    def test_cache_flags(self):
        args = build_parser().parse_args(
            ["run", "--figure", "fig5", "--cache-dir", "/tmp/x", "--cache-stats"]
        )
        assert args.cache_dir == "/tmp/x"
        assert args.cache_stats and not args.no_cache

    def test_cache_subcommand(self):
        args = build_parser().parse_args(["cache", "prune", "--older-than-days", "7"])
        assert args.command == "cache"
        assert args.action == "prune"
        assert args.older_than_days == 7.0

    def test_exhibit_is_an_alias_of_figure(self):
        args = build_parser().parse_args(["run", "--exhibit", "kv"])
        assert args.figure == "kv"
        args = build_parser().parse_args(["shard", "run", "--exhibit", "heavyhitter"])
        assert args.figure == "heavyhitter"

    def test_scenario_names_are_figure_choices_too(self):
        assert build_parser().parse_args(["run", "--figure", "kv"]).figure == "kv"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--exhibit", "nope"])


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "table1" in out

    def test_run_table1(self, capsys):
        code = main(
            ["run", "--figure", "table1", "--trials", "1", "--num-users", "5000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mse_before_recovery" in out
        assert "grr" in out

    def test_run_fig4_small(self, capsys):
        code = main(
            ["run", "--figure", "fig4", "--trials", "1", "--num-users", "5000"]
        )
        assert code == 0
        assert "fg_before" in capsys.readouterr().out

    def test_run_sweep_parameter(self, capsys):
        code = main(
            [
                "run",
                "--figure",
                "fig5",
                "--parameter",
                "eta",
                "--trials",
                "1",
                "--num-users",
                "5000",
            ]
        )
        assert code == 0
        assert "eta" in capsys.readouterr().out

    def test_run_table1_with_olh_cohort(self, capsys):
        code = main(
            [
                "run", "--figure", "table1", "--trials", "1",
                "--num-users", "4000", "--chunk-users", "2000",
                "--olh-cohort", "16", "--no-cache",
            ]
        )
        assert code == 0
        assert "mse_after_recovery" in capsys.readouterr().out

    def test_list_includes_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kv" in out and "heavyhitter" in out

    def test_run_kv_exhibit(self, capsys):
        code = main(
            ["run", "--exhibit", "kv", "--trials", "1", "--num-users", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "freq_mse_recover_star" in out
        assert "kv-mga" in out

    def test_run_heavyhitter_exhibit(self, capsys):
        code = main(
            ["run", "--exhibit", "heavyhitter", "--trials", "1",
             "--num-users", "3000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "precision_recovered_star" in out
        assert "promoted_poisoned" in out

    def test_chunk_users_note_for_kv(self, capsys):
        code = main(
            ["run", "--exhibit", "kv", "--trials", "1", "--num-users", "2000",
             "--chunk-users", "1000"]
        )
        assert code == 0
        assert "--chunk-users is ignored" in capsys.readouterr().err

    def test_demo_runs(self, capsys):
        code = main(["demo", "--num-users", "5000", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MSE after LDPRecover" in out
        assert "frequency gain" in out


class TestCacheWorkflow:
    """End-to-end: run twice against one cache dir, inspect, prune."""

    ARGS = ["run", "--figure", "table1", "--trials", "2", "--num-users", "4000"]

    def test_second_run_is_all_hits(self, capsys, tmp_path):
        flags = ["--cache-dir", str(tmp_path), "--cache-stats"]
        assert main(self.ARGS + flags) == 0
        first = capsys.readouterr().out
        assert "0 hits, 6 misses, 6 stored" in first
        assert main(self.ARGS + flags) == 0
        second = capsys.readouterr().out
        assert "6 hits, 0 misses, 0 stored (hit rate 100.0%)" in second
        # Identical tables modulo the stats line.
        assert first.splitlines()[:-1] == second.splitlines()[:-1]

    def test_no_cache_bypasses_store(self, capsys, tmp_path):
        flags = ["--cache-dir", str(tmp_path), "--no-cache", "--cache-stats"]
        assert main(self.ARGS + flags) == 0
        out = capsys.readouterr().out
        assert "hits" not in out  # no stats without a cache
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "no cached cells" in capsys.readouterr().out

    def test_cache_ls_verify_prune(self, capsys, tmp_path):
        assert main(self.ARGS + ["--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "6 cells" in out
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        assert "ok: 6 cells verified" in capsys.readouterr().out
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
        assert "pruned 6 cached cells" in capsys.readouterr().out

    def test_verify_reports_corruption(self, capsys, tmp_path):
        from repro.sim.cache import CellCache

        assert main(self.ARGS + ["--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        [first, *_] = CellCache(tmp_path).entries()
        first.path.write_text("garbage", encoding="utf-8")
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "BAD" in err and "1 bad entries found" in err and "5 healthy" in err


class TestShardWorkflow:
    """End-to-end `shard run` / `status` / `merge` over a shared cache dir."""

    SWEEP = ["--figure", "table1", "--trials", "2", "--num-users", "4000"]

    def _flags(self, tmp_path):
        return self.SWEEP + ["--cache-dir", str(tmp_path)]

    def test_static_two_shard_merge_equals_unsharded_run(self, capsys, tmp_path):
        flags = self._flags(tmp_path / "shared")
        assert main(["shard", "run"] + flags + ["--shard-index", "0", "--shard-count", "2"]) == 0
        assert "static-0of2" in capsys.readouterr().out
        # Incomplete: status exits 1 and merge refuses.
        assert main(["shard", "status"] + flags) == 1
        capsys.readouterr()
        assert main(["shard", "merge"] + flags) == 1
        assert "cannot merge" in capsys.readouterr().err
        assert main(["shard", "run"] + flags + ["--shard-index", "1", "--shard-count", "2"]) == 0
        assert main(["shard", "status"] + flags) == 0
        capsys.readouterr()

        merged = tmp_path / "merged.json"
        single = tmp_path / "single.json"
        assert main(["shard", "merge"] + flags + ["--output", str(merged)]) == 0
        capsys.readouterr()
        # The unsharded reference, computed in a *separate* cache dir.
        assert main(
            ["run"] + self.SWEEP
            + ["--cache-dir", str(tmp_path / "solo"), "--output", str(single)]
        ) == 0
        capsys.readouterr()
        assert merged.read_text() == single.read_text(), (
            "merged shard rows must be byte-identical to the unsharded run"
        )

    def test_claims_mode_and_cache_stats(self, capsys, tmp_path):
        flags = self._flags(tmp_path)
        assert main(["shard", "run"] + flags + ["--claims", "--label", "host-a"]) == 0
        out = capsys.readouterr().out
        assert "host-a" in out and "[claims]" in out and "6 run" in out
        assert main(["shard", "run"] + flags + ["--claims", "--label", "host-b",
                                                "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "0 run, 6 served" in out and "6 hits" in out

    def test_mode_validation_exit_code(self, capsys, tmp_path):
        flags = self._flags(tmp_path)
        assert main(["shard", "run"] + flags) == 2
        assert "assignment mode" in capsys.readouterr().err
        assert main(["shard", "run"] + flags + ["--shard-index", "5",
                                                "--shard-count", "2"]) == 2

    def test_invalid_ttl_is_an_error_not_a_traceback(self, capsys, tmp_path):
        flags = self._flags(tmp_path) + ["--claim-ttl", "0"]
        assert main(["shard", "status"] + flags) == 2
        assert "ttl" in capsys.readouterr().err
        assert main(["shard", "run", "--claims"] + flags) == 2
        capsys.readouterr()

    def test_shard_shares_run_cache_entries(self, capsys, tmp_path):
        """`run` warms the cache; a later shard run serves everything."""
        flags = self._flags(tmp_path)
        assert main(["run"] + flags) == 0
        capsys.readouterr()
        assert main(["shard", "run"] + flags + ["--shard-index", "0",
                                                "--shard-count", "1"]) == 0
        assert "0 run, 6 served" in capsys.readouterr().out


#: The test process's pid: pool workers are forked from it.
_TEST_PID = os.getpid()


def _exit_in_worker(*args, **kwargs):
    """Stand-in for a trial that kills the pool worker running it."""
    if os.getpid() != _TEST_PID:
        os._exit(3)
    raise AssertionError("a pooled trial ran inline")


class TestErrors:
    """Bad input ends in one ``error:`` line and exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--figure", "table1", "--trials", "0", "--no-cache"],
            ["run", "--figure", "fig8", "--trials", "0", "--no-cache"],
            ["run", "--figure", "fig9", "--trials", "0", "--no-cache"],
            ["run", "--figure", "fig3", "--target-ci", "-1"],
            ["run", "--figure", "fig3", "--num-users", "-5", "--no-cache"],
            ["run", "--figure", "table1", "--workers", "-2", "--no-cache",
             "--num-users", "3000", "--trials", "1"],
            ["run", "--figure", "table1", "--olh-cohort", "0", "--no-cache",
             "--num-users", "3000", "--trials", "1"],
            ["demo", "--beta", "2"],
            ["serve", "--epsilon", "-1"],
            ["shard", "run", "--figure", "table1", "--shard-index", "3",
             "--shard-count", "2"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_repro_error_exits_2_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_dead_worker_exits_2_and_the_next_run_succeeds(self, capsys, monkeypatch):
        from repro.sim import figures

        argv = ["run", "--figure", "fig8", "--num-users", "3000", "--trials", "2",
                "--workers", "2", "--no-cache"]
        monkeypatch.setattr(figures, "run_trial", _exit_in_worker)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died") and err.count("\n") == 1
        monkeypatch.undo()
        assert main(argv) == 0
        assert "mse_mga" in capsys.readouterr().out

    def test_entry_point_prints_no_traceback(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", "--figure", "fig3",
             "--target-ci", "-1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: target_halfwidth")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
