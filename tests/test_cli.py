"""Tests for the command-line interface."""

from __future__ import annotations

import json
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
        assert "note: --chunk-users is ignored for kv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exhibit,flag",
        [("epochs", "--chunk-users"), ("kv", "--olh-cohort"), ("epochs", "--olh-cohort")],
    )
    def test_unconsumed_sweep_option_note(self, capsys, exhibit, flag):
        code = main(
            ["run", "--exhibit", exhibit, "--trials", "1", "--num-users", "2000",
             flag, "1000"]
        )
        assert code == 0
        assert f"note: {flag} is ignored for {exhibit}" in capsys.readouterr().err

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

    def test_prune_counts_cells_and_removes_emptied_directories(self, capsys, tmp_path):
        """A budgeted cache holds 6 cell entries and 6 trial streams: prune
        reports the 6 cells and leaves only the empty tag directory."""
        budget = ["--target-ci", "1e-9", "--max-trials", "4"]
        assert main(self.ARGS + budget + ["--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
        assert "pruned 6 cached cells" in capsys.readouterr().out
        [tag] = tmp_path.iterdir()
        assert list(tag.iterdir()) == []

    def test_verify_reports_corruption(self, capsys, tmp_path):
        from repro.sim.cache import CellCache

        assert main(self.ARGS + ["--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        [first, *_] = CellCache(tmp_path).entries()
        first.path.write_text("garbage", encoding="utf-8")
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "BAD" in err and "1 bad entries found" in err and "5 healthy" in err

    @pytest.mark.parametrize(
        "change, listed, pruned",
        [
            (lambda entry: entry["spec"].update(protocol="x"), 6, 0),
            (lambda entry: entry["spec"].update(attacks=["x"], params=[1]), 6, 0),
            (lambda entry: entry.update(created_at=[1]), 5, 1),
        ],
        ids=["spec-protocol", "spec-attacks-and-params", "created-at"],
    )
    def test_ls_and_prune_survive_a_mistyped_field(self, capsys, tmp_path, change, listed, pruned):
        from repro.sim.cache import CellCache

        assert main(self.ARGS + ["--cache-dir", str(tmp_path)]) == 0
        [first, *_] = CellCache(tmp_path).entries()
        entry = json.loads(first.path.read_text(encoding="utf-8"))
        change(entry)
        first.path.write_text(json.dumps(entry), encoding="utf-8")
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert f"{listed} cells" in capsys.readouterr().out
        assert main(["cache", "prune", "--older-than-days", "1", "--cache-dir", str(tmp_path)]) == 0
        assert f"pruned {pruned} cached cells" in capsys.readouterr().out

    def test_bad_trial_stream_leaves_every_cell_healthy(self, capsys, tmp_path):
        budget = ["--target-ci", "1e-9", "--max-trials", "4"]
        assert main(self.ARGS + budget + ["--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        [stream, *_] = sorted(tmp_path.rglob("*.trials"))
        stream.write_text("garbage", encoding="utf-8")
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"BAD  {stream}: " in err
        # The garbage stream is one problem, and not a cell entry.
        assert "1 bad entries found" in err and "; 6 healthy" in err

    def test_bad_trial_stream_heals_on_top_up(self, capsys, tmp_path):
        """A top-up over a damaged stream counts one unreadable entry,
        reruns that cell from trial 0 and renders the uncached rows."""
        budget = ["--target-ci", "1e-9", "--trial-batch", "2"]
        flags = ["--cache-dir", str(tmp_path), "--cache-stats"]
        assert main(self.ARGS + budget + ["--max-trials", "4"] + flags) == 0
        capsys.readouterr()
        [stream, *_] = sorted(tmp_path.rglob("*.trials"))
        stream.write_text("garbage", encoding="utf-8")
        assert main(self.ARGS + budget + ["--max-trials", "6"] + flags) == 0
        topped = capsys.readouterr()
        assert topped.err == ""
        assert "1 unreadable entries, 10 trial blocks reused (20 trials), 8 appended" in topped.out
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        assert "ok: 12 cells verified" in capsys.readouterr().out
        fixed = ["run", "--figure", "table1", "--trials", "6", "--num-users", "4000", "--no-cache"]
        assert main(fixed) == 0
        assert topped.out.splitlines()[:-1] == capsys.readouterr().out.splitlines()


class TestDamagedCachePayload:
    """A cached payload that does not render is one miss: the run
    recomputes the cell and rewrites its entry.  A changed number still
    renders, and ``cache verify --delete`` finds and removes it through
    the payload digest, after which a rerun renders the clean rows again."""

    def _run(self, tmp_path, args, output):
        flags = ["--trials", "1", "--num-users", "3000", "--cache-dir", str(tmp_path)]
        return main(["run", *args, *flags, "--output", str(tmp_path / output)])

    def _damage(self, tmp_path, exhibit, change):
        from repro.sim.cache import CellCache

        [entry, *_] = [
            e for e in CellCache(tmp_path).entries() if e.spec.get("exhibit") == exhibit
        ]
        data = json.loads(entry.path.read_text(encoding="utf-8"))
        change(data["payload"])
        entry.path.write_text(json.dumps(data), encoding="utf-8")
        return entry

    def _verify_delete_and_rerun(self, capsys, tmp_path, args, entry):
        assert main(["cache", "verify", "--delete", "--cache-dir", str(tmp_path)]) == 1
        assert f"BAD  {entry.path}: payload digest" in capsys.readouterr().err
        assert self._run(tmp_path, args, "healed.json") == 0
        healed = (tmp_path / "healed.json").read_bytes()
        assert healed == (tmp_path / "clean.json").read_bytes()

    def test_heavyhitter_payload_without_a_metric_is_recomputed(self, capsys, tmp_path):
        args = ["--exhibit", "heavyhitter"]
        assert self._run(tmp_path, args, "clean.json") == 0
        self._damage(tmp_path, "scenario-heavyhitter", lambda p: p.pop("precision_poisoned_k5"))
        capsys.readouterr()
        assert self._run(tmp_path, [*args, "--cache-stats"], "healed.json") == 0
        out, err = capsys.readouterr()
        assert "8 hits, 1 misses, 1 stored" in out and "1 unreadable entries" in out
        assert err == ""
        healed = (tmp_path / "healed.json").read_bytes()
        assert healed == (tmp_path / "clean.json").read_bytes()
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0

    def test_changed_fig8_value_is_found_by_verify(self, capsys, tmp_path):
        args = ["--figure", "fig8"]
        assert self._run(tmp_path, args, "clean.json") == 0

        def change(payload):
            payload["mse_mga"]["mean"] = 123.0

        entry = self._damage(tmp_path, "figure8", change)
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        assert "1 bad entries found" in capsys.readouterr().err
        self._verify_delete_and_rerun(capsys, tmp_path, args, entry)


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

    def test_status_skips_a_report_nested_too_deeply(self, capsys, tmp_path):
        """A shard report the JSON parser cannot read is skipped: ``status``
        exits 0 over the complete sweep and writes nothing to stderr."""
        flags = self._flags(tmp_path)
        assert main(["shard", "run"] + flags + ["--shard-index", "0",
                                                "--shard-count", "1"]) == 0
        [report] = tmp_path.rglob("*.report")
        report.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        capsys.readouterr()
        assert main(["shard", "status"] + flags) == 0
        out, err = capsys.readouterr()
        assert "6/6 cells done" in out and "shard reports" not in out and err == ""

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

    def test_negative_workers_exit_2_even_on_a_warm_cache(self, tmp_path, capsys):
        """The worker count is checked before any cell is looked up, so a
        warm cache can neither print rows for ``--workers -3`` nor let
        ``shard status`` report progress."""
        sweep = ["--figure", "fig8", "--num-users", "3000", "--trials", "2",
                 "--cache-dir", str(tmp_path)]
        assert main(["run", *sweep]) == 0
        capsys.readouterr()
        for argv in (["run", *sweep, "--workers", "-3"],
                     ["shard", "status", *sweep, "--workers", "-3"]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == "error: workers must be >= 0 or None, got -3\n"
            assert "mse_mga" not in captured.out and "cells done" not in captured.out

    @pytest.mark.parametrize(
        "flag,value,error",
        [
            ("--chunk-users", "-5", "chunk_users must be >= 1, got -5"),
            ("--olh-cohort", "0", "olh_cohort must be >= 1, got 0"),
        ],
    )
    def test_bad_chunk_or_cohort_exit_2_even_on_a_warm_cache(
        self, tmp_path, capsys, flag, value, error
    ):
        """The chunk size and cohort size are checked before any cell is
        looked up, like the worker count.  The cache is warmed in chunked
        mode, whose cell keys do not carry the chunk size, so
        ``--chunk-users -5`` would otherwise hit."""
        sweep = ["--figure", "fig8", "--num-users", "3000", "--trials", "2",
                 "--cache-dir", str(tmp_path), "--chunk-users", "700"]
        assert main(["run", *sweep]) == 0
        capsys.readouterr()
        for argv in (["run", *sweep, flag, value],
                     ["shard", "status", *sweep, flag, value]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == f"error: {error}\n"
            assert "mse_mga" not in captured.out and "cells done" not in captured.out

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
