"""Tests for the persistent experiment-cell cache (repro.sim.cache).

The contract under test (ISSUE 2 acceptance criteria):

* cache keys are the canonical hash of the *full* cell spec — changing
  any spec field (dataset content, protocol/attack parameters, beta, eta,
  trials, mode, seeds, evaluation switches) changes the key;
* execution knobs that cannot change results (``workers``,
  ``chunk_users``) do NOT change the key;
* re-running any figure generation against a warm cache performs zero
  simulation trials (asserted through the engine's task counter);
* the store survives interruption artifacts: truncated/corrupt entries
  read as misses, ``verify`` flags them, ``prune`` reclaims space.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.attacks import AdaptiveAttack, MGAAttack, MultiAttacker
from repro.datasets import zipf_dataset
from repro.exceptions import InvalidParameterError
from repro.protocols import GRR, OLH, OUE
from repro.sim import figures
from repro.sim.cache import (
    CellCache,
    _payload_digest,
    cache_tag,
    canonical_key,
    default_cache_dir,
    evaluation_cell_spec,
    fingerprint_dataset,
    fingerprint_object,
    fingerprint_seed_sequences,
    resolve_cache,
    source_digest,
    write_json_atomic,
)
from repro.sim.engine import TASK_COUNTER, TrialBudget, Welford
from repro.sim.experiment import RunContext, evaluate_recovery, run_cell

D = 16
DATASET = zipf_dataset(domain_size=D, num_users=5_000, exponent=1.0, rng=7)


def _old_stats_shape(payload):
    """Store one evaluation stat in the ``{mean, variance, stderr, count}``
    form that preceded stored Welford states."""
    stat = Welford(**payload["mse_before"])
    payload["mse_before"] = {
        "mean": stat.mean, "variance": stat.variance, "stderr": stat.stderr, "count": stat.count,
    }


def _spec(**overrides):
    """A baseline evaluation spec with optional field overrides."""
    base = dict(
        dataset=DATASET,
        protocol=GRR(epsilon=0.5, domain_size=D),
        attack=MGAAttack(domain_size=D, r=3, rng=0),
        beta=0.05,
        eta=0.2,
        trials=3,
        mode="fast",
        with_star=True,
        with_detection=False,
        aa_top_k=5,
        seeds=np.random.SeedSequence(1).spawn(3),
    )
    base.update(overrides)
    dataset = base.pop("dataset")
    protocol = base.pop("protocol")
    attack = base.pop("attack")
    return evaluation_cell_spec(dataset, protocol, attack, **base)


class TestCanonicalKey:
    def test_key_is_deterministic(self):
        assert canonical_key(_spec()) == canonical_key(_spec())

    @pytest.mark.parametrize(
        "override",
        [
            {"beta": 0.1},
            {"eta": 0.4},
            {"trials": 4, "seeds": np.random.SeedSequence(1).spawn(4)},
            {"mode": "chunked"},
            {"with_star": False},
            {"with_detection": True},
            {"aa_top_k": 7},
            {"seeds": np.random.SeedSequence(2).spawn(3)},
            {"dataset": zipf_dataset(domain_size=D, num_users=5_001, exponent=1.0, rng=7)},
            {"protocol": GRR(epsilon=0.6, domain_size=D)},
            {"protocol": OUE(epsilon=0.5, domain_size=D)},
            {"attack": MGAAttack(domain_size=D, r=4, rng=0)},
            {"attack": MGAAttack(domain_size=D, r=3, rng=1)},  # different targets
            {"attack": AdaptiveAttack(domain_size=D, rng=0)},
            {"attack": None},
        ],
    )
    def test_key_sensitive_to_every_spec_field(self, override):
        assert canonical_key(_spec(**override)) != canonical_key(_spec())

    def test_key_invariant_to_seed_order_changes_is_false(self):
        seeds = np.random.SeedSequence(1).spawn(3)
        reordered = [seeds[1], seeds[0], seeds[2]]
        assert canonical_key(_spec(seeds=reordered)) != canonical_key(_spec())

    def test_protocol_class_disambiguates(self):
        # OLH and OUE at the same epsilon produce distinct fingerprints via
        # both the class name and the (p, q, g) attributes.
        a = fingerprint_object(OLH(epsilon=0.5, domain_size=D))
        b = fingerprint_object(OUE(epsilon=0.5, domain_size=D))
        assert a["__type__"] != b["__type__"]

    def test_multi_attacker_fingerprint_recurses(self):
        children = [AdaptiveAttack(domain_size=D, rng=i) for i in range(2)]
        fp = fingerprint_object(MultiAttacker(children))
        assert len(fp["attacks"]) == 2
        assert fp["attacks"][0] != fp["attacks"][1]

    def test_rng_state_is_not_part_of_identity(self):
        # Two attack instances with identical parameters but different
        # leftover construction generators fingerprint identically.
        a = MGAAttack(domain_size=D, targets=[1, 2, 3], rng=0)
        b = MGAAttack(domain_size=D, targets=[1, 2, 3], rng=99)
        assert fingerprint_object(a) == fingerprint_object(b)

    def test_dataset_fingerprint_hashes_content(self):
        same = zipf_dataset(domain_size=D, num_users=5_000, exponent=1.0, rng=7)
        assert fingerprint_dataset(same) == fingerprint_dataset(DATASET)

    def test_seed_fingerprint_captures_spawn_key(self):
        parent = np.random.SeedSequence(5)
        first, second = parent.spawn(1), parent.spawn(1)
        assert fingerprint_seed_sequences(first) != fingerprint_seed_sequences(second)


class TestEvaluateRecoveryCaching:
    def test_roundtrip_is_exact(self, tmp_path):
        cache = CellCache(tmp_path)
        kwargs = dict(beta=0.05, eta=0.2, trials=3, rng=1)
        cold = evaluate_recovery(
            DATASET, GRR(epsilon=0.5, domain_size=D),
            MGAAttack(domain_size=D, r=3, rng=0), ctx=RunContext(cache=cache), **kwargs,
        )
        warm = evaluate_recovery(
            DATASET, GRR(epsilon=0.5, domain_size=D),
            MGAAttack(domain_size=D, r=3, rng=0), ctx=RunContext(cache=cache), **kwargs,
        )
        assert warm == cold  # includes the full per-metric stats dict
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_warm_hit_runs_zero_trials(self, tmp_path):
        cache = CellCache(tmp_path)
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=3, rng=1, ctx=RunContext(cache=cache))
        TASK_COUNTER.reset()
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=3, rng=1, ctx=RunContext(cache=cache))
        assert TASK_COUNTER.count == 0

    def test_key_invariant_to_workers(self, tmp_path):
        cache = CellCache(tmp_path)
        serial = evaluate_recovery(DATASET, OUE(epsilon=0.5, domain_size=D), None,
                                   trials=2, rng=3, ctx=RunContext(workers=1, cache=cache))
        TASK_COUNTER.reset()
        pooled = evaluate_recovery(DATASET, OUE(epsilon=0.5, domain_size=D), None,
                                   trials=2, rng=3, ctx=RunContext(workers=2, cache=cache))
        assert TASK_COUNTER.count == 0, "workers must not change the cache key"
        assert pooled == serial

    def test_key_invariant_to_chunk_size_but_not_mode(self, tmp_path):
        cache = CellCache(tmp_path)
        chunked = evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                                    trials=2, rng=3, chunk_users=500,
                                    ctx=RunContext(cache=cache))
        TASK_COUNTER.reset()
        rechunked = evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                                      trials=2, rng=3, chunk_users=2_000,
                                      ctx=RunContext(cache=cache))
        assert TASK_COUNTER.count == 0, "chunk_users must not change the cache key"
        assert rechunked == chunked
        # ...but fast mode is a different spec field, hence a different cell.
        fast = evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                                 trials=2, rng=3, ctx=RunContext(cache=cache))
        assert cache.stats.misses == 2
        assert fast.mse_before != chunked.mse_before

    def test_rng_generator_spawn_position_matters(self, tmp_path):
        # The same generator passed twice spawns different children, so the
        # second call is a different cell — no false hits.
        cache = CellCache(tmp_path)
        gen = np.random.default_rng(11)
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=gen, ctx=RunContext(cache=cache))
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=gen, ctx=RunContext(cache=cache))
        assert cache.stats.hits == 0 and cache.stats.misses == 2


FIG_KWARGS = dict(num_users=4_000, trials=2, rng=0)


class TestFigureCaching:
    @pytest.mark.parametrize(
        "generate",
        [
            lambda cache: figures.sweep_rows(
                "ipums", "beta", values=(0.01, 0.05), ctx=RunContext(cache=cache), **FIG_KWARGS
            ),
            lambda cache: figures.figure7_rows(ctx=RunContext(cache=cache), **FIG_KWARGS),
            lambda cache: figures.figure8_rows(ctx=RunContext(cache=cache), **FIG_KWARGS),
            lambda cache: figures.figure9_rows(ctx=RunContext(cache=cache), **FIG_KWARGS),
            lambda cache: figures.figure10_rows(ctx=RunContext(cache=cache), **FIG_KWARGS),
            lambda cache: figures.table1_rows(ctx=RunContext(cache=cache), **FIG_KWARGS),
        ],
        ids=["sweep", "fig7", "fig8", "fig9", "fig10", "table1"],
    )
    def test_warm_cache_regenerates_without_simulation(self, tmp_path, generate):
        cache = CellCache(tmp_path)
        cold = generate(cache)
        assert cache.stats.stores == len(cold)
        TASK_COUNTER.reset()
        warm = generate(cache)
        assert TASK_COUNTER.count == 0, "warm figure must perform zero trials"
        assert warm == cold

    def test_interrupted_sweep_resumes_from_completed_cells(self, tmp_path):
        """A rerun after interruption only simulates the missing cells."""
        cache = CellCache(tmp_path)
        run = lambda: figures.sweep_rows(
            "ipums", "beta", values=(0.01, 0.05), ctx=RunContext(cache=cache), **FIG_KWARGS
        )
        full = run()
        # Simulate a Ctrl-C that landed after 4 of the 6 cells completed.
        entries = cache.entries()
        for entry in entries[:2]:
            entry.path.unlink()
        resumed = run()
        assert resumed == full
        assert cache.stats.stores == len(full) + 2  # only the missing cells re-ran

    def test_ci_columns_follow_metric_columns(self, tmp_path):
        rows = figures.table1_rows(ctx=RunContext(), **FIG_KWARGS)
        cols = list(rows[0].keys())
        assert cols.index("mse_before_recovery±") == cols.index("mse_before_recovery") + 1
        assert all(row["mse_before_recovery±"] > 0 for row in rows)


class TestStoreMaintenance:
    def _fill(self, tmp_path, n=3):
        cache = CellCache(tmp_path)
        for seed in range(n):
            evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                              trials=2, rng=seed, ctx=RunContext(cache=cache))
        return cache

    def test_entries_and_summary_rows(self, tmp_path):
        cache = self._fill(tmp_path)
        entries = cache.entries()
        assert len(entries) == 3
        row = entries[0].summary_row()
        assert row["dataset"] == "zipf" and row["trials"] == 2

    def test_prune_all(self, tmp_path):
        cache = self._fill(tmp_path)
        assert cache.prune() == 3
        assert cache.entries() == []
        assert list(cache.root.iterdir()) == []  # the emptied directories went too

    def test_prune_respects_age_horizon(self, tmp_path):
        cache = self._fill(tmp_path)
        assert cache.prune(older_than_days=1.0) == 0  # all entries are fresh
        assert len(cache.entries()) == 3

    def test_prune_rejects_negative_horizon(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            CellCache(tmp_path).prune(older_than_days=-1)

    def test_prune_all_tags_sweeps_other_versions(self, tmp_path):
        self._fill(tmp_path)
        stale = CellCache(tmp_path, tag="v0-repro-0.9.9")
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=9, ctx=RunContext(cache=stale))
        fresh = CellCache(tmp_path)
        assert fresh.prune() == 3  # current tag only
        assert fresh.prune(all_tags=True) == 1  # the stale tag's entry

    def test_corrupt_entry_is_a_miss_and_verify_flags_it(self, tmp_path):
        cache = self._fill(tmp_path, n=1)
        [entry] = cache.entries()
        entry.path.write_text("{ truncated", encoding="utf-8")
        TASK_COUNTER.reset()
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=0, ctx=RunContext(cache=cache))
        assert TASK_COUNTER.count > 0  # recomputed, not served from garbage
        assert cache.stats.errors == 1

        # The recompute healed the entry; corrupt it again and verify.
        entry.path.write_text("{ truncated", encoding="utf-8")
        problems = cache.verify()
        assert len(problems) == 1 and "unreadable" in problems[0][1]
        assert cache.verify(delete=True) == problems
        assert cache.verify() == []

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p.update(metric_from_the_future=p.pop("mse_before")),
            _old_stats_shape,
            lambda p: p.update(stats=[]),
            lambda p: p["mse_before"].update(count="2"),
        ],
        ids=["renamed-metric", "old-stats-shape", "stats-not-an-object", "string-count"],
    )
    def test_stale_payload_shape_is_a_miss(self, tmp_path, damage):
        """An entry whose payload no longer decodes into Welford states
        that render a RecoveryEvaluation (a damaged or hand-edited file; a
        code edit moves the tag instead) is recomputed, not raised."""
        cache = self._fill(tmp_path, n=1)
        [entry] = cache.entries()
        data = json.loads(entry.path.read_text(encoding="utf-8"))
        damage(data["payload"])
        entry.path.write_text(json.dumps(data), encoding="utf-8")
        cache = CellCache(tmp_path)
        TASK_COUNTER.reset()
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=0, ctx=RunContext(cache=cache))
        assert TASK_COUNTER.count > 0  # recomputed
        assert (cache.stats.hits, cache.stats.misses, cache.stats.errors) == (0, 1, 1)

    def test_verify_detects_tampered_spec(self, tmp_path):
        cache = self._fill(tmp_path, n=1)
        [entry] = cache.entries()
        data = json.loads(entry.path.read_text(encoding="utf-8"))
        data["spec"]["beta"] = 0.99
        entry.path.write_text(json.dumps(data), encoding="utf-8")
        problems = cache.verify()
        assert len(problems) == 1 and "key does not match" in problems[0][1]

    def test_version_tag_isolates_schema_changes(self, tmp_path):
        old = CellCache(tmp_path, tag="v0-repro-0.0.1")
        new = CellCache(tmp_path)
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=1, ctx=RunContext(cache=old))
        TASK_COUNTER.reset()
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=1, ctx=RunContext(cache=new))
        assert TASK_COUNTER.count > 0  # other version's entries are invisible
        assert new.stats.misses == 1


def _evaluation_cell(cache):
    """One evaluation cell (:func:`evaluate_recovery`) as its one row."""
    evaluation = evaluate_recovery(
        DATASET, GRR(epsilon=0.5, domain_size=D), MGAAttack(domain_size=D, r=3, rng=0),
        trials=2, rng=0, ctx=RunContext(cache=cache),
    )
    return [evaluation.as_row(ci=True)]


def _table1_cells(cache):
    """Table I's six row cells."""
    return figures.table1_rows(num_users=2_000, trials=1, ctx=RunContext(cache=cache))


def _with_state(metric, **change):
    """A damage that edits one field of ``metric``'s stored state."""
    return lambda p: {**p, metric: {**p[metric], **change}}


class TestDamagedPayloads:
    """A damaged payload never reaches the rows unnoticed: one that does
    not decode into Welford states, or whose states do not render, is one
    miss and the cell is recomputed and its entry rewritten; ``verify``
    checks every payload against the digest ``put`` stored, which is how a
    changed number that still renders is found."""

    def _damage(self, entry, change):
        data = json.loads(entry.path.read_text(encoding="utf-8"))
        change(data)
        entry.path.write_text(json.dumps(data), encoding="utf-8")

    @pytest.mark.parametrize(
        "cells, n", [(_table1_cells, 6), (_evaluation_cell, 1)], ids=["table1", "evaluation"]
    )
    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: "not a row",
            # The form before stored statistics: rendered columns, and for
            # evaluation cells the states beside them.
            lambda p: {"dataset": "x", **{m: s["mean"] for m, s in p.items()}, "stats": p},
            _with_state("mse_before", count="2"),
            _with_state("mse_before", count=10**400),
            _with_state("mse_before", mean="0.1"),
            lambda p: {m: s for m, s in p.items() if m != "mse_before"},
        ],
        ids=["not-an-object", "old-form", "string-count", "count-too-large", "string-mean",
             "dropped-metric"],
    )
    def test_damaged_payload_is_one_miss_and_is_rewritten(self, tmp_path, cells, n, damage):
        clean = cells(CellCache(tmp_path))
        first = CellCache(tmp_path).entries()[0]
        stored = json.loads(first.path.read_text(encoding="utf-8"))["payload"]
        self._damage(first, lambda data: data.update(payload=damage(data["payload"])))
        healed = CellCache(tmp_path)
        assert cells(healed) == clean
        assert (healed.stats.hits, healed.stats.misses, healed.stats.errors) == (n - 1, 1, 1)
        assert json.loads(first.path.read_text(encoding="utf-8"))["payload"] == stored
        assert healed.verify() == []

    @pytest.mark.parametrize(
        "text, problem",
        [
            *[(text, "cache entry is not a JSON object") for text in ["[1, 2]", "7", '"entry"', "null"]],
            ("[" * 100_000 + "]" * 100_000, "cache file nests too deeply to parse"),
        ],
        ids=["list", "number", "string", "null", "deeply-nested"],
    )
    def test_non_object_entry_is_unreadable_everywhere(self, tmp_path, text, problem):
        cache = CellCache(tmp_path)
        clean = _table1_cells(cache)
        first = cache.entries()[0]
        first.path.write_text(text, encoding="utf-8")
        assert len(cache.entries()) == 5
        assert cache.verify() == [(first.path, f"unreadable: {problem}")]
        healed = CellCache(tmp_path)
        assert _table1_cells(healed) == clean
        assert (healed.stats.hits, healed.stats.errors) == (5, 1)
        first.path.write_text(text, encoding="utf-8")
        assert cache.prune(older_than_days=1.0) == 1  # unreadable: always eligible

    @pytest.mark.parametrize(
        "part, value, problem",
        [
            ("meta", "x", "meta is not a JSON object"),
            ("spec", [1, 2], "spec is not a JSON object"),
            ("created_at", [1], "created_at is not a JSON number"),
            ("created_at", True, "created_at is not a JSON number"),
            ("created_at", 10**400, "created_at is not a JSON number"),
        ],
        ids=["meta", "spec", "created-at-list", "created-at-bool", "created-at-too-large"],
    )
    def test_meta_or_spec_that_is_not_an_object(self, tmp_path, part, value, problem):
        """One verdict for every reader: ``cache ls`` lists the other
        entries, ``verify`` names this one as unreadable, a run counts it
        as one unreadable entry and rewrites it, and ``prune`` counts it as
        unreadable, so old enough at any age."""
        cache = CellCache(tmp_path)
        clean = _table1_cells(cache)
        first = cache.entries()[0]
        self._damage(first, lambda data: data.update({part: value}))
        assert len([entry.summary_row() for entry in cache.entries()]) == 5
        assert cache.verify() == [(first.path, f"unreadable: {problem}")]
        healed = CellCache(tmp_path)
        assert _table1_cells(healed) == clean
        assert (healed.stats.hits, healed.stats.misses, healed.stats.errors) == (5, 1, 1)
        assert healed.verify() == []
        self._damage(first, lambda data: data.update({part: value}))
        assert cache.prune(older_than_days=1.0) == 1 and not first.path.exists()

    @pytest.mark.parametrize(
        "part, value, column, shown",
        [
            ("protocol", "x", "protocol", "-"),
            ("attacks", ["x"], "attack", "?"),
            ("attacks", 7, "attack", "none"),
            ("params", [1], "beta", None),
            ("dataset", "x", "dataset", "-"),
        ],
        ids=["protocol", "attack-not-an-object", "attacks-not-a-list", "params", "dataset"],
    )
    def test_mistyped_spec_part_lists_as_absent(self, tmp_path, part, value, column, shown):
        """``cache ls`` shows a spec part of the wrong JSON type as absent;
        ``verify`` finds the entry because its key no longer matches."""
        cache = CellCache(tmp_path)
        _table1_cells(cache)
        first = cache.entries()[0]
        self._damage(first, lambda data: data["spec"].update({part: value}))
        rows = {entry.path: entry.summary_row() for entry in cache.entries()}
        assert len(rows) == 6 and rows[first.path][column] == shown
        assert cache.verify() == [(first.path, "key does not match stored spec")]

    def test_verify_checks_the_payload_digest(self, tmp_path):
        cache = CellCache(tmp_path)
        clean = _table1_cells(cache)
        assert cache.verify() == []
        changed, dropped, *_ = cache.entries()
        self._damage(changed, lambda data: data["payload"]["mse_recover"].update(mean=123.0))
        self._damage(dropped, lambda data: data.pop("payload_sha256"))
        # A changed number still renders: reads serve it, only verify finds it.
        assert 123.0 in [row["mse_after_recovery"] for row in _table1_cells(CellCache(tmp_path))]
        problems = dict(cache.verify(delete=True))
        assert set(problems) == {changed.path, dropped.path}
        assert all("payload digest" in problem for problem in problems.values())
        assert cache.verify() == []
        assert _table1_cells(CellCache(tmp_path)) == clean

    @staticmethod
    def _cell(cache, rows_for):
        return run_cell(
            0,
            lambda seeds: {"kind": "row", "exhibit": "toy",
                           "seeds": fingerprint_seed_sequences(seeds)},
            lambda seed: {"x": 1.0},
            rows_for,
            trials=1, ctx=RunContext(cache=cache),
        )

    def test_unrenderable_cached_stats_are_recomputed(self, tmp_path):
        def rows(stats):
            return [{"x": stats["x"].mean}]

        def broken(stats):
            return [{"y": stats["y"].mean}]

        cache = CellCache(tmp_path)
        assert self._cell(cache, rows) == [{"x": 1.0}]
        [entry] = cache.entries()
        self._damage(entry, lambda data: data["payload"].update(y=data["payload"].pop("x")))
        healed = CellCache(tmp_path)
        TASK_COUNTER.reset()
        assert self._cell(healed, rows) == [{"x": 1.0}]
        assert TASK_COUNTER.count == 1  # recomputed, and the entry rewritten
        assert (healed.stats.hits, healed.stats.misses, healed.stats.errors) == (0, 1, 1)
        assert healed.verify() == [] and self._cell(healed, rows) == [{"x": 1.0}]
        # A renderer that fails on freshly computed statistics is a bug in
        # the renderer, not a damaged entry: its KeyError propagates as is,
        # after the cached statistics it could not read counted one miss.
        with pytest.raises(KeyError):
            self._cell(healed, broken)
        assert (healed.stats.misses, healed.stats.errors) == (2, 2)
        with pytest.raises(KeyError):
            self._cell(CellCache(tmp_path / "cold"), broken)
        with pytest.raises(KeyError):
            self._cell(None, broken)


def _stream_data(change):
    """A damage that edits a trial stream's parsed JSON with ``change``."""
    def damage(path):
        data = json.loads(path.read_text(encoding="utf-8"))
        change(data)
        path.write_text(json.dumps(data), encoding="utf-8")
    return damage


def _huge_value(data):
    """Store one per-trial value as a 400-digit integer, a float cannot
    hold, under the stream's correct digest."""
    trial = data["per_trial"][1]
    trial[min(trial)] = 10**400
    data["payload_sha256"] = _payload_digest(data["per_trial"])


def _stored_trials(per_trial):
    """A damage that stores ``per_trial`` under its own correct digest, so
    only the shape check can reject it."""
    return _stream_data(
        lambda data: data.update(per_trial=per_trial, payload_sha256=_payload_digest(per_trial))
    )


#: Every way a trial stream can be damaged; each must read as one error.
STREAM_DAMAGES = pytest.mark.parametrize(
    "damage",
    [
        lambda path: path.write_text("{ truncated", encoding="utf-8"),
        lambda path: path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8"),
        _stream_data(lambda data: data["per_trial"][1].update(
            {metric: value + 1.0 for metric, value in data["per_trial"][1].items()}
        )),
        _stream_data(lambda data: data.update(stream_key=canonical_key({"other": "stream"}))),
        _stored_trials({"x": 1.0}),
        _stored_trials([1.0, 2.0]),
        _stored_trials([{"x": "1.0"}]),
        _stream_data(_huge_value),
    ],
    ids=["garbage", "deeply-nested", "changed-number", "foreign-stream-key",
         "per-trial-not-a-list", "per-trial-not-objects", "string-number", "number-too-large"],
)


class TestTrialStream:
    """A budgeted cell's trials persist as one stream file, ``*.trials``,
    rewritten whole by every checkpoint that runs trials.  A stream that
    does not load is a whole-cell miss with exactly one error, ``verify``
    reports it, and a rerun rewrites it from trial 0."""

    SPEC = {"kind": "trial-stream", "suite": "stream"}

    def _store(self, root):
        cache = CellCache(root)
        return cache, cache.block_store(self.SPEC)

    def _fill(self, store, stop=6, batch=2):
        per_trial = []
        for start in range(0, stop, batch):
            per_trial += [{"x": float(i)} for i in range(start, start + batch)]
            store.append(per_trial)

    def test_roundtrip_preserves_trials_and_counts_reuse(self, tmp_path):
        cache, store = self._store(tmp_path)
        self._fill(store)
        assert cache.stats.block_stores == 3
        assert list(tmp_path.rglob("*.trials")) == [store.path]
        assert store.load() == [{"x": float(i)} for i in range(6)]
        assert (cache.stats.block_trials_reused, cache.stats.errors) == (6, 0)

    @STREAM_DAMAGES
    def test_damaged_stream_is_a_whole_cell_miss(self, tmp_path, damage):
        _, store = self._store(tmp_path)
        self._fill(store)
        damage(store.path)
        cache, store = self._store(tmp_path)  # fresh stats
        assert store.load() == []
        assert (cache.stats.errors, cache.stats.block_trials_reused) == (1, 0)

    @STREAM_DAMAGES
    def test_verify_reports_a_damaged_stream_and_deletes_it(self, tmp_path, damage):
        cache, store = self._store(tmp_path)
        self._fill(store)
        damage(store.path)
        [(path, problem)] = cache.verify()
        assert path == store.path and problem.startswith("unreadable: ")
        assert cache.verify(delete=True) == [(path, problem)]
        assert cache.verify() == [] and not store.path.exists()
        assert store.load() == [] and cache.stats.errors == 0  # missing is empty

    def test_streams_are_invisible_to_entries_and_count(self, tmp_path):
        cache, store = self._store(tmp_path)
        self._fill(store)
        assert cache.entries() == []
        assert cache.count() == 0
        assert cache.verify() == []

    def test_prune_sweeps_aged_streams(self, tmp_path):
        """An aged stream goes with its emptied directory, and counts as
        no cell."""
        cache, store = self._store(tmp_path)
        self._fill(store)
        cache.prune(older_than_days=1.0)
        assert store.path.exists()  # fresh
        old = time.time() - 2 * 86_400.0
        os.utime(store.path, (old, old))
        assert cache.prune(older_than_days=1.0) == 0
        assert not store.path.parent.exists()
        assert store.load() == []

    def test_old_block_files_go_with_other_versions(self, tmp_path):
        """Trial blocks of the layout before streams match ``*.json``:
        ``ls --all-versions`` skips them (they carry no key) and ``prune
        --all-versions`` removes them."""
        blocks = tmp_path / "v3-repro-0.1.0-abc" / "ab" / f"{'ab' * 32}.blocks"
        blocks.mkdir(parents=True)
        (blocks / "00000000-00000002.json").write_text(
            json.dumps({"stream_key": "ab" * 32, "start": 0, "stop": 2,
                        "per_trial": [{"x": 0.0}, {"x": 1.0}]}),
            encoding="utf-8",
        )
        cache = CellCache(tmp_path)
        assert cache.entries(all_tags=True) == []
        assert cache.prune(all_tags=True) == 1

    @STREAM_DAMAGES
    def test_damaged_stream_heals_bit_identically(self, tmp_path, damage):
        """End to end through evaluate_recovery: after the damage a top-up
        counts one error, reruns every trial from trial 0, rewrites the
        stream and equals the uncached run; the next top-up runs only its
        new trials."""
        short = TrialBudget(target_halfwidth=1e-12, min_trials=2, max_trials=4, batch=2)

        def run(cache, max_trials):
            budget = replace(short, max_trials=max_trials)
            return evaluate_recovery(
                DATASET, GRR(epsilon=0.5, domain_size=D),
                MGAAttack(domain_size=D, r=3, rng=0),
                trials=2, rng=4, ctx=RunContext(cache=cache, budget=budget),
            )

        run(CellCache(tmp_path), 4)
        [stream] = tmp_path.rglob("*.trials")
        damage(stream)
        healed = CellCache(tmp_path)
        TASK_COUNTER.reset()
        topped = run(healed, 6)
        assert TASK_COUNTER.count == 6  # every trial reruns
        assert (healed.stats.errors, healed.stats.block_hits, healed.stats.block_stores) == (1, 0, 3)
        assert len(json.loads(stream.read_text(encoding="utf-8"))["per_trial"]) == 6
        assert healed.verify() == []
        assert topped == evaluate_recovery(
            DATASET, GRR(epsilon=0.5, domain_size=D), MGAAttack(domain_size=D, r=3, rng=0),
            trials=6, rng=4,
        )
        again = CellCache(tmp_path)
        TASK_COUNTER.reset()
        run(again, 8)
        assert TASK_COUNTER.count == 2  # only trials [6, 8) are new
        stats = again.stats
        assert (stats.errors, stats.block_hits, stats.block_trials_reused, stats.block_stores) == (
            0, 3, 6, 1,
        )


class TestAtomicJsonWriter:
    def test_unserializable_payload_raises_and_leaves_no_file(self, tmp_path):
        """The cache entries, trial streams and shard reports share one
        writer: a payload ``json.dump`` rejects midway leaves neither the
        target nor the temp file behind."""
        target = tmp_path / "entry.json"
        with pytest.raises(TypeError):
            write_json_atomic(target, {"ok": 1.0, "bad": object()}, default=float)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_put_lands_when_a_prune_removes_its_directory(self, tmp_path, monkeypatch):
        """A concurrent prune may remove an emptied directory between the
        writer creating it and creating its temp file there: the writer
        creates it once more, and the entry lands."""
        import tempfile

        mkstemp = tempfile.mkstemp
        calls = []

        def pruned_first(dir, suffix):
            calls.append(dir)
            if len(calls) == 1:
                os.rmdir(dir)  # a peer's prune empties and removes it
            return mkstemp(dir=dir, suffix=suffix)

        monkeypatch.setattr(tempfile, "mkstemp", pruned_first)
        cache = CellCache(tmp_path)
        spec = {"kind": "row", "exhibit": "toy"}
        path = cache.put(spec, {"x": Welford(1, 1.0, 0.0)})
        assert len(calls) == 2 and path.is_file()
        assert cache.get(spec, lambda stats: [stats["x"].mean]) == [1.0]
        assert cache.verify() == []


class TestSourceDigest:
    """In-place source edits auto-invalidate the cache (ROADMAP PR 2
    follow-up): the version tag mixes in a content hash of the
    simulation-relevant source tree."""

    def test_tag_carries_source_digest(self):
        digest = source_digest()
        assert len(digest) == 12
        assert cache_tag().endswith(f"-{digest}")

    def test_default_digest_is_memoized(self):
        assert source_digest() == source_digest()

    def test_digest_tracks_file_content(self, tmp_path):
        module = tmp_path / "sim" / "engine.py"
        module.parent.mkdir()
        module.write_text("A = 1\n", encoding="utf-8")
        original = source_digest(tmp_path)
        module.write_text("A = 2\n", encoding="utf-8")
        assert source_digest(tmp_path) != original
        module.write_text("A = 1\n", encoding="utf-8")
        assert source_digest(tmp_path) == original

    def test_digest_tracks_new_files_in_every_package(self, tmp_path):
        seen = {source_digest(tmp_path)}
        for package in ("sim", "core", "protocols", "attacks"):
            sub = tmp_path / package
            sub.mkdir()
            (sub / "x.py").write_text(f"# {package}\n", encoding="utf-8")
            digest = source_digest(tmp_path)
            assert digest not in seen
            seen.add(digest)

    def test_digest_ignores_non_python_and_foreign_dirs(self, tmp_path):
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "a.py").write_text("A = 1\n", encoding="utf-8")
        original = source_digest(tmp_path)
        (tmp_path / "sim" / "notes.txt").write_text("x", encoding="utf-8")
        (tmp_path / "datasets").mkdir()
        (tmp_path / "datasets" / "b.py").write_text("B = 1\n", encoding="utf-8")
        assert source_digest(tmp_path) == original

    def test_digest_change_invalidates_entries(self, tmp_path, monkeypatch):
        import repro.sim.cache as cache_module

        warm = CellCache(tmp_path)
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=1, ctx=RunContext(cache=warm))
        # Simulate an in-place source edit: the memoized default digest
        # changes, so a fresh CellCache resolves to a different tag and
        # the old entry is invisible.
        monkeypatch.setattr(cache_module, "_DEFAULT_SOURCE_DIGEST", "deadbeef0123")
        edited = CellCache(tmp_path)
        assert edited.tag != warm.tag
        TASK_COUNTER.reset()
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=1, ctx=RunContext(cache=edited))
        assert TASK_COUNTER.count > 0
        assert edited.stats.misses == 1


class TestGetEvaluationStatsCounting:
    """Shape-mismatch lookups count once, after decoding — never the
    hits-then-rollback dance that could report negative hit counts."""

    def test_first_access_mismatch_never_goes_negative(self, tmp_path):
        warm = CellCache(tmp_path)
        spec = _spec()
        evaluation = evaluate_recovery(
            DATASET, GRR(epsilon=0.5, domain_size=D),
            MGAAttack(domain_size=D, r=3, rng=0),
            beta=0.05, eta=0.2, trials=3, rng=1, ctx=RunContext(cache=warm),
        )
        assert evaluation is not None
        # Corrupt the payload shape of the stored entry (metric renamed by
        # a hypothetical in-place edit under the same tag).
        [entry] = warm.entries()
        data = json.loads(entry.path.read_text(encoding="utf-8"))
        data["payload"]["renamed"] = data["payload"].pop("mse_before")
        entry.path.write_text(json.dumps(data), encoding="utf-8")
        # A *fresh* cache whose very first access is the mismatch: the old
        # rollback produced hits == -1 here.
        fresh = CellCache(tmp_path)
        assert fresh.get(data["spec"], lambda stats: [stats["mse_before"].count]) is None
        assert fresh.stats.hits == 0
        assert fresh.stats.misses == 1
        assert fresh.stats.errors == 1
        assert fresh.stats.hit_rate == 0.0
        assert "-" not in fresh.stats.summary().split("(")[0]

    def test_clean_hit_still_counts_once(self, tmp_path):
        cache = CellCache(tmp_path)
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=1, ctx=RunContext(cache=cache))
        evaluate_recovery(DATASET, GRR(epsilon=0.5, domain_size=D), None,
                          trials=2, rng=1, ctx=RunContext(cache=cache))
        assert (cache.stats.hits, cache.stats.misses, cache.stats.errors) == (1, 1, 0)


class TestOrphanTmpSweep:
    def _orphan(self, cache, age_seconds):
        cache.root.mkdir(parents=True, exist_ok=True)
        path = cache.root / "ab" / "tmp_killed_writer.tmp"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ half-written", encoding="utf-8")
        stamp = time.time() - age_seconds
        os.utime(path, (stamp, stamp))
        return path

    def test_prune_sweeps_old_tmp_files(self, tmp_path):
        """An orphaned temp file goes with its emptied directory, and counts
        as no cell."""
        cache = CellCache(tmp_path)
        orphan = self._orphan(cache, age_seconds=2 * cache.TMP_ORPHAN_SECONDS)
        assert cache.prune() == 0
        assert not orphan.exists() and not orphan.parent.exists()

    def test_fresh_tmp_files_survive(self, tmp_path):
        """A young .tmp may belong to a live writer mid-put."""
        cache = CellCache(tmp_path)
        inflight = self._orphan(cache, age_seconds=0)
        assert cache.prune() == 0
        assert inflight.exists()

    def test_tmp_files_are_invisible_to_entries_and_verify(self, tmp_path):
        cache = CellCache(tmp_path)
        self._orphan(cache, age_seconds=0)
        assert cache.entries() == []
        assert cache.verify() == []
        assert cache.count() == 0


def _churn_stats(worker_id, i):
    """The statistics the churn test stores for cell ``i`` of a worker."""
    return {"worker": Welford(1, float(worker_id), 0.0), "i": Welford(1, float(i), 0.0)}


def _churn_rows(stats):
    """The one row of a churn cell: each metric's mean."""
    return [{name: w.mean for name, w in stats.items()}]


def _cache_churn_worker(cache_dir, tag, worker_id, cells, failures_path):
    """One process of the concurrent-access test: interleaves puts, gets,
    and every maintenance operation against the shared store, recording
    any broken invariant into ``failures_path``."""
    import pathlib

    failures = []
    cache = CellCache(cache_dir, tag=tag)
    for i in range(cells):
        spec = {"kind": "row", "worker": worker_id, "i": i}
        cache.put(spec, _churn_stats(worker_id, i))
        got = cache.get(spec, _churn_rows)
        if got != _churn_rows(_churn_stats(worker_id, i)):
            failures.append(f"lost own cell {worker_id}/{i}: {got!r}")
        # Maintenance racing the other worker's writes: must neither
        # crash nor flag healthy entries.
        if i % 3 == 0:
            problems = cache.verify()
            if problems:
                failures.append(f"verify flagged {problems!r}")
        if i % 4 == 0:
            cache.entries()
            cache.prune(older_than_days=1.0)  # fresh entries: removes none
        # Churn: delete one of our own older entries directly, simulating
        # a peer's prune racing the other process's iteration.
        if i % 5 == 4:
            victim = {"kind": "row", "worker": worker_id, "i": i - 2}
            try:
                cache._path(cache.key_for(victim)).unlink()
            except FileNotFoundError:
                pass
    pathlib.Path(failures_path).write_text("\n".join(failures), encoding="utf-8")


class TestConcurrentAccess:
    """Two processes put/get/prune/verify against one cache directory —
    the invariant multi-machine sharding relies on: no corrupt entries,
    no lost completed cells, maintenance races are invisible."""

    CELLS = 40

    def test_two_process_churn_keeps_store_consistent(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        outputs = [tmp_path / f"failures-{i}.txt" for i in range(2)]
        workers = [
            ctx.Process(
                target=_cache_churn_worker,
                args=(str(tmp_path / "store"), "shared", i, self.CELLS, str(out)),
            )
            for i, out in enumerate(outputs)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        for out in outputs:
            assert out.read_text(encoding="utf-8") == ""

        # Every cell that was not deliberately deleted is intact.
        cache = CellCache(tmp_path / "store", tag="shared")
        assert cache.verify() == []
        deleted = {
            (w, i - 2) for w in range(2) for i in range(self.CELLS) if i % 5 == 4
        }
        for worker_id in range(2):
            for i in range(self.CELLS):
                if (worker_id, i) in deleted:
                    continue
                spec = {"kind": "row", "worker": worker_id, "i": i}
                assert cache.get(spec, _churn_rows) == _churn_rows(_churn_stats(worker_id, i)), (
                    f"completed cell {worker_id}/{i} was lost"
                )
        assert cache.stats.errors == 0


class TestResolveCache:
    def test_no_cache_wins(self, tmp_path):
        assert resolve_cache(cache_dir=tmp_path, no_cache=True) is None

    def test_explicit_dir(self, tmp_path):
        cache = resolve_cache(cache_dir=tmp_path)
        assert cache is not None and cache.cache_dir == tmp_path

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"
        cache = resolve_cache()
        assert cache is not None and cache.cache_dir == tmp_path / "env"
