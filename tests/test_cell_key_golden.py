"""Golden of every exhibit's canonical cell keys and sweep digests.

Each entry of ``tests/fixtures/cell_keys.json`` pins, for one
:class:`~repro.sim.shard.SweepConfig`, the ordered ``kind:key`` list that
:func:`~repro.sim.shard.enumerate_cells` reports and the sweep's
:meth:`~repro.sim.shard.SweepConfig.digest`.  Enumeration runs no
simulation, so the whole grid — every exhibit under the default knobs,
chunked, cohort, chunked + cohort, adaptive and rescaled variants, plus
the dataset / parameter variants of the exhibits that take them — checks
in well under a second.

A refactor of the exhibit generators, the cell runner or the sweep
dispatch must leave this file byte-identical: a changed key means cached
cells (and sharded sweeps in flight) silently stop matching.  Regenerate
it only for an intended change of cell identity::

    PYTHONPATH=src python tests/test_cell_key_golden.py
"""

from __future__ import annotations

import functools
import json
import pathlib
from typing import Any

import pytest

from repro.sim.shard import SweepConfig, enumerate_cells

GOLDEN = pathlib.Path(__file__).resolve().parent / "fixtures" / "cell_keys.json"

#: Every dispatchable exhibit, in registration order.
EXHIBITS = (
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1",
    "kv", "heavyhitter", "epochs", "defenses",
)

#: Knob variants enumerated for every exhibit (all at ``trials=2``).
VARIANTS: tuple[dict[str, Any], ...] = (
    {},
    {"chunk_users": 700},
    {"olh_cohort": 8},
    {"chunk_users": 700, "olh_cohort": 8},
    {"target_ci": 1e-3, "max_trials": 4},
    {"num_users": 3000, "seed": 5},
)

#: Extra variants of the exhibits that consume ``dataset`` / ``parameter``.
EXTRA: dict[str, tuple[dict[str, Any], ...]] = {
    "fig3": ({"dataset": "fire"},),
    "fig4": ({"dataset": "fire"},),
    "fig5": ({"parameter": "epsilon"}, {"parameter": "eta"}),
    "fig6": ({"parameter": "epsilon"}, {"parameter": "eta"}),
}


def golden_configs() -> list[dict[str, Any]]:
    """The pinned sweep configurations, as ``SweepConfig`` keyword dicts."""
    return [
        {"figure": figure, "trials": 2, **variant}
        for figure in EXHIBITS
        for variant in VARIANTS + EXTRA.get(figure, ())
    ]


def golden_entry(config: dict[str, Any]) -> dict[str, Any]:
    """One golden record: the config, its digest and its ordered cell keys."""
    sweep = SweepConfig(**config)
    return {
        "config": config,
        "digest": sweep.digest(),
        "cells": [f"{cell.kind}:{cell.key}" for cell in enumerate_cells(sweep)],
    }


@functools.lru_cache(maxsize=1)
def _load() -> list[dict[str, Any]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_exhibit_list_is_pinned():
    assert SweepConfig.exhibit_names() == EXHIBITS


def test_golden_covers_every_config():
    assert [entry["config"] for entry in _load()] == golden_configs()


@pytest.mark.parametrize(
    "index, config",
    list(enumerate(golden_configs())),
    ids=[json.dumps(config, sort_keys=True) for config in golden_configs()],
)
def test_cell_keys_and_digest_unchanged(index, config):
    assert golden_entry(config) == _load()[index]


if __name__ == "__main__":
    entries = [golden_entry(config) for config in golden_configs()]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    cells = sum(len(entry["cells"]) for entry in entries)
    print(f"wrote {len(entries)} configs, {cells} cells to {GOLDEN}")
