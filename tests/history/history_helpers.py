"""Helpers shared by the history tests (imported by name, like
tests/service's service_helpers, so no two directories fight over a
``conftest`` module import)."""

import copy

from repro.core.spec import EvaluationSpec

TINY = dict(
    tools=("p4",),
    tpl_sizes=(1024,),
    global_sum_ints=2_000,
    apps=("montecarlo",),
    app_params={"montecarlo": {"samples": 5_000}},
)

#: The service's run table before it moved into the history store.
OLD_SERVICE_SCHEMA = """
CREATE TABLE runs (
    run_id TEXT PRIMARY KEY, user TEXT NOT NULL, spec_json TEXT NOT NULL,
    spec_hash TEXT NOT NULL, state TEXT NOT NULL, error TEXT,
    created_at REAL NOT NULL, started_at REAL, finished_at REAL,
    simulated INTEGER, cache_hits INTEGER, wall_seconds REAL,
    result_json TEXT
);
CREATE INDEX runs_by_user ON runs (user, created_at);
"""


def tiny_spec(**overrides):
    """A seconds-scale spec: one tool -> 5 jobs per seed."""
    kwargs = dict(TINY)
    kwargs.update(overrides)
    return EvaluationSpec(**kwargs)


def scaled(export_dict, factor, kinds=None):
    """A copy of an export with (some kinds of) samples slowed/sped
    by ``factor`` — the injected-regression helper."""
    doctored = copy.deepcopy(export_dict)
    for sample in doctored["samples"]:
        if sample.get("seconds") is None:
            continue
        if kinds is not None and sample["kind"] not in kinds:
            continue
        sample["seconds"] *= factor
    return doctored
