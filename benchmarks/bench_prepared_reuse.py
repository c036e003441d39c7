"""Prepared-query reuse on the ad-analytics template log (Section 6.6).

The production log the paper describes (168,352 queries) is dominated by
a handful of templates: sums of sensitive measures filtered/grouped by
hour.  The legacy client re-translated every one of those queries from
scratch; the session API translates each *template* once
(``session.prepare`` with ``:param`` placeholders) and re-binds tokens
per execution.

This benchmark replays a synthetic log at both extremes and compares the
client-side translation overhead:

- **cold** -- one full ``prepare`` (parse + predicate split + planner
  lookups + request wiring) per logged query, which is exactly what each
  ``query()`` call paid before the session API;
- **prepared** -- one ``prepare`` per distinct template, then one
  ``bind_requests`` (token re-encryption only) per logged query.

End-to-end walls for both paths and the transparent shape-cache hit rate
are recorded too.  Results go to ``results/prepared_reuse.txt`` and
machine-readably to ``BENCH_prepared.json`` at the repository root; the
acceptance target is >= 5x lower translate overhead on repeat queries.
"""

import json
import os
import platform
import time
from pathlib import Path

from repro.bench import ResultSink, format_table
from repro.core.session import SeabedSession
from repro.core.translator import bind_requests
from repro.ops import OPS
from repro.query.ast import Between, Comparison
from repro.query.parser import parse_query
from repro.workloads import adanalytics

NUM_QUERIES = 400
NUM_REPLAY = 50
SPEEDUP_TARGET = 5.0

FLAT_TEMPLATE = "SELECT sum({m}) FROM ad_analytics WHERE hour = :h"
GROUPED_TEMPLATE = (
    "SELECT hour, sum({m}) FROM ad_analytics "
    "WHERE hour BETWEEN :lo AND :hi GROUP BY hour"
)


def _build_session(rows):
    dataset = adanalytics.generate(rows=rows, seed=0)
    session = SeabedSession(mode="seabed", seed=2)
    session.create_plan(
        dataset.schema, adanalytics.sample_queries(dataset), storage_budget=10.0
    )
    session.upload("ad_analytics", dataset.columns, num_partitions=32)
    return session


def _template_and_params(entry):
    """Map one logged query onto its template + parameter bindings."""
    q = parse_query(entry.sql)
    measure = q.aggregates()[0].column
    if isinstance(q.where, Comparison):
        return FLAT_TEMPLATE.format(m=measure), {"h": q.where.value}
    assert isinstance(q.where, Between)
    return (
        GROUPED_TEMPLATE.format(m=measure),
        {"lo": q.where.low, "hi": q.where.high},
    )


def test_prepared_reuse_vs_cold_translation(scale):
    session = _build_session(scale["ada_rows"])
    log = adanalytics.generate_query_log(num_queries=NUM_QUERIES, seed=3)
    jobs = [_template_and_params(entry) for entry in log]

    # -- cold: one full translation per logged query (what every query()
    #    call paid before the session API; prepare() bypasses the cache) ------
    t0 = time.perf_counter()
    for entry in log:
        session.prepare(entry.sql)
    cold_translate_s = time.perf_counter() - t0

    # -- prepared: translate each template once, re-bind per query ------------
    templates = {}
    t0 = time.perf_counter()
    for template, _ in jobs:
        if template not in templates:
            templates[template] = session.prepare(template)
    prepare_once_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for template, params in jobs:
        bind_requests(templates[template].translation.requests, params)
    prepared_bind_s = time.perf_counter() - t0

    speedup = cold_translate_s / max(prepared_bind_s, 1e-12)

    # -- zero-translation proof over real executions --------------------------
    before = OPS.snapshot()
    for template, params in jobs[:25]:
        result = templates[template].execute(**params)
        assert result.rows is not None
    delta = OPS.delta(before)
    assert delta.get("translate", 0) == 0, "prepared re-execution re-translated"
    assert delta.get("parse", 0) == 0
    assert delta.get("plan", 0) == 0

    # -- end-to-end walls: N cold prepare+execute vs the transparent cache ----
    replay = log[:NUM_REPLAY]
    t0 = time.perf_counter()
    for entry in replay:
        session.prepare(entry.sql).execute()
    cold_wall_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for entry in replay:
        session.query(entry.sql)
    cached_wall_s = time.perf_counter() - t0
    cache_stats = session.cache_stats()

    payload = {
        "bench": "prepared_reuse",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "rows": scale["ada_rows"],
        "num_queries": NUM_QUERIES,
        "num_templates": len(templates),
        "cold_translate_s": cold_translate_s,
        "prepare_once_s": prepare_once_s,
        "prepared_bind_s": prepared_bind_s,
        "translate_speedup": speedup,
        "speedup_target": SPEEDUP_TARGET,
        "replay_queries": len(replay),
        "cold_wall_s": cold_wall_s,
        "cached_wall_s": cached_wall_s,
        "cache_stats": cache_stats,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_prepared.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    with ResultSink("prepared_reuse") as sink:
        sink.emit(format_table(
            ["Path", "client translate overhead (s)", "per query (us)"],
            [
                ["cold query() x%d" % NUM_QUERIES, round(cold_translate_s, 4),
                 round(1e6 * cold_translate_s / NUM_QUERIES, 1)],
                ["prepare x%d + bind x%d" % (len(templates), NUM_QUERIES),
                 round(prepare_once_s + prepared_bind_s, 4),
                 round(1e6 * prepared_bind_s / NUM_QUERIES, 1)],
            ],
            title=(
                "Prepared-query reuse on the ad-analytics log "
                f"(translate overhead {speedup:.1f}x lower on repeats)"
            ),
        ))
        sink.emit(format_table(
            ["Replay path", "wall (s)"],
            [
                ["cold prepare+execute x%d" % len(replay), round(cold_wall_s, 3)],
                ["cached session.query x%d (hits=%d)" % (
                    len(replay), cache_stats["hits"]), round(cached_wall_s, 3)],
            ],
        ))

    assert speedup >= SPEEDUP_TARGET, (
        f"prepared re-binding is only {speedup:.1f}x cheaper than cold "
        f"translation (target {SPEEDUP_TARGET}x)"
    )
