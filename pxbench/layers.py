"""Per-layer metrics from a traced pass.

Layer times are *self* times (a layer's spans minus the child spans
inside them) so that they add up: per operation of the traced pass
unless the name says otherwise (per query, per draw, per call).
Counts come from the program's existing stats surfaces or from the
objects the wrapped calls return.  A layer a workload never reaches
reports 0 with a note, so every traced run prints every metric.
"""

from __future__ import annotations

from measure import Metrics, percentile
from spans import Recorder

ROUTES = ("sat", "query", "topk", "sample", "check", "sweep")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _per_call(recorder: Recorder, layer: str) -> float:
    return _ratio(recorder.layer_ms(layer), recorder.calls.get(layer, 0))


def core_metrics(recorder: Recorder, metrics: Metrics, ops: int, queries: int) -> None:
    """The library layers: query binding, compilation, the DP, the
    sampler and the circuit, from spans around their public calls."""
    r = recorder
    sets = r.counters["core.query_eval.candidate_sets"]
    metrics.put("core.query_eval.bind_ms", _ratio(r.layer_ms("core.query_eval.bind"), queries),
                "ms", queries, "candidate_tuples + bound_formula, per query")
    metrics.put("core.query_eval.candidates_mean", _ratio(r.counters["core.query_eval.candidates"], sets),
                "count", int(sets))
    metrics.put("core.query_eval.candidates_max", r.maxima["core.query_eval.candidates_max"],
                "count", int(sets))
    metrics.put("core.compiler.compile_ms", _ratio(r.layer_ms("core.compiler.compile"), ops),
                "ms", ops, "Registry construction, per operation")
    for layer in ("dp", "local", "convolve", "mix"):
        metrics.put(f"core.evaluator.{layer}_ms",
                    _ratio(r.layer_ms(f"core.evaluator.{layer}"), ops), "ms", ops,
                    "self time per operation")
    runs = r.counters["core.evaluator.runs"]
    query_runs = r.calls.get("op.query/core.evaluator.dp", 0)
    query_ops = r.roots.get("op.query", 0)
    metrics.put("core.evaluator.runs_per_query", _ratio(query_runs, query_ops), "count",
                query_ops, "Evaluation.run calls per query operation")
    metrics.put("core.evaluator.nodes_computed", _ratio(r.counters["core.evaluator.nodes_computed"], runs),
                "count", int(runs), "per DP run")
    metrics.put("core.evaluator.max_sig_width", r.maxima["core.evaluator.max_sig_width"],
                "count", int(runs), "widest signature distribution of any run")
    widths = r.samples.get("core.evaluator.sig_width", [])
    metrics.put("core.evaluator.sig_width_p50", percentile(widths, 50) if widths else 0.0,
                "count", len(widths), "median over runs of the run's widest distribution")
    hits = r.counters["core.evaluator.cache_hits"]
    metrics.put("core.evaluator.cache_hit_ratio",
                _ratio(hits, hits + r.counters["core.evaluator.cache_misses"]), "ratio", int(runs))
    draws = r.calls.get("core.sampler.draw", 0)
    metrics.put("core.sampler.draw_ms", _per_call(r, "core.sampler.draw"), "ms", draws,
                "PXDB.sample self time per draw")
    engine_hits = r.counters["core.sampler.engine_hits"]
    metrics.put("core.sampler.engine_hit_ratio",
                _ratio(engine_hits, engine_hits + r.counters["core.sampler.engine_misses"]),
                "ratio", draws, "IncrementalEngine.stats()")
    metrics.put("core.sampler.nodes_per_draw", _ratio(r.counters["core.sampler.engine_nodes"], draws),
                "count", draws)
    metrics.put("circuit.compile_ms", _ratio(r.layer_ms("circuit.compile"), ops), "ms", ops,
                "compile_formulas self time per operation")
    metrics.put("circuit.rebind_forward_ms", _per_call(r, "circuit.rebind_forward"), "ms",
                r.calls.get("circuit.rebind_forward", 0), "per rebind or forward call")
    metrics.put("circuit.sweep_ms", _per_call(r, "circuit.sweep"), "ms",
                r.calls.get("circuit.sweep", 0), "forward_batch per call")


def service_metrics(metrics: Metrics, recorder: Recorder, sent: list, before: dict,
                    after: dict, replay_timings: dict, store, *, overhead: float) -> None:
    """The server-side layers: transport and route times from the live
    server's /metrics, batching and store counters from /metrics and
    /stats, everything inside a route from the in-process replay."""
    from serve import counter, route_totals, store_totals

    replayed = sum(len(times) for times in replay_timings.values())
    queries = sum(len(replay_timings.get(route, [])) for route in ("query", "topk"))
    core_metrics(recorder, metrics, replayed, queries)

    client: dict[str, tuple[int, float]] = {}
    for record in sent:
        route = record.action.route[1:]
        count, total = client.get(route, (0, 0.0))
        client[route] = (count + 1, total + record.seconds * 1000.0)
    first, last = route_totals(before), route_totals(after)
    server = {
        route: (last[route][0] - first.get(route, (0, 0.0))[0],
                last[route][1] - first.get(route, (0, 0.0))[1])
        for route in last
    }
    client_ms = sum(total for _, total in client.values())
    server_ms = sum(server.get(route, (0, 0.0))[1] for route in client)
    requests = sum(count for count, _ in client.values())
    metrics.put("service.server.transport_ms", _ratio(client_ms - server_ms, requests), "ms",
                requests, "client latency minus /metrics route time, per request")
    latency = after["metrics"].get("latency", {})
    for route in ROUTES:
        metrics.put(f"service.server.route_ms.{route}", latency.get(route, {}).get("p50_ms", 0.0),
                    "ms", latency.get(route, {}).get("count"), "server-side p50 (/metrics)")
    metrics.put("service.server.json_ms", _ratio(recorder.layer_ms("service.server.json"), replayed),
                "ms", replayed, "request decode + response encode, per request (replay)")

    snapshot = after["metrics"]
    coalescers = snapshot.get("coalescers", {}).values()
    batches = sum(c["batches"] for c in coalescers)
    metrics.put("service.coalesce.mean_batch",
                _ratio(sum(c["coalesced_requests"] for c in coalescers), batches), "count", batches)
    metrics.put("service.coalesce.batches", batches, "count")
    metrics.put("service.coalesce.sweep_columns", sum(c["sweep_columns"] for c in coalescers), "count")

    totals = store_totals(after)
    accesses = sum(totals.values())
    metrics.put("service.store.hit_ratio", _ratio(totals["hits"], accesses), "ratio",
                int(accesses), "warm lookups, server and pool workers (/stats)")
    asked = counter(after, "query.requests") - counter(before, "query.requests")
    hits = counter(after, "query.cache_hits") - counter(before, "query.cache_hits")
    metrics.put("service.store.query_cache_hit_ratio", _ratio(hits, asked), "ratio", int(asked))
    metrics.put("service.store.param_reloads", totals["param_reloads"], "count", None,
                "server and pool workers")
    metrics.put("service.store.reloads", totals["reloads"], "count", None,
                "full reloads; 0 for parameter-only edits")
    reloads = recorder.calls.get("service.store.reload", 0)
    metrics.put("service.store.reload_ms",
                _ratio(recorder.layer_ms("service.store.reload", "pdoc.parse"), reloads), "ms",
                reloads, "file parse + parameter rebind, per reload (replay)")
    metrics.put("pdoc.parse_ms", _per_call(recorder, "pdoc.parse"), "ms",
                recorder.calls.get("pdoc.parse", 0), "read_pdocument per call (replay)")
    metrics.put("xmltree.serialize_ms", _per_call(recorder, "xmltree.serialize"), "ms",
                recorder.calls.get("xmltree.serialize", 0), "sampled document to XML, per call")
    entries = store.loaded_entries()
    metrics.put("circuit.gates", sum(e.pxdb.circuit_stats()["nodes"] for e in entries), "count",
                None, "retained circuits after the replay")
    metrics.put("circuit.hits", sum(e.circuit_hits for e in entries), "count", None,
                "queries answered by circuit rebind (replay)")

    metrics.put("obs.trace_overhead_ratio", overhead, "ratio", None,
                "traced replay over untraced replay of the same requests")
    covered = (client_ms - server_ms) + server_ms * recorder.coverage()
    metrics.put("obs.coverage", _ratio(covered, client_ms), "ratio", requests,
                "transport + route time x replay layer share, over client latency")


def absent(metrics: Metrics, names, units: dict, note: str) -> None:
    """0 for every per-layer metric this workload's path never reaches."""
    for name in names:
        if name not in metrics.rows:
            metrics.put(name, 0.0, units[name], None, note)
