"""The ``eval-wide`` workload: in-process library calls, bound by the DP.

One caller, no HTTP.  Each document is a fresh scaled university with
seed-drawn parameters; one cycle runs the five shapes below (4–8 Ph.D.
candidates for the wide query) in a seed-shuffled order.  Per document:

* ``sat``    — build the ``PXDB`` (Pr(P ⊨ C) computed cold);
* ``query``  — the wide query (Ph.D.-student names), then the narrow ones
  (member names, chair names);
* ``topk``   — the k most probable chair names (k drawn from the seed);
* ``sample`` — ``SAMPLES_PER_DOC`` seeded draws (the first on a cold
  engine, so the median sits among the warm draws);
* ``sweep``  — Pr(P ⊨ C) at four scaled edge bindings (one numpy sweep
  over the compiled circuit);
* ``edit``   — ``EDITS_PER_DOC`` times: new seed-drawn parameters applied
  in place, timed until the circuit re-bind returns the new Pr(P ⊨ C).

The timed phase runs whole cycles (at least ``MIN_CYCLES``) until the
time is up, so every run holds the same mix of operations.  Answers are
checked after it: exactly against possible-worlds enumeration when the
document is small, else Pr(P ⊨ C) against the circuit route and each
query answer against its own single-event DP pass.
"""

from __future__ import annotations

import os
import pickle
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from repro import PXDB
from repro.baseline.naive import naive_probabilities
from repro.core.constraints import constraints_formula
from repro.core.evaluator import probability
from repro.core.formulas import DocumentEvaluator, conjunction
from repro.core.query import Query
from repro.core.query_eval import bound_formula, candidate_tuples, decode_answers
from repro.pdoc.parameters import apply_parameters, scaled_edge_bindings
from repro.xmltree.serialize import document_to_xml

import inputs
from layers import core_metrics
from measure import Metrics, OpLog, end_to_end, percentile
from spans import Patches, Recorder, install_core

SHAPES = ((1, 2, 2), (2, 2, 1), (1, 3, 2), (2, 3, 1), (2, 2, 2))
MIN_CYCLES = 3  # 45 queries: the query tail stays p75 up to 6 cycles
SAMPLES_PER_DOC = 10
EDITS_PER_DOC = 2
SWEEP_BINDINGS = 4
ENUMERATION_EDGES = 12  # possible-worlds check up to this many dist edges
FLOAT_TOLERANCE = 1e-9
CHECK_WORKERS = 2


def _docs(seed: int):
    """The endless seeded document stream: (index, shape) per document."""
    index = 0
    cycle = 0
    while True:
        order = list(SHAPES)
        inputs.rng_for(seed, "cycle", cycle).shuffle(order)
        for shape in order:
            yield index, shape
            index += 1
        cycle += 1


def _timed(log: OpLog, kind: str, recorder: Recorder | None, call, shape):
    """Run ``call`` as one timed operation of a ``shape`` document (and a
    root span when traced)."""
    frame = recorder.open(f"op.{kind}") if recorder is not None else None
    start = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - start
    if frame is not None:
        recorder.close(frame)
    return result, log.add(kind, elapsed, group=shape)


def run_document(seed: int, index: int, shape, log: OpLog,
                 recorder: Recorder | None = None) -> dict:
    """Every operation of one document; returns what the checks need."""
    rng = inputs.rng_for(seed, "doc", index)
    pdoc = inputs.university(shape, rng)
    record = {"index": index, "shape": shape, "ops": {}}
    ops = record["ops"]
    db, ops["sat"] = _timed(log, "sat", recorder, lambda: PXDB(pdoc, inputs.constraints()), shape)
    record["sat"] = db.constraint_probability()
    record["queries"] = {}
    record["candidates"] = [len(candidate_tuples(Query.parse(t), pdoc)) for t in inputs.QUERIES]
    for text in inputs.QUERIES:
        table, ops[text] = _timed(log, "query", recorder, lambda: db.query(text), shape)
        record["queries"][text] = decode_answers(table, pdoc)
    k = rng.randint(1, 3)

    def top_k():
        table = db.query(inputs.CHAIRS)
        return sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    top, ops["topk"] = _timed(log, "topk", recorder, top_k, shape)
    record["topk"] = (k, [(pdoc.node_by_uid(a[0]).label, v) for a, v in top])
    record["samples"] = []
    engine = db.sample_engine
    for _ in range(SAMPLES_PER_DOC):
        draw_seed = rng.randrange(2**32)
        nodes = engine.nodes_computed
        document, op = _timed(
            log, "sample", recorder, lambda: db.sample(random.Random(draw_seed)), shape
        )
        if recorder is not None:
            recorder.count("core.sampler.engine_nodes", engine.nodes_computed - nodes)
        record["samples"].append((draw_seed, document_to_xml(document, style="tags"), op))
    if recorder is not None:
        stats = engine.stats()
        recorder.count("core.sampler.engine_hits", stats["cache_hits"])
        recorder.count("core.sampler.engine_misses", stats["cache_misses"])
    factors = [Fraction(rng.randint(10, 20), 20) for _ in range(SWEEP_BINDINGS)]
    bindings = scaled_edge_bindings(pdoc, factors)
    (_, denominators), ops["sweep"] = _timed(
        log, "sweep", recorder, lambda: db.sweep_probabilities((), bindings), shape
    )
    record["sweep"] = (factors, [float(v) for v in denominators])
    record["edits"] = []
    for _ in range(EDITS_PER_DOC):
        edited = inputs.draw_parameters(pdoc, rng)

        def edit():
            apply_parameters(pdoc, edited)
            db.event_probabilities([], via="circuit")
            return db.constraint_probability()

        value, op = _timed(log, "edit", recorder, edit, shape)
        record["edits"].append((edited, value, op))
    if recorder is not None:
        recorder.count("circuit.gates", db.circuit_stats()["nodes"])
    return record


def timed_phase(seed: int, seconds: float, cycles: int | None, log: OpLog,
                recorder: Recorder | None = None) -> tuple[list[dict], float]:
    """Whole cycles until ``seconds`` have passed (and at least
    ``MIN_CYCLES``), or exactly ``cycles`` when given."""
    records = []
    start = time.perf_counter()
    for index, shape in _docs(seed):
        if index % len(SHAPES) == 0:
            done = index // len(SHAPES)
            if cycles is not None and done >= cycles:
                break
            if cycles is None and done >= MIN_CYCLES and (
                time.perf_counter() - start >= seconds
            ):
                break
        records.append(run_document(seed, index, shape, log, recorder))
    return records, time.perf_counter() - start


# -- answer checks ------------------------------------------------------------

def _expected_queries(pdoc, condition) -> tuple[Fraction, dict]:
    """Pr(P ⊨ C) and {query text: {labels: Pr}} for the three queries.

    Small documents: exact possible-worlds enumeration.  Otherwise
    Pr(P ⊨ C) comes from the compiled circuit and every candidate from
    its own DP pass (a registry of one event, unlike the workload's
    joint pass); one circuit per candidate would cost ~8 s a cycle."""
    queries = {text: Query.parse(text) for text in inputs.QUERIES}
    candidates = {text: candidate_tuples(q, pdoc) for text, q in queries.items()}
    events = {
        text: [bound_formula(queries[text], answer) for answer in candidates[text]]
        for text in queries
    }
    if len(pdoc.dist_edges()) <= ENUMERATION_EDGES:
        flat = [conjunction([condition, e]) for text in queries for e in events[text]]
        values = naive_probabilities(pdoc, flat + [condition])
        denominator = values[-1]
        joint = iter(values[:-1])
        tables = {
            text: {a: next(joint) / denominator for a in candidates[text]}
            for text in queries
        }
    else:
        db = PXDB(pdoc, inputs.constraints(), check=False)
        db.event_probabilities([], via="circuit")
        denominator = db.constraint_probability()
        tables = {
            text: {
                answer: db.event_probability(event)
                for answer, event in zip(candidates[text], events[text])
            }
            for text in queries
        }
    decoded = {
        text: decode_answers({a: v for a, v in table.items() if v > 0}, pdoc)
        for text, table in tables.items()
    }
    return denominator, decoded


def check_record(seed: int, record: dict) -> list[tuple[int, str]]:
    """The wrong answers of one document: (operation index, problem)."""
    wrong: list[tuple[int, str]] = []
    condition = constraints_formula(inputs.constraints())
    pdoc = inputs.university(record["shape"], inputs.rng_for(seed, "doc", record["index"]))
    denominator, tables = _expected_queries(pdoc, condition)
    ops = record["ops"]
    if record["sat"] != denominator:
        wrong.append((ops["sat"], f"Pr(P |= C) {record['sat']} != {denominator}"))
    for text, table in record["queries"].items():
        if table != tables[text]:
            wrong.append((ops[text], f"query {text!r} answers differ"))
    k, top = record["topk"]
    chairs = {labels[0]: v for labels, v in tables[inputs.CHAIRS].items()}
    best = sorted(chairs.values(), reverse=True)[:k]
    # Ties may pick either of two equal chairs: compare the values, and
    # each returned chair against its own probability.
    if [v for _, v in top] != best or any(chairs.get(label) != v for label, v in top):
        wrong.append((ops["topk"], f"top-{k} chairs differ"))
    reference = PXDB(pdoc.clone(), inputs.constraints())
    evaluator = DocumentEvaluator()
    for draw_seed, xml, op in record["samples"]:
        drawn = reference.sample(random.Random(draw_seed))
        if document_to_xml(drawn, style="tags") != xml:
            wrong.append((op, f"sample seed {draw_seed} differs from a fresh PXDB"))
        elif not evaluator.satisfies(drawn.root, condition):
            wrong.append((op, f"sample seed {draw_seed} violates C"))
    factors, values = record["sweep"]
    for binding, value in zip(scaled_edge_bindings(pdoc, factors), values):
        bound = pdoc.clone()
        apply_parameters(bound, binding)
        exact = probability(bound, condition)
        if abs(value - float(exact)) > FLOAT_TOLERANCE * max(float(exact), 1e-300):
            wrong.append((ops["sweep"], f"sweep value {value} != {float(exact)}"))
            break
    for parameters, value, op in record["edits"]:
        edited = pdoc.clone()
        apply_parameters(edited, parameters)
        exact = probability(edited, condition)
        if value != exact:
            wrong.append((op, f"edited Pr(P |= C) {value} != {exact}"))
    return wrong


def check(seed: int, records: list[dict], log: OpLog) -> list[str]:
    """Check every recorded answer in ``CHECK_WORKERS`` child interpreters
    (after the timed phase, so they compete with nothing measured); mark
    wrong operations failed."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    chunks = [records[i::CHECK_WORKERS] for i in range(CHECK_WORKERS)]
    workers = [
        subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, env=env)
        for _ in chunks
    ]
    for worker, chunk in zip(workers, chunks):
        worker.stdin.write(pickle.dumps((seed, chunk)))
        worker.stdin.close()
    problems = []
    for worker, chunk in zip(workers, chunks):
        output = worker.stdout.read()
        worker.stdout.close()
        if worker.wait() != 0:
            raise RuntimeError("an answer-check worker failed")
        for record, wrong in zip(chunk, pickle.loads(output)):
            for op, problem in wrong:
                log.fail(op)
                problems.append(f"doc {record['index']} {record['shape']}: {problem}")
    return problems


# -- the run --------------------------------------------------------------------

def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(seed: int, seconds: float, setups: list[float], metrics: Metrics) -> OpLog:
    log = OpLog()
    records, wall = timed_phase(seed, seconds, None, log)
    rss = peak_rss_mb()
    for problem in check(seed, records, log):
        print(f"eval-wide check failed: {problem}")
    end_to_end(log, wall, setups, rss, metrics)
    metrics.put("input.documents", len(records), "count", None,
                f"{len(records) // len(SHAPES)} cycles of {len(SHAPES)} shapes")
    candidates = sorted(n for r in records for n in r["candidates"])
    histogram = ", ".join(f"{n}: {candidates.count(n)}" for n in sorted(set(candidates)))
    metrics.put("input.candidates_p50", percentile(candidates, 50), "count", len(candidates),
                f"candidates per query {{{histogram}}}")
    metrics.put("input.candidates_max", candidates[-1], "count", len(candidates))
    return log


def run_traced(seed: int, metrics: Metrics) -> OpLog:
    """One untraced cycle, then the same cycle traced: per-layer times
    and the tracing overhead on identical work."""
    log = OpLog()
    records, untraced = timed_phase(seed, 0.0, 1, log)
    recorder = Recorder()
    with Patches(recorder) as patches:
        install_core(patches)
        traced_records, traced = timed_phase(seed, 0.0, 1, log, recorder)
    for problem in check(seed, records + traced_records, log):
        print(f"eval-wide check failed: {problem}")
    core_metrics(recorder, metrics, ops=sum(recorder.roots.values()),
                 queries=recorder.roots["op.query"] + recorder.roots["op.topk"])
    metrics.put("circuit.gates", recorder.counters["circuit.gates"] / len(traced_records),
                "count", len(traced_records), "retained circuit nodes per document")
    widths = sorted(recorder.samples["core.evaluator.sig_width"])
    metrics.put("input.sig_width_p75", percentile(widths, 75), "count", len(widths),
                "max_sig_width per DP run: p25 {:g}, p50 {:g}, p75 {:g}, max {:g}".format(
                    percentile(widths, 25), percentile(widths, 50), percentile(widths, 75),
                    widths[-1]))
    metrics.put("obs.trace_overhead_ratio", traced / untraced, "ratio", 1,
                f"{traced:.2f} s traced / {untraced:.2f} s untraced, same cycle")
    metrics.put("obs.coverage", recorder.coverage(), "ratio", None,
                "layer self time over operation wall time")
    return log


if __name__ == "__main__":
    # An answer-check worker of :func:`check`: (seed, records) in, the
    # wrong answers of each record out, both pickled by this module.
    seed, chunk = pickle.load(sys.stdin.buffer)
    pickle.dump([check_record(seed, record) for record in chunk], sys.stdout.buffer)
