"""What the two serve workloads share: set-up, closed-loop traffic,
server-side counters, the in-process replay and the answer checks.

A workload supplies a request *stream* per connection: an iterator of
actions.
An action is a :class:`Request` (one HTTP call) or an :class:`Edit` (an
atomic rewrite of a p-document file, timed together with the ``/sat``
that follows it).  Each connection runs on its own thread and waits for
every reply before its next action (closed loop).
"""

from __future__ import annotations

import json
import random
import re
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from repro import PXDB
from repro.core.explain import explain_violations
from repro.core.formulas import exists
from repro.core.query import Query
from repro.core.query_eval import bound_formula, candidate_tuples, decode_answers
from repro.xmltree.parser import parse_boolean_pattern
from repro.xmltree.serialize import document_from_xml, document_to_xml

import inputs
from measure import Metrics, OpLog, end_to_end
from serving import Client, Server, wait_answering
from spans import Patches, Recorder, install_core

SETUPS = 9
_UID = re.compile(r" \(uid \d+\)")
FLOAT_TOLERANCE = 1e-9
ROUTES = ("sat", "query", "topk", "sample", "check", "sweep")


@dataclass
class Request:
    kind: str
    params: dict
    body: dict | None = None
    version: int = 0  # the p-document version the answer must reflect

    @property
    def route(self) -> str:
        return f"/{self.kind}"


@dataclass
class Edit:
    """Rewrite ``db``'s p-document as ``version`` (parameters only)."""

    db: str
    version: int
    text: str
    path: Path

    kind = "edit"
    route = "/sat"


@dataclass
class Sent:
    action: object
    started: float
    seconds: float = 0.0
    status: int = 0
    payload: dict | None = None
    op: int = -1
    error: str | None = None


@dataclass
class Deployment:
    """The files a server reads and the in-process originals."""

    workdir: Path
    pdocs: dict  # name -> PDocument as written at start
    paths: dict = field(default_factory=dict)  # name -> (pdoc path, cons path)

    def db_args(self) -> list[str]:
        args = []
        for name, (pdoc_path, cons_path) in self.paths.items():
            args += ["--db", f"{name}={pdoc_path.name}:{cons_path.name}"]
        return args


def deploy(base: Path, label: str, pdocs: dict) -> Deployment:
    """A fresh directory holding every PXDB's files."""
    workdir = base / label
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    deployment = Deployment(workdir, pdocs)
    for name, pdoc in pdocs.items():
        deployment.paths[name] = inputs.write_pxdb(workdir, name, pdoc)
    return deployment


class Problems:
    """Run-level failures (a leftover process, a set-up error)."""

    def __init__(self):
        self.items: list[str] = []

    def add(self, text: str) -> None:
        self.items.append(text)
        print(f"run problem: {text}")


def start_servers(root: Path, base: Path, label: str, make_pdocs, args: list[str],
                  ready, problems: Problems, count: int = SETUPS):
    """Start ``count`` fresh servers one after another, timing each from
    spawn until every database answers ``ready(deployment)``; all but the
    last are stopped again.  Returns (server, deployment, set-up times)."""
    setups = []
    for attempt in range(count):
        deployment = deploy(base, f"{label}-{attempt}", make_pdocs())
        server = Server(root, deployment.workdir, deployment.db_args() + args)
        spawned = server.start()
        try:
            wait_answering(server.port, ready(deployment))
        except (OSError, RuntimeError):
            server.stop()
            raise
        setups.append(time.perf_counter() - spawned)
        server.note_children()
        if attempt < count - 1:
            leftovers = server.stop()
            if leftovers:
                problems.add(f"leftover processes after set-up stop: {leftovers}")
            shutil.rmtree(deployment.workdir)
    return server, deployment, setups


def run_traffic(port: int, streams, *, seconds: float | None = None,
                actions: int | None = None) -> tuple[list[Sent], float]:
    """One closed-loop thread per stream, until ``seconds`` pass or each
    stream has run ``actions`` actions.  Returns (sent, wall seconds)."""
    sent: list[Sent] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None

    def loop(stream) -> None:
        client = Client(port)
        done = 0
        try:
            for action in stream:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                if actions is not None and done >= actions:
                    break
                record = execute(client, action)
                if record.error is not None:
                    client.close()
                    client = Client(port)
                with lock:
                    sent.append(record)
                done += 1
        finally:
            client.close()

    threads = [
        threading.Thread(target=loop, args=(stream,), daemon=True) for stream in streams
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    sent.sort(key=lambda record: record.started)
    return sent, wall


def execute(client: Client, action) -> Sent:
    record = Sent(action, time.perf_counter())
    try:
        if isinstance(action, Edit):
            start = time.perf_counter()
            inputs.write_atomic(action.path, action.text)
            record.status, record.payload, _ = client.call("/sat", {"db": action.db})
            record.seconds = time.perf_counter() - start
        else:
            record.status, record.payload, record.seconds = client.call(
                action.route, action.params if action.body is None else None,
                action.body,
            )
    except (OSError, ValueError) as error:
        record.error = f"{type(error).__name__}: {error}"
    return record


def log_ops(sent: list[Sent], log: OpLog) -> None:
    """Every sent action becomes one operation; transport or HTTP
    failures fail at once, wrong answers later in the checks."""
    for record in sent:
        ok = (record.error is None and record.status == 200
              and bool(record.payload and record.payload.get("ok")))
        record.op = log.add(record.action.kind, record.seconds, ok)


# -- server-side counters -------------------------------------------------------

def snapshot(port: int) -> dict:
    client = Client(port)
    try:
        _, metrics, _ = client.call("/metrics")
        _, stats, _ = client.call("/stats")
    finally:
        client.close()
    return {"metrics": metrics, "stats": stats}


def route_totals(snap: dict) -> dict:
    """{route: (count, total ms)} from /metrics latency histograms."""
    latency = snap["metrics"].get("latency", {})
    return {
        route: (latency[route]["count"], latency[route]["total_ms"])
        for route in ROUTES
        if route in latency
    }


def counter(snap: dict, name: str) -> float:
    return snap["metrics"].get("counters", {}).get(name, 0)


def store_totals(snap: dict) -> dict:
    """/stats store counters summed over the server and its pool workers."""
    stores = [snap["stats"].get("store", {}),
              (snap["stats"].get("pool_workers") or {}).get("summed", {}).get("store", {})]
    keys = ("hits", "loads", "reloads", "param_reloads")
    return {key: sum(store.get(key, 0) for store in stores) for key in keys}


def input_properties(before: dict, after: dict, sent: list[Sent], metrics: Metrics) -> None:
    """Satellite record of the inputs later claims depend on."""
    queries = counter(after, "query.requests") - counter(before, "query.requests")
    hits = counter(after, "query.cache_hits") - counter(before, "query.cache_hits")
    metrics.put("input.query_cache_share", hits / queries if queries else 0.0,
                "ratio", int(queries), "/query answered from the result cache")
    edits = sum(1 for r in sent if r.action.kind == "edit")
    reads = len(sent) - edits
    metrics.put("input.edits_per_read", edits / reads if reads else 0.0, "ratio", reads)
    coalescers = after["metrics"].get("coalescers", {}).values()
    batches = sum(c["batches"] for c in coalescers)
    merged = sum(c["coalesced_requests"] for c in coalescers)
    metrics.put("input.coalesce_mean_batch", merged / batches if batches else 0.0,
                "count", batches)
    totals = store_totals(after)
    for key in ("param_reloads", "reloads"):
        metrics.put(f"input.{key}", totals[key], "count", None, "server + pool workers")


# -- answer checks ----------------------------------------------------------------

class SweepOracle:
    """Exact sweep answers for one p-document structure: the event and
    Pr(P ⊨ C) compiled once into an exact-arithmetic circuit, evaluated
    per binding in Fractions (the service sweeps in vectorized floats)."""

    def __init__(self, pdoc, pattern: str):
        event = exists(parse_boolean_pattern(pattern))
        self.circuit = PXDB(pdoc, inputs.constraints(), check=False).compile_circuit([event])
        self._values: dict = {}

    def __call__(self, row: tuple) -> tuple[Fraction, Fraction]:
        if row not in self._values:
            self.circuit.set_param_values([Fraction(v) for v in row])
            joint, denominator = self.circuit.forward()
            self._values[row] = (denominator, joint / denominator)
        return self._values[row]


class CircuitOracle:
    """Exact sat/query answers for every parameter version of one
    p-document structure: each query's candidate events (and C) are
    compiled once into an exact circuit, re-bound per version."""

    def __init__(self, base):
        self.base = base
        self.pxdb = PXDB(base, inputs.constraints(), check=False)
        self._circuits: dict = {}

    def _compiled(self, text: str | None):
        if text not in self._circuits:
            if text is None:
                labels, events = [], []
            else:
                query = Query.parse(text)
                answers = candidate_tuples(query, self.base)
                labels = [
                    tuple(self.base.node_by_uid(uid).label for uid in answer)
                    for answer in answers
                ]
                events = [bound_formula(query, answer) for answer in answers]
            self._circuits[text] = (labels, self.pxdb.compile_circuit(events))
        return self._circuits[text]

    def sat(self, pdoc) -> Fraction:
        return self._compiled(None)[1].rebind(pdoc).forward()[-1]

    def table(self, pdoc, text: str) -> dict:
        labels, circuit = self._compiled(text)
        values = circuit.rebind(pdoc).forward()
        table: dict = {}
        for key, joint in zip(labels, values[:-1]):
            value = joint / values[-1]
            if key not in table or table[key] < value:
                table[key] = value
        return table


class Expected:
    """In-process answers for one PXDB version, computed on demand: by
    the DP on a fresh ``PXDB``, or by re-binding a :class:`CircuitOracle`
    when one is given (edited versions share one compiled structure)."""

    def __init__(self, pdoc, sweep: SweepOracle, circuits: CircuitOracle | None = None):
        self.pdoc = pdoc
        self.pxdb = PXDB(pdoc, inputs.constraints(), check=circuits is None)
        self.sweep = sweep
        self.circuits = circuits
        self._queries: dict = {}

    def sat(self) -> Fraction:
        if self.circuits is not None:
            return self.circuits.sat(self.pdoc)
        return self.pxdb.constraint_probability()

    def rows(self, text: str) -> list[tuple[list[str], Fraction]]:
        """The query's answers, sorted like the service sorts them."""
        if text not in self._queries:
            if self.circuits is not None:
                table = self.circuits.table(self.pdoc, text)
            else:
                table = decode_answers(self.pxdb.query(text), self.pdoc)
            self._queries[text] = [
                ([str(label) for label in labels], value)
                for labels, value in sorted(
                    table.items(), key=lambda kv: (-kv[1], str(kv[0]))
                )
                if value > 0
            ]
        return self._queries[text]

    def sample(self, seed: int) -> str:
        return document_to_xml(self.pxdb.sample(random.Random(seed)), style="tags")


def _close(value: float, exact: Fraction) -> bool:
    return abs(value - float(exact)) <= FLOAT_TOLERANCE * max(abs(float(exact)), 1e-300)


def check_answer(action, payload: dict, expected: Expected) -> str | None:
    """None when ``payload`` is the right answer to ``action``."""
    kind = action.kind
    if kind in ("sat", "edit"):
        got = Fraction(payload["constraint_probability"])
        return None if got == expected.sat() else f"Pr(P |= C) {got} != {expected.sat()}"
    if kind in ("query", "topk"):
        rows = [(row["answer"], Fraction(row["probability"])) for row in payload["answers"]]
        want = expected.rows(action.params["query"])
        if kind == "topk":
            if payload["candidates"] != len(want):
                return f"top-k candidates {payload['candidates']} != {len(want)}"
            want = want[: int(action.params["k"])]
        return None if rows == want else f"answers of {action.params['query']!r} differ"
    if kind == "sample":
        want = expected.sample(int(action.params["seed"]))
        return None if payload["documents"] == [want] else "sampled document differs"
    if kind == "check":
        # Node uids are assigned at parse time: compare without them.
        document = document_from_xml(action.body["document"])
        violations = [v.describe() for v in explain_violations(document, inputs.constraints())]
        got = [_UID.sub("", text) for text in payload["violations"]]
        if got != [_UID.sub("", text) for text in violations] or (
            payload["satisfies"] != (not violations)
        ):
            return "check verdict differs"
        return None
    if kind == "sweep":
        for index, row in enumerate(action.body["bindings"]):
            denominator, conditional = expected.sweep(tuple(row))
            if not (_close(payload["constraint_probability"][index], denominator)
                    and _close(payload["event_probability"][index], conditional)):
                return f"sweep binding {index} differs"
        return None
    return f"unknown operation {kind!r}"


def describe(action) -> str:
    if isinstance(action, Edit):
        return f"edit {action.db} to version {action.version}"
    return f"{action.kind} {action.params}"


def check_all(sent: list[Sent], log: OpLog, expected_for) -> int:
    """Check every answered request; ``expected_for(action)`` names the
    :class:`Expected` the answer must match.  Returns the failures."""
    wrong = 0
    for record in sent:
        if record.op < 0 or not log.records[record.op][2]:
            continue
        problem = check_answer(record.action, record.payload, expected_for(record.action))
        if problem is not None:
            log.fail(record.op)
            wrong += 1
            if wrong <= 5:
                print(f"check failed: {describe(record.action)}: {problem}")
    return wrong


# -- in-process replay ----------------------------------------------------------

def replay(actions: list, deployment: Deployment, warm: list,
           recorder: Recorder | None = None) -> tuple[float, dict, object]:
    """Replay ``actions`` in send order through an in-process
    :class:`PXDBService` over a fresh store of ``deployment``'s files:
    edits rewrite the same file content, requests go through
    ``dispatch_route`` plus the JSON the front ends decode and encode.
    ``warm`` replays first, untimed and untraced.  Returns (wall seconds
    of ``actions``, {route: [seconds]}, the store)."""
    from repro.service.server import PXDBService, dispatch_route
    from repro.service.store import DocumentStore

    store = DocumentStore()
    for name, (pdoc_path, cons_path) in deployment.paths.items():
        store.register(name, pdoc_path, cons_path)
    service = PXDBService(store)

    def span(name: str):
        return recorder.span(name) if recorder is not None else nullcontext()

    def one(action) -> None:
        if isinstance(action, Edit):
            params = {"db": action.db}
        elif action.body is not None:
            with span("service.server.json"):
                params = json.loads(json.dumps(action.body))
        else:
            params = dict(action.params)
        _, payload = dispatch_route(service, action.route, params)
        with span("service.server.json"):
            json.dumps(payload)

    def write(action) -> None:
        if isinstance(action, Edit):
            inputs.write_atomic(deployment.paths[action.db][0], action.text)

    for action in warm:
        write(action)
        one(action)
    timings: dict[str, list[float]] = {}
    engines_before = _engine_totals(store)
    with Patches(recorder or Recorder()) as patches:
        if recorder is not None:
            install_core(patches)
            install_service(patches)
        wall = 0.0
        for action in actions:
            write(action)
            with span(f"op.{action.kind}"):
                start = time.perf_counter()
                one(action)
                elapsed = time.perf_counter() - start
            wall += elapsed
            timings.setdefault(action.route[1:], []).append(elapsed)
    if recorder is not None:
        # The warm engines serve only /sample once the warm-up is done.
        for key, value in _engine_totals(store).items():
            recorder.count(f"core.sampler.engine_{key}", value - engines_before[key])
    return wall, timings, store


def _engine_totals(store) -> dict:
    totals = {"hits": 0, "misses": 0, "nodes": 0}
    for entry in store.loaded_entries():
        stats = entry.engine.stats()
        totals["hits"] += stats["cache_hits"]
        totals["misses"] += stats["cache_misses"]
        totals["nodes"] += stats["nodes_computed"]
    return totals


def install_service(patches: Patches) -> None:
    """Wrap the service layers the replay passes through."""
    from repro.service import coalesce, server, store

    patches.wrap(store.DocumentStore, "get", "service.store.get")
    patches.wrap(store, "read_pdocument", "pdoc.parse")
    patches.wrap(store.StoreEntry, "apply_parameter_update", "service.store.reload")
    patches.wrap(store, "load_pxdb", "service.store.load")
    patches.wrap(coalesce.Coalescer, "event_probabilities", "service.coalesce")
    patches.wrap(coalesce.Coalescer, "sweep_probabilities", "service.coalesce")
    patches.wrap(server, "candidate_tuples", "core.query_eval.bind")
    patches.wrap(server, "bound_formula", "core.query_eval.bind")
    patches.wrap(server, "decode_answers", "core.query_eval.decode")
    patches.wrap(server, "explain_violations", "core.explain")
    patches.wrap(server, "document_from_xml", "xmltree.parse")
    patches.wrap(server, "document_to_xml", "xmltree.serialize")


# -- the runs ---------------------------------------------------------------------

def drive(port: int, actions: list, problems: Problems) -> None:
    """Send ``actions`` on one connection, untimed (warm-up)."""
    client = Client(port)
    try:
        for action in actions:
            record = execute(client, action)
            if record.error is not None or record.status != 200:
                problems.add(f"warm-up {action.kind} failed: {record.error or record.status}")
    finally:
        client.close()


def _serve(workload, seed: int, root: Path, base: Path, problems: Problems, *,
           seconds: float | None = None, actions: int | None = None, setups: int = SETUPS):
    """Start the workload's server(s), run the traffic, stop.  Returns
    (sent, wall, probe records, set-up times, peak RSS, before, after)."""
    server, deployment, setup_s = start_servers(
        root, base, workload.LABEL, lambda: workload.make_pdocs(seed),
        workload.SERVER_ARGS, workload.ready, problems, setups,
    )
    try:
        drive(server.port, workload.warm_up(deployment), problems)
        before = snapshot(server.port)
        sent, wall = run_traffic(
            server.port, workload.streams(seed, deployment), seconds=seconds, actions=actions
        )
        after = snapshot(server.port)
        rss = server.peak_rss_mb()
        probe = workload.probe(seed, deployment, server.port) if seconds is not None else []
    finally:
        leftovers = server.stop()
        if leftovers:
            problems.add(f"leftover processes after the run: {leftovers}")
        shutil.rmtree(deployment.workdir)
    return sent, wall, probe, setup_s, rss, before, after


def run(workload, seed: int, seconds: float, root: Path, base: Path,
        metrics: Metrics) -> tuple[OpLog, OpLog, Problems]:
    """The untraced run: every end-to-end metric."""
    problems = Problems()
    sent, wall, probe, setups, rss, before, after = _serve(
        workload, seed, root, base, problems, seconds=seconds
    )
    log, probe_log = OpLog(), OpLog()
    log_ops(sent, log)
    log_ops(probe, probe_log)
    oracle = workload.Oracle(seed)
    check_all(sent, log, oracle)
    check_all(probe, probe_log, oracle)
    end_to_end(log, wall, setups, rss, metrics, probe_log)
    input_properties(before, after, sent, metrics)
    return log, probe_log, problems


def run_traced(workload, seed: int, root: Path, base: Path,
               metrics: Metrics) -> tuple[OpLog, Problems]:
    """The traced run: a fixed number of actions per connection against
    one fresh server, its /metrics and /stats before and after, then the
    same actions replayed in-process twice (untraced, then traced) to
    split the server-side time into layers."""
    from layers import service_metrics

    problems = Problems()
    sent, wall, _, _, _, before, after = _serve(
        workload, seed, root, base, problems, actions=workload.TRACE_ACTIONS, setups=1
    )
    log = OpLog()
    log_ops(sent, log)
    check_all(sent, log, workload.Oracle(seed))
    actions = [record.action for record in sent]
    recorder = Recorder()
    replays = []
    for label, traced in (("replay", None), ("replay-traced", recorder)):
        deployment = deploy(base, f"{workload.LABEL}-{label}", workload.make_pdocs(seed))
        try:
            replays.append(replay(actions, deployment, workload.warm_up(deployment), traced))
        finally:
            shutil.rmtree(deployment.workdir)
    (untraced, timings, _), (traced_wall, _, store) = replays
    service_metrics(metrics, recorder, sent, before, after, timings, store,
                    overhead=traced_wall / untraced)
    input_properties(before, after, sent, metrics)
    return log, problems
