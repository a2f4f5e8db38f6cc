"""The ``serve-mix`` workload: many small requests on the default server.

``repro serve`` with default flags (threaded front end, coalescer,
in-process evaluation) serves three file-backed PXDBs: the Fig-1
document and two scaled universities with seed-drawn parameters.  Two
keep-alive connections send a seeded mix:

* ``/sat``;
* ``/query`` over three fixed texts per database — warmed before the
  timed phase, so almost every one is a result-cache hit;
* ``/topk`` with a unique ``k``, so it always evaluates (re-bind plus
  forward over the query's retained circuit);
* seeded ``/sample``;
* ``/check`` of Fig-2-style documents, most of which violate C1–C4;
* ``/sweep`` of "some member is a chair" at two scaled edge bindings.

After the timed phase a probe edits one database's file
``EDIT_PROBES`` times, each timed from the file replace until the
following ``/sat`` returns: this workload's ``edit_p50_ms``.
"""

from __future__ import annotations

from fractions import Fraction

from repro.pdoc.parameters import apply_parameters, scaled_edge_bindings
from repro.pdoc.serialize import pdocument_to_xml
from repro.xmltree.serialize import document_to_xml

import inputs
from serve import Edit, Expected, Request, SweepOracle, execute
from serving import Client

LABEL = "serve-mix"
SERVER_ARGS: list[str] = []  # the defaults: threaded, coalescer, no pool
SHAPES = {"uni-a": (1, 2, 2), "uni-b": (2, 2, 1)}
MIX = (("sat", 25), ("query", 35), ("topk", 12), ("sample", 12), ("check", 8), ("sweep", 8))
CONNECTIONS = 2
TRACE_ACTIONS = 300  # per connection, traced run
EDIT_PROBES = 8
EDITED = "uni-b"


def make_pdocs(seed: int) -> dict:
    pdocs = {"fig1": inputs.figure1()}
    for name, shape in SHAPES.items():
        pdocs[name] = inputs.university(shape, inputs.rng_for(seed, "db", name))
    return pdocs


def ready(deployment) -> list:
    return [("/sat", {"db": name}) for name in deployment.pdocs]


def sweep_body(db: str, pdoc, rng) -> dict:
    factors = [Fraction(rng.randint(10, 20), 20) for _ in range(2)]
    return {
        "db": db,
        "bindings": [[str(v) for v in row] for row in scaled_edge_bindings(pdoc, factors)],
        "pattern": inputs.SWEEP_PATTERN,
    }


def _stream(seed: int, conn: int, pdocs: dict):
    """The endless seeded request stream of one connection."""
    rng = inputs.rng_for(seed, "conn", conn)
    kinds = [kind for kind, weight in MIX for _ in range(weight)]
    names = sorted(pdocs)
    unique_k = 1000 * (conn + 1)
    while True:
        kind = rng.choice(kinds)
        db = rng.choice(names)
        if kind == "sat":
            yield Request("sat", {"db": db})
        elif kind == "query":
            yield Request("query", {"db": db, "query": rng.choice(inputs.QUERIES)})
        elif kind == "topk":
            unique_k += 1
            yield Request("topk", {"db": db, "query": rng.choice(inputs.QUERIES),
                                   "k": unique_k})
        elif kind == "sample":
            yield Request("sample", {"db": db, "count": 1, "seed": rng.randrange(2**31)})
        elif kind == "check":
            document = document_to_xml(inputs.figure2_style(rng), style="tags")
            yield Request("check", {"db": db}, {"db": db, "document": document})
        else:
            yield Request("sweep", {"db": db}, sweep_body(db, pdocs[db], rng))


def streams(seed: int, deployment) -> list:
    return [_stream(seed, conn, deployment.pdocs) for conn in range(CONNECTIONS)]


def warm_up(deployment) -> list:
    """Untimed: fill the result cache and compile every retained circuit."""
    actions = []
    for db in sorted(deployment.pdocs):
        for text in inputs.QUERIES:
            actions.append(Request("query", {"db": db, "query": text}))
            actions.append(Request("topk", {"db": db, "query": text, "k": 1}))
        rng = inputs.rng_for(0, "warm", db)
        actions.append(Request("sweep", {"db": db}, sweep_body(db, deployment.pdocs[db], rng)))
        actions.append(Request("sample", {"db": db, "count": 1, "seed": 0}))
    return actions


def probe_versions(seed: int) -> list:
    """The edited database's p-document after each probe edit."""
    rng = inputs.rng_for(seed, "probe")
    base = make_pdocs(seed)[EDITED]
    versions = []
    for _ in range(EDIT_PROBES):
        pdoc = base.clone()
        apply_parameters(pdoc, inputs.draw_parameters(pdoc, rng))
        versions.append(pdoc)
    return versions


def probe(seed: int, deployment, port: int) -> list:
    """``EDIT_PROBES`` parameter edits of one database, each timed from
    the file replace until the next ``/sat`` returns."""
    path = deployment.paths[EDITED][0]
    client = Client(port)
    try:
        return [
            execute(client, Edit(EDITED, version, pdocument_to_xml(pdoc), path))
            for version, pdoc in enumerate(probe_versions(seed), start=1)
        ]
    finally:
        client.close()


class Oracle:
    """The in-process answer each request must match."""

    def __init__(self, seed: int):
        self.pdocs = make_pdocs(seed)
        self.versions = probe_versions(seed)
        self.sweeps = {
            name: SweepOracle(pdoc, inputs.SWEEP_PATTERN) for name, pdoc in self.pdocs.items()
        }
        self._expected: dict = {}

    def __call__(self, action) -> Expected:
        key = (action.params["db"] if isinstance(action, Request) else action.db,
               action.version)
        if key not in self._expected:
            db, version = key
            pdoc = self.pdocs[db] if version == 0 else self.versions[version - 1]
            self._expected[key] = Expected(pdoc, self.sweeps[db])
        return self._expected[key]
