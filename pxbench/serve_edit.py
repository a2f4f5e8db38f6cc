"""The ``serve-edit`` workload: parameter edits beside reads.

``repro serve`` with default flags (threaded front end, coalescer,
in-process evaluation) serves two scaled universities with seed-drawn
parameters.

* Connection 0 loops over ``EDITED``: it atomically rewrites the
  p-document file with new seed-drawn parameters (same structure,
  Pr(P ⊨ C) > 0), then sends ``/sat`` — the edit is timed from the file
  replace until that ``/sat`` returns — and then ``/query``, ``/sweep``
  and ``/sample`` against the new version.
* Connection 1 reads ``READ``: ``/sat`` and ``/topk`` of the member
  names with a unique ``k``.  It sends no ``/query`` or ``/sample``, so
  the medians of those two describe post-edit requests only instead of
  straddling a fast (warm) and a slow (post-edit) population.

Every edit drops the result cache and goes through the store's stamp
check, the parameter-only rebind and the circuit rebind+forward.
``/sweep`` bindings come from ``scaled_edge_bindings`` with factors at
most 1, so every binding is a valid parameterization (mux children never
sum past 1).

The workload runs without a process pool, so not on the async sharded
front end (which always has one): pool workers build their stores with
``check_mtime=False`` and keep answering with the pre-edit parameters
after a file edit, so every answer a worker gives after an edit is
wrong.  Once workers reload edited files, ``SERVER_ARGS`` can become
``--frontend async --shards 2 --pool 1`` again (``READ`` and ``EDITED``
hash to different shards).
"""

from __future__ import annotations

from fractions import Fraction

from repro.pdoc.parameters import apply_parameters, scaled_edge_bindings
from repro.pdoc.serialize import pdocument_to_xml

import inputs
from serve import CircuitOracle, Edit, Expected, Request, SweepOracle

LABEL = "serve-edit"
SERVER_ARGS: list[str] = []  # the defaults: threaded, coalescer, no pool
EDITED = "uni1"
READ = "uni2"
SHAPES = {EDITED: (1, 2, 2), READ: (2, 2, 1)}
TRACE_ACTIONS = 200  # per connection, traced run


def make_pdocs(seed: int) -> dict:
    return {
        name: inputs.university(shape, inputs.rng_for(seed, "db", name))
        for name, shape in SHAPES.items()
    }


def ready(deployment) -> list:
    return [("/sat", {"db": name}) for name in deployment.pdocs]


def version_pdoc(seed: int, version: int):
    """``EDITED``'s p-document after ``version`` edits (0: as deployed)."""
    pdoc = make_pdocs(seed)[EDITED]
    if version:
        rng = inputs.rng_for(seed, "version", version)
        apply_parameters(pdoc, inputs.draw_parameters(pdoc, rng))
    return pdoc


def _edits(seed: int, deployment):
    path = deployment.paths[EDITED][0]
    rng = inputs.rng_for(seed, "conn", 0)
    version = 0
    while True:
        version += 1
        pdoc = version_pdoc(seed, version)
        yield Edit(EDITED, version, pdocument_to_xml(pdoc), path)
        yield Request("query", {"db": EDITED, "query": inputs.QUERIES[version % 3]},
                      version=version)
        factors = [Fraction(rng.randint(10, 20), 20) for _ in range(2)]
        bindings = [[str(v) for v in row] for row in scaled_edge_bindings(pdoc, factors)]
        yield Request("sweep", {"db": EDITED},
                      {"db": EDITED, "bindings": bindings, "pattern": inputs.SWEEP_PATTERN},
                      version=version)
        yield Request("sample", {"db": EDITED, "count": 1, "seed": rng.randrange(2**31)},
                      version=version)


def _reads():
    unique_k = 1000
    while True:
        unique_k += 1
        yield Request("sat", {"db": READ})
        yield Request("topk", {"db": READ, "query": inputs.NARROW, "k": unique_k})


def streams(seed: int, deployment) -> list:
    return [_edits(seed, deployment), _reads()]


def warm_up(deployment) -> list:
    """Untimed: bind every query once per database, compile the sweep."""
    actions = []
    for db in sorted(deployment.pdocs):
        for text in inputs.QUERIES:
            actions.append(Request("query", {"db": db, "query": text}))
            actions.append(Request("topk", {"db": db, "query": text, "k": 1}))
    bindings = scaled_edge_bindings(deployment.pdocs[EDITED], [Fraction(1)])
    actions.append(Request("sweep", {"db": EDITED}, {
        "db": EDITED, "bindings": [[str(v) for v in row] for row in bindings],
        "pattern": inputs.SWEEP_PATTERN,
    }))
    return actions


def probe(seed: int, deployment, port: int) -> list:
    """No probe: edits run inside the timed phase."""
    return []


class Oracle:
    """The in-process answer each request must match (per version).

    ``EDITED``'s versions are answered by re-binding circuits compiled
    once for its structure: a fresh DP per version would cost more than
    the timed phase."""

    def __init__(self, seed: int):
        self.seed = seed
        self.pdocs = make_pdocs(seed)
        self.sweeps = {
            name: SweepOracle(pdoc, inputs.SWEEP_PATTERN) for name, pdoc in self.pdocs.items()
        }
        self.circuits = CircuitOracle(self.pdocs[EDITED])
        self._expected: dict = {}

    def __call__(self, action) -> Expected:
        db = action.db if isinstance(action, Edit) else action.params["db"]
        key = (db, action.version)
        if key not in self._expected:
            # Checks run in send order: drop versions no later request needs.
            for old in [k for k in self._expected if k[0] == db and k[1] < action.version]:
                del self._expected[old]
            if db == EDITED:
                pdoc = version_pdoc(self.seed, action.version)
                self._expected[key] = Expected(pdoc, self.sweeps[db], self.circuits)
            else:
                self._expected[key] = Expected(self.pdocs[db], self.sweeps[db])
        return self._expected[key]
