"""Seeded inputs: p-documents, constraint files and Fig-2-style documents.

Every probability is drawn from a few twentieths in lowest terms, so
exact arithmetic costs about the same from seed to seed while the
documents of a run do not repeat their parameters.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from repro.pdoc.parameters import EDGE, apply_parameters, parameter_slots
from repro.pdoc.pdocument import MUX, PDocument
from repro.pdoc.serialize import pdocument_to_xml
from repro.workloads.university import (
    ASSISTANT,
    FULL,
    PHD,
    figure1_constraints,
    figure1_pdocument,
    scaled_university,
)
from repro.xmltree.document import Document, doc
from repro.xmltree.render import constraint_to_string

GRID = 20
IND_SHARES = (7, 9, 11, 13, 17)
MUX_SHARES = (3, 7, 9, 11, 13, 17)

# Query texts shared by every workload: Ph.D.-student names (the wide
# query: one candidate per student), member names (narrow) and the
# names of chairs (the top-k query).
WIDE = "university/department/member/'ph.d. st.'/name/$*"
NARROW = "university/department/member/name/$*"
CHAIRS = "*//member[position/chair]/name/$*"
QUERIES = (WIDE, NARROW, CHAIRS)

# Boolean pattern of the /sweep requests: "some member is a chair".
SWEEP_PATTERN = "*//member[position/chair]"


def rng_for(seed: int, *labels) -> random.Random:
    """An independent, reproducible stream per (seed, labels)."""
    return random.Random(f"{seed}:" + ":".join(str(label) for label in labels))


def constraints():
    """The Fig-1 constraint set C1–C4."""
    return figure1_constraints()


def constraints_text() -> str:
    return "".join(constraint_to_string(c) + "\n" for c in constraints())


def draw_parameters(pdoc: PDocument, rng: random.Random) -> list[Fraction]:
    """A fresh parameter vector for ``pdoc``'s structure.

    Every drawn value is k/20 in lowest terms (k odd and not a multiple
    of 5), so every document's exact arithmetic works on the same
    denominators: a seed changes which values are drawn, not how large
    the DP's fractions grow.  Ind edges take k in IND_SHARES; a mux gives
    its first children a share from MUX_SHARES and its last child the rest,
    which is
    again such a k when the mux has two children."""
    slots = parameter_slots(pdoc)
    mux_left = Counter(
        id(slot.node) for slot in slots if slot.field == EDGE and slot.node.kind == MUX
    )
    mux_mass: dict[int, int] = {}
    values: list[Fraction] = []
    for slot in slots:
        if slot.field != EDGE:
            values.append(slot.value)
        elif slot.node.kind != MUX:
            values.append(Fraction(rng.choice(IND_SHARES), GRID))
        else:
            key = id(slot.node)
            mass = mux_mass.get(key, GRID)
            mux_left[key] -= 1
            if mux_left[key] == 0:
                share = mass
            else:
                share = rng.choice([k for k in MUX_SHARES if k <= mass - mux_left[key]])
            mux_mass[key] = mass - share
            values.append(Fraction(share, GRID))
    return values


def university(shape: tuple[int, int, int], rng: random.Random) -> PDocument:
    """A scaled university (departments, members, students) with every
    ind/mux parameter drawn from ``rng``."""
    pdoc = scaled_university(*shape)
    apply_parameters(pdoc, draw_parameters(pdoc, rng))
    return pdoc


def figure1() -> PDocument:
    return figure1_pdocument()


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` in one rename, so a reader sees old or new."""
    staging = path.with_name(path.name + ".tmp")
    staging.write_text(text)
    os.replace(staging, path)


def write_pxdb(directory: Path, name: str, pdoc: PDocument) -> tuple[Path, Path]:
    pdoc_path = directory / f"{name}.pxml"
    cons_path = directory / f"{name}.cons"
    write_atomic(pdoc_path, pdocument_to_xml(pdoc))
    write_atomic(cons_path, constraints_text())
    return pdoc_path, cons_path


def figure2_style(rng: random.Random) -> Document:
    """A Fig-2-style department: 2–4 members, each a full or assistant
    professor, maybe a chair, with 0–2 students.  About half violate
    C1–C4 (two chairs, an assistant chair, an assistant with two
    students, or three professors without a chair)."""
    members = []
    for index in range(rng.randint(2, 4)):
        rank = FULL if rng.random() < 0.6 else ASSISTANT
        position = [rank] + (["chair"] if rng.random() < 0.35 else [])
        students = [
            doc(PHD, doc("name", f"s{index}-{j}")) for j in range(rng.randint(0, 2))
        ]
        members.append(
            doc("member", doc("name", f"m{index}"), doc("position", *position), *students)
        )
    return Document(doc("university", doc("department", *members)))
