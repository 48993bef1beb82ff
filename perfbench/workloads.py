"""What each workload runs: the rings of the suites and the seeded query block.

Suite workloads are deterministic: one operation is one run_suite(ring).
The inv-queries workload is a closed loop with one client: a block of
in-process `cli.main` calls, drawn from the seed, is sent one after the
other and repeated until the run's time is up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ginvlab import parsing

SPECS = Path(__file__).resolve().parent / "specs"

INV_KINDS = ("inner", "outer", "reflexive", "iann", "left-ann", "right-ann",
             "ideals")
MATRIX_OPS = ("ginverse", "seteq", "membership")


def spec(ring: str) -> str:
    """The ring argument `cli.load_ring` and the command line take."""
    return ring if ring == "example10" else str(SPECS / f"{ring}.json")


@dataclass(frozen=True)
class InvGroup:
    """`count` queries on one ring: `info` of them `ring info`, the rest `inv`."""

    ring: str
    count: int
    info: int
    allow_all: bool


@dataclass(frozen=True)
class MatrixGroup:
    k: int
    q: int
    count: int

    @property
    def ring(self) -> str:
        return f"m{self.k}gf{self.q}"


@dataclass(frozen=True)
class Query:
    argv: tuple
    ring: str
    kind: str  # an inv kind, "info", or a matrix op
    elem: Optional[str] = None
    all: bool = False
    k: int = 0
    q: int = 0
    mats: tuple = ()

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    suite: tuple = ()
    groups: tuple = ()

    def rings(self) -> tuple:
        """Every ring the workload loads, in setup order."""
        names = list(self.suite) + [g.ring for g in self.groups]
        return tuple(dict.fromkeys(names))


# Shares of the inv-queries block: 20% Z/5005 (about 2 ms a call), 50%
# GF(2)[t]/(t^13) (raw bitmask products, 55-300 ms), 30% table rings and
# matrix oracles (op tables and the semiprime header, 150-300 ms).  With
# these shares the median falls inside the GF(2)[t] group and the 90th
# percentile inside the table group, not on a boundary between them.
WORKLOADS = {
    "suite-exhaustive": Workload("suite-exhaustive",
                                 suite=("example10", "m2gf5", "z1155")),
    "suite-sampled": Workload("suite-sampled", suite=("z5005", "gf2t13")),
    "inv-queries": Workload("inv-queries", groups=(
        InvGroup("z5005", 20, 2, True),
        InvGroup("gf2t13", 50, 5, False),
        InvGroup("example10", 10, 1, True),
        InvGroup("m2gf5", 10, 1, True),
        MatrixGroup(2, 5, 5),
        MatrixGroup(3, 3, 5),
    )),
    # same code paths on small rings, for the benchmark's own tests
    "smoke": Workload("smoke", suite=("z30", "m2gf3"), groups=(
        InvGroup("z30", 5, 1, True),
        InvGroup("m2gf3", 5, 1, True),
        MatrixGroup(2, 3, 3),
    )),
}


def _matrix_text(rng: random.Random, k: int, q: int) -> str:
    """A random k x k matrix; half of them rank at most one."""
    if rng.random() < 0.5:
        u = [rng.randrange(q) for _ in range(k)]
        v = [rng.randrange(q) for _ in range(k)]
        rows = [[u[i] * v[j] % q for j in range(k)] for i in range(k)]
    else:
        rows = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
    return ";".join(",".join(str(x) for x in row) for row in rows)


def _balanced(rng: random.Random, choices, n: int) -> list:
    """n draws with each choice as often as possible, in seeded order.

    Fixing how often each kind occurs keeps the seed from changing the
    workload's mix, which would widen the spread between runs."""
    picks = [choices[j % len(choices)] for j in range(n)]
    rng.shuffle(picks)
    return picks


def _inv_queries(rng: random.Random, group: InvGroup, ring) -> list:
    path = spec(group.ring)
    out = [Query(("ring", "info", path, "--format", "json"), group.ring, "info")
           for _ in range(group.info)]
    n = group.count - group.info
    listings = _balanced(rng, (group.allow_all, False), n)
    for kind, listing in zip(_balanced(rng, INV_KINDS, n), listings):
        elem = parsing.render_elem(ring.from_index(rng.randrange(ring.size)))
        argv = ("inv", path, "--elem", elem, "--kind", kind, "--format", "json")
        out.append(Query(argv + (("--all",) if listing else ()), group.ring,
                         kind, elem=elem, all=listing))
    return out


def _matrix_queries(rng: random.Random, group: MatrixGroup) -> list:
    out = []
    for op in _balanced(rng, MATRIX_OPS, group.count):
        mats = tuple(_matrix_text(rng, group.k, group.q)
                     for _ in range(1 if op == "ginverse" else 2))
        if op == "seteq" and rng.random() < 0.5:
            mats = (mats[0], mats[0])  # make both verdicts occur
        argv = ("matrix", "--k", str(group.k), "--q", str(group.q), op, *mats,
                "--format", "json")
        out.append(Query(argv, group.ring, op, k=group.k, q=group.q, mats=mats))
    return out


def query_block(workload: Workload, seed: int, rings: dict) -> list:
    """The seeded, shuffled block of queries; `rings` maps name -> Ring."""
    rng = random.Random(seed)
    block = []
    for group in workload.groups:
        if isinstance(group, MatrixGroup):
            block += _matrix_queries(rng, group)
        else:
            block += _inv_queries(rng, group, rings[group.ring])
    rng.shuffle(block)
    return block
