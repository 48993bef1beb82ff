"""The builtin counterexample algebra: 1024 elements over GF(2).

A unital GF(2)-algebra on generators a, b, x subject to

    axa = a   bxb = b   xax = x   xbx = x
    aa = bb = ab = ba = xx = 0

whose irreducible words {1, a, b, x, ax, bx, xa, xb, axb, bxa} form a
10-dimensional basis, so the algebra has 2^10 = 1024 elements.  Distinct
regular elements a and b share the same inner-inverse set here, which is
exactly the behavior the theorem checks are designed to catch on rings
that are not semiprime.

Every relation shortens a word, so the words containing no relation's
left side span the quotient of the free algebra, and there are exactly
the ten above.  The table below satisfies the relations (the build checks
them at load) and spells each basis word as the product of its letters,
so it is a 10-dimensional image of the quotient, hence the quotient
itself; tests/test_fixture.py::test_example_is_the_quotient_by_its_relations
checks the ten words and their products.
"""

from __future__ import annotations

import numpy as np

from .errors import WrongRing
from .rings import DEFAULT_BUDGET, TableRing, build_table_algebra

GENERATORS = ("a", "b", "x")

BASIS = ("1", "a", "b", "x", "ax", "bx", "xa", "xb", "axb", "bxa")

# Rewriting rules of the quotient: left word -> right word, None meaning zero.
RELATIONS = (
    (("a", "x", "a"), ("a",)),
    (("b", "x", "b"), ("b",)),
    (("x", "a", "x"), ("x",)),
    (("x", "b", "x"), ("x",)),
    (("a", "a"), None),
    (("b", "b"), None),
    (("a", "b"), None),
    (("b", "a"), None),
    (("x", "x"), None),
)

# PRODUCTS[i][j] = position of basis[i]·basis[j] in BASIS, -1 when zero.
PRODUCTS = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
    (1, -1, -1, 4, -1, -1, 1, 8, -1, -1),
    (2, -1, -1, 5, -1, -1, 9, 2, -1, -1),
    (3, 6, 7, -1, 3, 3, -1, -1, 7, 6),
    (4, 1, 8, -1, 4, 4, -1, -1, 8, 1),
    (5, 9, 2, -1, 5, 5, -1, -1, 2, 9),
    (6, -1, -1, 3, -1, -1, 6, 7, -1, -1),
    (7, -1, -1, 3, -1, -1, 6, 7, -1, -1),
    (8, -1, -1, 4, -1, -1, 1, 8, -1, -1),
    (9, -1, -1, 5, -1, -1, 9, 2, -1, -1),
)


def example_tensor() -> np.ndarray:
    dim = len(BASIS)
    tensor = np.zeros((dim, dim, dim), dtype=np.int64)
    for i in range(dim):
        for j in range(dim):
            k = PRODUCTS[i][j]
            if k >= 0:
                tensor[i, j, k] = 1
    return tensor


def build_example_ring(enumeration_budget: int = DEFAULT_BUDGET) -> TableRing:
    """Construct the fixture and re-validate all ten defining relations."""
    unity = (1,) + (0,) * (len(BASIS) - 1)
    ring = build_table_algebra(2, BASIS, unity, example_tensor(),
                               enumeration_budget=enumeration_budget)
    # RELATIONS and the unity laws 1·g = g = g·1 as words of three atoms,
    # short ones padded with the unity (build_table_algebra checked it)
    index = {**ring.generator_labels(), "1": ring.one().index}
    rules = RELATIONS + tuple((w, (g,)) for g in GENERATORS
                              for w in (("1", g), (g, "1")))
    words = np.array([[index[s] for s in (lhs + ("1",) * 3)[:3]]
                      for lhs, _ in rules]).T
    want = [0 if rhs is None else index[rhs[0]] for _, rhs in rules]
    got = ring.idx_mul(ring.idx_mul(words[0], words[1]), words[2])
    if not np.array_equal(got, want):
        raise WrongRing("embedded fixture table fails its defining relations")
    return ring


_CANONICAL = None


def is_example_ring(ring) -> bool:
    """Structural equality with the builtin fixture (budget ignored)."""
    global _CANONICAL
    if not isinstance(ring, TableRing):
        return False
    if _CANONICAL is None:
        _CANONICAL = build_example_ring()
    return ring == _CANONICAL


def looks_like_example_ring(ring) -> bool:
    """Same shape and labels as the fixture, whether or not the table matches."""
    return (isinstance(ring, TableRing) and ring.p == 2
            and ring.labels == BASIS)
