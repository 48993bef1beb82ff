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
the ten above.  The table below satisfies the relations and spells each
basis word as the product of its letters, so it is a 10-dimensional
image of the quotient, hence the quotient itself.  tests/test_fixture.py
checks the relations (test_table_satisfies_its_relations), the ten words
and their products (test_example_is_the_quotient_by_its_relations).
"""

from __future__ import annotations

import numpy as np

from .rings import DEFAULT_BUDGET, TableRing, build_table_algebra

GENERATORS = ("a", "b", "x")

BASIS = ("1", "a", "b", "x", "ax", "bx", "xa", "xb", "axb", "bxa")

UNITY = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)

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
    """The fixture, checked for associativity and unity like any spec."""
    return build_table_algebra(2, BASIS, UNITY, example_tensor(),
                               enumeration_budget=enumeration_budget)


def is_example_ring(ring) -> bool:
    """Structural equality with the builtin fixture (budget ignored)."""
    return (isinstance(ring, TableRing)
            and ring == TableRing(2, BASIS, UNITY, example_tensor()))


def looks_like_example_ring(ring) -> bool:
    """Same shape and labels as the fixture, whether or not the table matches."""
    return (isinstance(ring, TableRing) and ring.p == 2
            and ring.labels == BASIS)
