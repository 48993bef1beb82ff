"""The builtin ten-dimensional example algebra and its headline facts."""

import numpy as np
import pytest

from ginvlab import build_table_algebra, fixture
from ginvlab.fixture import (BASIS, GENERATORS, PRODUCTS, build_example_ring,
                             example_tensor, is_example_ring,
                             looks_like_example_ring)
from ginvlab.ginv import (additive_span, inner_inverses, left_annihilator,
                          reflexive_inverses, right_annihilator)


@pytest.fixture(scope="module")
def gens(example):
    g = example.generator_labels()
    return {k: example.from_index(v) for k, v in g.items()}


def test_shape(example):
    assert example.size == 2 ** 10
    assert example.char == 2
    assert example.labels == BASIS


def test_defining_relations(example, gens):
    a, b, x = gens["a"], gens["b"], gens["x"]
    zero = example.zero()
    assert a * x * a == a
    assert b * x * b == b
    assert x * a * x == x
    assert x * b * x == x
    assert a * a == zero
    assert b * b == zero
    assert a * b == zero
    assert b * a == zero
    assert x * x == zero


def _irreducible_words(relations, cap=64):
    """The words in GENERATORS with no relation's left side inside them,
    level by level.  Appending a letter to an irreducible word creates new
    subwords only as suffixes, so only suffixes are tested."""
    lhs = {left for left, _ in relations}
    longest = max(map(len, lhs))
    words = level = [()]
    while level:
        level = [w + (g,) for w in level for g in GENERATORS
                 if not any((w + (g,))[-k:] in lhs
                            for k in range(1, longest + 1))]
        words = words + level
        assert len(words) <= cap, f"more than {cap} irreducible words"
    return words


def _assert_relations_hold(ring):
    """RELATIONS and the unity laws 1·g = g = g·1, each word multiplied
    out letter by letter in ring."""
    index = {**ring.generator_labels(), "1": ring.one().index}
    rules = fixture.RELATIONS + tuple((w, (g,)) for g in GENERATORS
                                      for w in (("1", g), (g, "1")))
    for lhs, rhs in rules:
        product = ring.one()
        for g in lhs:
            product = product * ring.from_index(index[g])
        assert product.index == (0 if rhs is None else index[rhs[0]]), lhs


def test_table_satisfies_its_relations(example):
    _assert_relations_hold(example)


def test_example_is_the_quotient_by_its_relations(example):
    # Every relation shortens a word, so the irreducible words span the
    # quotient A of the free algebra by RELATIONS, and dim A <= their
    # number, 10.  The table satisfies the relations (checked by
    # test_table_satisfies_its_relations), so it is an image of A; each
    # basis word being the product its letters spell makes the image
    # 10-dimensional, so the table is A.
    assert all(rhs is None or len(rhs) < len(lhs)
               for lhs, rhs in fixture.RELATIONS)
    words = _irreducible_words(fixture.RELATIONS)
    assert tuple("".join(w) or "1" for w in words) == fixture.BASIS
    gens = example.generator_labels()
    for w, want in zip(words, example.additive_generator_indices().tolist()):
        product = example.one()
        for g in w:
            product = product * example.from_index(gens[g])
        assert product.index == want, w


def test_without_ba_the_quotient_is_infinite():
    smaller = tuple(r for r in fixture.RELATIONS if r[0] != ("b", "a"))
    with pytest.raises(AssertionError, match="irreducible words"):
        _irreducible_words(smaller)


def test_products_table_identity_row(example):
    assert PRODUCTS[0] == tuple(range(10))
    assert tuple(row[0] for row in PRODUCTS) == tuple(range(10))
    tensor = example_tensor()
    assert tensor.shape == (10, 10, 10)
    for i in range(10):
        for j in range(10):
            k = PRODUCTS[i][j]
            col = tensor[i, j]
            if k < 0:
                assert not col.any()
            else:
                assert col[k] == 1 and col.sum() == 1


def test_recognizers(example, z6):
    assert is_example_ring(example)
    assert looks_like_example_ring(example)
    assert not looks_like_example_ring(z6)
    assert not is_example_ring(z6)


def _zero_products_lookalike():
    """Same labels, but every non-unity product vanishes."""
    rows = [[0, j, j, 1] for j in range(10)]
    rows += [[i, 0, i, 1] for i in range(1, 10)]
    return build_table_algebra(2, list(BASIS), [1] + [0] * 9, rows)


def test_lookalike_is_not_the_example_ring():
    fake = _zero_products_lookalike()
    assert looks_like_example_ring(fake)
    assert not is_example_ring(fake)


def test_inner_sets_coincide_and_have_512_members(example, gens):
    ia = inner_inverses(gens["a"])
    ib = inner_inverses(gens["b"])
    assert len(ia) == 512
    assert ia == ib


def test_reflexive_sets_coincide_and_have_16_members(example, gens):
    ra = reflexive_inverses(gens["a"])
    rb = reflexive_inverses(gens["b"])
    assert len(ra) == 16
    assert ra == rb
    assert gens["x"] in ra


def test_reflexive_set_is_larger_than_x_alone(example, gens):
    # x + ax is a second reflexive inverse, by the defining relations alone
    a, x = gens["a"], gens["x"]
    y = x + a * x
    assert y != x
    assert a * y * a == a
    assert y * a * y == y
    assert y in reflexive_inverses(a)


def test_one_sided_annihilators_differ_in_the_unital_ring(example, gens):
    a, b = gens["a"], gens["b"]
    sep = example.one() + gens["xa"]
    assert a * sep == example.zero()
    assert b * sep != example.zero()
    assert sep in right_annihilator(a)
    assert sep not in right_annihilator(b)
    lsep = example.one() + gens["ax"]
    assert lsep in left_annihilator(a)
    assert lsep not in left_annihilator(b)


def test_annihilator_spans_inside_the_word_subalgebra(example, gens):
    sub9 = additive_span(example, [gens[w] for w in
                                   ("a", "b", "x", "ax", "bx", "xa", "xb",
                                    "axb", "bxa")])
    span_r = additive_span(example, [gens[w] for w in
                                     ("a", "b", "ax", "bx", "axb", "bxa")])
    span_l = additive_span(example, [gens[w] for w in
                                     ("a", "b", "xa", "xb", "axb", "bxa")])
    assert len(sub9) == 512 and len(span_r) == 64 and len(span_l) == 64
    for g in ("a", "b"):
        for kernel, span in ((right_annihilator, span_r),
                             (left_annihilator, span_l)):
            part = np.intersect1d(kernel(gens[g]).indices(), sub9.indices())
            assert np.array_equal(part, span.indices())


def test_generator_a_is_not_a_nilpotency_witness(example, gens):
    # a*(xa) = a, so (RaR)^2 contains a and cannot vanish
    a = gens["a"]
    assert a * gens["xa"] == a
    assert a in additive_span(example, [a * r * a for r in
                                        (example.one(), gens["x"])])


def test_build_revalidates_the_defining_relations(monkeypatch):
    # an associative lookalike table that breaks a*x*a = a builds, since
    # it is a ring, but fails the relation check
    zeroed = tuple(
        tuple(j if i == 0 else (i if j == 0 else -1) for j in range(10))
        for i in range(10))
    monkeypatch.setattr(fixture, "PRODUCTS", zeroed)
    with pytest.raises(AssertionError, match="'a', 'x', 'a'"):
        _assert_relations_hold(build_example_ring())
