"""Ring constructors, element arithmetic, and structural scans."""

import random

import numpy as np
import pytest

from ginvlab import (BadTensorShape, BudgetExceeded, Elem, ElemSet,
                     InvalidModulus, NoUnity, NotAssociative, RingMismatch,
                     build_matrix_ring, build_table_algebra, build_zmod,
                     is_regular, is_semiprime, regular_elements, squarefree)
from ginvlab.rings import TABLE_CAP


def test_zmod_basics(z6):
    assert z6.size == 6
    assert z6.char == 6
    assert z6.one().index == 1
    assert z6.zero().index == 0


@pytest.mark.parametrize("bad", [1, 0, -3, "6", 2.5])
def test_zmod_rejects_bad_modulus(bad):
    with pytest.raises(InvalidModulus):
        build_zmod(bad)


@pytest.mark.parametrize("k,q", [(0, 2), (10, 2), (2, 4), (2, 1), ("2", 3)])
def test_matrix_ring_rejects_bad_shape(k, q):
    with pytest.raises(InvalidModulus):
        build_matrix_ring(k, q)


def test_zmod_arithmetic(z6):
    three, five = z6.from_index(3), z6.from_index(5)
    assert (three + five).index == 2
    assert (three - five).index == 4
    assert (three * five).index == 3
    assert (-z6.from_index(2)).index == 4


def test_cross_ring_operations_rejected(z4, z6):
    with pytest.raises(RingMismatch):
        z4.one() + z6.one()
    with pytest.raises(TypeError):
        z6.one() + 1


def test_matrix_ring_layout(m2gf2):
    # row-major mixed-radix index: identity is 1001 base 2
    assert m2gf2.size == 16
    assert m2gf2.one().index == 9
    labels = m2gf2.generator_labels()
    assert set(labels) == {"e11", "e12", "e21", "e22"}
    e11, e12 = (m2gf2.from_index(labels[g]) for g in ("e11", "e12"))
    assert (e11 * e12).index == labels["e12"]
    assert (e12 * e11).index == 0


def test_matrix_payload_roundtrip(m2gf3):
    rng = random.Random(0)
    for _ in range(25):
        i = rng.randrange(m2gf3.size)
        mat = m2gf3.payload_of_index(i)
        flat = [c for row in mat for c in row]
        assert len(flat) == 4 and all(0 <= c < 3 for c in flat)
        back = int(sum(c * p for c, p in zip(flat, m2gf3._powers)))
        assert back == i


def test_table_ring_gf2_bitmask_ops(example):
    # over GF(2) the canonical index is a bitmask, so + is xor
    rng = random.Random(1)
    for _ in range(50):
        i, j = rng.randrange(1024), rng.randrange(1024)
        assert int(example.idx_add(i, j)) == i ^ j
    a = example.generator_labels()["a"]
    assert a == 2 ** (10 - 1 - 1)


def test_table_algebra_rejects_bad_input():
    with pytest.raises(InvalidModulus):
        build_table_algebra(4, ["1", "t"], [1, 0], [])
    with pytest.raises(BadTensorShape):
        build_table_algebra(2, [], [], [])
    with pytest.raises(BadTensorShape):
        build_table_algebra(2, ["1", "1"], [1, 0], [])
    with pytest.raises(BadTensorShape):
        build_table_algebra(2, ["1", "t"], [1], [])
    with pytest.raises(BadTensorShape):
        build_table_algebra(2, ["1", "t"], [1, 0], [[0, 0, 1]])


def _unity_entries(dim):
    rows = [[0, j, j, 1] for j in range(dim)]
    rows += [[i, 0, i, 1] for i in range(1, dim)]
    return rows


def test_table_algebra_rejects_non_associative():
    # u*u = v, u*v = u makes (u*u)*u = 0 but u*(u*u) = u
    constants = _unity_entries(3) + [[1, 1, 2, 1], [1, 2, 1, 1]]
    with pytest.raises(NotAssociative):
        build_table_algebra(2, ["1", "u", "v"], [1, 0, 0], constants)


def test_table_algebra_rejects_missing_unity():
    with pytest.raises(NoUnity):
        build_table_algebra(2, ["1", "t"], [0, 1], _unity_entries(2))


def test_dual_numbers_table():
    ring = build_table_algebra(2, ["1", "t"], [1, 0], _unity_entries(2))
    assert ring.size == 4
    t = ring.from_index(ring.generator_labels()["t"])
    assert (t * t).index == 0
    verdict = is_semiprime(ring)
    assert not verdict.semiprime
    assert verdict.witness == t


def test_elemset_behavior(z6):
    s = ElemSet.from_indices(z6, [5, 1, 3, 3, 1])
    assert len(s) == 3
    assert list(e.index for e in s) == [1, 3, 5]
    assert z6.from_index(3) in s
    assert z6.from_index(2) not in s
    assert s == ElemSet.from_indices(z6, [1, 3, 5])
    assert s.issubset(ElemSet.from_indices(z6, range(6)))
    assert len(s.intersection(ElemSet.from_indices(z6, [0, 1, 2]))) == 1


def test_units(z6, m2gf2):
    idx, inv = z6.units()
    assert list(idx) == [1, 5]
    assert all(int(z6.idx_mul(i, j)) == 1 for i, j in zip(idx, inv))
    gl2, _ = m2gf2.units()
    assert len(gl2) == 6  # |GL2(GF(2))|
    assert z6.try_inverse(5) == 5
    assert z6.try_inverse(2) is None


def test_unit_indices_without_tables():
    big = build_zmod(100003)
    idx = big.unit_indices()
    assert len(idx) == 100002  # prime modulus: everything nonzero


def test_regular_elements(z4, z6, m2gf2):
    assert len(regular_elements(z6)) == 6
    assert list(regular_elements(z4).indices()) == [0, 1, 3]
    assert len(regular_elements(m2gf2)) == 16
    assert is_regular(z4.from_index(2)) is None
    witness = is_regular(z4.from_index(3))
    assert witness is not None
    three = z4.from_index(3)
    assert three * witness * three == three


def test_regular_elements_respects_table_cap():
    big = build_zmod(TABLE_CAP + 2)
    with pytest.raises(BudgetExceeded):
        regular_elements(big)


def test_raw_ops_match_modular_arithmetic_above_cap():
    big = build_zmod(TABLE_CAP + 2)
    n = big.size
    rng = random.Random(2)
    for _ in range(40):
        i, j = rng.randrange(n), rng.randrange(n)
        assert int(big.idx_mul(i, j)) == (i * j) % n
        assert int(big.idx_add(i, j)) == (i + j) % n
        assert int(big.idx_sub(i, j)) == (i - j) % n


def test_semiprime_verdicts(z4, z6, z30, m2gf2, example):
    assert is_semiprime(z6).semiprime
    assert is_semiprime(z30).semiprime
    assert is_semiprime(m2gf2).semiprime
    z4v = is_semiprime(z4)
    assert not z4v.semiprime and z4v.witness.index == 2
    exv = is_semiprime(example)
    assert not exv.semiprime
    w = exv.witness
    for g in example.additive_generator_indices():
        assert (w * example.from_index(int(g)) * w).index == 0


def test_semiprime_matches_squarefree_up_to_100():
    for n in range(2, 101):
        assert is_semiprime(build_zmod(n)).semiprime == squarefree(n), n


def test_squarefree_small_values():
    flags = [squarefree(n) for n in range(1, 13)]
    assert flags == [True, True, True, False, True, True,
                     True, False, False, True, True, False]


def test_elements_iterator_budget(z6):
    assert [e.index for e in z6.elements()] == list(range(6))
    big = build_zmod(5000)
    with pytest.raises(BudgetExceeded):
        list(big.elements(budget=100))


def test_descriptor_equality():
    assert build_zmod(6) == build_zmod(6)
    assert build_zmod(6) != build_zmod(30)
    assert hash(build_zmod(6)) == hash(build_zmod(6))


def test_vectorized_ops_match_scalar(z30):
    idx = z30.all_indices()
    rng = random.Random(3)
    for _ in range(10):
        i = rng.randrange(30)
        row = np.asarray(z30.idx_mul(i, idx))
        assert all(int(row[j]) == (i * j) % 30 for j in range(30))


def test_elemset_indices_are_read_only(z6):
    s = ElemSet.from_indices(z6, [1, 3, 5])
    with pytest.raises(ValueError):
        s.indices()[0] = 0
    assert s.indices() is s.idx


def test_elemset_membership(z6, z30):
    s = ElemSet.from_indices(z6, [1, 3])
    assert z6.from_index(3) in s and 1 in s
    assert 2 not in s
    assert 5 not in s  # past the last member
    assert z30.from_index(3) not in s  # same index, another ring


def test_elemset_equal_sets_hash_equal(z6):
    s = ElemSet.from_indices(z6, [1, 3, 5])
    t = ElemSet.from_indices(z6, np.asarray([5, 3, 5, 1, 1], dtype=np.uint16))
    assert s == t and hash(s) == hash(t)
    assert ElemSet.from_elems(z6, [z6.from_index(5), z6.from_index(1),
                                   z6.from_index(3)]) == s
    assert s != ElemSet.from_indices(z6, [1, 3])
    assert tuple(s.idx) == (1, 3, 5)
    assert [e.index for e in s] == [1, 3, 5]
