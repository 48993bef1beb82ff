"""Exact linear algebra over GF(q) and the matrix inverse oracles."""

import random

import numpy as np
import pytest

from ginvlab import BadTensorShape
from ginvlab.gfmatrix import (inner_inverse_matrix, inner_set_equal_matrices,
                              inner_subset_matrices, invert, membership_Ra,
                              membership_aR, parse_matrix, rank,
                              rank_factorization, render_matrix, row_reduce)
from ginvlab.ginv import inner_inverses, principal_left_ideal, principal_right_ideal


def _random_matrix(rng, k, q):
    return np.asarray([[rng.randrange(q) for _ in range(k)] for _ in range(k)],
                      dtype=np.int64)


def test_parse_and_render():
    a = parse_matrix("1,0;0,0", 2, 2)
    assert np.array_equal(a, [[1, 0], [0, 0]])
    assert render_matrix(a) == "1,0;0,0"
    b = parse_matrix("2,1;0,2", 2, 3)
    assert render_matrix(b) == "2,1;0,2"


@pytest.mark.parametrize("bad", ["1,0", "1,0;0", "1,0;0,0;0,0", "1,x;0,0"])
def test_parse_matrix_rejects_malformed(bad):
    with pytest.raises(BadTensorShape):
        parse_matrix(bad, 2, 2)


def test_entries_reduced_mod_q():
    a = parse_matrix("3,4;5,6", 2, 3)
    assert np.array_equal(a, [[0, 1], [2, 0]])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_row_reduce_properties(q):
    rng = random.Random(10 + q)
    for _ in range(30):
        k = rng.choice((1, 2, 3, 4))
        a = _random_matrix(rng, k, q)
        rref, trans, pivots = row_reduce(a, q)
        assert np.array_equal((trans @ a) % q, rref)
        assert rank(a, q) == len(pivots)
        for r, c in enumerate(pivots):
            col = rref[:, c]
            assert col[r] == 1 and col.sum() == 1


@pytest.mark.parametrize("q", [2, 3, 5])
def test_invert_round_trip(q):
    rng = random.Random(20 + q)
    eye = np.eye(3, dtype=np.int64)
    found = 0
    while found < 10:
        a = _random_matrix(rng, 3, q)
        inv = invert(a, q)
        if inv is None:
            assert rank(a, q) < 3
            continue
        found += 1
        assert np.array_equal((a @ inv) % q, eye)
        assert np.array_equal((inv @ a) % q, eye)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_rank_factorization_reconstructs(q):
    rng = random.Random(40 + q)
    for _ in range(30):
        k = rng.choice((1, 2, 3, 4))
        a = _random_matrix(rng, k, q)
        fact = rank_factorization(a, q)
        assert fact.r == rank(a, q)
        assert np.array_equal(fact.reconstruct(), a % q)
        eye = np.eye(k, dtype=np.int64)
        assert np.array_equal((fact.E @ fact.E_inv) % q, eye)
        assert np.array_equal((fact.F_inv @ fact.F) % q, eye)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_inner_inverse_matrix_identities(q):
    rng = random.Random(50 + q)
    mats = [np.zeros((2, 2), dtype=np.int64), np.eye(2, dtype=np.int64)]
    mats += [_random_matrix(rng, rng.choice((2, 3)), q) for _ in range(30)]
    for a in mats:
        g = inner_inverse_matrix(a, q)
        assert np.array_equal((a @ g @ a) % q, a % q)
        assert np.array_equal((g @ a @ g) % q, g % q)


def test_e11_is_its_own_ginverse():
    e11 = parse_matrix("1,0;0,0", 2, 2)
    assert render_matrix(inner_inverse_matrix(e11, 2)) == "1,0;0,0"


def test_subset_and_equality_against_enumeration(m2gf2):
    ring = m2gf2
    isets = {}
    for i in range(16):
        isets[i] = tuple(inner_inverses(ring.from_index(i)).idx)
    for i in range(16):
        a = ring.payload_of_index(i)
        a = np.asarray(a)
        for j in range(16):
            b = np.asarray(ring.payload_of_index(j))
            lib = inner_set_equal_matrices(a, b, 2)
            assert lib == (isets[i] == isets[j]), (i, j)
            sub = inner_subset_matrices(a, b, 2)
            brute = set(isets[i]) <= set(isets[j])
            assert sub == brute, (i, j)


def test_membership_against_ideal_scans(m2gf3):
    ring = m2gf3
    rng = random.Random(60)
    pairs = [(rng.randrange(81), rng.randrange(81)) for _ in range(200)]
    for bi, ai in pairs:
        b = np.asarray(ring.payload_of_index(bi))
        a = np.asarray(ring.payload_of_index(ai))
        ar = principal_right_ideal(ring.from_index(ai))
        ra = principal_left_ideal(ring.from_index(ai))
        assert membership_aR(b, a, 3) == (ring.from_index(bi) in ar)
        assert membership_Ra(b, a, 3) == (ring.from_index(bi) in ra)
