"""Exact linear algebra over GF(q) and the matrix inverse oracles."""

import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from ginvlab import BadTensorShape, gfmatrix
from ginvlab.gfmatrix import (inner_inverse_matrix, inner_set_equal_matrices,
                              inner_subset_matrices, membership, parse_matrix,
                              rank, render_matrix, row_reduce)
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
def test_inner_inverse_matrix_identities(q):
    rng = random.Random(50 + q)
    mats = [np.zeros((2, 2), dtype=np.int64), np.eye(2, dtype=np.int64)]
    mats += [_random_matrix(rng, rng.choice((2, 3)), q) for _ in range(30)]
    for a in mats:
        g = inner_inverse_matrix(a, q)
        assert np.array_equal((a @ g @ a) % q, a % q)
        assert np.array_equal((g @ a @ g) % q, g % q)


def test_inner_inverse_matrix_matches_golden():
    # tests/golden/ginverse.json maps rendered A to rendered G0 for every
    # matrix of M_2(GF(3)) and M_2(GF(5)) and a seeded list of M_3(GF(7))
    # matrices of every rank.  It pins which reflexive inner inverse is the
    # canonical one, which the identities test above cannot: it was written
    # by the construction G0 = F^-1 · diag(I_r, 0) · E^-1 from a rank
    # factorization A = E · diag(I_r, 0) · F
    golden = json.loads(
        (Path(__file__).parent / "golden" / "ginverse.json").read_text())
    assert sorted(golden) == ["M_2(GF(3))", "M_2(GF(5))", "M_3(GF(7))"]
    for name, table in golden.items():
        k, q = (int(v) for v in re.fullmatch(r"M_(\d)\(GF\((\d+)\)\)",
                                             name).groups())
        for a, g in table.items():
            got = inner_inverse_matrix(parse_matrix(a, k, q), q)
            assert render_matrix(got) == g, (name, a)


def test_e11_is_its_own_ginverse():
    e11 = parse_matrix("1,0;0,0", 2, 2)
    assert render_matrix(inner_inverse_matrix(e11, 2)) == "1,0;0,0"


def test_subset_and_equality_against_enumeration(m2gf2, m2gf3):
    """Every ordered pair of M_2(GF(2)) and of M_2(GF(3)) (6,561 pairs)."""
    for ring, q in ((m2gf2, 2), (m2gf3, 3)):
        isets = [set(inner_inverses(ring.from_index(i)).indices().tolist())
                 for i in range(ring.size)]
        mats = [np.reshape(ring.digits(i), (2, 2)) for i in range(ring.size)]
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                lib = inner_set_equal_matrices(a, b, q)
                assert lib == (isets[i] == isets[j]), (q, i, j)
                sub = inner_subset_matrices(a, b, q)
                assert sub == (isets[i] <= isets[j]), (q, i, j)


def test_oracles_eliminate_each_matrix_once(monkeypatch):
    """Subset: rank B, rank D and the two stackings of B and D.  Equality
    of A with itself passes both directions, which share rank D: 7.
    Membership reduces a once for its one G0."""
    calls = []
    plain = gfmatrix.row_reduce
    monkeypatch.setattr(gfmatrix, "row_reduce",
                        lambda A, q: calls.append(q) or plain(A, q))

    def eliminations(oracle, *args):
        calls.clear()
        oracle(*args)
        return len(calls)

    rng = random.Random(70)
    for _ in range(40):
        k, q = rng.choice(((2, 2), (2, 3), (3, 3), (3, 5)))
        a, b = _random_matrix(rng, k, q), _random_matrix(rng, k, q)
        assert eliminations(inner_subset_matrices, a, b, q) <= 4
        assert eliminations(inner_set_equal_matrices, a, a, q) == 7
        assert eliminations(membership, b, a, q) == 1


def test_membership_against_ideal_scans(m2gf3):
    ring = m2gf3
    rng = random.Random(60)
    pairs = [(rng.randrange(81), rng.randrange(81)) for _ in range(200)]
    for bi, ai in pairs:
        b = np.reshape(ring.digits(bi), (2, 2))
        a = np.reshape(ring.digits(ai), (2, 2))
        ar = principal_right_ideal(ring.from_index(ai))
        ra = principal_left_ideal(ring.from_index(ai))
        assert membership(b, a, 3) == (ring.from_index(bi) in ar,
                                       ring.from_index(bi) in ra)
