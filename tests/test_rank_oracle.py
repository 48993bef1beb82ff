"""Set sizes read off the structure constants, against enumeration.

For an element a of a d-dimensional algebra over GF(p), with digit
vector u, let L_a and R_a be the matrices of x -> a*x and x -> x*a, and
M = L_a*R_a that of x -> a*x*a.  Then

- a is regular iff rank [M | u] = rank M, and then |I(a)| = p^(d - rank M);
- |Ref(a)| = p^(rank [M ; R_a] + rank [M ; L_a] - 2*rank M), since
  z -> (z*a, a*z) maps Ref(a) onto I(a)*a x a*I(a);
- |aR| = p^rank L_a and |Ra| = p^rank R_a;
- |r(a)| = p^(d - rank L_a) and |l(a)| = p^(d - rank R_a);
- a is a unit iff rank L_a = d.

None of this needs the ring to be semiprime.  The matrices come from
ring.tensor with numpy and every rank from gfmatrix.rank, so the oracle
shares no kernel with ginv or the rings' arithmetic.  At about 1 ms a
rank, the larger rings are checked on a fixed index stride.
"""

import numpy as np
import pytest

from ginvlab import (TABLE_CAP, build_example_ring, build_matrix_ring,
                     gfmatrix, ginv)

from conftest import _scrambled_algebra, truncated_polynomials

# name -> (ring constructor, index stride)
STRIDED = {
    "example10": (build_example_ring, 1),
    "scrambled4": (lambda: _scrambled_algebra(4, seed=4), 1),
    "scrambled6": (lambda: _scrambled_algebra(6, seed=6), 1),
    "scrambled8": (lambda: _scrambled_algebra(8, seed=8), 1),
    "gf2t13": (lambda: truncated_polynomials(2, 13), 127),  # above TABLE_CAP
    "m3gf3": (lambda: build_matrix_ring(3, 3), 401),  # above TABLE_CAP
}


def _rank_counts(ring, a):
    """(|I(a)|, |Ref(a)|, |aR|, |Ra|, |r(a)|, |l(a)|, unit) from ranks."""
    p, d = ring.p, ring.dim
    u = np.asarray([a // p ** (d - 1 - m) % p for m in range(d)],
                   dtype=np.int64)
    left = np.einsum("i,ijk->kj", u, ring.tensor) % p  # L_a @ x = a*x
    right = np.einsum("j,ijk->ki", u, ring.tensor) % p  # R_a @ x = x*a
    both = left @ right % p

    def rank(*blocks, axis=0):
        return gfmatrix.rank(np.concatenate(blocks, axis=axis), p)

    rm, rl, rr = rank(both), rank(left), rank(right)
    regular = rank(both, u[:, None], axis=1) == rm
    inner = p ** (d - rm) if regular else 0
    ref = (p ** (rank(both, right) + rank(both, left) - 2 * rm)
           if regular else 0)
    return inner, ref, p ** rl, p ** rr, p ** (d - rl), p ** (d - rr), rl == d


def _enumerated_counts(ring, idx):
    """The same tuples, per index, from the enumerating kernels."""
    k, _ = ginv.inner_inverse_pairs(ring, idx)
    inner = np.bincount(k, minlength=len(idx))
    aR, Ra = (ginv.principal_ideal_rows(ring, side, idx).sum(axis=1)
              for side in ("right", "left"))
    units = (np.isin(idx, ring.unit_indices()) if ring.size <= TABLE_CAP
             else [None] * len(idx))
    counts = []
    for j, a in enumerate(map(ring.from_index, idx.tolist())):
        counts.append((int(inner[j]), len(ginv.reflexive_inverses(a)),
                       int(aR[j]), int(Ra[j]),
                       len(ginv.right_annihilator(a)),
                       len(ginv.left_annihilator(a)), units[j]))
    return counts


def _assert_ranks_count_every_set(ring, stride):
    idx = ring.all_indices()[::stride]
    want = [_rank_counts(ring, a) for a in idx.tolist()]
    if ring.size > TABLE_CAP:  # unit_indices refuses these rings
        want = [w[:-1] + (None,) for w in want]
    got = _enumerated_counts(ring, idx)
    for a, w, g in zip(idx.tolist(), want, got):
        assert g == w, f"index {a}"


@pytest.mark.parametrize("name", sorted(STRIDED))
def test_ranks_count_every_set(name):
    build, stride = STRIDED[name]
    _assert_ranks_count_every_set(build(), stride)


def test_a_dropped_inner_pair_is_caught(monkeypatch):
    plain = ginv.inner_inverse_pairs

    def dropped(ring, a):
        k, x = plain(ring, a)
        return k[:-1], x[:-1]

    monkeypatch.setattr(ginv, "inner_inverse_pairs", dropped)
    with pytest.raises(AssertionError):
        _assert_ranks_count_every_set(_scrambled_algebra(4, seed=4), 1)
