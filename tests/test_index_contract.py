"""The index contract of Ring: every idx_* result is int64.

idx_mul, idx_add, idx_neg and idx_sub take operands of any integer dtype
(Python ints, 0-d arrays, int64 and uint16 arrays) and return int64 of
the operands' broadcast shape, on every backend, with or without op
tables (the `-tables` cases call build_tables()).
Results are compared with Python-int arithmetic on the decoded digits.
mul_rows(a, side) gives the whole-ring rows a*R or R*a, equal to the
broadcast idx_mul, as fresh int64 arrays within the enumeration budget.
"""

import random

import numpy as np
import pytest

from ginvlab import (BudgetExceeded, build_example_ring, build_matrix_ring,
                     build_zmod)

from conftest import truncated_polynomials

RINGS = {
    "z30": lambda: build_zmod(30),
    "m2gf3": lambda: build_matrix_ring(2, 3),
    "example10": build_example_ring,  # GF(2) table algebra
    "gf3t4": lambda: truncated_polynomials(3, 4),  # odd-p table algebra
    "z5005": lambda: build_zmod(5005),  # above TABLE_CAP
    "gf2t13": lambda: truncated_polynomials(2, 13),  # above TABLE_CAP
}
TABLED = ("z30", "m2gf3", "example10", "gf3t4")
CASES = ([(name, True) for name in TABLED]
         + [(name, False) for name in RINGS])


def _digits(ring, i):
    """The digits of index i (the residue, for Z/n) as Python ints."""
    if ring.kind == "zmod":
        return [i]
    return [i // ring.char ** (ring.dim - 1 - m) % ring.char
            for m in range(ring.dim)]


def _encode(ring, digits):
    acc = 0
    for d in digits:
        acc = acc * ring.char + d % ring.char
    return acc


def _ref_mul(ring, i, j):
    if ring.kind == "zmod":
        return i * j % ring.n
    x, y = _digits(ring, i), _digits(ring, j)
    if ring.kind == "matrix":
        k = ring.k
        return _encode(ring, [sum(x[r * k + m] * y[m * k + c] for m in range(k))
                              for r in range(k) for c in range(k)])
    digits = [0] * ring.dim
    for a, b, o in zip(*np.nonzero(ring.tensor)):
        digits[o] += x[a] * y[b] * int(ring.tensor[a, b, o])
    return _encode(ring, digits)


def _ref_add(ring, i, j):
    if ring.kind == "zmod":
        return (i + j) % ring.n
    return _encode(ring, [a + b for a, b in zip(_digits(ring, i),
                                                _digits(ring, j))])


def _ref_neg(ring, i):
    if ring.kind == "zmod":
        return -i % ring.n
    return _encode(ring, [-a for a in _digits(ring, i)])


def _operands(size):
    """(I, J) pairs: Python ints, 0-d arrays, int64, uint16 and 2-D arrays,
    always including the largest indices, where uint16 products wrap.

    Up to 1024 elements they include the shapes of the kernels' whole-ring
    rows: a (2, |R|) block times a (2, 1) column and the reverse, which a
    key I*|R| + J with I and J swapped gets wrong on a noncommutative ring.
    """
    rng = random.Random(size)
    top = [size - 1, size - 5]
    vals = top + [rng.randrange(size) for _ in range(10)]
    col = np.asarray(vals[:6], dtype=np.int64)[:, None]
    if size <= 1024:
        block = np.arange(size)[::-1] * np.ones((2, 1), dtype=np.int64)
        pair = np.asarray(vals[:2], dtype=np.uint16)[:, None]
        rows = [(block, pair), (pair, block)]
    else:
        rows = []
    return rows + [
        (size - 5, size - 5),
        (np.asarray(size - 1), np.asarray(size - 5)),
        (size - 1, np.asarray(vals, dtype=np.int64)),
        (np.asarray(vals, dtype=np.int64), np.asarray(vals[::-1])),
        (np.asarray(vals, dtype=np.uint16), np.asarray(vals, dtype=np.uint16)),
        (np.asarray(vals, dtype=np.uint16), size - 1),
        (col, np.asarray(vals[6:], dtype=np.uint16)[None, :]),
        (col.astype(np.uint16), col.T),
    ]


def _assert_int64(got, want, shape):
    assert isinstance(got, (np.ndarray, np.integer)), type(got)
    assert got.dtype == np.int64
    assert np.shape(got) == shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name,tables", CASES,
                         ids=[f"{n}-{'tables' if t else 'raw'}"
                              for n, t in CASES])
def test_idx_ops_return_int64_of_the_broadcast_shape(name, tables):
    ring = RINGS[name]()
    if tables:
        ring.build_tables()
    assert (ring._mul_table is not None) == tables
    for I, J in _operands(ring.size):
        shape = np.broadcast_shapes(np.shape(I), np.shape(J))
        Ib, Jb = (np.broadcast_to(np.asarray(v, dtype=np.int64), shape)
                  for v in (I, J))
        pairs = list(zip(Ib.reshape(-1).tolist(), Jb.reshape(-1).tolist()))
        for op, ref in ((ring.idx_mul, _ref_mul), (ring.idx_add, _ref_add),
                        (ring.idx_sub, lambda r, i, j:
                         _ref_add(r, i, _ref_neg(r, j)))):
            want = np.asarray([ref(ring, i, j) for i, j in pairs],
                              dtype=np.int64).reshape(shape)
            _assert_int64(op(I, J), want, shape)
        neg = ring.idx_neg(I)
        want = np.asarray([_ref_neg(ring, i) for i in
                           np.asarray(I, dtype=np.int64).reshape(-1).tolist()],
                          dtype=np.int64).reshape(np.shape(I))
        _assert_int64(neg, want, np.shape(I))
        if isinstance(I, np.ndarray):
            assert not np.may_share_memory(neg, I)


def test_op_tables_stay_uint16():
    for name in TABLED:
        ring = RINGS[name]()
        ring.build_tables()
        assert ring._mul_table.dtype == np.uint16



@pytest.mark.parametrize("name,tables", CASES,
                         ids=[f"{n}-{'tables' if t else 'raw'}"
                              for n, t in CASES])
def test_mul_rows_are_fresh_int64_rows_of_the_broadcast_idx_mul(name, tables):
    ring = RINGS[name]()
    if tables:
        ring.build_tables()
    idx = ring.all_indices()
    a = np.asarray([ring.size - 1, 0, ring.size // 3, ring.size - 1],
                   dtype=np.uint16)
    for side, want in (("right", ring.idx_mul(a[:, None], idx[None, :])),
                       ("left", ring.idx_mul(idx[None, :], a[:, None]))):
        got = ring.mul_rows(a, side)
        _assert_int64(got, want, (len(a), ring.size))
        assert got.flags.c_contiguous
        assert not np.may_share_memory(got, ring._mul_table)
        assert ring.mul_rows(a[:0], side).shape == (0, ring.size)
    ring.enumeration_budget = ring.size - 1
    for side in ("right", "left"):
        with pytest.raises(BudgetExceeded):
            ring.mul_rows(a[:1], side)
