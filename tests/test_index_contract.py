"""The index contract of Ring: every idx_* result is int64.

idx_mul, idx_add, idx_neg and idx_sub take operands of any integer dtype
(Python ints, 0-d arrays, int64 and uint16 arrays) and return int64 of
the operands' broadcast shape, on every backend, with or without op
tables.  Results are compared with Python-int arithmetic on the decoded
payloads.
"""

import random

import numpy as np
import pytest

from ginvlab import build_example_ring, build_matrix_ring, build_zmod, rings

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
    """The payload of index i as a flat list of Python ints."""
    if ring.kind == "zmod":
        return [i]
    count = ring.k ** 2 if ring.kind == "matrix" else ring.dim
    return [i // ring.char ** (count - 1 - m) % ring.char
            for m in range(count)]


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
    c = ring.tensor.tolist()
    dim = ring.dim
    return _encode(ring, [sum(x[a] * y[b] * c[a][b][o] for a in range(dim)
                              for b in range(dim)) for o in range(dim)])


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
    always including the largest indices, where uint16 products wrap."""
    rng = random.Random(size)
    top = [size - 1, size - 5]
    vals = top + [rng.randrange(size) for _ in range(10)]
    col = np.asarray(vals[:6], dtype=np.int64)[:, None]
    return [
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
def test_idx_ops_return_int64_of_the_broadcast_shape(name, tables,
                                                     monkeypatch):
    ring = RINGS[name]()
    if not tables:
        monkeypatch.setattr(rings, "TABLE_CAP", 0)
    assert ring.has_tables() == tables
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
        assert all(t.dtype == np.uint16 for t in RINGS[name]()._tables())

