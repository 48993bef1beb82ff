import numpy as np
import pytest

from ginvlab import (build_example_ring, build_matrix_ring, build_table_algebra,
                     build_zmod, ginv)


def squarefree(n: int) -> bool:
    """Exact integer-factorization check, used to cross-check is_semiprime."""
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True


def truncated_polynomials(p, dim):
    """GF(p)[t]/(t^dim) on the basis 1, t, ..., t^(dim-1)."""
    basis = ["1"] + [f"t{k}" for k in range(1, dim)]
    constants = [[i, j, i + j, 1] for i in range(dim) for j in range(dim - i)]
    return build_table_algebra(p, basis, [1] + [0] * (dim - 1), constants)


@pytest.fixture(scope="session")
def z4():
    return build_zmod(4)


@pytest.fixture(scope="session")
def z6():
    return build_zmod(6)


@pytest.fixture(scope="session")
def z30():
    return build_zmod(30)


@pytest.fixture(scope="session")
def m2gf2():
    return build_matrix_ring(2, 2)


@pytest.fixture(scope="session")
def m2gf3():
    return build_matrix_ring(2, 3)


@pytest.fixture(scope="session")
def example():
    return build_example_ring()


@pytest.fixture(scope="session")
def gf3t3():
    return truncated_polynomials(3, 3)  # an odd-p table algebra


# ---------------------------------------------------------------------------
# Per-element forms of the four witness kernels, kept as the references the
# pair-array kernels of ginvlab.ginv are checked against.  Each takes one
# element a (an Elem) and witnesses of it, groups them by frame itself and
# counts everything it needs itself.


def _element_frames(a, a0s):
    """(f, e, of): the frames (a0*a, a*a0) of the witnesses of a, sorted,
    and the frame of each witness."""
    ring = a.ring
    a0s = np.asarray(a0s, dtype=np.int64)
    f, e = ring.idx_mul(a0s, a.index), ring.idx_mul(a.index, a0s)
    _, first, of = np.unique(f * ring.size + e, return_index=True,
                             return_inverse=True)
    return f[first], e[first], of.reshape(-1)


def param_per_element(a, a0s):
    """Per witness, whether |R| = |I(a)| * |{t : f*t*e = t}| and
    a*(g - f*g*e)*a = 0 on the additive generators g."""
    ring = a.ring
    idx = ring.all_indices()
    axa = ring.idx_mul(ring.idx_mul(a.index, idx), a.index)
    inner = int(np.count_nonzero(axa == a.index))
    f, e, of = _element_frames(a, a0s)
    f, e = f[:, None], e[:, None]
    gens = ring.additive_generator_indices()[None, :]
    base = ring.idx_sub(gens, ring.idx_mul(ring.idx_mul(f, gens), e))
    inside = (ring.idx_mul(ring.idx_mul(a.index, base), a.index)
              == 0).all(axis=1)
    fte = ring.idx_mul(ring.idx_mul(f, idx[None, :]), e)
    fixed = np.count_nonzero(fte == idx, axis=1)
    return (inside & (fixed * inner == ring.size))[of]


def iann_per_element(a, a0s):
    """(ann_mismatch, frame_ok, translate_ok): Iann(a) = l(a) + r(a) (None
    or the first element of a difference), and per witness
    Iann(a) = R*e_c + f_c*R and I(a) = a0 + Iann(a)."""
    ring = a.ring
    idx = ring.all_indices()
    ax = ring.idx_mul(a.index, idx)
    axa = ring.idx_mul(ax, a.index)
    iann = axa == 0
    left = ring.idx_mul(idx, a.index) == 0
    right = ax == 0
    mismatch = None
    if not ginv._sums_to(left, right, iann):
        mismatch = ginv._first_difference(ginv._pairwise(
            ring, ring.idx_add, idx[left], idx[right]), idx[iann])
    f, e, of = _element_frames(a, a0s)
    one = ring.one().index
    ok = ginv._sums_to(
        ginv.principal_ideal_rows(ring, "left", ring.idx_sub(one, e)),
        ginv.principal_ideal_rows(ring, "right", ring.idx_sub(one, f)), iann)
    translate = np.count_nonzero(iann) == np.count_nonzero(axa == a.index)
    return mismatch, ok[of], np.full(len(of), translate)


def ref_rows_per_element(a, a0s):
    """Per witness a0, the membership row of the family
    {(f + w)*a0*(e + v) : w in r(a)*a, v in a*l(a)}."""
    ring = a.ring
    idx = ring.all_indices()
    a0s = np.asarray(a0s, dtype=np.int64)
    w = np.unique(ring.idx_mul(idx[ring.idx_mul(a.index, idx) == 0],
                               a.index))[None, :, None]
    v = np.unique(ring.idx_mul(a.index, idx[ring.idx_mul(idx, a.index)
                                            == 0]))[None, None, :]
    f = ring.idx_mul(a0s, a.index)[:, None, None]
    e = ring.idx_mul(a.index, a0s)[:, None, None]
    heads = ring.idx_mul(ring.idx_add(f, w), a0s[:, None, None])
    prods = ring.idx_mul(heads, ring.idx_add(e, v)).reshape(len(a0s),
                                                            w.size * v.size)
    rows = np.zeros((len(a0s), ring.size), dtype=bool)
    rows[np.arange(len(a0s))[:, None], prods] = True
    return rows


def singleton_per_element(bs, a, a0):
    """Per b in bs, whether b*(g - f*g*e)*b = 0 on every additive
    generator g, with f and e the frame of the witness a0."""
    ring = a.ring
    f, e = ring.idx_mul(a0, a.index), ring.idx_mul(a.index, a0)
    gens = ring.additive_generator_indices()
    diff = ring.idx_sub(gens, ring.idx_mul(ring.idx_mul(f, gens), e))
    bs = np.asarray(bs, dtype=np.int64)[:, None]
    return (ring.idx_mul(ring.idx_mul(bs, diff[None, :]), bs) == 0).all(axis=1)
