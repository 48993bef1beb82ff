"""Inverse sets and annihilators checked against brute-force scans."""

import math
import random

import numpy as np
import pytest

from ginvlab import (BudgetExceeded, ElemSet, NotInnerInverse,
                     NotReflexiveInverse, RingMismatch, ZmodRing,
                     additive_span, build_matrix_ring, build_table_algebra,
                     build_zmod, iann_decomposition_batch, idempotent_frames,
                     inner_annihilator, inner_inverses,
                     inner_inverses_param_batch, is_regular,
                     left_annihilator, outer_inverses, parse_element,
                     principal_ideal_rows, principal_left_ideal,
                     principal_right_ideal, ref_decomposition,
                     reflexive_inverses, right_annihilator,
                     singleton_conjugate_batch)
from ginvlab import gfmatrix, ginv, rings, theoremlab

from conftest import (_pairwise, iann_per_element, inner_products,
                      param_per_element, ref_rows_per_element,
                      singleton_per_element, sumset)


def _brute(n, a):
    """All six sets for a in Z/n, computed with plain integer arithmetic."""
    inner = {x for x in range(n) if (a * x * a) % n == a % n}
    outer = {x for x in range(n) if (x * a * x) % n == x}
    iann = {x for x in range(n) if (a * x * a) % n == 0}
    left = {x for x in range(n) if (x * a) % n == 0}
    right = {x for x in range(n) if (a * x) % n == 0}
    return inner, outer, inner & outer, iann, left, right


@pytest.mark.parametrize("n", [4, 6, 30, 5005])
def test_sets_match_bruteforce(n):
    ring = ZmodRing(n)
    # every element up to TABLE_CAP; a seeded handful above it
    values = (range(n) if n <= rings.TABLE_CAP
              else random.Random(n).sample(range(n), 6))
    for v in values:
        a = ring.from_index(v)
        inner, outer, refl, iann, left, right = _brute(n, v)
        assert set(inner_inverses(a).indices().tolist()) == inner
        assert set(outer_inverses(a).indices().tolist()) == outer
        assert set(reflexive_inverses(a).indices().tolist()) == refl
        assert set(inner_annihilator(a).indices().tolist()) == iann
        assert set(left_annihilator(a).indices().tolist()) == left
        assert set(right_annihilator(a).indices().tolist()) == right


def _inverse_counts(ring, a):
    """|I(a_k)| and |Ref(a_k)| for every index a_k of the array a, off one
    inner_inverse_pairs scan: Ref(a_k) is the x in I(a_k) with x·a_k·x = x."""
    pos, xs = ginv.inner_inverse_pairs(ring, a)
    refl = ring.idx_mul(ring.idx_mul(xs, a[pos]), xs) == xs
    return (np.bincount(pos, minlength=len(a)),
            np.bincount(pos[refl], minlength=len(a)))


@pytest.mark.parametrize("k,q", [(2, 2), (2, 3), (3, 2), (2, 5), (3, 3)])
def test_matrix_counts_match_the_rank_closed_forms(k, q):
    """In M_k(GF(q)) an element of rank r has |I(a)| = q^(k^2 - r^2) and
    |Ref(a)| = q^(2r(k - r)); checked on every element up to TABLE_CAP,
    and on every 97th past it (203 elements of M_3(GF(3)))."""
    ring = build_matrix_ring(k, q)
    a = np.arange(0, ring.size, 1 if ring.size <= rings.TABLE_CAP else 97)
    r = np.asarray([gfmatrix.rank(np.reshape(ring.digits(i), (k, k)), q)
                    for i in a.tolist()])
    inner, refl = _inverse_counts(ring, a)
    assert np.array_equal(inner, q ** (k * k - r * r))
    assert np.array_equal(refl, q ** (2 * r * (k - r)))


def _direct_product(factors):
    """M_k1(GF(q)) x M_k2(GF(q)) x ... for factors [(k1, q), (k2, q), ...],
    the table algebra with each factor's structure constants and unity as
    one diagonal block."""
    blocks = [build_matrix_ring(k, q) for k, q in factors]
    dim = sum(m.dim for m in blocks)
    tensor = np.zeros((dim,) * 3, dtype=np.int64)
    start = 0
    for m in blocks:
        block = slice(start, start + m.dim)
        tensor[block, block, block] = m.tensor
        start += m.dim
    return build_table_algebra(factors[0][1], [f"b{i}" for i in range(dim)],
                               sum((m.unity for m in blocks), ()), tensor)


@pytest.mark.parametrize("factors", [[(2, 2), (2, 2)], [(2, 3), (1, 3)],
                                     [(1, 5)] * 3],
                         ids=["m2gf2^2", "m2gf3*gf3", "gf5^3"])
def test_direct_product_counts_are_products_of_the_closed_forms(factors):
    """An element of a direct product is one matrix per factor, and its
    inverse sets are the products of theirs, so |I(a)| and |Ref(a)| are
    products of q^(k^2 - r^2) and q^(2r(k - r)) over the factors."""
    ring = _direct_product(factors)
    digits = [ring.digits(i) for i in range(ring.size)]
    inner = np.ones(ring.size, dtype=np.int64)
    refl = np.ones(ring.size, dtype=np.int64)
    start = 0
    for k, q in factors:
        r = np.asarray([gfmatrix.rank(np.reshape(d[start:start + k * k],
                                                 (k, k)), q) for d in digits])
        inner *= q ** (k * k - r * r)
        refl *= q ** (2 * r * (k - r))
        start += k * k
    assert ring.size == math.prod(q ** (k * k) for k, q in factors)
    assert [a.tolist() for a in _inverse_counts(ring, ring.all_indices())] \
        == [inner.tolist(), refl.tolist()]


@pytest.mark.parametrize("n,factors", [
    (30, [(2, 2), (3, 3), (5, 5)]), (36, [(2, 4), (3, 9)]),
    (1155, [(3, 3), (5, 5), (7, 7), (11, 11)]), (4096, [(2, 4096)])])
def test_zmod_inner_counts_match_the_prime_power_product(n, factors):
    """|I(a)| in Z/n is the product over the (p, p^e) with p^e || n of p^e
    if p^e | a, 1 if p does not divide a, and 0 otherwise."""
    ring = build_zmod(n)
    inner = _inverse_counts(ring, ring.all_indices())[0]
    for a in range(n):
        assert inner[a] == math.prod(pe if a % pe == 0 else 1 if a % p else 0
                                     for p, pe in factors)


def test_pinned_values_z6(z6):
    three = z6.from_index(3)
    assert sorted(inner_inverses(three).indices().tolist()) == [1, 3, 5]
    assert sorted(reflexive_inverses(three).indices().tolist()) == [3]


def test_pinned_values_matrix_unit(m2gf2):
    e11 = parse_element(m2gf2, "e11")
    assert len(inner_inverses(e11)) == 8
    assert len(reflexive_inverses(e11)) == 4
    assert e11 in inner_inverses(e11)


def test_pinned_values_example(example):
    a = parse_element(example, "a")
    assert len(inner_inverses(a)) == 512
    assert len(inner_annihilator(a)) == 512


def test_rank_two_idempotent_in_three_by_three():
    ring = build_matrix_ring(3, 2)
    p = parse_element(ring, "e11 + e22")
    assert len(inner_inverses(p)) == 32
    assert len(reflexive_inverses(p)) == 16


def test_reflexive_is_intersection(z6, z4, m2gf2, m2gf3):
    for ring in (z6, z4, m2gf2, m2gf3):
        for idx in range(0, ring.size, max(1, ring.size // 12)):
            a = ring.from_index(idx)
            inner = inner_inverses(a)
            outer = outer_inverses(a)
            assert np.array_equal(reflexive_inverses(a).indices(),
                                  np.intersect1d(inner.indices(),
                                                 outer.indices()))
            assert ring.zero() in outer


def test_inner_nonempty_iff_regular(z6, z30, m2gf2, m2gf3, example):
    # one regularity path on every backend, matrix rings included:
    # is_regular names the least member of I(a), or None when it is empty
    for ring in (z6, z30, m2gf2, m2gf3, example):
        for idx in range(ring.size):
            a = ring.from_index(idx)
            witness = is_regular(a)
            inner = inner_inverses(a)
            assert (len(inner) > 0) == (witness is not None)
            if witness is not None:
                assert witness.index == inner.indices()[0], a
                # the annihilator is a translate of I(a), so sizes agree
                assert len(inner) == len(inner_annihilator(a))


def _coset_verdicts(a, a0s):
    """Per witness, whether a0 + {t - f*t*e : t in R} and a0 + Iann(a) are
    I(a), each translate built in full and compared with the scan."""
    ring = a.ring
    idx = ring.all_indices()
    inner = inner_inverses(a).indices()
    iann = inner_annihilator(a).indices()
    param, translate = [], []
    for a0 in np.asarray(a0s, dtype=np.int64).tolist():
        f, e = ring.idx_mul(a0, a.index), ring.idx_mul(a.index, a0)
        base = ring.idx_sub(idx, ring.idx_mul(ring.idx_mul(f, idx), e))
        for coset, out in ((base, param), (iann, translate)):
            out.append(np.array_equal(np.unique(ring.idx_add(a0, coset)),
                                      inner))
    return param, translate


def _assert_coset_verdicts(a):
    """Both counting verdicts, one per witness of a, against
    _coset_verdicts."""
    a0s = inner_inverses(a).indices()
    param, translate = _coset_verdicts(a, a0s)
    frames = idempotent_frames(a.ring, a.index, a0s)
    got = inner_inverses_param_batch(frames, len(a0s))
    assert got.dtype == bool and got.tolist() == param, a
    got = iann_decomposition_batch(frames, len(a0s)).translate_ok
    assert got.dtype == bool and got.tolist() == translate, a


def test_param_matches_scan(z6, z4, m2gf2):
    for ring in (z6, z4, m2gf2):
        for a in map(ring.from_index, range(ring.size)):
            _assert_coset_verdicts(a)


def test_coset_verdicts_above_table_cap():
    # Z/5005 has no op tables: both verdicts run on raw arithmetic
    ring = build_zmod(5005)
    assert ring._mul_table is None
    picks = random.Random(11).sample(range(ring.size), 40)
    regular = [a for a in map(ring.from_index, picks) if is_regular(a)][:5]
    assert len(regular) == 5
    for a in regular:
        _assert_coset_verdicts(a)


def test_param_rejects_non_inverse(z6):
    # the kernels take frames, and only idempotent_frames builds them
    three = z6.from_index(3)
    two = z6.from_index(2)
    with pytest.raises(NotInnerInverse):
        idempotent_frames(z6, three.index, [two.index])


def test_idempotent_frame_invariants(z6, m2gf2, example):
    cases = [(z6, 3), (m2gf2, None), (example, None)]
    for ring, idx in cases:
        a = (ring.from_index(idx) if idx is not None
             else parse_element(ring, "e11" if ring is m2gf2 else "a"))
        one = ring.one()
        inner = inner_inverses(a)
        frames = idempotent_frames(ring, a.index, inner.indices())
        assert frames.ring is ring and (frames.a == a.index).all()
        assert np.array_equal(frames.witnesses, inner.indices())
        assert (frames.frame_a == a.index).all()
        for pos, a0 in enumerate(inner):
            k = frames.of[pos]
            e = ring.from_index(int(frames.e[k]))
            f = ring.from_index(int(frames.f[k]))
            assert e == a * a0 and f == a0 * a
            assert e * e == e and f * f == f
            assert e * a == a and a * f == a
            assert (one - e) + e == one and (one - f) + f == one


def _frame_ideals(a, frames):
    """Per frame, R*e_c and f_c*R with e_c = 1 - e and f_c = 1 - f."""
    ring = a.ring
    one = ring.one()
    return [(principal_left_ideal(one - ring.from_index(int(e))),
             principal_right_ideal(one - ring.from_index(int(f))))
            for f, e in zip(frames.f, frames.e)]


def _assert_iann_sums(a):
    """Iann(a) = l(a) + r(a), and = R*e_c + f_c*R for every witness."""
    iann = inner_annihilator(a)
    a0s = inner_inverses(a).indices()
    frames = idempotent_frames(a.ring, a.index, a0s)
    sums = iann_decomposition_batch(frames, len(a0s))
    assert (sums.ann_mismatch == -1).all() and sums.frame_ok.all(), a
    assert sums.frame_ok.shape == sums.ann_mismatch.shape == a0s.shape
    assert sumset(left_annihilator(a), right_annihilator(a)) == iann
    # R*e_c and f_c*R depend on a0 only through its frame
    for r_ec, fc_r in _frame_ideals(a, frames):
        assert sumset(r_ec, fc_r) == iann, a


def test_iann_decomposition_verdicts(z6, m2gf2):
    for ring in (z6, m2gf2):
        for a in map(ring.from_index, range(ring.size)):
            if is_regular(a) is not None:
                _assert_iann_sums(a)


def test_iann_decomposition_example(example):
    a = parse_element(example, "a")
    x = parse_element(example, "x")
    sums = iann_decomposition_batch(
        idempotent_frames(example, a.index, [x.index]), 512)
    assert sums.ann_mismatch.tolist() == [-1]
    assert sums.frame_ok.tolist() == sums.translate_ok.tolist() == [True]
    one = example.one()
    r_ec = principal_left_ideal(one - a * x)
    fc_r = principal_right_ideal(one - x * a)
    assert len(r_ec) == 128 and len(fc_r) == 128
    assert sumset(r_ec, fc_r) == inner_annihilator(a)
    assert len(sumset(r_ec, fc_r)) == 512


def _ref_verdicts(a, a0s, size):
    return ref_decomposition(idempotent_frames(a.ring, a.index, a0s), size)


def test_ref_decomposition_matches_scan(z6, z4, m2gf2):
    # the family is Ref(a) for every reflexive witness, and the counting
    # verdict turns false when |Ref(a)| is miscounted either way
    for ring in (z6, z4, m2gf2):
        for a in map(ring.from_index, range(ring.size)):
            refl = reflexive_inverses(a).indices()
            for size, want in ((len(refl), True), (len(refl) + 1, False),
                               (len(refl) - 1, False)):
                ok = _ref_verdicts(a, refl, size)
                assert ok.dtype == bool and ok.shape == refl.shape
                assert (ok == want).all(), (a, size)


def _defining_family(a, a0):
    """{a0 + f*r*e_c + f_c*s*e + f_c*s*a*r*e_c : r, s in R}, term by term.

    r and s run as the two axes of an index grid, r in blocks of rows;
    every summand is evaluated as written, with no regrouping of the
    family.
    """
    ring = a.ring
    one = ring.one()
    e, f = a * a0, a0 * a
    e_c, f_c = one - e, one - f
    mul, add = ring.idx_mul, ring.idx_add
    idx = ring.all_indices()
    fc_s = mul(f_c.index, idx)[None, :]
    fc_s_e = mul(fc_s, e.index)
    fc_s_a = mul(fc_s, a.index)
    members = np.zeros(ring.size, dtype=bool)
    step = max(1, (1 << 16) // ring.size)
    for lo in range(0, ring.size, step):
        r = idx[lo:lo + step, None]
        head = add(a0.index, mul(mul(f.index, r), e_c.index))
        members[add(add(head, fc_s_e), mul(fc_s_a, mul(r, e_c.index)))] = True
    return np.flatnonzero(members)


def _reflexive_pairs(ring):
    return [(a, a0) for a in map(ring.from_index, range(ring.size))
            for a0 in reflexive_inverses(a)]


def _assert_rows_match_defining_family(a):
    """The factored rows and the verdict of ref_decomposition, against
    the family and Ref(a)."""
    refl = reflexive_inverses(a).indices()
    rows = ref_rows_per_element(a, refl)
    ok = _ref_verdicts(a, refl, len(refl))
    for row, a0, verdict in zip(rows, refl.tolist(), ok.tolist()):
        want = _defining_family(a, a.ring.from_index(a0))
        assert np.array_equal(np.flatnonzero(row), want), (a, a0)
        assert verdict == np.array_equal(want, refl), (a, a0)


@pytest.mark.parametrize("name", ["z6", "z30", "m2gf2", "m2gf3", "gf3t3"])
def test_ref_decomposition_matches_defining_family(request, name):
    ring = request.getfixturevalue(name)
    for a in map(ring.from_index, range(ring.size)):
        _assert_rows_match_defining_family(a)


def test_ref_decomposition_matches_defining_family_example(example):
    pairs = random.Random(7).sample(_reflexive_pairs(example), 6)
    for a, _ in pairs:
        _assert_rows_match_defining_family(a)


def test_ref_decomposition_rows_above_table_cap():
    # Z/5005 has no op tables: the array form runs on raw arithmetic
    ring = build_zmod(5005)
    assert ring._mul_table is None
    picks = random.Random(11).sample(range(ring.size), 40)
    regular = [a for a in map(ring.from_index, picks) if is_regular(a)][:5]
    assert len(regular) == 5
    for a in regular:
        refl = reflexive_inverses(a).indices()
        assert _ref_verdicts(a, refl, len(refl)).all(), a
        for row in ref_rows_per_element(a, refl):
            assert np.array_equal(np.flatnonzero(row), refl), a


def test_ref_decomposition_example(example):
    a = parse_element(example, "a")
    x = parse_element(example, "x")
    assert len(reflexive_inverses(a)) == 16
    assert _ref_verdicts(a, [x.index], 16).tolist() == [True]
    (row,) = ref_rows_per_element(a, [x.index])
    assert np.array_equal(np.flatnonzero(row), reflexive_inverses(a).indices())


def test_ref_decomposition_rejects_non_reflexive(z6):
    three = z6.from_index(3)
    one = z6.from_index(1)
    # 1 is an inner inverse of 3 but not an outer one
    assert three * one * three == three
    assert one * three * one != one
    with pytest.raises(NotReflexiveInverse):
        _ref_verdicts(three, [one.index], 1)


def _witness_array_case(ring):
    """(a, its reflexive inverses, an inner inverse of a that is not outer)."""
    for a in map(ring.from_index, range(ring.size)):
        refl = reflexive_inverses(a).indices()
        inner_only = np.setdiff1d(inner_inverses(a).indices(), refl)
        if len(refl) > 1 and len(inner_only):
            return a, refl, int(inner_only[0])
    raise AssertionError("no element with several reflexive inverses")


def test_ref_decomposition_array_names_the_first_bad_witness(m2gf2):
    a, refl, inner_only = _witness_array_case(m2gf2)
    head, tail = refl[:1].tolist(), refl[1:].tolist()
    x, zero = m2gf2.from_index(inner_only), m2gf2.zero()
    assert x * a * x != x and zero * a * zero == zero and a * zero * a != a

    def ref_rows(a0s):
        return _ref_verdicts(a, a0s, len(refl))

    with pytest.raises(NotReflexiveInverse) as exc:
        ref_rows(head + [inner_only] + tail)
    assert str(exc.value) == f"{x} is not an outer inverse of {a}"
    # 0 is an outer inverse but not an inner one
    with pytest.raises(NotInnerInverse) as exc:
        ref_rows(head + [0] + tail)
    assert str(exc.value) == f"{zero} is not an inner inverse of {a}"
    # the frames, and so the inner test, come before the outer test
    with pytest.raises(NotInnerInverse) as exc:
        ref_rows([0, inner_only])
    assert str(exc.value) == f"{zero} is not an inner inverse of {a}"


def test_reflexive_via_product(z6, m2gf2):
    # Ref(a) = I(a)*a*I(a) for every regular a
    for ring in (z6, m2gf2):
        for idx in range(ring.size):
            a = ring.from_index(idx)
            if is_regular(a) is None:
                continue
            inner = inner_inverses(a).indices()
            assert inner_products(a, inner, inner) == reflexive_inverses(a)


def _products_by_pairs(a, xs, ys):
    """{x*a*y : x in xs, y in ys}, one Elem product per pair."""
    ring = a.ring
    return sorted({(ring.from_index(x) * a * ring.from_index(y)).index
                   for x in xs for y in ys})


@pytest.mark.parametrize("name", ["z30", "m2gf2", "example"])
def test_inner_products_match_every_factor_pair(request, name):
    # arbitrary factors: repeated, outside I(a), and for a not regular
    ring = request.getfixturevalue(name)
    rng = random.Random(5)
    elems = ring.all_indices().tolist()
    picks = [0] + rng.sample(elems, 12) if name == "example" else elems
    irregular = 0
    for a in map(ring.from_index, picks):
        inner = inner_inverses(a).indices().tolist()
        irregular += not inner
        xs = rng.choices(elems, k=7) + inner[:2] * 2
        ys = rng.choices(elems, k=7) + inner[-2:] * 2 + xs[:2]
        got = inner_products(a, xs, ys).indices().tolist()
        assert got == _products_by_pairs(a, xs, ys), a
        assert inner_products(a, xs, []).indices().tolist() == [], a
    assert irregular > 0 or name != "example"


@pytest.mark.parametrize("name", ["z30", "m2gf3", "gf3t3"])
def test_factored_products_count_ref(request, name):
    # |I(a)*a| * |a*I(a)| = |Ref(a)|: the bound on inner_products' work
    ring = request.getfixturevalue(name)
    for a in map(ring.from_index, range(ring.size)):
        inner = inner_inverses(a).indices()
        if not len(inner):
            continue
        xa = np.unique(ring.idx_mul(inner, a.index))
        ax = np.unique(ring.idx_mul(a.index, inner))
        assert len(xa) * len(ax) == len(reflexive_inverses(a)), a


def test_phi_maps_inner_onto_reflexive(z6, m2gf2):
    # phi: x -> x*a*x maps I(a) onto Ref(a) and fixes it
    for ring in (z6, m2gf2):
        for idx in range(ring.size):
            a = ring.from_index(idx)
            inner = inner_inverses(a)
            if not len(inner):
                continue
            image = {(x * a * x).index for x in inner}
            refl = reflexive_inverses(a)
            assert sorted(image) == refl.indices().tolist()
            for y in refl:
                assert y * a * y == y


def test_singleton_conjugate_matches_bruteforce(z6):
    for ai in range(6):
        a = z6.from_index(ai)
        inner = inner_inverses(a)
        for a0 in inner:
            (flags,) = singleton_conjugate_batch(
                z6.all_indices(), idempotent_frames(z6, ai, [a0.index]))
            for b, flag in zip(map(z6.from_index, range(6)), flags.tolist()):
                conj = {(b * x * b).index for x in inner}
                assert flag == (len(conj) == 1)
                if flag:
                    assert conj == {(b * a0 * b).index}


def _singleton_by_gather(ring, a):
    """Per b in R, whether b*x*b takes one value over x in I(a)."""
    bs = ring.all_indices()[:, None]
    inner = inner_inverses(a).indices()[None, :]
    vals = ring.idx_mul(ring.idx_mul(bs, inner), bs)
    return (vals == vals[:, :1]).all(axis=1)


def test_singleton_conjugate_example_witness(example):
    # this element multiplies everything to zero, so the set collapses
    w = parse_element(example, "xa + xb")
    zero = example.zero()
    frames = idempotent_frames(example, zero.index, [zero.index])
    assert singleton_conjugate_batch([w.index], frames).tolist() == [[True]]
    # I(0) is all of R, and the one value of w*x*w is 0
    everything = example.all_indices()
    assert not example.idx_mul(example.idx_mul(w.index, everything),
                               w.index).any()
    assert w != zero


def test_set_plumbing(z6):
    s = ElemSet.from_indices(z6, [1, 2])
    t = ElemSet.from_indices(z6, [0, 3])
    assert set(sumset(s, t).indices().tolist()) == {1, 2, 4, 5}
    two = z6.from_index(2)
    span = additive_span(z6, [two])
    assert set(span.indices().tolist()) == {0, 2, 4}
    assert set(additive_span(z6, []).indices().tolist()) == {0}


@pytest.mark.parametrize("left,right", [
    ([4, 1, 4, 29, 1], [2, 2, 0, 17]),
    (np.asarray([3, 9, 3, 27], dtype=np.uint16), [5, 5, 25]),
    ([], [1, 2]),
    ([1, 2], np.empty(0, dtype=np.int64)),
])
def test_pairwise_dedups_with_and_without_op_tables(fresh_ring, left, right):
    brute = {(x + y) % 30 for x in np.asarray(left).tolist()
             for y in np.asarray(right).tolist()}
    tabled, raw = fresh_ring("z30"), fresh_ring("z30")
    tabled.build_tables()
    with_tables = _pairwise(tabled, tabled.idx_add, left, right)
    assert raw._mul_table is None
    without_tables = _pairwise(raw, raw.idx_add, left, right)
    assert with_tables.dtype == without_tables.dtype == np.int64
    assert np.array_equal(with_tables, without_tables)
    assert with_tables.tolist() == sorted(brute)


def test_additive_span_example(example):
    a = parse_element(example, "a")
    span = additive_span(example, [a])
    assert set(span.indices().tolist()) == {0, a.index}


def test_principal_ideals(monkeypatch, fresh_ring):
    monkeypatch.setattr(rings, "_CHUNK", 20)  # rows come in several blocks
    for name in ("z6", "m2gf2"):
        for tables in (True, False):  # op tables, then raw arithmetic
            ring = fresh_ring(name)
            if tables:
                ring.build_tables()
            s = ring.all_indices()[::-1]
            rows = [principal_ideal_rows(ring, side, s)
                    for side in ("right", "left")]
            xs = list(map(ring.from_index, range(ring.size)))
            for k, idx in enumerate(s.tolist()):
                a = ring.from_index(idx)
                right = {(a * x).index for x in xs}
                left = {(x * a).index for x in xs}
                assert set(principal_right_ideal(a).indices().tolist()) == right
                assert set(principal_left_ideal(a).indices().tolist()) == left
                assert set(np.flatnonzero(rows[0][k]).tolist()) == right
                assert set(np.flatnonzero(rows[1][k]).tolist()) == left
            assert principal_ideal_rows(ring, "left", []).shape == (0, ring.size)


def test_cross_ring_rejected(z6, z4):
    a = z6.from_index(3)
    x = z4.from_index(1)
    with pytest.raises(RingMismatch):
        sumset(inner_inverses(a), inner_inverses(x))


def test_every_reader_of_i_of_a_runs_the_one_scan(monkeypatch):
    # rings._inner_rows, wherever it is looked up, counts its calls and
    # clears every hit: each reader must call it and so find no inverse
    plain, calls = rings._inner_rows, []

    def cleared(ring, a):
        calls.append(a)
        return ((rows, np.zeros_like(hit)) for rows, hit in plain(ring, a))

    for module in (rings, ginv):
        monkeypatch.setattr(module, "_inner_rows", cleared)
    ring = build_zmod(30)
    a, idx = ring.from_index(7), ring.all_indices()  # 7 is a unit
    readers = {
        "is_regular": lambda: is_regular(a) is None,
        "regular_elements": lambda: len(rings.regular_elements(ring)) == 0,
        "inner_inverses": lambda: len(inner_inverses(a)) == 0,
        "inner_inverse_pairs": lambda: not any(
            len(v) for v in ginv.inner_inverse_pairs(ring, idx)),
        "reflexive_inverses": lambda: len(reflexive_inverses(a)) == 0,
        "_Scan.regular_at": lambda: not theoremlab._Scan(
            ring).regular_at(idx).any(),
    }
    for name, empty in readers.items():
        calls.clear()
        assert empty(), name
        assert calls, name


def test_budget_respected():
    with pytest.raises(BudgetExceeded):
        inner_inverses(ZmodRing(100003, enumeration_budget=100).from_index(5))
    # generous budget allows the scan
    big = ZmodRing(100003, enumeration_budget=200000)
    assert len(inner_inverses(big.from_index(5))) > 0


def _batch_cases(name, request):
    ring = request.getfixturevalue(name)
    regs = [a for a in map(ring.from_index, range(ring.size))
            if is_regular(a) is not None]
    if name == "example":
        regs = random.Random(11).sample(regs, 6)
    return ring, regs


@pytest.mark.parametrize("name", ["z30", "m2gf3", "example"])
def test_batched_forms_match_the_scan(request, name):
    ring, regs = _batch_cases(name, request)
    bs = ring.all_indices()
    for a in regs:
        a0s = inner_inverses(a).indices()
        _assert_coset_verdicts(a)
        _assert_iann_sums(a)
        want = _singleton_by_gather(ring, a)
        flags = singleton_conjugate_batch(
            bs, idempotent_frames(ring, a.index, [a0s[0], a0s[-1]]))
        assert flags.shape == (2, ring.size)
        for row in flags:
            assert np.array_equal(row, want), a
        assert inner_products(a, a0s, a0s) == reflexive_inverses(a)


@pytest.mark.parametrize("name", ["z30", "m2gf2"])
def test_counting_rule_agrees_with_the_sumset(request, name):
    # U + W = T by counting, against the materialised sumset, on the
    # subgroups of every frame, with targets that hold and that fail
    ring = request.getfixturevalue(name)
    n = ring.size
    for a in map(ring.from_index, range(ring.size)):
        a0s = inner_inverses(a).indices()
        if not len(a0s):
            continue
        left, right = left_annihilator(a), right_annihilator(a)
        pairs = [(left, right)] + _frame_ideals(
            a, idempotent_frames(ring, a.index, a0s))
        targets = [inner_annihilator(a), left, right,
                   ElemSet(ring, ring.all_indices())]
        for u, w in pairs:
            for t in targets:
                masks = [np.isin(ring.all_indices(), s.indices())
                         for s in (u, w, t)]
                assert ginv._sums_to(*masks) == (sumset(u, w) == t), (a, n)


@pytest.mark.parametrize("name", ["z30", "m2gf2", "m2gf3"])
def test_frames_match_reflexive_inverses(request, name):
    # the frame of a0 holds exactly one reflexive inverse, a0*a*a0
    ring = request.getfixturevalue(name)
    for a in map(ring.from_index, range(ring.size)):
        inner = inner_inverses(a).indices()
        if not len(inner):
            continue
        frames = idempotent_frames(ring, a.index, inner)
        reps = [inner[frames.of == k][0] for k in range(len(frames.f))]
        image = {int(ring.idx_mul(ring.idx_mul(g, a.index), g)) for g in reps}
        assert sorted(image) == reflexive_inverses(a).indices().tolist()
        assert len(frames.f) == len(reflexive_inverses(a))


def test_frames_sort_by_frame_past_2_31_elements():
    # M_2(GF(257)) has 257^4 > 2^31 elements, so f*|R| + e passes 2^63 for
    # about half of these frames, and (a*|R| + f)*|R| + e for nearly all;
    # grouping pairs of several elements by (a, f, e) must not wrap
    ring = build_matrix_ring(2, 257)
    rng = random.Random(3)

    def matrix(e11, e12, e21, e22):
        return parse_element(
            ring, f"{e11} e11 + {e12} e12 + {e21} e21 + {e22} e22")

    def random_matrix():
        return matrix(*(rng.randrange(257) for _ in range(4)))

    a = matrix(200, 1, 35, 58)  # a rank-one idempotent
    b = ring.one() - a  # another one
    u = matrix(3, 1, 1, 1)  # a unit: I(u) = {u^-1}
    assert a * a == a and b * b == b and ring.size >= 1 << 31
    pairs = []
    for g0 in (a, b):  # an idempotent is its own inner inverse
        f0, e0 = g0 * g0, g0 * g0
        pairs += [(g0.index, (g0 + t - f0 * t * e0).index)
                  for t in (random_matrix() for _ in range(6))]
    u_inv = matrix(129, 128, 128, 130)
    assert u * u_inv == u_inv * u == ring.one()
    pairs += [(u.index, u_inv.index)]
    pairs += [pairs[0], pairs[4], pairs[4], pairs[8]]  # repeated witnesses
    order = rng.sample(range(len(pairs)), len(pairs))  # interleave elements
    elems = [pairs[k][0] for k in order]
    a0s = [pairs[k][1] for k in order]
    frames = idempotent_frames(ring, elems, a0s)
    keys = list(zip(frames.frame_a.tolist(), frames.f.tolist(),
                    frames.e.tolist()))
    assert keys == sorted(set(keys)) and len(keys) == 6 + 6 + 1
    assert max(f for _, f, _ in keys) * ring.size >= 1 << 63
    assert max((x * ring.size + f) * ring.size + e
               for x, f, e in keys) >= 1 << 63
    for pos, (x, w) in enumerate(zip(elems, a0s)):
        e, a0 = ring.from_index(x), ring.from_index(w)
        k = frames.of[pos]
        assert (frames.a[pos], frames.witnesses[pos]) == (x, w)
        assert frames.frame_a[k] == x
        assert frames.f[k] == (a0 * e).index
        assert frames.e[k] == (e * a0).index
    for k, j in ((0, 13), (4, 14), (4, 15), (8, 16)):
        assert frames.of[order.index(k)] == frames.of[order.index(j)]


@pytest.mark.parametrize("name,sampled", [
    ("z30", False), ("m2gf3", False), ("gf3t3", False), ("example", False),
    ("z30", True)])
def test_pair_array_kernels_match_the_per_element_forms(
        request, monkeypatch, name, sampled):
    # the four kernels, fed a suite scan's ring-wide pair arrays, against
    # their per-element forms (tests/conftest.py) on every regular element
    # of the domain; sampled, the scan keeps the first witness of each
    ring = request.getfixturevalue(name)
    if sampled:
        monkeypatch.setattr(theoremlab, "TABLE_CAP", 0)  # samples all of z30
    scan = theoremlab._Scan(ring)
    assert scan.sampled == sampled
    frames = scan.inner_frames
    param = inner_inverses_param_batch(frames, scan.inner_size(frames.a))
    sums = iann_decomposition_batch(frames, scan.inner_size(frames.a))
    refl = idempotent_frames(ring, *scan.ref_pairs)
    ref_ok = ref_decomposition(refl, scan.ref_size(refl.a))
    regs, firsts = scan.first_witnesses
    bs = ring.all_indices()
    singleton = singleton_conjugate_batch(
        bs, idempotent_frames(ring, regs, firsts))
    want_regs = [a.index for a in map(ring.from_index, scan.sample.tolist())
                 if is_regular(a) is not None]
    assert regs.tolist() == want_regs and len(regs) == len(set(frames.a))
    for k, x in enumerate(regs.tolist()):
        a = ring.from_index(x)
        inner = inner_inverses(a).indices()
        mine = frames.a == x
        a0s = frames.witnesses[mine]
        assert np.array_equal(a0s, inner[:1] if sampled else inner), x
        assert np.array_equal(param[mine], param_per_element(a, a0s)), x
        mismatch, frame_ok, translate_ok = iann_per_element(a, a0s)
        assert (sums.ann_mismatch[mine]
                == (-1 if mismatch is None else mismatch)).all(), x
        assert np.array_equal(sums.frame_ok[mine], frame_ok), x
        assert np.array_equal(sums.translate_ok[mine], translate_ok), x
        ref = refl.a == x
        refs = reflexive_inverses(a).indices()
        assert np.array_equal(refl.witnesses[ref], refs), x
        want = [np.array_equal(np.flatnonzero(row), refs)
                for row in ref_rows_per_element(a, refs)]
        assert ref_ok[ref].tolist() == want, x
        assert np.array_equal(singleton[k],
                              singleton_per_element(bs, a, firsts[k])), x


def test_batched_forms_reject_non_inverses(z6):
    # the batched forms take frames, and idempotent_frames refuses to
    # build them around a non-witness: a witness array, or the one
    # witness that singleton_conjugate_batch reads
    three = z6.from_index(3)
    for a0s in ([1, 2, 3], [2]):
        with pytest.raises(NotInnerInverse, match="^2 is not an inner"):
            idempotent_frames(z6, three.index, a0s)


def test_batched_forms_name_the_first_non_witness(m2gf2):
    # two non-witnesses, the larger index first: idempotent_frames, which
    # builds the input of every batched form, names the first in array
    # order
    a = parse_element(m2gf2, "e11")
    inner = inner_inverses(a).indices().tolist()
    outside = sorted(set(range(m2gf2.size)) - set(inner))
    low, high = outside[0], outside[-1]
    assert low < high and len(inner) > 2
    with pytest.raises(NotInnerInverse) as exc:
        idempotent_frames(m2gf2, a.index,
                          inner[:1] + [high] + inner[1:] + [low])
    assert str(exc.value) == (f"{m2gf2.from_index(high)} is not an "
                              f"inner inverse of {a}")


@pytest.mark.parametrize("tables", [False, True])
@pytest.mark.parametrize("name,elem,past", [
    ("z30", "5", [35, 30, -1, -25]),
    ("m2gf3", "e22", [82, 81, -1]),
])
def test_frames_refuse_indices_outside_the_ring(name, elem, past, tables,
                                                fresh_ring):
    # an index past the ring must not wrap onto an element or reach a
    # table gather: it is refused like any non-witness, on both backends
    ring = fresh_ring(name)
    if tables:
        ring.build_tables()
    assert (ring._mul_table is not None) == tables
    a = parse_element(ring, elem)
    inner = inner_inverses(a).indices().tolist()
    for i in past:
        for a0s in ([i], inner[:1] + [i] + inner[1:]):
            with pytest.raises(NotInnerInverse) as exc:
                idempotent_frames(ring, a.index, a0s)
            assert str(exc.value) == (
                f"index {i}, outside the ring, is not an inner inverse of {a}")
    # the first bad witness in array order is named, in range or not
    low = next(x for x in range(ring.size) if x not in inner)
    with pytest.raises(NotInnerInverse) as exc:
        idempotent_frames(ring, a.index, inner[:1] + [low, past[0]])
    assert str(exc.value) == (
        f"{ring.from_index(low)} is not an inner inverse of {a}")
    assert len(idempotent_frames(ring, a.index, inner).witnesses) == len(inner)
    # the element of each pair is an index too, refused past the ring
    for i in past:
        with pytest.raises(IndexError, match=f"^index {i} is outside"):
            idempotent_frames(ring, [a.index, i], inner[:2])
