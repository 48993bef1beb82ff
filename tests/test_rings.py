"""Ring constructors, element arithmetic, and structural scans."""

import math
import operator
import random
import weakref
from pathlib import Path

import numpy as np
import pytest

from ginvlab import (BadTensorShape, BudgetExceeded, Elem, ElemSet,
                     InvalidModulus, NoUnity, NotAssociative, RingMismatch,
                     build_matrix_ring, build_table_algebra, build_zmod,
                     is_regular, is_semiprime, parse_element, regular_elements)
from ginvlab import cli, rings
from ginvlab.rings import TABLE_CAP

from conftest import (_scrambled_algebra, inner_products,
                      semiprime_scan_oracle, squarefree, sumset,
                      truncated_polynomials)

BENCH_SPECS = Path(__file__).resolve().parent.parent / "perfbench" / "specs"


def test_zmod_basics(z6):
    assert z6.size == 6
    assert z6.char == 6
    assert z6.one().index == 1
    assert z6.zero().index == 0


@pytest.mark.parametrize("bad", [1, 0, -3, "6", 2.5, 6.0, True, np.float64(6)])
def test_zmod_rejects_bad_modulus(bad):
    with pytest.raises(InvalidModulus):
        build_zmod(bad)


def test_zmod_is_exact_up_to_its_int64_bound():
    # (n-1)^2 < 2^63 exactly for n <= 3037000500
    n = 3037000500
    ring = build_zmod(n)
    assert int(ring.idx_mul(n - 1, n - 1)) == 1
    assert int(ring.idx_add(n - 1, n - 1)) == n - 2
    a = parse_element(ring, str(n - 1))
    assert (a * a).index == 1


@pytest.mark.parametrize("n", [3037000501, 10 ** 18 + 9, 2 ** 63 + 25])
def test_zmod_refuses_moduli_past_int64(n):
    for build in (build_zmod, rings.ZmodRing):
        with pytest.raises(InvalidModulus, match="int64"):
            build(n)


@pytest.mark.parametrize("k,q", [(0, 2), (10, 2), (2, 4), (2, 1), ("2", 3),
                                 (2, 3.0), (2.0, 3), (True, 3), (2, True),
                                 (2, np.float64(3))])
def test_matrix_ring_rejects_bad_shape(k, q):
    with pytest.raises(InvalidModulus):
        build_matrix_ring(k, q)


@pytest.mark.parametrize("p", [2.0, True, np.float64(2), "2"])
def test_table_algebra_rejects_non_integer_characteristic(p):
    with pytest.raises(InvalidModulus):
        build_table_algebra(p, ["1"], [1], [[0, 0, 0, 1]])


def test_constructors_store_numpy_integers_as_python_ints():
    z = build_zmod(np.int64(6))
    m = build_matrix_ring(np.int64(2), np.int32(3))
    t = build_table_algebra(np.int64(2), ["1"], [1], [[0, 0, 0, 1]])
    assert (z.size, m.size, t.size) == (6, 81, 2)
    assert all(type(v) is int for v in (z.n, m.k, m.q, m.size, t.p, t.size))


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if rings._is_prime(n)] == \
        [n for n in range(10 ** 5) if _trial_division_prime(n)]


@pytest.mark.parametrize("n,prime", [
    (2 ** 61 - 1, True),
    (4611686018427387847, True),
    (561, False),  # Carmichael number
    (3215031751, False),  # strong pseudoprime to bases 2, 3, 5 and 7
    (1000003 * (2 ** 61 - 1), False),
])
def test_is_prime_large_and_pseudoprime_values(n, prime):
    assert rings._is_prime(n) is prime


def test_is_prime_refuses_values_past_its_exact_range():
    with pytest.raises(InvalidModulus):
        rings._is_prime(2 ** 89 - 1)  # a Mersenne prime, about 6e26


def test_matrix_ring_over_a_large_prime_field_builds():
    q = 4611686018427387847
    ring = build_matrix_ring(1, q)
    assert ring.size == q and ring.q == q


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


def test_matrix_digits_roundtrip(m2gf3):
    rng = random.Random(0)
    for _ in range(25):
        i = rng.randrange(m2gf3.size)
        flat = m2gf3.digits(i)
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


def test_table_algebra_rejects_non_associative_above_dim_16():
    # dim 17 over GF(2): x1*x1 = x2, x2*x1 = x3, x1*x2 = 0, so
    # (x1*x1)*x1 = x3 but x1*(x1*x1) = 0
    basis = ["1"] + [f"x{k}" for k in range(1, 17)]
    constants = _unity_entries(17) + [[1, 1, 2, 1], [2, 1, 3, 1]]
    with pytest.raises(NotAssociative) as info:
        build_table_algebra(2, basis, [1] + [0] * 16, constants)
    assert info.value.triple == (1, 1, 1)


def _associativity_oracle(tensor, p):
    """The first (i, j, l) with (b_i·b_j)·b_l != b_i·(b_j·b_l), or None,
    from two einsums over Python ints."""
    exact = np.asarray(tensor).astype(object)
    left = np.einsum("ijm,mlk->ijlk", exact, exact) % p
    right = np.einsum("jlm,imk->ijlk", exact, exact) % p
    bad = np.argwhere((left != right).any(axis=3))
    return tuple(int(v) for v in bad[0]) if len(bad) else None


def _first_bad_triple(p, tensor, unity):
    """The triple NotAssociative names for this tensor, or None."""
    basis = [f"x{k}" for k in range(len(unity))]
    try:
        build_table_algebra(p, basis, unity, tensor)
    except NotAssociative as exc:
        return exc.triple
    except NoUnity:
        pass
    return None


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("dim", range(1, 7))
def test_associativity_check_names_the_oracles_triple(p, dim):
    # dense random tensors, and GF(p)[t]/(t^dim) with one constant changed
    rng = np.random.default_rng(10 * dim + p)
    i, j = np.indices((dim, dim))
    low = i + j < dim
    base = np.zeros((dim,) * 3, dtype=np.int64)
    base[i[low], j[low], (i + j)[low]] = 1
    unity = [1] + [0] * (dim - 1)
    triples = set()
    for draw in range(40):
        if draw % 2:
            tensor = rng.integers(0, p, (dim,) * 3)
        else:  # b_i·b_j for i, j > 0, so that the unity still acts
            tensor = base.copy()
            i, j = rng.integers(min(1, dim - 1), dim, 2)
            tensor[i, j, rng.integers(dim)] += rng.integers(1, p)
            tensor %= p
        want = _associativity_oracle(tensor, p)
        assert _first_bad_triple(p, tensor, unity) == want
        triples.add(want)
    # GF(p) has no non-associative tensor; larger dims fail on many triples
    assert triples == {None} if dim == 1 else len(triples) > 2


def test_associativity_check_on_python_ints():
    # dim·(p-1)^2 passes 2^63 for dim 2, so the load check sums Python ints
    p = 3037000493
    assert not rings._int64_exact(p, 2) and p * p <= 1 << 63
    tensor = np.zeros((2, 2, 2), dtype=np.int64)
    tensor[0, 0, 0] = tensor[1, 1, 1] = 1  # GF(p) x GF(p)
    assert build_table_algebra(p, ["e", "f"], [1, 1], tensor).size == p * p
    tensor[0, 1, 0], tensor[1, 0, 1] = p - 1, p - 2
    want = _associativity_oracle(tensor, p)
    assert want is not None
    assert _first_bad_triple(p, tensor, [1, 1]) == want


@pytest.mark.parametrize("p,dim", [(2, 64), (3, 40)])
def test_table_algebra_rejects_indices_past_int64(p, dim):
    # the diagonal algebra GF(p)^dim is valid, but p^dim > 2^63
    basis = [f"x{k}" for k in range(dim)]
    constants = [[k, k, k, 1] for k in range(dim)]
    with pytest.raises(InvalidModulus, match="int64"):
        build_table_algebra(p, basis, [1] * dim, constants)


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


def test_units(z6, m2gf2, example):
    for ring in (z6, m2gf2, example):
        # x is a unit iff some y has x*y = y*x = 1
        idx = ring.all_indices()
        xy = ring.idx_mul(idx[:, None], idx[None, :]) == ring.one().index
        brute = np.flatnonzero((xy & xy.T).any(axis=1))
        assert ring.unit_indices().tolist() == brute.tolist()
    assert z6.unit_indices().tolist() == [1, 5]
    assert len(m2gf2.unit_indices()) == 6  # |GL2(GF(2))|


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


def test_kept_semiprime_verdict_does_not_keep_the_ring_alive():
    """The verdict kept on the ring refers to no Elem of it, so dropping
    the ring frees it (and its op tables) without waiting for gc."""
    ring = build_zmod(4)
    assert is_semiprime(ring).witness.index == 2
    assert is_semiprime(ring).witness.index == 2  # from the kept verdict
    ref = weakref.ref(ring)
    del ring
    assert ref() is None


def test_semiprime_matches_squarefree_up_to_100():
    for n in range(2, 101):
        assert is_semiprime(build_zmod(n)).semiprime == squarefree(n), n


def test_squarefree_small_values():
    flags = [squarefree(n) for n in range(1, 13)]
    assert flags == [True, True, True, False, True, True,
                     True, False, False, True, True, False]


@pytest.mark.parametrize("spec", sorted(p.name for p in BENCH_SPECS.glob("*.json")))
def test_semiprime_scan_matches_the_oracle_on_the_bench_specs(spec):
    ring = cli.load_ring(str(BENCH_SPECS / spec))
    assert rings._semiprime_scan(ring) == semiprime_scan_oracle(ring)


def test_semiprime_scan_matches_the_oracle_on_small_rings(example):
    cases = [example] + [build_zmod(n) for n in range(2, 400)]
    cases += [build_matrix_ring(k, q)
              for k, q in ((1, 2), (1, 5), (2, 2), (2, 3), (3, 2))]
    # the unity of a scrambled algebra is not a basis vector
    cases += [_scrambled_algebra(dim, seed=dim) for dim in range(1, 10)]
    cases += [truncated_polynomials(p, m) for p, top in ((2, 14), (3, 7))
              for m in range(1, top)]
    found = [rings._semiprime_scan(ring) for ring in cases]
    assert found == [semiprime_scan_oracle(ring) for ring in cases]
    assert -1 in found and len(set(found)) > 10


def test_semiprime_scan_tests_only_square_zero_candidates(monkeypatch):
    ring = truncated_polynomials(2, 13)
    idx = ring.all_indices()
    square_zero = int(np.count_nonzero(ring.idx_mul(idx, idx) == 0))
    want = semiprime_scan_oracle(ring)
    plain, sizes = ring.idx_mul, []
    monkeypatch.setattr(ring, "idx_mul", lambda I, J: sizes.append(
        np.broadcast(I, J).size) or plain(I, J))
    assert rings._semiprime_scan(ring) == want > 0
    # the full-mask scan multiplies 2·dim·|R| elements
    assert sum(sizes) <= 2 * ring.size + 2 * ring.dim * square_zero
    assert square_zero == 64


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
    assert s != ElemSet.from_indices(z6, [1, 3])
    assert tuple(s.idx) == (1, 3, 5)
    assert [e.index for e in s] == [1, 3, 5]


@pytest.mark.parametrize("indices,expected", [
    ([5, 1, 3, 3, 1, 29, 0], [0, 1, 3, 5, 29]),
    (np.asarray([7, 7, 2, 29, 2], dtype=np.uint16), [2, 7, 29]),
    (np.empty(0, dtype=np.int64), []),
    ([], []),
    (np.asarray([[4, 4], [0, 9]], dtype=np.int64), [0, 4, 9]),
    (range(30), list(range(30))),
])
def test_from_indices_dedups_with_and_without_op_tables(fresh_ring, indices,
                                                        expected):
    tabled, raw = fresh_ring("z30"), fresh_ring("z30")
    tabled.build_tables()
    with_tables = ElemSet.from_indices(tabled, indices).indices()
    assert raw._mul_table is None
    without_tables = ElemSet.from_indices(raw, indices).indices()
    assert with_tables.dtype == without_tables.dtype == np.int64
    assert np.array_equal(with_tables, without_tables)
    assert with_tables.tolist() == expected


def test_dedup_past_the_budget_raises():
    """Deduplication marks a mask over the whole ring, so past the
    enumeration budget it raises, with op tables (Z/30) or without."""
    for ring in (build_zmod(30, enumeration_budget=10),
                 build_zmod(5005, enumeration_budget=100)):
        a = ring.from_index(1)
        s = ElemSet(ring, np.asarray([1, 2], dtype=np.int64))
        calls = [lambda: ElemSet.from_indices(ring, [2, 1, 2]),
                 lambda: inner_products(a, [1, 2], [2, 3]),
                 lambda: sumset(s, s)]
        for call in calls:
            with pytest.raises(BudgetExceeded):
                call()


# --- GF(2) products against the structure-constant formula -----------------


def _einsum_mul(ring, I, J):
    """I·J from the structure constants, over coefficients decoded bit by bit."""
    I, J = np.broadcast_arrays(np.asarray(I, dtype=np.int64),
                               np.asarray(J, dtype=np.int64))
    shifts = np.arange(ring.dim - 1, -1, -1)
    X = (I.reshape(-1, 1) >> shifts) & 1
    Y = (J.reshape(-1, 1) >> shifts) & 1
    Z = np.einsum("mi,mj,ijk->mk", X, Y, ring.tensor) % 2
    return (Z @ (1 << shifts)).reshape(I.shape)


def _table(ring):
    """The product table, as build_tables() fills it."""
    ring.build_tables()
    return ring._mul_table


def test_gf2_products_match_structure_constants_on_every_example_pair(example):
    idx = example.all_indices()
    mul = _table(example)
    for lo in range(0, example.size, 128):
        rows = idx[lo:lo + 128, None]
        want = _einsum_mul(example, rows, idx[None, :])
        assert np.array_equal(example._raw_mul(rows, idx[None, :]), want)
        assert np.array_equal(mul[lo:lo + 128], want)


@pytest.mark.parametrize("dim", [13, 17])
def test_gf2_products_match_structure_constants_on_random_pairs(dim):
    ring = truncated_polynomials(2, dim)
    rng = np.random.default_rng(dim)
    I, J = rng.integers(0, ring.size, (2, 10 ** 5))
    assert np.array_equal(ring.idx_mul(I, J), _einsum_mul(ring, I, J))


@pytest.mark.parametrize("dim", [1, 8, 9])
def test_gf2_products_match_structure_constants_where_chunking_changes(dim):
    ring = _scrambled_algebra(dim, seed=dim)
    idx = ring.all_indices()
    got = ring._raw_mul(idx[:, None], idx[None, :])
    assert np.array_equal(got, _einsum_mul(ring, idx[:, None], idx[None, :]))


@pytest.mark.parametrize("I,J,shape", [
    (1234, np.arange(0, 8192, 7), (1171,)),
    (np.arange(0, 8192, 7), 1234, (1171,)),
    (np.asarray(4321), np.asarray(1234), ()),
    (4321, 1234, ()),
    (np.arange(5)[:, None] * 1000, np.arange(7)[None, :] * 999, (5, 7)),
    (np.arange(3, dtype=np.uint16), np.arange(3, dtype=np.uint16), (3,)),
])
def test_gf2_products_broadcast_to_int64(I, J, shape):
    ring = truncated_polynomials(2, 13)
    got = ring._raw_mul(I, J)
    assert isinstance(got, np.ndarray)
    assert got.dtype == np.int64 and got.shape == shape
    assert np.array_equal(got, _einsum_mul(ring, I, J))


# --- the digit kernel of matrix rings and odd-p table algebras --------------


def _ref_arrays(ring, I, J):
    """Products, sums and negatives of broadcast index arrays, as int64 arrays.

    Entries are decoded and encoded with numpy; the arithmetic is Python-int
    loops over the decoded entries, one pair at a time.
    """
    I, J = np.broadcast_arrays(np.asarray(I, dtype=np.int64),
                               np.asarray(J, dtype=np.int64))
    k, q = ring.k, ring.q
    powers = q ** np.arange(k * k - 1, -1, -1, dtype=np.int64)
    used = np.unique(np.concatenate([I.reshape(-1), J.reshape(-1)]))
    entries = dict(zip(used.tolist(), ((used[:, None] // powers) % q).tolist()))
    rows = {u: [e[r * k:r * k + k] for r in range(k)] for u, e in entries.items()}
    cols = {u: [e[c::k] for c in range(k)] for u, e in entries.items()}
    mul, add, neg = [], [], []
    for i, j in zip(I.reshape(-1).tolist(), J.reshape(-1).tolist()):
        # entry (r, c) = sum over m of a[r][m]·b[m][c]
        mul.append([sum(map(operator.mul, row, col)) % q
                    for row in rows[i] for col in cols[j]])
        add.append([(x + y) % q for x, y in zip(entries[i], entries[j])])
        neg.append([-x % q for x in entries[i]])
    return tuple((np.asarray(v, dtype=np.int64) @ powers).reshape(I.shape)
                 for v in (mul, add, neg))


@pytest.mark.parametrize("k,q", [(2, 3), (3, 2), (2, 5)])
def test_matrix_kernel_matches_entry_loops_on_every_pair(k, q):
    ring = build_matrix_ring(k, q)
    idx = ring.all_indices()
    rows, cols = idx[:, None], idx[None, :]
    mul_ref, add_ref, neg_ref = _ref_arrays(ring, rows, cols)
    assert np.array_equal(ring._raw_mul(rows, cols), mul_ref)
    assert np.array_equal(ring._raw_add(rows, cols), add_ref)
    assert np.array_equal(ring.idx_neg(idx), neg_ref[:, 0])
    assert np.array_equal(_table(ring), mul_ref)


@pytest.mark.parametrize("k,q", [(3, 3), (2, 7), (4, 3), (3, 2), (4, 2)])
def test_matrix_kernel_matches_entry_loops_on_random_pairs(k, q):
    ring = build_matrix_ring(k, q)
    rng = np.random.default_rng(k * 100 + q)
    I, J = rng.integers(0, ring.size, (2, 10 ** 5))
    mul, add, neg = _ref_arrays(ring, I, J)
    assert np.array_equal(ring.idx_mul(I, J), mul)
    assert np.array_equal(ring.idx_add(I, J), add)
    assert np.array_equal(ring.idx_neg(I), neg)


def _matrix_unit_algebra(q):
    """M_2(GF(q)) as a table algebra on the matrix units."""
    return build_table_algebra(
        q, ["e11", "e12", "e21", "e22"], [1, 0, 0, 1],
        [[2 * i + j, 2 * j + k, 2 * i + k, 1]
         for i in range(2) for j in range(2) for k in range(2)])


def _odd_table_algebras():
    gf3_t4 = build_table_algebra(  # GF(3)[t]/(t^4)
        3, ["1", "t", "t2", "t3"], [1, 0, 0, 0],
        [[i, j, i + j, 1] for i in range(4) for j in range(4 - i)])
    gf9 = build_table_algebra(  # GF(3)[t]/(t^2 + 1): t·t = -1 = 2
        3, ["1", "t"], [1, 0],
        [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 2]])
    return {"gf3[t]/(t^4)": gf3_t4, "gf9": gf9,
            "m2gf3-table": _matrix_unit_algebra(3)}


@pytest.mark.parametrize("q", [2, 3])
def test_matrix_ring_products_equal_the_matrix_unit_algebra(q):
    ring, algebra = build_matrix_ring(2, q), _matrix_unit_algebra(q)
    assert ring.labels == algebra.labels and ring.one().index == algebra.one().index
    assert np.array_equal(_table(ring), _table(algebra))


@pytest.mark.parametrize("name", ["gf3[t]/(t^4)", "gf9", "m2gf3-table"])
def test_odd_table_kernel_matches_einsum_on_every_pair(name):
    ring = _odd_table_algebras()[name]
    p, idx = ring.p, ring.all_indices()
    X = (idx[:, None] // ring._powers) % p
    want = np.einsum("mi,mj,ijk->mk", X[:, None, :].repeat(ring.size, 1)
                     .reshape(-1, ring.dim), np.tile(X, (ring.size, 1)),
                     ring.tensor) % p @ ring._powers
    want = want.reshape(ring.size, ring.size)
    add = ((X[:, None, :] + X[None, :, :]) % p) @ ring._powers
    neg = (-X % p) @ ring._powers
    assert np.array_equal(ring._raw_mul(idx[:, None], idx[None, :]), want)
    assert np.array_equal(ring._raw_add(idx[:, None], idx[None, :]), add)
    assert np.array_equal(ring.idx_neg(idx), neg)
    assert np.array_equal(_table(ring), want)
    for i in range(ring.size):  # 0-d operands, on the same array kernel
        for j in range(ring.size):
            assert ring._raw_mul(i, j) == want[i, j]
            assert ring._raw_add(i, j) == add[i, j]
        assert ring.idx_neg(i) == neg[i]


@pytest.mark.parametrize("I,J,shape", [
    (1234, np.arange(0, 19683, 7), (2812,)),
    (np.arange(0, 19683, 7), 1234, (2812,)),
    (np.asarray(4321), np.asarray(1234), ()),
    (4321, 1234, ()),
    (np.arange(5)[:, None] * 1000, np.arange(7)[None, :] * 999, (5, 7)),
    (np.arange(3, dtype=np.uint16), np.arange(3, dtype=np.uint16) + 9000, (3,)),
], ids=["scalar-vector", "vector-scalar", "0d", "python-int", "2d", "uint16"])
def test_matrix_kernel_broadcasts_to_int64(I, J, shape):
    ring = build_matrix_ring(3, 3)
    mul, add, neg = _ref_arrays(ring, I, J)
    for got, want in ((ring._raw_mul(I, J), mul), (ring._raw_add(I, J), add),
                      (ring.idx_neg(np.broadcast_to(I, shape)), neg)):
        assert isinstance(got, np.ndarray)
        assert got.dtype == np.int64 and got.shape == shape
        assert np.array_equal(got, want)


def test_matrix_ring_past_int64_indices_refuses_element_use():
    ring = build_matrix_ring(8, 2)  # 2^64 elements: builds, never indexes
    assert ring.size == 2 ** 64
    with pytest.raises(InvalidModulus, match="2\\^64 elements"):
        parse_element(ring, "e11")
    with pytest.raises(InvalidModulus):
        ring.idx_mul(np.arange(4), 3)
    with pytest.raises(InvalidModulus, match="2\\^64 elements"):
        -Elem(ring, 1)  # -x is x·(-1): finding -1 meets the same refusal


def test_matrix_ring_past_int64_digit_products_refuses_element_use():
    q = 4611686018427387847
    ring = build_matrix_ring(1, q)
    a = Elem(ring, 3037000500)
    for make in (lambda: a * a, lambda: -a,
                 lambda: parse_element(ring, "3037000500 e11")):
        with pytest.raises(InvalidModulus, match="past int64"):
            make()
    with pytest.raises(InvalidModulus):
        ring.idx_add(np.arange(3), 5)


def test_odd_table_algebra_past_int64_digit_products_refuses_element_use():
    p = 4611686018427387847
    ring = build_table_algebra(p, ["1"], [1], [[0, 0, 0, 1]])
    with pytest.raises(InvalidModulus, match="past int64"):
        Elem(ring, 3037000500) * Elem(ring, 3037000500)


def test_table_algebra_past_int64_validates_with_python_ints():
    # GF(p) with unity 11 and x*x = x/11: a valid algebra whose unity and
    # associativity sums pass int64
    p = 4611686018427387847
    ring = build_table_algebra(p, ["x"], [11], [[0, 0, 0, pow(11, -1, p)]])
    assert ring.size == p
    with pytest.raises(InvalidModulus, match="past int64"):
        Elem(ring, 5) * Elem(ring, 7)
    with pytest.raises(NoUnity):
        build_table_algebra(p, ["x"], [11], [[0, 0, 0, pow(12, -1, p)]])


def test_digit_kernel_is_exact_up_to_its_bound():
    # largest prime p with (p - 1)^2 < 2^63: products sum right up to int64
    p = next(n for n in range(math.isqrt(2 ** 63 - 1) + 1, 0, -1)
             if rings._is_prime(n))
    ring = build_matrix_ring(1, p)
    I = np.asarray([p - 1, p - 2, 3037000400, 12345])
    J = np.asarray([p - 1, p - 1, 3037000411, p - 7])
    want = [i * j % p for i, j in zip(I.tolist(), J.tolist())]
    assert ring.idx_mul(I, J).tolist() == want
    assert [(Elem(ring, i) * Elem(ring, j)).index
            for i, j in zip(I.tolist(), J.tolist())] == want
    assert ring.idx_add(I, J).tolist() == [(i + j) % p for i, j in
                                           zip(I.tolist(), J.tolist())]
    big = build_matrix_ring(7, 2)  # 2^49 elements
    e11 = parse_element(big, "e11")
    assert (e11 * e11).index == e11.index == 2 ** 48
