import numpy as np
import pytest

from ginvlab import (ElemSet, RingMismatch, build_example_ring,
                     build_matrix_ring, build_table_algebra, build_zmod,
                     gfmatrix, ginv, theoremlab)
from ginvlab.rings import _distinct, _row_blocks, is_semiprime


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


def meets_in_zero(s, t):
    """Whether the element sets s and t, two additive subgroups, share only 0."""
    return len(np.intersect1d(s.indices(), t.indices(), assume_unique=True)) == 1


def _pairwise(ring, op, left, right):
    """Deduplicated op(l, r) over the full cross product, chunked."""
    left = _distinct(ring, [np.asarray(left, dtype=np.int64)])
    right = _distinct(ring, [np.asarray(right, dtype=np.int64)])
    if len(left) == 0 or len(right) == 0:
        return np.empty(0, dtype=np.int64)
    return _distinct(ring, (op(left[rows, None], right[None, :])
                            for rows in _row_blocks(len(left), len(right))))


def sumset(s, t):
    """{x + y : x in s, y in t}, the materialised reference for the subgroup
    counts that decide sum identities in ginvlab.ginv."""
    if s.ring != t.ring:
        raise RingMismatch("sets belong to different rings")
    ring = s.ring
    return ElemSet(ring, _pairwise(ring, ring.idx_add, s.indices(),
                                   t.indices()))


def inner_products(a, xs, ys):
    """{x*a*y : x in xs, y in ys}, over every factor pair at once.

    x*a*y depends on x only through x*a and on y only through a*y, so
    one x per distinct x*a and one y per distinct a*y are paired.  With
    xs = ys = I(a) this is I(a)*a*I(a) = Ref(a), and since
    |I(a)*a|*|a*I(a)| = |Ref(a)| it costs at most |Ref(a)| products.
    The per-element reference for refl_map's product law.
    """
    ring = a.ring
    ring.ensure_enumerable()
    ys = np.asarray(ys, dtype=np.int64)
    ay = ring.idx_mul(a.index, ys)
    rep = np.empty(ring.size, dtype=np.int64)
    rep[ay] = ys  # one y for each a*y
    left = ring.idx_mul(np.asarray(xs, dtype=np.int64), a.index)
    return ElemSet(ring, _pairwise(ring, ring.idx_mul, left,
                                   rep[_distinct(ring, [ay])]))


def semiprime_scan_oracle(ring):
    """The full-mask semiprime scan, the reference for rings._semiprime_scan:
    a·g·a over all of R for each additive generator g, and the first
    nonzero a with every product 0, or -1."""
    idx = ring.all_indices()
    mask = np.ones(ring.size, dtype=bool)
    for g in ring.additive_generator_indices():
        mask &= ring.idx_mul(ring.idx_mul(idx, int(g)), idx) == 0
    mask[0] = False
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else -1


def truncated_polynomials(p, dim):
    """GF(p)[t]/(t^dim) on the basis 1, t, ..., t^(dim-1)."""
    basis = ["1"] + [f"t{k}" for k in range(1, dim)]
    constants = [[i, j, i + j, 1] for i in range(dim) for j in range(dim - i)]
    return build_table_algebra(p, basis, [1] + [0] * (dim - 1), constants)


def _scrambled_algebra(dim, seed):
    """M_2(GF(2)) x GF(2)[t]/(t^(dim-4)) (GF(2)[t]/(t^dim) for dim <= 4),
    on a random basis, so that most basis products have several terms."""
    poly = dim - 4 if dim > 4 else dim
    tensor = np.zeros((dim, dim, dim), dtype=np.int64)
    unity = np.zeros(dim, dtype=np.int64)
    if dim > 4:  # matrix units e11, e12, e21, e22 first
        for i, j, k in np.ndindex(2, 2, 2):
            tensor[2 * i + j, 2 * j + k, 2 * i + k] = 1
        unity[[0, 3]] = 1
    base = dim - poly
    for i in range(poly):
        for j in range(poly - i):
            tensor[base + i, base + j, base + i + j] = 1
    unity[base] = 1
    rng = np.random.default_rng(seed)
    while True:
        S = rng.integers(0, 2, (dim, dim))  # new basis vector i = S[i] · old
        R, T, pivots = gfmatrix.row_reduce(S, 2)  # T·S = R = I if invertible
        if len(pivots) == dim:
            break
    T = T.astype(np.int64)  # gfmatrix returns Python ints
    scrambled = np.einsum("ia,jb,abk,km->ijm", S, S, tensor, T) % 2
    return build_table_algebra(2, [f"x{k}" for k in range(dim)],
                               list(unity @ T % 2), scrambled)


# The shared rings by fixture name.  The session fixtures carry the caches
# (product table, scans) of every test that used them; fresh_ring does not.
FIXTURE_RINGS = {
    "z4": lambda: build_zmod(4),
    "z6": lambda: build_zmod(6),
    "z30": lambda: build_zmod(30),
    "m2gf2": lambda: build_matrix_ring(2, 2),
    "m2gf3": lambda: build_matrix_ring(2, 3),
    "example": build_example_ring,
    "gf3t3": lambda: truncated_polynomials(3, 3),  # an odd-p table algebra
}


@pytest.fixture
def fresh_ring():
    """fresh_ring(name): a new FIXTURE_RINGS ring, with no table or cache."""
    return lambda name: FIXTURE_RINGS[name]()


@pytest.fixture(scope="session")
def z4():
    return FIXTURE_RINGS["z4"]()


@pytest.fixture(scope="session")
def z6():
    return FIXTURE_RINGS["z6"]()


@pytest.fixture(scope="session")
def z30():
    return FIXTURE_RINGS["z30"]()


@pytest.fixture(scope="session")
def m2gf2():
    return FIXTURE_RINGS["m2gf2"]()


@pytest.fixture(scope="session")
def m2gf3():
    return FIXTURE_RINGS["m2gf3"]()


@pytest.fixture(scope="session")
def example():
    return FIXTURE_RINGS["example"]()


@pytest.fixture(scope="session")
def gf3t3():
    return FIXTURE_RINGS["gf3t3"]()


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
        mismatch = ginv._first_difference(_pairwise(
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


# ---------------------------------------------------------------------------
# Per-element forms of the checks that ginvlab.theoremlab runs ring-wide:
# refl_map's product law, jain_prasad, subset_criterion and the three
# collision checks.  Each takes a theoremlab._Scan, loops in Python over
# its elements as the checks once did, and returns (status, witnesses,
# note), the references the ring-wide checks are checked against.


def _class_counts(a, *keys):
    """(elements, how many classes the key tuples split each one's pairs
    into), by np.unique over the stacked columns."""
    distinct = np.unique(np.stack([a, *keys]), axis=1)
    return np.unique(distinct[0], return_counts=True)


def refl_map_per_element(s):
    """refl_map with the product law I(a)*a*I(a) = Ref(a) decided one
    element at a time, by inner_products."""
    tl = theoremlab
    ring, frames = s.ring, s.frames
    a_of = frames.a
    phi = ring.idx_mul(ring.idx_mul(frames.witnesses, a_of), frames.witnesses)
    ref_a, ref_x = s.ref_pairs
    image, _ = ginv._group(a_of, phi)
    both_a = np.concatenate([a_of[image], ref_a])
    first, of = ginv._group(both_a, np.concatenate([phi[image], ref_x]))
    unmatched = both_a[first[np.bincount(of) == 1]]
    fixed = ring.idx_mul(ring.idx_mul(ref_x, ref_a), ref_x)
    elems, by_frame = _class_counts(a_of, frames.of)
    by_phi = _class_counts(a_of, phi)[1]
    by_both = _class_counts(a_of, frames.of, phi)[1]
    failures = [unmatched, ref_a[fixed != ref_x],
                elems[(by_frame != by_phi) | (by_frame != by_both)]]
    stop = min((int(bad.min()) for bad in failures if len(bad)), default=-1)
    for a in (int(v) for v in s.regulars):
        ref = s.refset(a)
        if a == stop:
            mine = a_of == a
            if a in failures[0]:
                w = ginv._first_difference(np.unique(phi[mine]), ref)
                return tl.VIOLATION, [("a", a), ("x", w)], s.note(
                    "image of x -> x*a*x over I(a) differs from Ref(a)")
            if a in failures[1]:
                fixed = ring.idx_mul(ring.idx_mul(ref, a), ref)
                x = int(ref[np.nonzero(fixed != ref)[0][0]])
                return tl.VIOLATION, [("a", a), ("x", x)], s.note(
                    "x in Ref(a) is not a fixed point of x -> x*a*x")
            ia, of, vals = frames.witnesses[mine], frames.of[mine], phi[mine]
            y, k, x = min((clash[1], k, clash[0]) for k, clash in enumerate(
                (tl._first_clash(vals, of), tl._first_clash(of, vals)))
                if clash is not None)
            return tl.VIOLATION, \
                [("a", a), ("x", int(ia[x])), ("y", int(ia[y]))], s.note((
                    "x*a*x = y*a*y but (x*a, a*x) != (y*a, a*y)",
                    "(x*a, a*x) = (y*a, a*y) but x*a*x != y*a*y")[k])
        ia = s.iset(a)
        prods = inner_products(ring.from_index(a), ia, ia).indices()
        if not np.array_equal(prods, ref):
            w = ginv._first_difference(prods, ref)
            return tl.VIOLATION, [("a", a), ("x", w)], \
                s.note("the product set I(a)*a*I(a) differs from Ref(a)")
    return tl.PASS, [], s.note(
        f"all four properties on {len(s.regulars)} regular elements")


def jain_prasad_per_element(s):
    """jain_prasad, one b at a time over every pair point d."""
    ring = s.ring
    pts = s.pair_points
    checked = 0
    for b in (int(v) for v in pts):
        srow = ring.idx_add(b, pts)
        ok = s.regular_at(srow)
        int_r = s.trivial_meet("right", b, pts)
        int_l = s.trivial_meet("left", b, pts)
        c1 = int_r & s.member("right", b, srow)
        c2 = int_l & s.member("left", b, srow)
        c3 = int_r & int_l
        bad = ok & ~((c1 == c2) & (c2 == c3))
        if bad.any():
            j = int(np.argmax(bad))
            return theoremlab.VIOLATION, [("b", b), ("d", int(pts[j]))], \
                s.note(f"conditions evaluated as ({bool(c1[j])}, "
                       f"{bool(c2[j])}, {bool(c3[j])})")
        checked += int(ok.sum())
    return theoremlab.PASS, [], s.pair_scope(
        checked, "ordered pairs with b+d regular")


PROOF_IDENTITIES = ("b*x*d = 0", "d*x*b = 0", "d*x*d = d")


def proof_identity_failure(ring, ia, bs, ds):
    """The first failure of b*x*d = 0, d*x*b = 0, d*x*d = d over x in I(a)
    = ia and the pairs (bs[j], ds[j]), as (j, identity, x), or None: by
    pair, then identity, then x in I(a) order."""
    bs = np.asarray(bs, dtype=np.int64)[:, None]
    ds = np.asarray(ds, dtype=np.int64)[:, None]
    bad = np.stack([ring.idx_mul(ring.idx_mul(left, ia), right) != want
                    for left, right, want in ((bs, ds, 0), (ds, bs, 0),
                                              (ds, ds, ds))], axis=1)
    if not bad.any():
        return None
    j, which, x = np.unravel_index(np.argmax(bad), bad.shape)
    return int(j), PROOF_IDENTITIES[which], int(ia[x])


def subset_criterion_per_element(s):
    """subset_criterion, one a at a time over every regular pair point b."""
    tl = theoremlab
    ring, semi = s.ring, is_semiprime(s.ring)
    if not semi.semiprime:
        return tl.SKIPPED, [], (
            "stated for semiprime rings only; this ring has witness "
            f"{tl._render(ring, semi.witness.index)} with a*R*a = 0")
    regs = s.pair_points[s.regular_at(s.pair_points)]
    masks = np.zeros((len(regs), ring.size), dtype=bool)
    for j, b in enumerate(int(v) for v in regs):
        masks[j, s.iset(b)] = True
    verified = 0
    for a in (int(v) for v in regs):
        ia = s.iset(a)
        subs = masks[:, ia].all(axis=1)
        drow = ring.idx_sub(a, regs)
        crit = (s.trivial_meet("right", regs, drow)
                & s.trivial_meet("left", regs, drow))
        mism = subs != crit
        if mism.any():
            j = int(np.nonzero(mism)[0][0])
            side = ("I(a) is contained in I(b) but the annihilation "
                    "criterion fails" if subs[j] else
                    "the annihilation criterion holds without the subset")
            return tl.VIOLATION, [("a", a), ("b", int(regs[j])),
                                  ("d", int(drow[j]))], s.note(side)
        js = np.flatnonzero(subs)
        failure = proof_identity_failure(ring, ia, regs[js], drow[js])
        if failure is not None:
            j, which, w = failure
            return tl.VIOLATION, \
                [("a", a), ("b", int(regs[js[j]])), ("d", int(drow[js[j]])),
                 ("x", w)], s.note(f"proof identity {which} fails")
        verified += len(js)
    return tl.PASS, [], s.note(
        f"biconditional on {len(regs)}^2 ordered regular pairs; proof "
        f"identities on the {verified} pairs with I(a) in I(b)")


def collisions_per_element(s, setter):
    """Group the regular elements by setter(a), keyed by its bytes:
    (groups in order of first member, first pair, colliding pairs)."""
    first_of, groups = {}, {}
    first_pair, npairs = None, 0
    for a in (int(v) for v in s.regulars):
        key = setter(a).tobytes()
        if key in first_of:
            npairs += len(groups[key])
            if first_pair is None:
                first_pair = (first_of[key], a)
        else:
            first_of[key] = a
        groups.setdefault(key, []).append(a)
    return list(groups.values()), first_pair, npairs


def theorem_inner_per_element(s):
    _, first_pair, npairs = collisions_per_element(s, s.iset)
    return theoremlab._theorem_verdict(s, "I", first_pair, npairs)


def theorem_reflexive_per_element(s):
    if not np.array_equal(s.refset(0), [0]):
        return theoremlab.VIOLATION, [("a", 0)], "Ref(0) is not {0}"
    _, first_pair, npairs = collisions_per_element(s, s.refset)
    return theoremlab._theorem_verdict(s, "Ref", first_pair, npairs,
                                       extra="; Ref(0) = {0} verified first")


def nielsen_per_element(s):
    ring = s.ring
    groups, _, npairs = collisions_per_element(s, s.iset)
    for members in groups:
        arr = np.asarray(members, dtype=np.int64)
        diffs = ring.idx_sub(arr[:, None], arr[None, :])
        reg = s.regular_at(diffs)
        np.fill_diagonal(reg, False)
        if reg.any():
            i, j = (int(v[0]) for v in np.nonzero(reg))
            return theoremlab.VIOLATION, \
                [("a", int(arr[i])), ("b", int(arr[j])),
                 ("d", int(diffs[i, j]))], \
                s.note("I(a) = I(b) with a-b regular but a != b")
    if npairs:
        return theoremlab.PASS, [], s.note(
            f"{npairs} pairs of distinct regular elements share I-sets; "
            "every such difference is non-regular")
    return theoremlab.PASS, [], s.note(
        "no I-set collisions among regular elements")


def hartwig_per_element(s):
    """hartwig, one ordered pair (a, b) of each ideal class at a time: a
    unit u with b = a*u, then a unit v with b = v*a."""
    ring, units = s.ring, s.ring.unit_indices()
    classes = {}  # in order of least member
    for a in (int(v) for v in s.regulars):
        key = tuple(int(k) for k in s.ideal_key(a))
        classes.setdefault(key, []).append(a)
    for members in classes.values():
        for a in members:
            for law, orbit in (("u with b = a*u", ring.idx_mul(a, units)),
                               ("v with b = v*a", ring.idx_mul(units, a))):
                reached = set(orbit.tolist())
                for b in members:
                    if b not in reached:
                        return theoremlab.VIOLATION, [("a", a), ("b", b)], \
                            s.note(f"no unit {law} although aR = bR and "
                                   "Ra = Rb")
    pairs = sum(len(members) ** 2 for members in classes.values())
    return theoremlab.PASS, [], s.note(
        f"{pairs} ordered pairs across {len(classes)} ideal classes, "
        f"unit group of order {len(units)}")


CHECK_ORACLES = {
    "refl_map": refl_map_per_element,
    "jain_prasad": jain_prasad_per_element,
    "subset_criterion": subset_criterion_per_element,
    "theorem_inner": theorem_inner_per_element,
    "nielsen": nielsen_per_element,
    "theorem_reflexive": theorem_reflexive_per_element,
    "hartwig": hartwig_per_element,
}
