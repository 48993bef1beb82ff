"""Generalized-inverse set computations.

Exact, enumeration-based constructions: inner and outer inverse sets,
reflexive inverses, annihilators, principal ideals, products x*a*y, and
the parametrizations and decompositions that rewrite those sets through
the idempotent pair e = a*a0, f = a0*a.  Operations that walk the whole
ring honor the ring's enumeration budget and raise BudgetExceeded
instead of starting a scan that cannot finish.

Each identity that depends on an inner inverse a0 (the witness) has one
function.  It takes the Frames of one a, built by idempotent_frames, the
only code that checks a*a0*a = a and groups witnesses by frame
(a0*a, a*a0); it does per-frame work once and returns one set or verdict
per witness (singleton_conjugate_batch, whose answer does not depend on
a0, one per b).  Most are named *_batch.  The two coset forms of I(a),
a0 + {t - f*t*e} and a0 + Iann(a), are decided by counting: a coset that
lies in I(a) equals it iff it has |I(a)| elements, so no translate is
built.
inner_products and ref_decomposition build Ref(a) = I(a)*a*I(a) in
factored form, from I(a)*a and a*I(a), whose sizes multiply to |Ref(a)|.
ref_decomposition keeps its name because the benchmark counts calls to
it, and that count measures the batching.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import NotInnerInverse, NotReflexiveInverse, RingMismatch
from .rings import Elem, ElemSet, Ring, _distinct, _row_blocks


def _scan_indices(ring: Ring) -> np.ndarray:
    ring.ensure_enumerable()
    return ring.all_indices()


def _first_difference(got: np.ndarray, want: np.ndarray) -> int:
    """The first element of got outside want, or else of want outside got."""
    diff = np.setdiff1d(got, want)
    return int((diff if len(diff) else np.setdiff1d(want, got))[0])


def _pairwise(ring: Ring, op, left: np.ndarray,
              right: np.ndarray) -> np.ndarray:
    """Deduplicated op(l, r) over the full cross product, chunked."""
    left = _distinct(ring, [np.asarray(left, dtype=np.int64)])
    right = _distinct(ring, [np.asarray(right, dtype=np.int64)])
    if len(left) == 0 or len(right) == 0:
        return np.empty(0, dtype=np.int64)
    return _distinct(ring, (op(left[rows, None], right[None, :])
                            for rows in _row_blocks(len(left), len(right))))


# ---------------------------------------------------------------------------
# the basic sets


def inner_inverses(a: Elem) -> ElemSet:
    """I(a) = {x : a*x*a = a}."""
    ring = a.ring
    idx = _scan_indices(ring)
    axa = ring.idx_mul(ring.idx_mul(a.index, idx), a.index)
    return ElemSet(ring, np.flatnonzero(axa == a.index))


def outer_inverses(a: Elem) -> ElemSet:
    """{x : x*a*x = x}; always contains 0."""
    ring = a.ring
    idx = _scan_indices(ring)
    xax = ring.idx_mul(ring.idx_mul(idx, a.index), idx)
    return ElemSet(ring, np.flatnonzero(xax == idx))


def reflexive_inverses(a: Elem) -> ElemSet:
    """Ref(a): the x that are both inner and outer inverses of a."""
    ring = a.ring
    idx = _scan_indices(ring)
    ax = ring.idx_mul(a.index, idx)
    inner_mask = ring.idx_mul(ax, a.index) == a.index
    outer_mask = ring.idx_mul(ring.idx_mul(idx, a.index), idx) == idx
    return ElemSet(ring, np.flatnonzero(inner_mask & outer_mask))


def inner_inverses_param_batch(frames: Frames) -> np.ndarray:
    """Per witness a0, whether I(a) = {a0 + t - a0*a*t*a*a0 : t in R}.

    a0*a*t*a*a0 = f*t*e, so the set is the coset a0 + B of the image B of
    the additive map t -> t - f*t*e.  a*(t - f*t*e)*a = 0, so a0 + B lies
    in I(a), which is checked on the images of R's additive generators.
    Then a0 + B = I(a) iff |B| = |I(a)|, that is iff
    |R| = |I(a)| * |{t : f*t*e = t}|, the kernel of the map.  One verdict
    per frame (f, e), frames in row blocks (rings._row_blocks).
    """
    a = frames.a
    ring = a.ring
    n = ring.size
    idx = _scan_indices(ring)
    axa = ring.idx_mul(ring.idx_mul(a.index, idx), a.index)
    inner = int(np.count_nonzero(axa == a.index))
    f, e = frames.f[:, None], frames.e[:, None]
    gens = ring.additive_generator_indices()[None, :]
    base = ring.idx_sub(gens, ring.idx_mul(ring.idx_mul(f, gens), e))
    inside = (ring.idx_mul(ring.idx_mul(a.index, base), a.index)
              == 0).all(axis=1)
    fixed = np.empty(len(inside), dtype=np.int64)
    for rows in _row_blocks(len(fixed), n):
        fte = ring.idx_mul(ring.idx_mul(f[rows], idx[None, :]), e[rows])
        fixed[rows] = np.count_nonzero(fte == idx, axis=1)
    return (inside & (fixed * inner == n))[frames.of]


def inner_products(a: Elem, xs, ys) -> ElemSet:
    """{x*a*y : x in xs, y in ys}, over every factor pair at once.

    x*a*y depends on x only through x*a and on y only through a*y, so
    one x per distinct x*a and one y per distinct a*y are paired.  With
    xs = ys = I(a) this is I(a)*a*I(a) = Ref(a), and since
    |I(a)*a|*|a*I(a)| = |Ref(a)| it costs at most |Ref(a)| products.
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


# ---------------------------------------------------------------------------
# annihilators and ideals


def left_annihilator(a: Elem) -> ElemSet:
    """l(a) = {x : x*a = 0}."""
    ring = a.ring
    idx = _scan_indices(ring)
    return ElemSet(ring, np.flatnonzero(ring.idx_mul(idx, a.index) == 0))


def right_annihilator(a: Elem) -> ElemSet:
    """r(a) = {x : a*x = 0}."""
    ring = a.ring
    idx = _scan_indices(ring)
    return ElemSet(ring, np.flatnonzero(ring.idx_mul(a.index, idx) == 0))


def inner_annihilator(a: Elem) -> ElemSet:
    """Iann(a) = {x : a*x*a = 0}."""
    ring = a.ring
    idx = _scan_indices(ring)
    axa = ring.idx_mul(ring.idx_mul(a.index, idx), a.index)
    return ElemSet(ring, np.flatnonzero(axa == 0))


def principal_ideal_rows(ring: Ring, side: str, s) -> np.ndarray:
    """Membership rows of sR (side "right") or Rs (side "left"), one per s.

    A (len(s), |R|) bool array, built in row blocks (rings._row_blocks).
    """
    idx = _scan_indices(ring)[None, :]
    s = np.asarray(s, dtype=np.int64).reshape(-1, 1)
    out = np.zeros((len(s), ring.size), dtype=bool)
    for rows in _row_blocks(len(s), ring.size):
        block = out[rows]  # a view: marking it marks out
        prods = (ring.idx_mul(s[rows], idx) if side == "right"
                 else ring.idx_mul(idx, s[rows]))
        block[np.arange(len(block))[:, None], prods] = True
    return out


def principal_right_ideal(a: Elem) -> ElemSet:
    """aR = {a*r : r in R}."""
    return ElemSet(a.ring, np.flatnonzero(
        principal_ideal_rows(a.ring, "right", [a.index])[0]))


def principal_left_ideal(a: Elem) -> ElemSet:
    """Ra = {r*a : r in R}."""
    return ElemSet(a.ring, np.flatnonzero(
        principal_ideal_rows(a.ring, "left", [a.index])[0]))


# ---------------------------------------------------------------------------
# the idempotent frame and its decompositions


class Frames(NamedTuple):
    """Inner inverses of a grouped by frame, the frames sorted by (f, e).

    The input of every witness kernel.  It carries its element, so a
    frame set cannot be paired with another; build it with
    idempotent_frames, which checks every witness.
    """

    a: Elem
    witnesses: np.ndarray  # the inner inverses a0, as int64 indices
    f: np.ndarray   # a0*a for each frame
    e: np.ndarray   # a*a0 for each frame
    of: np.ndarray  # the frame of each witness, as a position in f and e


def idempotent_frames(a: Elem, a0s) -> Frames:
    """Group inner inverses of a, given as an index array, by frame.

    Raises NotInnerInverse naming the first a0, in array order, that is
    not an index of the ring or has a*a0*a != a.  Over all of I(a) the
    frames match Ref(a) one to one: a0*a*a0 is the one reflexive inverse
    with the frame of a0.
    """
    ring = a.ring
    a0s = np.asarray(a0s, dtype=np.int64).reshape(-1)
    inside = (a0s >= 0) & (a0s < ring.size)
    safe = np.where(inside, a0s, 0)  # idx_mul wraps or rejects the others
    f, e = ring.idx_mul(safe, a.index), ring.idx_mul(a.index, safe)
    bad = np.flatnonzero(~inside | (ring.idx_mul(e, a.index) != a.index))
    if len(bad):
        k = bad[0]
        a0 = (Elem(ring, a0s[k]) if inside[k]
              else f"index {a0s[k]}, outside the ring,")
        raise NotInnerInverse(f"{a0} is not an inner inverse of {a}")
    # one sort key per (f, e); past 2^31 elements f*|R| needs Python ints
    keys = (f if ring.size < 1 << 31 else f.astype(object)) * ring.size + e
    _, first, of = np.unique(keys, return_index=True, return_inverse=True)
    return Frames(a, a0s, f[first], e[first], of.reshape(-1))


class IannDecompositions(NamedTuple):
    """The two sum identities of Iann(a) and the translate I(a) = a0 + Iann(a),
    for one a and its witnesses.

    a0 + Iann(a) always lies in I(a), since a*(a0 + x)*a = a + a*x*a, so
    it equals I(a) iff |Iann(a)| = |I(a)|; translate_ok holds that one
    count comparison per witness.
    """

    # None when Iann(a) = l(a) + r(a); otherwise the first element of
    # l(a) + r(a) outside Iann(a), or failing that of Iann(a) outside it
    ann_mismatch: Optional[int]
    frame_ok: np.ndarray  # per witness a0: whether Iann(a) = R*e_c + f_c*R
    translate_ok: np.ndarray  # per witness a0: whether I(a) = a0 + Iann(a)


def _sums_to(u: np.ndarray, w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Whether U + W = T, for additive subgroups given as masks (per row).

    U + W = T iff U and W lie in T and |U|*|W| = |T|*|U & W|, because
    |U + W| = |U|*|W| / |U & W| for subgroups of an abelian group.  This
    costs O(|R|) mask work instead of the |U| x |W| sumset.
    """
    inside = ~((u | w) & ~t).any(axis=-1)
    return inside & (u.sum(axis=-1) * w.sum(axis=-1)
                     == t.sum() * (u & w).sum(axis=-1))


def iann_decomposition_batch(frames: Frames) -> IannDecompositions:
    """Iann(a) = l(a) + r(a) once, and per witness of frames
    Iann(a) = R*e_c + f_c*R and I(a) = a0 + Iann(a).

    Each sum identity is decided by the subgroup count of _sums_to, once
    per frame, with R*e_c and f_c*R from principal_ideal_rows; the sumset
    is built only to name the element of a failure.
    The translate compares |Iann(a)| with |I(a)|, both counted from one
    a*x*a gather.
    """
    a = frames.a
    ring = a.ring
    idx = _scan_indices(ring)
    ax = ring.idx_mul(a.index, idx)
    axa = ring.idx_mul(ax, a.index)
    iann = axa == 0
    left = ring.idx_mul(idx, a.index) == 0
    right = ax == 0
    mismatch = None
    if not _sums_to(left, right, iann):
        mismatch = _first_difference(
            _pairwise(ring, ring.idx_add, idx[left], idx[right]), idx[iann])
    e_c = ring.idx_sub(ring._one_index, frames.e)
    f_c = ring.idx_sub(ring._one_index, frames.f)
    ok = np.empty(len(e_c), dtype=bool)
    for rows in _row_blocks(len(ok), ring.size):
        ok[rows] = _sums_to(principal_ideal_rows(ring, "left", e_c[rows]),
                            principal_ideal_rows(ring, "right", f_c[rows]),
                            iann)
    translate = np.count_nonzero(iann) == np.count_nonzero(axa == a.index)
    return IannDecompositions(mismatch, ok[frames.of],
                              np.full(len(frames.of), translate))


def ref_decomposition(frames: Frames) -> np.ndarray:
    """Ref(a) as {a0 + f*r*e_c + f_c*s*e + f_c*s*a*r*e_c : r, s in R}.

    This is the image of the translate form of I(a) under x -> x*a*x:
    writing a member as a0 + r*e_c + f_c*s and conjugating kills the
    cross terms, leaving the two-parameter family above.  The r and s
    occurrences are shared between summands, so the family is strictly
    smaller than the sumset of the three independent product sets.

    Row k of the (len(witnesses), |R|) bool result is the membership mask
    of witness k's family.  The witnesses are the reflexive inverses a0:
    NotReflexiveInverse names the first with a0*a*a0 != a0 (each is an
    inner inverse, as frames hold only those).  The name has no _batch
    suffix because perfbench counts calls to this one function, and that
    count measures the batching: the checks make one call per element,
    not one per witness.

    Evaluation, in factored form: with w = f_c*s*a and v = a*r*e_c the
    family is {(f + w)*a0*(e + v)}, since a0*a*a0 = a0 turns the four
    products of that expansion into the four summands.  f_c*R = r(a) and
    R*e_c = l(a), so w ranges over W_a = r(a)*a and v over V_a = a*l(a),
    both independent of a0 and computed once per call.  A row is then
    |W_a|*|V_a| products, and |W_a|*|V_a| = |I(a)*a|*|a*I(a)| = |Ref(a)|
    because (f + W_a) = I(a)*a and (e + V_a) = a*I(a); row blocks of
    that width (rings._row_blocks) bound every temporary.
    """
    a, a0s = frames.a, frames.witnesses
    ring = a.ring
    outer = ring.idx_mul(ring.idx_mul(a0s, a.index), a0s) == a0s
    if not outer.all():
        a0 = Elem(ring, int(a0s[np.argmin(outer)]))
        raise NotReflexiveInverse(f"{a0} is not an outer inverse of {a}")
    idx = _scan_indices(ring)
    right_ann = idx[ring.idx_mul(a.index, idx) == 0]
    left_ann = idx[ring.idx_mul(idx, a.index) == 0]
    w = _distinct(ring, [ring.idx_mul(right_ann, a.index)])[None, :, None]
    v = _distinct(ring, [ring.idx_mul(a.index, left_ann)])[None, None, :]
    f = frames.f[frames.of][:, None, None]
    e = frames.e[frames.of][:, None, None]
    out = np.zeros((len(a0s), ring.size), dtype=bool)
    for rows in _row_blocks(len(a0s), w.size * v.size):
        heads = ring.idx_mul(ring.idx_add(f[rows], w), a0s[rows, None, None])
        prods = ring.idx_mul(heads, ring.idx_add(e[rows], v))
        block = out[rows]  # a view: marking it marks out
        block[np.arange(len(block))[:, None],
              prods.reshape(len(block), -1)] = True
    return out


# ---------------------------------------------------------------------------
# the invariance test


def singleton_conjugate_batch(bs, frames: Frames) -> np.ndarray:
    """Per b in bs, whether {b*x*b : x in I(a)} is a singleton.

    Over the parametrization x = a0 + t - a0*a*t*a*a0, with a0 the first
    witness of frames, the conjugate is b*a0*b plus a term additive in t,
    so vanishing is tested on additive generators only: one
    (|bs| x generators) gather.
    """
    k = frames.of[0]
    f, e = int(frames.f[k]), int(frames.e[k])
    ring = frames.a.ring
    bs = np.asarray(bs, dtype=np.int64).reshape(-1, 1)
    gens = ring.additive_generator_indices()
    diff = ring.idx_sub(gens, ring.idx_mul(ring.idx_mul(f, gens), e))
    vals = ring.idx_mul(ring.idx_mul(bs, diff[None, :]), bs)
    return (vals == 0).all(axis=1)


# ---------------------------------------------------------------------------
# set plumbing


def sumset(s: ElemSet, t: ElemSet) -> ElemSet:
    """{x + y : x in s, y in t}."""
    if s.ring != t.ring:
        raise RingMismatch("sets belong to different rings")
    ring = s.ring
    return ElemSet(ring, _pairwise(ring, ring.idx_add, s.indices(),
                                   t.indices()))


def additive_span(ring: Ring, gens: Iterable[Elem]) -> ElemSet:
    """Closure of gens under addition and integer scaling; contains 0."""
    arr = np.zeros(1, dtype=np.int64)
    for g in gens:
        gi = g.index if isinstance(g, Elem) else int(g)
        layers = [ring.idx_add(arr, ring.scale_index(c, gi))
                  for c in range(ring.char)]
        arr = _distinct(ring, layers)
    return ElemSet(ring, arr)
