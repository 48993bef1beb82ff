"""Generalized-inverse set computations.

Exact, enumeration-based constructions: inner and outer inverse sets,
reflexive inverses, annihilators, principal ideals, products x*a*y, and
the parametrizations and decompositions that rewrite those sets through
the idempotent pair e = a*a0, f = a0*a.  Operations that walk the whole
ring honor the ring's enumeration budget and raise BudgetExceeded
instead of starting a scan that cannot finish.

Each identity that depends on an inner inverse a0 (the witness) has one
function.  It takes a Frames: witness pairs (a, a0) of any number of
elements as parallel index arrays, built by idempotent_frames, the only
code that checks a*a0*a = a and groups pairs by frame (a, a0*a, a*a0).
It answers once per pair (singleton_conjugate_batch with one row per
pair), does per-frame work once and per-(f, e) or per-a work once per
distinct value among the pairs, in row blocks (rings._row_blocks), so
one call covers every element of a ring and no |R|-wide row outlives
its block.  Most are named *_batch.  Each identity is decided by
counting: a coset that lies in I(a) equals it iff it has |I(a)|
elements, and a family that lies in Ref(a) equals it iff it has |Ref(a)|
distinct members, so no translate or family row is built; the caller
passes the counts it holds.  inner_inverse_pairs reads I(a) for many a
at once off rings._inner_rows, and reflexive_inverses keeps its x with
x*a*x = x.  ref_decomposition builds Ref(a) in the paper's factored
form, from W_a = r(a)*a and V_a = a*l(a), whose sizes multiply to
|Ref(a)|.  The kernels read whole-ring rows a*R and R*a with Ring.mul_rows.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .errors import NotInnerInverse, NotReflexiveInverse
from .rings import Elem, ElemSet, Ring, _distinct, _inner_rows, _row_blocks


def _scan_indices(ring: Ring) -> np.ndarray:
    ring.ensure_enumerable()
    return ring.all_indices()


def _group(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group positions by equal key tuples: (first, of), the groups sorted
    by the keys in order, first[g] the first position of group g and of[k]
    the group of position k.

    np.lexsort compares the keys one at a time, so the grouping is exact
    at any ring size: no combined key can leave int64.
    """
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    of = np.empty(len(order), dtype=np.int64)
    of[order] = np.cumsum(new) - 1
    return order[new], of


def _first_difference(got: np.ndarray, want: np.ndarray) -> int:
    """The first element of got outside want, or else of want outside got."""
    diff = np.setdiff1d(got, want)
    return int((diff if len(diff) else np.setdiff1d(want, got))[0])


# ---------------------------------------------------------------------------
# the basic sets


def inner_inverses(a: Elem) -> ElemSet:
    """I(a) = {x : a*x*a = a}: one row of inner_inverse_pairs."""
    return ElemSet(a.ring, inner_inverse_pairs(a.ring, a.index)[1])


def inner_inverse_pairs(ring: Ring, a) -> tuple[np.ndarray, np.ndarray]:
    """I(a_k) for every index a_k of the array a, as the pairs (k, x) with
    a_k*x*a_k = a_k: two int64 arrays, sorted by k, then x.

    The hits of the row blocks of rings._inner_rows, so only the pairs
    outlive a block.
    """
    pos, xs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for rows, hit in _inner_rows(ring, a):
        k, x = np.nonzero(hit)
        pos.append(k + rows.start)
        xs.append(x)
    return np.concatenate(pos), np.concatenate(xs)


def outer_inverses(a: Elem) -> ElemSet:
    """{x : x*a*x = x}; always contains 0."""
    ring = a.ring
    idx = _scan_indices(ring)
    xax = ring.idx_mul(ring.idx_mul(idx, a.index), idx)
    return ElemSet(ring, np.flatnonzero(xax == idx))


def reflexive_inverses(a: Elem) -> ElemSet:
    """Ref(a): the members x of I(a) (inner_inverse_pairs) with x*a*x = x."""
    ring = a.ring
    xs = inner_inverse_pairs(ring, a.index)[1]
    return ElemSet(ring, xs[ring.idx_mul(ring.idx_mul(xs, a.index), xs) == xs])


# ---------------------------------------------------------------------------
# annihilators and ideals


def left_annihilator(a: Elem) -> ElemSet:
    """l(a) = {x : x*a = 0}."""
    return ElemSet(a.ring,
                   np.flatnonzero(a.ring.mul_rows(a.index, "left") == 0))


def right_annihilator(a: Elem) -> ElemSet:
    """r(a) = {x : a*x = 0}."""
    return ElemSet(a.ring,
                   np.flatnonzero(a.ring.mul_rows(a.index, "right") == 0))


def inner_annihilator(a: Elem) -> ElemSet:
    """Iann(a) = {x : a*x*a = 0}."""
    ring = a.ring
    axa = ring.idx_mul(ring.mul_rows(a.index, "right"), a.index)
    return ElemSet(ring, np.flatnonzero(axa == 0))


def principal_ideal_rows(ring: Ring, side: str, s) -> np.ndarray:
    """Membership rows of sR (side "right") or Rs (side "left"), one per s.

    A (len(s), |R|) bool array, built in row blocks (rings._row_blocks):
    each block's rows s*R or R*s (Ring.mul_rows) mark out by flat index.
    """
    s = np.asarray(s, dtype=np.int64).reshape(-1)
    out = np.zeros((len(s), ring.size), dtype=bool)
    start = np.arange(len(s))[:, None] * ring.size  # of row k in out, flat
    for rows in _row_blocks(len(s), ring.size):
        prods = ring.mul_rows(s[rows], side)
        prods += start[rows]
        out.reshape(-1)[prods] = True  # out is C-ordered: a view
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
    """Witness pairs (a, a0) of one ring, grouped by frame (a, f, e) with
    f = a0*a and e = a*a0, the frames sorted by (a, f, e).

    The input of every witness kernel; build it with idempotent_frames,
    which checks every pair.  The pairs keep the order they were given
    in, and each kernel answers in that order.
    """

    ring: Ring
    a: np.ndarray          # per pair: the element
    witnesses: np.ndarray  # per pair: its inner inverse a0
    of: np.ndarray         # per pair: its frame, a position in those below
    frame_a: np.ndarray    # per frame: the element
    f: np.ndarray          # per frame: a0*a
    e: np.ndarray          # per frame: a*a0


def idempotent_frames(ring: Ring, a, a0s) -> Frames:
    """Group witness pairs (a, a0), given as index arrays, by frame.

    a holds one element per witness, or one element for all of them.
    Raises NotInnerInverse naming the first pair, in array order, whose
    a0 is not an index of the ring or has a*a0*a != a.  Over all of I(a)
    the frames of a match Ref(a) one to one: a0*a*a0 is the one
    reflexive inverse with the frame of a0.
    """
    a0s = np.asarray(a0s, dtype=np.int64).reshape(-1)
    a = np.broadcast_to(np.asarray(a, dtype=np.int64), a0s.shape).copy()
    if ((a < 0) | (a >= ring.size)).any():
        raise IndexError(f"index {a[(a < 0) | (a >= ring.size)][0]} is "
                         "outside the ring")
    inside = (a0s >= 0) & (a0s < ring.size)
    safe = np.where(inside, a0s, 0)  # idx_mul wraps or rejects the others
    f, e = ring.idx_mul(safe, a), ring.idx_mul(a, safe)
    bad = np.flatnonzero(~inside | (ring.idx_mul(e, a) != a))
    if len(bad):
        k = bad[0]
        a0 = (Elem(ring, a0s[k]) if inside[k]
              else f"index {a0s[k]}, outside the ring,")
        raise NotInnerInverse(
            f"{a0} is not an inner inverse of {Elem(ring, a[k])}")
    first, of = _group(a, f, e)
    return Frames(ring, a, a0s, of, a[first], f[first], e[first])


def _per_frame(frames: Frames, per_pair) -> np.ndarray:
    """A value given per pair (or one for all), read per frame (its last)."""
    out = np.empty(len(frames.f), dtype=np.int64)
    out[frames.of] = per_pair
    return out


def inner_inverses_param_batch(frames: Frames, inner_size) -> np.ndarray:
    """Per pair (a, a0), whether I(a) = {a0 + t - a0*a*t*a*a0 : t in R}.

    a0*a*t*a*a0 = f*t*e, so the set is the coset a0 + B of the image B of
    the additive map t -> t - f*t*e.  a*(t - f*t*e)*a = 0, so a0 + B lies
    in I(a), which is checked on the images of R's additive generators,
    once per frame.  Then a0 + B = I(a) iff |B| = |I(a)|, that is iff
    |R| = |I(a)| * |{t : f*t*e = t}|, the kernel of the map.  inner_size
    is |I(a)| per pair (or one count for all), as the caller holds it;
    the fixed points of t -> f*t*e are counted once per distinct (f, e),
    in row blocks (rings._row_blocks).
    """
    ring = frames.ring
    idx = _scan_indices(ring)
    gens = ring.additive_generator_indices()[None, :]
    a, f, e = (v[:, None] for v in (frames.frame_a, frames.f, frames.e))
    base = ring.idx_sub(gens, ring.idx_mul(ring.idx_mul(f, gens), e))
    inside = (ring.idx_mul(ring.idx_mul(a, base), a) == 0).all(axis=1)
    first, fe_of = _group(frames.f, frames.e)
    f, e = frames.f[first], frames.e[first, None]
    fixed = np.empty(len(first), dtype=np.int64)
    for rows in _row_blocks(len(fixed), ring.size):
        fte = ring.idx_mul(ring.mul_rows(f[rows], "right"), e[rows])
        fixed[rows] = np.count_nonzero(fte == idx, axis=1)
    size = _per_frame(frames, inner_size)
    return (inside & (fixed[fe_of] * size == ring.size))[frames.of]


class IannDecompositions(NamedTuple):
    """The two sum identities of Iann(a) and the translate I(a) = a0 + Iann(a),
    one verdict per pair (a, a0) of a Frames.

    a0 + Iann(a) always lies in I(a), since a*(a0 + x)*a = a + a*x*a, so
    it equals I(a) iff |Iann(a)| = |I(a)|; translate_ok holds that one
    count comparison per pair.
    """

    # per pair: -1 when Iann(a) = l(a) + r(a); otherwise the first element
    # of l(a) + r(a) outside Iann(a), or failing that of Iann(a) outside it
    ann_mismatch: np.ndarray
    frame_ok: np.ndarray  # per pair: whether Iann(a) = R*e_c + f_c*R
    translate_ok: np.ndarray  # per pair: whether I(a) = a0 + Iann(a)


def _sums_to(u: np.ndarray, w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Whether U + W = T, for additive subgroups given as masks (per row).

    U + W = T iff U and W lie in T and |U|*|W| = |T|*|U & W|, because
    |U + W| = |U|*|W| / |U & W| for subgroups of an abelian group.  This
    costs O(|R|) mask work instead of the |U| x |W| sumset.
    """
    inside = ~((u | w) & ~t).any(axis=-1)
    return inside & (u.sum(axis=-1) * w.sum(axis=-1)
                     == t.sum(axis=-1) * (u & w).sum(axis=-1))


def _ideal_rows(ring: Ring, side: str, s: np.ndarray) -> np.ndarray:
    """principal_ideal_rows for s, one kernel row per distinct s."""
    distinct, at = np.unique(s, return_inverse=True)
    return principal_ideal_rows(ring, side, distinct)[at]


def iann_decomposition_batch(frames: Frames, inner_size) -> IannDecompositions:
    """Per pair (a, a0) of frames: Iann(a) = l(a) + r(a),
    Iann(a) = R*e_c + f_c*R and I(a) = a0 + Iann(a).

    Each sum identity is decided by the subgroup count of _sums_to; the
    sumset is built only to name the element of a failure.
    l(a) + r(a) = Iann(a) is tested once per distinct a, on its masks.
    R*e_c + f_c*R = Iann(a) is split along what each part depends on:
    |R*e_c|, |f_c*R| and |R*e_c & f_c*R| once per distinct (f, e), from
    principal_ideal_rows; |Iann(a)| once per distinct a; and, per frame,
    R*e_c and f_c*R lie in Iann(a) iff a*(g*e_c)*a = 0 = a*(f_c*g)*a on
    R's additive generators g, as the images g*e_c and f_c*g span them.
    The translate compares |Iann(a)| with inner_size, |I(a)| per pair (or
    one count for all).  Every |R|-wide mask lives for one row block
    (rings._row_blocks).
    """
    ring = frames.ring
    idx = _scan_indices(ring)
    one = ring._one_index
    first, elem_of = _group(frames.frame_a)
    elems = frames.frame_a[first]
    mismatch = np.full(len(elems), -1, dtype=np.int64)
    iann_size = np.empty(len(elems), dtype=np.int64)
    for rows in _row_blocks(len(elems), ring.size):
        ax = ring.mul_rows(elems[rows], "right")
        iann = ring.idx_mul(ax, elems[rows, None]) == 0
        left = ring.mul_rows(elems[rows], "left") == 0
        right = ax == 0
        iann_size[rows] = np.count_nonzero(iann, axis=1)
        for k in np.flatnonzero(~_sums_to(left, right, iann)):
            u, w = idx[left[k]], idx[right[k]]  # both hold 0: never empty
            sums = _distinct(ring, (ring.idx_add(u[part, None], w)
                                    for part in _row_blocks(len(u), len(w))))
            mismatch[rows.start + k] = _first_difference(sums, idx[iann[k]])
    pair, fe_of = _group(frames.f, frames.e)
    e_c = ring.idx_sub(one, frames.e[pair])
    f_c = ring.idx_sub(one, frames.f[pair])
    sizes = np.empty((3, len(pair)), dtype=np.int64)
    for rows in _row_blocks(len(pair), ring.size):
        u = _ideal_rows(ring, "left", e_c[rows])
        w = _ideal_rows(ring, "right", f_c[rows])
        sizes[:, rows] = u.sum(axis=1), w.sum(axis=1), (u & w).sum(axis=1)
    u_size, w_size, meet = sizes[:, fe_of]
    gens = ring.additive_generator_indices()[None, :]
    a = frames.frame_a[:, None]
    inside = np.ones(len(frames.f), dtype=bool)
    for span in (ring.idx_mul(gens, e_c[fe_of, None]),
                 ring.idx_mul(f_c[fe_of, None], gens)):
        inside &= (ring.idx_mul(ring.idx_mul(a, span), a) == 0).all(axis=1)
    t_size = iann_size[elem_of]
    frame_ok = inside & (u_size * w_size == t_size * meet)
    translate = t_size == _per_frame(frames, inner_size)
    return IannDecompositions(mismatch[elem_of][frames.of],
                              frame_ok[frames.of], translate[frames.of])


def _factor_sets(ring: Ring, elems: np.ndarray):
    """W_a = r(a)*a and V_a = a*l(a) for each index in elems, each as
    (members, start, count): members concatenated in elems order."""
    members = ([np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)])
    counts = ([np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)])
    for rows in _row_blocks(len(elems), ring.size):
        ax = ring.mul_rows(elems[rows], "right")
        xa = ring.mul_rows(elems[rows], "left")
        # W_a marks x*a where a*x = 0, V_a a*x where x*a = 0; at = k*|R| + x
        for side, (zero, value) in enumerate(((ax, xa), (xa, ax))):
            mark = np.zeros(ax.shape, dtype=bool)
            at = np.flatnonzero(zero == 0)
            mark.reshape(-1)[at // ring.size * ring.size + value.take(at)] = True
            members[side].append(np.nonzero(mark)[1])
            counts[side].append(np.count_nonzero(mark, axis=1))
    out = []
    for side in (0, 1):
        count = np.concatenate(counts[side])
        out.append((np.concatenate(members[side]), np.cumsum(count) - count,
                    count))
    return out


def ref_decomposition(frames: Frames, ref_size) -> np.ndarray:
    """Per pair (a, a0), whether Ref(a) is
    {a0 + f*r*e_c + f_c*s*e + f_c*s*a*r*e_c : r, s in R}.

    This is the image of the translate form of I(a) under x -> x*a*x:
    writing a member as a0 + r*e_c + f_c*s and conjugating kills the
    cross terms, leaving the two-parameter family above.  The r and s
    occurrences are shared between summands, so the family is strictly
    smaller than the sumset of the three independent product sets.

    The witnesses are reflexive inverses: NotReflexiveInverse names the
    first pair, in array order, with a0*a*a0 != a0 (each is an inner
    inverse, as frames hold only those).  ref_size is |Ref(a)| per pair
    (or one count for all), as the caller holds it.

    Evaluation, in factored form: with w = f_c*s*a and v = a*r*e_c the
    family is {(f + w)*a0*(e + v)}, since a0*a*a0 = a0 turns the four
    products of that expansion into the four summands.  f_c*R = r(a) and
    R*e_c = l(a), so w ranges over W_a = r(a)*a and v over V_a = a*l(a),
    both independent of a0 and computed once per distinct a, in row
    blocks.  The verdict is a count: the family is Ref(a) iff each of
    its |W_a|*|V_a| products lies in Ref(a) (a*x*a = a and x*a*x = x)
    and |Ref(a)| of them are distinct.  Pairs are grouped by the shape
    (|W_a|, |V_a|) and run in row blocks of that width, so no |R|-wide
    row is built per pair, and one call covers a whole ring.  The name
    has no _batch suffix because the benchmark's
    ginv.ref_decomposition_* metrics time and count this function.
    """
    ring = frames.ring
    a, a0s = frames.a, frames.witnesses
    outer = ring.idx_mul(ring.idx_mul(a0s, a), a0s) == a0s
    if not outer.all():
        k = int(np.argmin(outer))
        raise NotReflexiveInverse(f"{Elem(ring, a0s[k])} is not an outer "
                                  f"inverse of {Elem(ring, a[k])}")
    elems, elem_of = np.unique(a, return_inverse=True)
    (w, w_start, w_count), (v, v_start, v_count) = _factor_sets(ring, elems)
    f, e = frames.f[frames.of], frames.e[frames.of]
    size = np.broadcast_to(ref_size, a.shape)
    ok = np.empty(len(a), dtype=bool)
    shapes = np.stack([w_count[elem_of], v_count[elem_of]], axis=1)
    for p, q in np.unique(shapes, axis=0).tolist():
        group = np.flatnonzero((shapes[:, 0] == p) & (shapes[:, 1] == q))
        for rows in _row_blocks(len(group), p * q):
            k = group[rows]
            ws = w[w_start[elem_of[k], None] + np.arange(p)]
            vs = v[v_start[elem_of[k], None] + np.arange(q)]
            heads = ring.idx_mul(ring.idx_add(f[k, None], ws), a0s[k, None])
            tails = ring.idx_add(e[k, None], vs)
            prods = ring.idx_mul(heads[:, :, None],
                                 tails[:, None, :]).reshape(len(k), -1)
            ak = a[k, None]
            axs = ring.idx_mul(ak, prods)
            inside = ((ring.idx_mul(axs, ak) == ak)
                      & (ring.idx_mul(prods, axs) == prods)).all(axis=1)
            ranked = np.sort(prods, axis=1)
            distinct = 1 + np.count_nonzero(ranked[:, 1:] != ranked[:, :-1],
                                            axis=1)
            ok[k] = inside & (distinct == size[k])
    return ok


# ---------------------------------------------------------------------------
# the invariance test


def singleton_conjugate_batch(bs, frames: Frames) -> np.ndarray:
    """Per pair (a, a0) of frames and b in bs, whether {b*x*b : x in I(a)}
    is a singleton: a (pairs, len(bs)) bool array.

    Over the parametrization x = a0 + t - a0*a*t*a*a0 the conjugate is
    b*a0*b plus b*d*b with d = t - f*t*e, additive in t, so vanishing is
    tested on the images d of R's additive generators only.  Those
    depend on the pair only through (f, e), so each distinct (f, e) is
    tested once, in row blocks (rings._row_blocks), and b*d*b is
    gathered once per distinct d of a block.
    """
    ring = frames.ring
    bs = np.asarray(bs, dtype=np.int64).reshape(1, -1)
    gens = ring.additive_generator_indices()
    first, fe_of = _group(frames.f, frames.e)
    f, e = frames.f[first, None], frames.e[first, None]
    diff = ring.idx_sub(gens, ring.idx_mul(ring.idx_mul(f, gens), e))
    out = np.empty((len(first), bs.size), dtype=bool)
    for rows in _row_blocks(len(first), bs.size):
        values, at = np.unique(diff[rows], return_inverse=True)
        zero = ring.idx_mul(ring.idx_mul(bs, values[:, None]), bs) == 0
        out[rows] = zero[at.reshape(-1, len(gens))].all(axis=1)
    return out[fe_of[frames.of]]


# ---------------------------------------------------------------------------
# set plumbing


def additive_span(ring: Ring, gens: Iterable[Elem]) -> ElemSet:
    """Closure of gens under addition and integer scaling; contains 0."""
    arr = np.zeros(1, dtype=np.int64)
    for g in gens:
        gi = g.index if isinstance(g, Elem) else int(g)
        layers = [ring.idx_add(arr, ring.scale_index(c, gi))
                  for c in range(ring.char)]
        arr = _distinct(ring, layers)
    return ElemSet(ring, arr)
