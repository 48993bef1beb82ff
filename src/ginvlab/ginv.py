"""Generalized-inverse set computations.

Exact, enumeration-based constructions: inner and outer inverse sets,
reflexive inverses, annihilators, principal ideals, the conjugation map
x -> x*a*x, and the parametrizations and decompositions that rewrite
those sets through the idempotent pair e = a*a0, f = a0*a.  Operations
that walk the whole ring honor the ring's enumeration budget and raise
BudgetExceeded instead of starting a scan that cannot finish.

Each identity that depends on an inner inverse a0 (the witness) has one
function.  It takes an index array of witnesses of one a and returns one
set or verdict per witness, so one witness is a one-element array;
singleton_conjugate_batch, whose answer does not depend on a0, takes one
witness and an array of b instead.  Most are named *_batch.
ref_decomposition keeps its name because the benchmark counts calls to
it, and that count measures the batching.
Witnesses with the same frame (a0*a, a*a0) share the frame's work; see
idempotent_frames.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import (
    NotInnerInverse,
    NotReflexiveInverse,
    NotRegular,
    RingMismatch,
)
from .rings import (_CHUNK, Elem, ElemSet, Ring, _mask_members,
                    _sorted_distinct, is_regular)


def _scan_indices(ring: Ring, budget: Optional[int]) -> np.ndarray:
    ring.ensure_enumerable(budget)
    return ring.all_indices()


def _same_ring(*elems: Elem) -> Ring:
    ring = elems[0].ring
    for e in elems[1:]:
        if e.ring is not ring and e.ring != ring:
            raise RingMismatch("elements belong to different rings")
    return ring


def _distinct(ring: Ring, blocks) -> np.ndarray:
    """Sorted distinct int64 values over an iterable of index blocks.

    With op tables one index mask collects them; above TABLE_CAP each
    block is deduplicated on its own, which bounds peak memory by the
    block size, and the pieces are merged.
    """
    if ring.has_tables():
        return _mask_members(ring, blocks)
    pieces = [_sorted_distinct(b) for b in blocks]
    return (pieces[0] if len(pieces) == 1
            else _sorted_distinct(np.concatenate(pieces)))


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
    step = max(1, _CHUNK // len(right))
    return _distinct(ring, (op(left[lo:lo + step, None], right[None, :])
                            for lo in range(0, len(left), step)))


# ---------------------------------------------------------------------------
# the basic sets


def inner_inverses(a: Elem, budget: Optional[int] = None) -> ElemSet:
    """I(a) = {x : a*x*a = a}."""
    ring = a.ring
    idx = _scan_indices(ring, budget)
    axa = ring.idx_mul(ring.idx_mul(a.index, idx), a.index)
    return ElemSet.from_indices(ring, idx[axa == a.index])


def outer_inverses(a: Elem, budget: Optional[int] = None) -> ElemSet:
    """{x : x*a*x = x}; always contains 0."""
    ring = a.ring
    idx = _scan_indices(ring, budget)
    xax = ring.idx_mul(ring.idx_mul(idx, a.index), idx)
    return ElemSet.from_indices(ring, idx[xax == idx])


def reflexive_inverses(a: Elem, budget: Optional[int] = None) -> ElemSet:
    """Ref(a): the x that are both inner and outer inverses of a."""
    ring = a.ring
    idx = _scan_indices(ring, budget)
    ax = ring.idx_mul(a.index, idx)
    inner_mask = ring.idx_mul(ax, a.index) == a.index
    outer_mask = ring.idx_mul(ring.idx_mul(idx, a.index), idx) == idx
    return ElemSet.from_indices(ring, idx[inner_mask & outer_mask])


def _translate_rows(ring: Ring, a0s: np.ndarray, positions: np.ndarray,
                    base: np.ndarray) -> Iterator[tuple]:
    """(positions, a0s[positions] + base) in blocks of about 2^20 entries."""
    step = max(1, (1 << 20) // max(1, len(base)))
    for lo in range(0, len(positions), step):
        pos = positions[lo:lo + step]
        yield pos, ring.idx_add(a0s[pos, None], base[None, :])


def inner_inverses_param_batch(a: Elem, a0s, budget: Optional[int] = None
                               ) -> Iterator[tuple]:
    """{a0 + t - a0*a*t*a*a0 : t in R}, the parametrization of I(a), per
    witness a0 in a0s, in blocks of rows.

    Yields (positions, members): positions in a0s, and per position a row
    of the distinct members of its set, unsorted.  a0*a*t*a*a0 = f*t*e, so
    the base {t - f*t*e : t in R} is built once per frame (f, e), and the
    blocks come frame by frame.
    """
    ring = a.ring
    idx = _scan_indices(ring, budget)
    frames = idempotent_frames(a, a0s)
    for k, (f, e) in enumerate(zip(frames.f.tolist(), frames.e.tolist())):
        positions = np.flatnonzero(frames.of == k)
        term = ring.idx_mul(ring.idx_mul(f, idx), e)
        base = _distinct(ring, [ring.idx_sub(idx, term)])
        yield from _translate_rows(ring, frames.witnesses, positions, base)


def phi(a: Elem, x: Elem) -> Elem:
    """The conjugation x -> x*a*x; fixes Ref(a) and maps I(a) onto it."""
    _same_ring(a, x)
    return x * a * x


def reflexive_via_product(a: Elem, budget: Optional[int] = None) -> ElemSet:
    """Ref(a) computed as the product set I(a)*a*I(a)."""
    inner = inner_inverses(a, budget).indices()
    if not len(inner):
        raise NotRegular(f"{a} has no inner inverse")
    return inner_products(a, inner, inner)


def inner_products(a: Elem, xs, ys) -> ElemSet:
    """{x*a*y : x in xs, y in ys}, over every factor pair at once.

    With xs = ys = I(a) this is I(a)*a*I(a) = Ref(a); a subset of I(a) as
    ys gives the products of those factor pairs only.
    """
    ring = a.ring
    left = ring.idx_mul(np.asarray(xs, dtype=np.int64), a.index)
    return ElemSet(ring, _pairwise(ring, ring.idx_mul, left, ys))


# ---------------------------------------------------------------------------
# annihilators and ideals


def left_annihilator(a: Elem, budget: Optional[int] = None) -> ElemSet:
    """l(a) = {x : x*a = 0}."""
    ring = a.ring
    idx = _scan_indices(ring, budget)
    return ElemSet.from_indices(ring, idx[ring.idx_mul(idx, a.index) == 0])


def right_annihilator(a: Elem, budget: Optional[int] = None) -> ElemSet:
    """r(a) = {x : a*x = 0}."""
    ring = a.ring
    idx = _scan_indices(ring, budget)
    return ElemSet.from_indices(ring, idx[ring.idx_mul(a.index, idx) == 0])


def inner_annihilator(a: Elem, budget: Optional[int] = None) -> ElemSet:
    """Iann(a) = {x : a*x*a = 0}."""
    ring = a.ring
    idx = _scan_indices(ring, budget)
    axa = ring.idx_mul(ring.idx_mul(a.index, idx), a.index)
    return ElemSet.from_indices(ring, idx[axa == 0])


def principal_right_ideal(a: Elem, budget: Optional[int] = None) -> ElemSet:
    """aR = {a*r : r in R}."""
    ring = a.ring
    idx = _scan_indices(ring, budget)
    return ElemSet.from_indices(ring, ring.idx_mul(a.index, idx))


def principal_left_ideal(a: Elem, budget: Optional[int] = None) -> ElemSet:
    """Ra = {r*a : r in R}."""
    ring = a.ring
    idx = _scan_indices(ring, budget)
    return ElemSet.from_indices(ring, ring.idx_mul(idx, a.index))


# ---------------------------------------------------------------------------
# the idempotent frame and its decompositions


class Frames(NamedTuple):
    """Inner inverses of a grouped by frame, the frames sorted by (f, e)."""

    witnesses: np.ndarray  # the inner inverses a0, as int64 indices
    f: np.ndarray   # a0*a for each frame
    e: np.ndarray   # a*a0 for each frame
    of: np.ndarray  # the frame of each witness, as a position in f and e


def idempotent_frames(a: Elem, a0s) -> Frames:
    """Group inner inverses of a, given as an index array, by frame.

    Raises NotInnerInverse naming the first a0 with a*a0*a != a.  Over
    all of I(a) the frames match Ref(a) one to one: a0*a*a0 is the one
    reflexive inverse with the frame of a0.
    """
    ring = a.ring
    a0s = np.asarray(a0s, dtype=np.int64).reshape(-1)
    f = np.asarray(ring.idx_mul(a0s, a.index), dtype=np.int64)
    e = np.asarray(ring.idx_mul(a.index, a0s), dtype=np.int64)
    bad = np.nonzero(np.asarray(ring.idx_mul(e, a.index)) != a.index)[0]
    if len(bad):
        raise NotInnerInverse(
            f"{Elem(ring, int(a0s[bad[0]]))} is not an inner inverse of {a}")
    # one sort key per (f, e); past 2^31 elements f*|R| needs Python ints
    keys = (f if ring.size < 1 << 31 else f.astype(object)) * ring.size + e
    _, first, of = np.unique(keys, return_index=True, return_inverse=True)
    return Frames(a0s, f[first], e[first], of.reshape(-1))


class IannDecompositions(NamedTuple):
    """The two sum identities of Iann(a), for one a and its witnesses."""

    # None when Iann(a) = l(a) + r(a); otherwise the first element of
    # l(a) + r(a) outside Iann(a), or failing that of Iann(a) outside it
    ann_mismatch: Optional[int]
    frame_ok: np.ndarray  # per witness a0: whether Iann(a) = R*e_c + f_c*R


def _row_masks(n: int, rows: np.ndarray) -> np.ndarray:
    """One membership mask over range(n) per row of indices."""
    masks = np.zeros((len(rows), n), dtype=bool)
    masks[np.arange(len(rows))[:, None], rows] = True
    return masks


def _sums_to(u: np.ndarray, w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Whether U + W = T, for additive subgroups given as masks (per row).

    U + W = T iff U and W lie in T and |U|*|W| = |T|*|U & W|, because
    |U + W| = |U|*|W| / |U & W| for subgroups of an abelian group.  This
    costs O(|R|) mask work instead of the |U| x |W| sumset.
    """
    inside = ~((u | w) & ~t).any(axis=-1)
    return inside & (u.sum(axis=-1) * w.sum(axis=-1)
                     == t.sum() * (u & w).sum(axis=-1))


def iann_decomposition_batch(a: Elem, a0s, budget: Optional[int] = None
                             ) -> IannDecompositions:
    """Iann(a) = l(a) + r(a) once, and Iann(a) = R*e_c + f_c*R per witness.

    Each identity is decided by the subgroup count of _sums_to, once per
    frame; the sumset is built only to name the element of a failure.
    """
    ring = a.ring
    n = ring.size
    idx = _scan_indices(ring, budget)
    frames = idempotent_frames(a, a0s)
    ax = ring.idx_mul(a.index, idx)
    iann = np.asarray(ring.idx_mul(ax, a.index)) == 0
    left = np.asarray(ring.idx_mul(idx, a.index)) == 0
    right = np.asarray(ax) == 0
    mismatch = None
    if not _sums_to(left, right, iann):
        mismatch = _first_difference(
            _pairwise(ring, ring.idx_add, idx[left], idx[right]), idx[iann])
    e_c = np.asarray(ring.idx_sub(ring._one_index, frames.e), dtype=np.int64)
    f_c = np.asarray(ring.idx_sub(ring._one_index, frames.f), dtype=np.int64)
    ok = np.empty(len(e_c), dtype=bool)
    step = max(1, _CHUNK // n)
    for lo in range(0, len(ok), step):
        rows = slice(lo, lo + step)
        r_ec = _row_masks(n, ring.idx_mul(idx[None, :], e_c[rows, None]))
        fc_r = _row_masks(n, ring.idx_mul(f_c[rows, None], idx[None, :]))
        ok[rows] = _sums_to(r_ec, fc_r, iann)
    return IannDecompositions(mismatch, ok[frames.of])


def inner_translate_batch(a: Elem, a0s,
                          budget: Optional[int] = None) -> Iterator[tuple]:
    """I(a) as the translate a0 + Iann(a) per witness a0 in a0s, in
    inner_inverses_param_batch's blocks."""
    a0s = idempotent_frames(a, a0s).witnesses
    iann = inner_annihilator(a, budget).indices()
    return _translate_rows(a.ring, a0s, np.arange(len(a0s)), iann)


def _distinct_per_row(n: int, vals: np.ndarray) -> tuple:
    """(rows, values): the distinct values of each row of a 2-D index
    array, row by row in ascending order, marked in one flat mask over
    row*n + value so that no per-row sort runs."""
    mask = np.zeros(vals.shape[0] * n, dtype=bool)
    mask[np.arange(0, mask.size, n)[:, None] + vals.astype(np.int64)] = True
    return np.divmod(np.flatnonzero(mask), n)


def ref_decomposition(a: Elem, a0s,
                      budget: Optional[int] = None) -> np.ndarray:
    """Ref(a) as {a0 + f*r*e_c + f_c*s*e + f_c*s*a*r*e_c : r, s in R}.

    This is phi applied to the translate form of I(a): writing a member
    as a0 + r*e_c + f_c*s and conjugating kills the cross terms, leaving
    the two-parameter family above.  The r and s occurrences are shared
    between summands, so the family is strictly smaller than the sumset
    of the three independent product sets.

    a0s is an index array of reflexive inverses, and the result is a
    (len(a0s), |R|) bool array whose row k is the membership mask of
    a0s[k]'s family.  The name has no _batch suffix because perfbench
    counts calls to this one function, and that count measures the
    batching: the checks make one call per element, not one per witness.

    Raises NotReflexiveInverse naming the first a0 with a0*a*a0 != a0,
    then NotInnerInverse (from idempotent_frames) for the first that is
    not an inner inverse either.

    Evaluation: r enters only through v = a*r*e_c, because f = a0*a makes
    f*r*e_c = a0*v, and s only through t = f_c*s, because
    f_c*s*e + f_c*s*a*r*e_c = t*(e + v).  So the family is the table
    a0 + a0*v + t*(e + v) over the distinct v in a*R*e_c and t in f_c*R,
    each deduplicated per row in one mask.  Since v ranges over an image
    of aR and t over f_c*R = r(a), a row pairs at most |aR|*|r(a)| = |R|
    (v, t), and blocks of max(1, _CHUNK // |R|) rows bound every gather
    and temporary by max(_CHUNK, |R|) entries.
    """
    ring = a.ring
    a0s = np.asarray(a0s, dtype=np.int64).reshape(-1)
    outer = np.asarray(ring.idx_mul(ring.idx_mul(a0s, a.index), a0s)) == a0s
    if not outer.all():
        a0 = Elem(ring, int(a0s[np.argmin(outer)]))
        raise NotReflexiveInverse(f"{a0} is not an outer inverse of {a}")
    frames = idempotent_frames(a, a0s)  # raises NotInnerInverse
    n = ring.size
    idx = _scan_indices(ring, budget)
    e = frames.e[frames.of]
    e_c = np.asarray(ring.idx_sub(ring._one_index, e), dtype=np.int64)
    f_c = np.asarray(ring.idx_sub(ring._one_index, frames.f[frames.of]),
                     dtype=np.int64)
    ar = _distinct(ring, [ring.idx_mul(a.index, idx)])
    out = np.zeros((len(a0s), n), dtype=bool)
    flat = out.reshape(-1)
    step = max(1, _CHUNK // n)
    for lo in range(0, len(a0s), step):
        rows = slice(lo, lo + step)
        vrow, v = _distinct_per_row(n, ring.idx_mul(ar[None, :],
                                                    e_c[rows, None]))
        trow, t = _distinct_per_row(n, ring.idx_mul(f_c[rows, None],
                                                    idx[None, :]))
        # pair each v with every t of its row: trow is sorted
        first = np.searchsorted(trow, vrow)
        count = np.searchsorted(trow, vrow, side="right") - first
        vi = np.repeat(np.arange(len(v)), count)
        ti = np.arange(len(vi)) + np.repeat(first - np.cumsum(count) + count,
                                            count)
        a0 = a0s[rows][vrow]
        heads = ring.idx_add(a0, ring.idx_mul(a0, v))  # a0 + a0*v
        factors = ring.idx_add(e[rows][vrow], v)  # e + v
        vals = ring.idx_add(heads[vi], ring.idx_mul(t[ti], factors[vi]))
        flat[(lo + vrow[vi]) * n + vals] = True
    return out


# ---------------------------------------------------------------------------
# the invariance test


def singleton_conjugate_batch(bs, a: Elem, a0: Elem) -> np.ndarray:
    """Per b in bs, whether {b*x*b : x in I(a)} is a singleton.

    Over the parametrization x = a0 + t - a0*a*t*a*a0 the conjugate is
    b*a0*b plus a term additive in t, so vanishing is tested on additive
    generators only: one (|bs| x generators) gather.
    """
    _same_ring(a, a0)
    frames = idempotent_frames(a, [a0.index])
    f, e = int(frames.f[0]), int(frames.e[0])
    ring = a.ring
    bs = np.asarray(bs, dtype=np.int64).reshape(-1, 1)
    gens = ring.additive_generator_indices()
    diff = ring.idx_sub(gens, ring.idx_mul(ring.idx_mul(f, gens), e))
    vals = ring.idx_mul(ring.idx_mul(bs, diff[None, :]), bs)
    return (np.asarray(vals) == 0).all(axis=1)


# ---------------------------------------------------------------------------
# set plumbing


def sumset(s: ElemSet, t: ElemSet) -> ElemSet:
    """{x + y : x in s, y in t}."""
    if s.ring != t.ring:
        raise RingMismatch("sets belong to different rings")
    ring = s.ring
    return ElemSet.from_indices(ring, _pairwise(ring, ring.idx_add,
                                                s.indices(), t.indices()))


def scaled_set(c: Elem, s: ElemSet, d: Elem) -> ElemSet:
    """{c*x*d : x in s}."""
    ring = _same_ring(c, d)
    if s.ring != ring:
        raise RingMismatch("set belongs to a different ring")
    vals = ring.idx_mul(ring.idx_mul(c.index, s.indices()), d.index)
    return ElemSet.from_indices(ring, vals)


def additive_span(ring: Ring, gens: Iterable[Elem]) -> ElemSet:
    """Closure of gens under addition and integer scaling; contains 0."""
    arr = np.zeros(1, dtype=np.int64)
    for g in gens:
        gi = g.index if isinstance(g, Elem) else int(g)
        layers = [np.asarray(ring.idx_add(arr, ring.scale_index(c, gi)),
                             dtype=np.int64).reshape(-1)
                  for c in range(ring.char)]
        arr = np.unique(np.concatenate(layers))
    return ElemSet.from_indices(ring, arr)


# ---------------------------------------------------------------------------
# the combined report


@dataclass(frozen=True)
class InverseReport:
    """Every inverse-related set for one element, plus the chosen witness."""

    element: Elem
    witness: Optional[Elem]
    inner: ElemSet
    reflexive: ElemSet
    outer: ElemSet
    iann: ElemSet
    left_ann: ElemSet
    right_ann: ElemSet
    right_ideal: ElemSet
    left_ideal: ElemSet

    def cardinalities(self) -> dict[str, int]:
        """The size of every set, keyed by field name in field order."""
        return {f.name: len(getattr(self, f.name)) for f in fields(self)
                if f.name not in ("element", "witness")}


def inverse_report(a: Elem, budget: Optional[int] = None) -> InverseReport:
    """Compute all the sets for a and sanity-check their relations."""
    ring = a.ring
    ring.ensure_enumerable(budget)
    witness = is_regular(a)
    report = InverseReport(
        element=a,
        witness=witness,
        inner=inner_inverses(a, budget),
        reflexive=reflexive_inverses(a, budget),
        outer=outer_inverses(a, budget),
        iann=inner_annihilator(a, budget),
        left_ann=left_annihilator(a, budget),
        right_ann=right_annihilator(a, budget),
        right_ideal=principal_right_ideal(a, budget),
        left_ideal=principal_left_ideal(a, budget),
    )
    consistent = (report.reflexive == report.inner.intersection(report.outer)
                  and (len(report.inner) > 0) == (witness is not None)
                  and (witness is None or witness in report.inner))
    if not consistent:
        raise NotRegular(f"inconsistent inverse sets for {a}; table corruption?")
    return report
