"""Generalized-inverse set computations.

Exact, enumeration-based constructions: inner and outer inverse sets,
reflexive inverses, annihilators, principal ideals, the conjugation map
x -> x*a*x, and the parametrizations and decompositions that rewrite
those sets through the idempotent pair e = a*a0, f = a0*a.  Operations
that walk the whole ring honor the ring's enumeration budget and raise
BudgetExceeded instead of starting a scan that cannot finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

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


def _require_inner(a: Elem, a0: Elem):
    _same_ring(a, a0)
    if a * a0 * a != a:
        raise NotInnerInverse(f"{a0} is not an inner inverse of {a}")


def _distinct(ring: Ring, blocks) -> np.ndarray:
    """Sorted distinct int64 values over an iterable of index blocks.

    With op tables one index mask collects them; above TABLE_CAP each
    block is np.unique'd and the pieces are merged.
    """
    if ring.has_tables():
        return _mask_members(ring, blocks)
    pieces = [np.unique(b) for b in blocks]
    return pieces[0] if len(pieces) == 1 else np.unique(np.concatenate(pieces))


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


def inner_inverses_param(a: Elem, a0: Elem,
                         budget: Optional[int] = None) -> ElemSet:
    """{a0 + t - a0*a*t*a*a0 : t in R}, the translate form of I(a)."""
    _require_inner(a, a0)
    ring = a.ring
    idx = _scan_indices(ring, budget)
    f = int(ring.idx_mul(a0.index, a.index))
    e = int(ring.idx_mul(a.index, a0.index))
    # a0*a*t*a*a0 = f*t*e by associativity
    term = ring.idx_mul(ring.idx_mul(f, idx), e)
    vals = ring.idx_add(a0.index, ring.idx_sub(idx, term))
    return ElemSet.from_indices(ring, vals)


def phi(a: Elem, x: Elem) -> Elem:
    """The conjugation x -> x*a*x; fixes Ref(a) and maps I(a) onto it."""
    _same_ring(a, x)
    return x * a * x


def reflexive_via_product(a: Elem, budget: Optional[int] = None) -> ElemSet:
    """Ref(a) computed as the product set I(a)*a*I(a)."""
    ring = a.ring
    if is_regular(a) is None:
        raise NotRegular(f"{a} has no inner inverse")
    inner = inner_inverses(a, budget)
    left = ring.idx_mul(inner.indices(), a.index)
    prod = _pairwise(ring, ring.idx_mul, left, inner.indices())
    return ElemSet.from_indices(ring, prod)


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


@dataclass(frozen=True)
class IdempotentFrame:
    """e = a*a0, f = a0*a and their complements e_c = 1-e, f_c = 1-f."""

    e: Elem
    f: Elem
    e_c: Elem
    f_c: Elem


def idempotent_frame(a: Elem, a0: Elem) -> IdempotentFrame:
    """Build the frame for an inner inverse a0 and verify its invariants."""
    _require_inner(a, a0)
    one = a.ring.one()
    e = a * a0
    f = a0 * a
    frame = IdempotentFrame(e, f, one - e, one - f)
    ok = (e * e == e and f * f == f and e * a == a and a * f == a
          and frame.e_c + e == one and frame.f_c + f == one)
    if not ok:
        # cannot happen for a genuine inner inverse; guards table corruption
        raise NotInnerInverse("frame invariants failed for the given witness")
    return frame


class IannDecomposition(NamedTuple):
    r_ec: ElemSet
    fc_r: ElemSet
    verdict: bool


def iann_decomposition(a: Elem, a0: Elem,
                       budget: Optional[int] = None) -> IannDecomposition:
    """R*e_c and f_c*R, with Iann(a) = l(a)+r(a) = R*e_c + f_c*R verified."""
    frame = idempotent_frame(a, a0)
    ring = a.ring
    idx = _scan_indices(ring, budget)
    r_ec = ElemSet.from_indices(ring, ring.idx_mul(idx, frame.e_c.index))
    fc_r = ElemSet.from_indices(ring, ring.idx_mul(frame.f_c.index, idx))
    iann = inner_annihilator(a, budget)
    via_ann = sumset(left_annihilator(a, budget), right_annihilator(a, budget))
    via_frame = sumset(r_ec, fc_r)
    verdict = iann == via_ann and iann == via_frame
    return IannDecomposition(r_ec, fc_r, verdict)


def inner_translate(a: Elem, a0: Elem,
                    budget: Optional[int] = None) -> ElemSet:
    """I(a) as the translate a0 + Iann(a)."""
    _require_inner(a, a0)
    ring = a.ring
    iann = inner_annihilator(a, budget)
    return ElemSet.from_indices(ring, ring.idx_add(a0.index, iann.indices()))


def ref_decomposition(a: Elem, a0: Elem,
                      budget: Optional[int] = None) -> ElemSet:
    """Ref(a) as {a0 + f*r*e_c + f_c*s*e + f_c*s*a*r*e_c : r, s in R}.

    This is phi applied to the translate form of I(a): writing a member
    as a0 + r*e_c + f_c*s and conjugating kills the cross terms, leaving
    the two-parameter family above.  The r and s occurrences are shared
    between summands, so the family is strictly smaller than the sumset
    of the three independent product sets.  Evaluation: r enters only
    through the pair (u, v) = (f*r*e_c, a*r*e_c), and s only through
    t = f_c*s, because f_c*s*e + f_c*s*a*r*e_c = t*(e + v).  So the family
    is the table (a0 + u) + t*(e + v) over the distinct pairs (u, v) and
    the distinct t in f_c*R, gathered in row blocks of about _CHUNK
    entries and deduplicated once.
    """
    if a0 * a * a0 != a0:
        raise NotReflexiveInverse(f"{a0} is not an outer inverse of {a}")
    frame = idempotent_frame(a, a0)  # raises NotInnerInverse on that half
    ring = a.ring
    n = ring.size
    idx = _scan_indices(ring, budget)
    f, e = frame.f.index, frame.e.index
    f_c, e_c = frame.f_c.index, frame.e_c.index
    u = np.asarray(ring.idx_mul(ring.idx_mul(f, idx), e_c), dtype=np.int64)
    v = np.asarray(ring.idx_mul(ring.idx_mul(a.index, idx), e_c),
                   dtype=np.int64)
    pairs = _sorted_distinct(u * n + v)
    heads = ring.idx_add(a0.index, pairs // n)  # a0 + u
    factors = ring.idx_add(e, pairs % n)  # e + v
    fc_r = _distinct(ring, [ring.idx_mul(f_c, idx)])
    step = max(1, _CHUNK // len(fc_r))
    blocks = (ring.idx_add(heads[lo:lo + step, None],
                           ring.idx_mul(fc_r[None, :],
                                        factors[lo:lo + step, None]))
              for lo in range(0, len(pairs), step))
    return ElemSet(ring, _distinct(ring, blocks))


# ---------------------------------------------------------------------------
# the invariance test


def singleton_conjugate_test(b: Elem, a: Elem,
                             a0: Elem) -> tuple[bool, Optional[Elem]]:
    """Whether {b*x*b : x in I(a)} is a singleton, and the value if so.

    Over the parametrization x = a0 + t - a0*a*t*a*a0 the conjugate is
    b*a0*b plus a term additive in t, so vanishing is tested on additive
    generators only.
    """
    _same_ring(b, a)
    _require_inner(a, a0)
    ring = a.ring
    f = int(ring.idx_mul(a0.index, a.index))
    e = int(ring.idx_mul(a.index, a0.index))
    gens = ring.additive_generator_indices()
    term = ring.idx_mul(ring.idx_mul(f, gens), e)
    diff = ring.idx_sub(gens, term)
    vals = ring.idx_mul(ring.idx_mul(b.index, diff), b.index)
    if np.any(vals != 0):
        return False, None
    return True, b * a0 * b


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
        return {
            "inner": len(self.inner),
            "reflexive": len(self.reflexive),
            "outer": len(self.outer),
            "iann": len(self.iann),
            "left_ann": len(self.left_ann),
            "right_ann": len(self.right_ann),
            "right_ideal": len(self.right_ideal),
            "left_ideal": len(self.left_ideal),
        }


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
