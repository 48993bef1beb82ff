"""Executable forms of the generalized-inverse theorems.

Each check scans a ring and returns pass, violation, or skipped together
with witness elements and a note.  Every set a check reads (I(a),
Ref(a), Iann(a), l(a), r(a), aR, Ra) comes from a ginv kernel or from
_Scan's pair arrays, and a is regular exactly when I(a) is not empty.
The identities that inner_param, decomposition, invariance and refl_map
verify come from the batched ginv functions that state them.  Every
check is ring-wide: it reads the pair arrays (a, a0) of the whole
domain, grouped as a ginv.Frames for the kernels, or gathers over pairs
of elements in row blocks (rings._row_blocks); none loops in Python
over elements.  The pairs run by ascending a, so a check names the first
element (or pair) with any failing item, then its first failing item,
then that item's first failing witness.

_Scan alone decides between exhaustive and sampled quantification, and
alone reads how I(a) and the principal ideals are stored.  Rings of at
most TABLE_CAP elements quantify over every element and every witness;
larger (but still budget-sized) rings over a deterministic evenly-spaced
sample (pairs over a smaller subsample), the first inner inverse of each
element and no reflexive witness, and _Scan.note marks "sampled" the
notes of every verdict they quantify, violations included.  Both modes
run one code path; only the pair arrays differ.

Checks on rings whose hypotheses fail are never asserted silently: they
either skip with an observational note or report the counterexample and
label it as consistent with the hypothesis failing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__, fixture, parsing, rings
from .errors import BudgetExceeded, TableCapExceeded, UnknownCheck, WrongRing
from .ginv import (Frames, _first_difference, _group, _per_frame,
                   additive_span, iann_decomposition_batch, idempotent_frames,
                   inner_inverse_pairs, inner_inverses_param_batch,
                   left_annihilator, principal_ideal_rows, ref_decomposition,
                   right_annihilator, singleton_conjugate_batch)
from .rings import TABLE_CAP, Elem, Ring, _distinct, _row_blocks

PASS = "pass"
VIOLATION = "violation"
SKIPPED = "skipped"

# quantifier sample for rings above TABLE_CAP: 64 outer points, 16 for pairs
SAMPLE_COUNT = 64
PAIR_SAMPLE = 16

@dataclass
class CheckVerdict:
    name: str
    status: str
    witnesses: list = field(default_factory=list)  # (name, Elem) pairs
    note: str = ""
    elapsed_ms: float = 0.0


@dataclass
class SuiteReport:
    ring: Ring
    verdicts: list
    version: str

    def summary(self) -> dict:
        out = {PASS: 0, VIOLATION: 0, SKIPPED: 0}
        for v in self.verdicts:
            out[v.status] += 1
        return out

    def has_violation(self) -> bool:
        return any(v.status == VIOLATION for v in self.verdicts)


def _sample_indices(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, SAMPLE_COUNT).astype(np.int64))


def _render(ring: Ring, i: int) -> str:
    return parsing.render_elem(Elem(ring, int(i)))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _segments(start: np.ndarray, counts: np.ndarray) -> tuple:
    """(run k, start[k] + place in it) for runs of the given lengths."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) + (start - np.cumsum(counts) + counts)[run]


def _within(keys: np.ndarray, of: np.ndarray) -> tuple:
    """(k, j) for each keys[k] == of[j], of sorted; by k, then j."""
    lo, hi = (np.searchsorted(of, keys, side) for side in ("left", "right"))
    return _segments(lo, hi - lo)


class _Ideals:
    """The principal ideals of one side seen so far, each stored once.

    `ids[s]` is the id of sR (or Rs), -1 while s is not seen yet; `rows`
    holds one bool membership row per id, and `meets[i, j]` whether rows
    i and j meet only in 0.  meets counts the common members in float32,
    which is exact for `== 1` at any |R|: the terms are 0 or 1, and a
    partial sum that reaches 2 rounds to at least 2, never back to 1.
    """

    def __init__(self, ring: Ring, side: str, first: np.ndarray):
        self.ring, self.side = ring, side
        self.ids = np.full(ring.size, -1, dtype=np.int64)
        self._of_row: dict[bytes, int] = {}
        self.rows = np.zeros((0, ring.size), dtype=bool)
        self.meets = np.zeros((0, 0), dtype=bool)
        self.intern(first)

    def ids_of(self, s) -> np.ndarray:
        """The id of each s's ideal, computing those not seen yet."""
        s = np.asarray(s, dtype=np.int64)
        ids = self.ids[s]
        if (ids < 0).any():
            self.intern(_distinct(self.ring, [s[ids < 0]]))
            ids = self.ids[s]
        return ids

    def intern(self, s: np.ndarray) -> None:
        """Give each index in s its ideal's id, from one kernel call."""
        fresh = []
        for i, row in zip(s.tolist(),
                          principal_ideal_rows(self.ring, self.side, s)):
            key = row.tobytes()
            if key not in self._of_row:
                self._of_row[key] = len(self._of_row)
                fresh.append(row)
            self.ids[i] = self._of_row[key]
        if fresh:
            self.rows = np.concatenate([self.rows, fresh])
            counts = self.rows.astype(np.float32)
            self.meets = counts @ counts.T == 1


class _Scan:
    """Shared per-run caches over one ring, and its quantified domain.

    The one place that tells exhaustive from sampled mode: `sample` is
    the domain, `pair_points` the domain of pair quantifiers, `regulars`
    the regular sample points, and `note`, `inner_scope` and `pair_scope`
    word the notes of sampled runs.

    One ginv.inner_inverse_pairs call over the domain, in row blocks,
    gives every pair (a, a0) with a0 in I(a), kept as one read-only array
    of witnesses, `_a0s`, with each element's start and |I(a)| (-1 before
    its scan) in `_where` and a mask of the reflexive ones in `_outer`.
    The checks read them ring-wide: `_domain` and `ref_pairs` (every
    (a, a0), and every (a, x) with x in Ref(a)), `witnesses_of(a)`, and
    ginv.Frames built once per run (`frames`, all of I(a) in both modes;
    `inner_frames`, the first inner inverse of each element when sampled;
    `reflexive_frames`, None when sampled).  `iset`, `refset`,
    `inner_size`, `ref_size` and `regular_at` read single elements or
    index arrays; an element outside the domain is scanned on first use,
    in one batch per question.  Only these O(sum |I(a)|) arrays are kept.

    Principal ideals answer three questions, each broadcast over index
    arrays: `ideal_key(a)` (ideal ids, equal exactly when aR = bR and
    Ra = Rb), `trivial_meet(side, b, d)` (bR and dR, or Rb and Rd, meet
    only in 0) and `member(side, x, s)` (x in sR, or in Rs).  One _Ideals
    store per side answers them in both modes, from principal_ideal_rows
    calls made on first use; the first interns the whole sample.

    `sample`, the first thing every scan reads, also builds the ring's
    product table (rings.Ring.build_tables) within the enumeration budget:
    a suite's quadratic scans pay the build back, a single query would not.

    Sampled mode keeps its witness rule; without it the statuses are the
    same, but all of I(a) in inner_param and decomposition (i)-(ii) takes
    run_suite on M_3(GF(3)) from 0.45 to 2.56 s (inner_param 17 ms to
    1.23 s), and item (iii) takes Z/5005 from 6.7 to 8.5 ms and
    GF(2)[t]/(t^13) from 15.3 to 18.5 ms (best of 5, 2 cores, numpy 2.4).
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.sampled = ring.size > TABLE_CAP
        self._ideals: dict[str, _Ideals] = {}
        self._a0s = _frozen(np.empty(0, dtype=np.int64))
        self._outer = _frozen(np.empty(0, dtype=bool))

    @cached_property
    def sample(self) -> np.ndarray:
        self.ring.ensure_enumerable()  # the budget binds sampled mode too
        self.ring.build_tables()
        return (_sample_indices(self.ring.size) if self.sampled
                else self.ring.all_indices())

    @cached_property
    def _where(self) -> np.ndarray:
        """Rows start and count: per element, where its I(a) sits in _a0s
        and |I(a)|; the count is -1 while the element is not scanned."""
        self.sample  # checks the budget before the array spans the ring
        where = np.zeros((2, self.ring.size), dtype=np.int64)
        where[1] = -1
        return where

    def _scan(self, indices: np.ndarray) -> None:
        """Append I(a) for each of indices (distinct, none scanned yet)."""
        ring = self.ring
        pos, a0s = inner_inverse_pairs(ring, indices)
        a = indices[pos]
        counts = np.bincount(pos, minlength=len(indices))
        self._where[0, indices] = len(self._a0s) + np.cumsum(counts) - counts
        self._where[1, indices] = counts
        outer = ring.idx_mul(ring.idx_mul(a0s, a), a0s) == a0s
        self._a0s = _frozen(np.concatenate([self._a0s, a0s]))
        self._outer = _frozen(np.concatenate([self._outer, outer]))

    @cached_property
    def _domain(self) -> tuple:
        """(a, a0) for every a0 in I(a) and a in the domain, sorted by a,
        then a0: the first scan, so the first entries of _a0s."""
        self._scan(self.sample)
        counts = self._where[1, self.sample]
        return np.repeat(self.sample, counts), self._a0s[:counts.sum()]

    @cached_property
    def regulars(self) -> np.ndarray:
        return self.sample[self.regular_at(self.sample)]

    def regular_at(self, indices) -> np.ndarray:
        """Whether each index is regular, that is I(a) is not empty, as a
        bool array of the same shape."""
        self._domain  # the domain is scanned first, as one block of _a0s
        count = self._where[1]
        indices = np.asarray(indices, dtype=np.int64)
        if (count[indices] < 0).any():
            self._scan(_distinct(self.ring, [indices[count[indices] < 0]]))
        return count[indices] > 0

    def iset(self, a: int) -> np.ndarray:
        """I(a), sorted and read-only."""
        if self._where[1, a] < 0:
            self.regular_at(a)  # scans a on first use
        start, count = self._where[:, a]
        return self._a0s[start:start + count]

    def refset(self, a: int) -> np.ndarray:
        """Ref(a), sorted: the members x of I(a) with x*a*x = x."""
        ia = self.iset(a)
        start = self._where[0, a]
        return ia[self._outer[start:start + len(ia)]]

    def witnesses_of(self, a) -> tuple:
        """(k, x) for every x in I(a[k]), each a scanned already."""
        k, at = _segments(*self._where[:, a])
        return k, self._a0s[at]

    def inner_size(self, a) -> np.ndarray:
        """|I(a)| for each index in a, every one scanned already."""
        return self._where[1, a]

    def ref_size(self, a) -> np.ndarray:
        """|Ref(a)| for each index in a, every one scanned already."""
        start, count = self._where[:, a]
        ends = np.concatenate([[0], np.cumsum(self._outer)])
        return ends[start + count] - ends[start]

    @cached_property
    def frames(self) -> Frames:
        """The frames of all of I(a), every regular domain element."""
        return idempotent_frames(self.ring, *self._domain)

    @cached_property
    def first_witnesses(self) -> tuple:
        """(regulars, the first inner inverse of each)."""
        return self.regulars, self._a0s[self._where[0, self.regulars]]

    @cached_property
    def inner_frames(self) -> Frames:
        """The frames of I(a), or of its first member when sampled."""
        if self.sampled:
            return idempotent_frames(self.ring, *self.first_witnesses)
        return self.frames

    @cached_property
    def ref_pairs(self) -> tuple:
        """(a, x) for every x in Ref(a), a in the domain, sorted by a, x."""
        a, a0s = self._domain
        keep = self._outer[:len(a0s)]
        return a[keep], a0s[keep]

    @cached_property
    def reflexive_frames(self) -> Optional[Frames]:
        """The frames of every Ref(a), or None when sampled: each
        reflexive witness adds |Ref(a)| products to decompose."""
        return None if self.sampled else idempotent_frames(
            self.ring, *self.ref_pairs)

    def note(self, text: str) -> str:
        return "sampled: " + text if self.sampled else text

    @property
    def witness_scope(self) -> str:
        """Which witnesses the decomposition items (i)-(ii) and (iii) used."""
        if self.sampled:
            return ("first inner witness for (i)-(ii), no reflexive witness "
                    "for (iii)")
        return ("all inner witnesses for (i)-(ii), all reflexive witnesses "
                "for (iii)")

    def inner_scope(self, witnesses: int) -> str:
        """The elements and the number of inner witnesses a check covered."""
        if self.sampled:
            return (f"sampled: {len(self.regulars)} regular elements from a "
                    f"deterministic {len(self.sample)}-point sample, first "
                    "inner inverse each")
        return (f"all {len(self.regulars)} regular elements, all {witnesses} "
                "inner-inverse witnesses")

    @cached_property
    def pair_points(self) -> np.ndarray:
        """The domain of pair quantifiers: every element, or every k-th
        sample point so that about PAIR_SAMPLE remain."""
        if not self.sampled:
            return self.sample
        return self.sample[:: max(1, len(self.sample) // PAIR_SAMPLE)]

    def pair_scope(self, count: int, pairs: str) -> str:
        """How many ordered pairs of pair points a check covered."""
        if self.sampled:
            return (f"sampled: {count} {pairs}, over a deterministic "
                    f"{len(self.pair_points)}-point sample")
        return f"all {count} {pairs}"

    def ideal_key(self, a):
        """(id of aR, id of Ra), broadcast over a: equal for a and b exactly
        when aR = bR and Ra = Rb."""
        return self._store("right").ids_of(a), self._store("left").ids_of(a)

    def trivial_meet(self, side: str, b, d) -> np.ndarray:
        """Whether bR and dR (or Rb and Rd) meet only in 0."""
        store = self._store(side)
        ib, jd = store.ids_of(b), store.ids_of(d)
        return store.meets.take(ib * len(store.meets) + jd)  # meets[ib, jd]

    def member(self, side: str, x, s) -> np.ndarray:
        """Whether x lies in sR (or in Rs)."""
        store = self._store(side)
        at = store.ids_of(s)  # may grow store.rows
        return store.rows.take(at * self.ring.size + x)  # rows[at, x]

    def _store(self, side: str) -> _Ideals:
        if side not in self._ideals:
            # self.sample checks the budget before ids spans the ring
            self._ideals[side] = _Ideals(self.ring, side, self.sample)
        return self._ideals[side]


# ---------------------------------------------------------------------------
# individual checks: each returns (status, [(name, index)], note)


def _check_inner_param(s: _Scan):
    frames = s.inner_frames
    ok = inner_inverses_param_batch(frames, s.inner_size(frames.a))
    if not ok.all():
        k = int(np.argmin(ok))
        return VIOLATION, [("a", int(frames.a[k])),
                           ("a0", int(frames.witnesses[k]))], \
            s.note("parametrized I(a) differs from the scan")
    return PASS, [], s.inner_scope(len(frames.witnesses))


def _first_clash(keys: np.ndarray, vals: np.ndarray):
    """(i, j): the first j whose key first occurred at i, with another val."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    earlier = first[inverse.reshape(-1)]
    bad = np.nonzero(vals[earlier] != vals)[0]
    return (int(earlier[bad[0]]), int(bad[0])) if len(bad) else None


def _unmatched(a, x, b, y) -> np.ndarray:
    """The elements at which the pairs (a, x) and (b, y), each side
    distinct, differ as sets."""
    both = np.concatenate([a, b])
    first, of = _group(both, np.concatenate([x, y]))
    return both[first[np.bincount(of) == 1]]


def _ref_products(frames: Frames) -> tuple:
    """(a, v) for every v in I(a)*a*I(a), every element of frames, sorted
    by a, then v: one x per distinct (a, x*a) times one y per distinct
    (a, a*y), sum |I(a)*a|*|a*I(a)| = sum |Ref(a)| products, one idx_mul."""
    ring, a, w = frames.ring, frames.a, frames.witnesses
    xa = ring.idx_mul(w, a)
    left, _ = _group(a, xa)
    right, _ = _group(a, ring.idx_mul(a, w))
    k, j = _within(a[left], a[right])
    prods = ring.idx_mul(xa[left][k], w[right][j])
    first, _ = _group(a[left][k], prods)
    return a[left][k][first], prods[first]


def _check_refl_map(s: _Scan):
    ring, frames = s.ring, s.frames
    pair_a, ws = frames.a, frames.witnesses
    phi = ring.idx_mul(ring.idx_mul(ws, pair_a), ws)
    ref_a, ref_x = s.ref_pairs
    image, _ = _group(pair_a, phi)
    # the image and the products, by property, as sorted (a, value) pairs
    sets = {0: (pair_a[image], phi[image]), 3: _ref_products(frames)}
    fixed = ring.idx_mul(ring.idx_mul(ref_x, ref_a), ref_x)
    # x*a*x = y*a*y iff (x*a, a*x) = (y*a, a*y) on I(a) iff x*a*x is
    # constant on each frame and each element has as many frames as values
    elems, by_frame = np.unique(frames.frame_a, return_counts=True)
    by_phi = np.unique(pair_a[image], return_counts=True)[1]
    split = pair_a[_per_frame(frames, phi)[frames.of] != phi]
    # the elements at which each property fails, in the order stated
    failures = [_unmatched(*sets[0], ref_a, ref_x), ref_a[fixed != ref_x],
                np.union1d(elems[by_frame != by_phi], split),
                _unmatched(*sets[3], ref_a, ref_x)]
    if not any(len(bad) for bad in failures):
        return PASS, [], s.note(
            f"all four properties on {len(s.regulars)} regular elements")
    # the first element with any failure, then its first failing property
    a = min(int(bad.min()) for bad in failures if len(bad))
    k = next(k for k, bad in enumerate(failures) if a in bad)
    if k == 2:
        # the first y to break either direction is named, the first
        # direction on ties
        mine = pair_a == a
        ia, of, vals = ws[mine], frames.of[mine], phi[mine]
        y, k, x = min((clash[1], k, clash[0]) for k, clash in enumerate(
            (_first_clash(vals, of), _first_clash(of, vals)))
            if clash is not None)
        return VIOLATION, \
            [("a", a), ("x", int(ia[x])), ("y", int(ia[y]))], s.note((
                "x*a*x = y*a*y but (x*a, a*x) != (y*a, a*y)",
                "(x*a, a*x) = (y*a, a*y) but x*a*x != y*a*y")[k])
    if k == 1:
        x = int(ref_x[(ref_a == a) & (fixed != ref_x)][0])
    else:
        got_a, got = sets[k]
        x = _first_difference(got[got_a == a], s.refset(a))
    return VIOLATION, [("a", a), ("x", x)], s.note((
        "image of x -> x*a*x over I(a) differs from Ref(a)",
        "x in Ref(a) is not a fixed point of x -> x*a*x", "",
        "the product set I(a)*a*I(a) differs from Ref(a)")[k])


def _check_decomposition(s: _Scan):
    frames = s.inner_frames
    sums = iann_decomposition_batch(frames, s.inner_size(frames.a))
    # per item, in order: failing pairs, the pairs' frames, the witness
    # named (label and value per pair) and the note
    items = [
        (sums.ann_mismatch >= 0, frames, "x", sums.ann_mismatch,
         "l(a)+r(a) differs from Iann(a)"),
        (~sums.frame_ok, frames, "a0", frames.witnesses,
         "Re'+f'R differs from Iann(a)"),
        (~sums.translate_ok, frames, "a0", frames.witnesses,
         "a0 + Iann(a) differs from I(a)"),
    ]
    refl = s.reflexive_frames
    if refl is not None:
        ok = ref_decomposition(refl, s.ref_size(refl.a))
        items.append((~ok, refl, "a0", refl.witnesses,
                      "the reflexive decomposition differs from Ref(a)"))
    # pairs run by ascending a, so each item's first failing pair is its
    # first failing element's first failing witness; the first element
    # with a failing item is named, with its first failing item
    failed = [(int(fr.a[np.argmax(bad)]), k)
              for k, (bad, fr, _, _, _) in enumerate(items) if bad.any()]
    if failed:
        a, k = min(failed)
        bad, _, label, named, note = items[k]
        return VIOLATION, [("a", a), (label, int(named[np.argmax(bad)]))], \
            s.note(note)
    return PASS, [], s.note(f"items (i)-(iii) on {len(s.regulars)} regular "
                            f"elements, {s.witness_scope}")


def _check_invariance(s: _Scan):
    ring = s.ring
    bcols = s.sample
    # the two directions of the biconditional, as they fail
    sides = ("singleton without ideal membership",
             "ideal membership without singleton")
    found = ("b*I(a)*b a singleton with b outside Ra and aR",
             "b in Ra and aR without the singleton")
    counts, firsts = [0, 0], [None, None]
    regs, a0s = s.first_witnesses
    for rows in _row_blocks(len(regs), len(bcols)):
        a = regs[rows]
        singleton = singleton_conjugate_batch(
            bcols, idempotent_frames(ring, a, a0s[rows]))
        member = (s.member("right", bcols[None, :], a[:, None])
                  & s.member("left", bcols[None, :], a[:, None]))
        for k, only in enumerate((singleton & ~member, member & ~singleton)):
            if only.any() and firsts[k] is None:
                i, j = np.unravel_index(np.argmax(only), only.shape)
                firsts[k] = (int(a[i]), int(bcols[j]))
            counts[k] += int(only.sum())
    if rings.is_semiprime(ring).semiprime:
        if any(counts):
            # the first a with either direction failing, the first
            # direction at that a, then the first b
            k = min((first[0], k) for k, first in enumerate(firsts) if first)[1]
            return VIOLATION, [("a", firsts[k][0]), ("b", firsts[k][1])], \
                s.note(sides[k])
        return PASS, [], s.note(
            f"biconditional on {len(s.regulars) * len(bcols)} (a, b) pairs")
    clauses = [
        "ring is not semiprime, so the biconditional is not asserted"]
    for count, first, text in zip(counts, firsts, found):
        if count:
            clauses.append(f"{count} pair(s) had {text} (first: a = "
                           f"{_render(ring, first[0])}, b = "
                           f"{_render(ring, first[1])})")
    if not any(counts):
        clauses.append("no direction failed on the scanned pairs")
    return SKIPPED, [], s.note("; ".join(clauses))


def _check_jain_prasad(s: _Scan):
    ring, pts = s.ring, s.pair_points
    for rows in _row_blocks(len(pts), len(pts)):
        int_r = s.trivial_meet("right", pts[rows, None], pts[None, :])
        int_l = s.trivial_meet("left", pts[rows, None], pts[None, :])
        # c1 = c2 = c3 = False unless bR, dR or Rb, Rd meet only in 0
        i, j = np.nonzero(int_r | int_l)
        b = pts[rows][i]
        srow = ring.idx_add(b, pts[j])
        ok = s.regular_at(srow)
        i, j, b, srow = i[ok], j[ok], b[ok], srow[ok]
        c1 = int_r[i, j] & s.member("right", b, srow)
        c2 = int_l[i, j] & s.member("left", b, srow)
        c3 = int_r[i, j] & int_l[i, j]
        bad = np.flatnonzero((c1 != c2) | (c2 != c3))
        if len(bad):
            k = bad[0]  # the first b, then the first d
            return VIOLATION, [("b", int(b[k])), ("d", int(pts[j[k]]))], \
                s.note(f"conditions evaluated as ({bool(c1[k])}, "
                       f"{bool(c2[k])}, {bool(c3[k])})")
    # exhaustive: d -> b+d is a bijection of R
    checked = (int(s.regular_at(ring.idx_add(pts[:, None], pts)).sum())
               if s.sampled else len(pts) * len(s.regulars))
    return PASS, [], s.pair_scope(checked, "ordered pairs with b+d regular")


def _check_subset_criterion(s: _Scan):
    ring, semi = s.ring, rings.is_semiprime(s.ring)
    if not semi.semiprime:
        return SKIPPED, [], (
            "stated for semiprime rings only; this ring has witness "
            f"{_render(ring, semi.witness.index)} with a*R*a = 0")
    regs = s.pair_points[s.regular_at(s.pair_points)]
    # I(a) in I(b) iff no x in I(a) has outside[x, b]; bits packs outside
    run, xs = s.witnesses_of(regs)
    outside = np.ones((ring.size, len(regs)), dtype=bool)
    outside[xs, run] = False
    bits = np.packbits(outside, axis=1)
    start = np.searchsorted(run, np.arange(len(regs) + 1))
    verified = 0
    for rows in _row_blocks(len(regs), len(regs)):
        at = start[rows.start:rows.stop + 1]
        hit = np.bitwise_or.reduceat(bits[xs[at[0]:at[-1]]], at[:-1] - at[0])
        subs = np.unpackbits(hit, axis=1, count=len(regs)) == 0
        d = ring.idx_sub(regs[rows, None], regs[None, :])
        crit = (s.trivial_meet("right", regs[None, :], d)
                & s.trivial_meet("left", regs[None, :], d))
        i, j = np.nonzero(subs)
        a = regs[rows][i]
        failure = _first_proof_failure(s, a, regs[j], d[i, j])
        mism = np.flatnonzero((subs != crit).any(axis=1))
        # the first a with either failure; there a mismatch wins
        if len(mism) and (failure is None or mism[0] <= i[failure[0]]):
            r = mism[0]
            k = int(np.argmax(subs[r] != crit[r]))
            side = ("I(a) is contained in I(b) but the annihilation "
                    "criterion fails" if subs[r, k] else
                    "the annihilation criterion holds without the subset")
            return VIOLATION, [("a", int(regs[rows][r])), ("b", int(regs[k])),
                               ("d", int(d[r, k]))], s.note(side)
        if failure is not None:
            p, which, x = failure
            return VIOLATION, [("a", int(a[p])), ("b", int(regs[j[p]])),
                               ("d", int(d[i[p], j[p]])), ("x", x)], \
                s.note(f"proof identity {which} fails")
        verified += len(i)
    return PASS, [], s.note(
        f"biconditional on {len(regs)}^2 ordered regular pairs; proof "
        f"identities on the {verified} pairs with I(a) in I(b)")


_PROOF_IDENTITIES = ("b*x*d = 0", "d*x*b = 0", "d*x*d = d")


def _first_proof_failure(s: _Scan, a, bs, ds):
    """The first failure of b*x*d = 0, d*x*b = 0, d*x*d = d over x in I(a)
    and the triples (a, b, d) = (a[p], bs[p], ds[p]), as (p, identity, x),
    or None: by triple, then identity, then x in I(a) order.  One gather
    per identity covers every (triple, x)."""
    p, x = s.witnesses_of(a)
    b, d = np.asarray(bs)[p], np.asarray(ds)[p]
    bad = np.stack([s.ring.idx_mul(s.ring.idx_mul(u, x), v) != want
                    for u, v, want in ((b, d, 0), (d, b, 0), (d, d, d))])
    if not bad.any():
        return None
    first = p[np.argmax(bad.any(axis=0))]
    mine = p == first
    which = int(np.argmax(bad[:, mine].any(axis=1)))
    return int(first), _PROOF_IDENTITIES[which], \
        int(x[mine][np.argmax(bad[which, mine])])


def _collisions(a: np.ndarray, x: np.ndarray) -> tuple:
    """Group the elements of the pairs (a, x), sorted by a, then x, by
    their set of x, each size class by np.unique over its rows as opaque
    values: (elements, the first member of each one's group, the first
    pair (first member, later member) or None, the colliding pairs)."""
    elems, start, size = np.unique(a, return_index=True, return_counts=True)
    label = np.empty(len(elems), dtype=np.int64)
    for k in np.unique(size).tolist():
        mine = np.flatnonzero(size == k)
        rows = np.ascontiguousarray(x[start[mine, None] + np.arange(k)])
        label[mine] = np.unique(rows.view(np.dtype((np.void, 8 * k))),
                                return_inverse=True)[1].reshape(-1)
    first, of = _group(size, label)  # stable: first holds the least member
    lead = elems[first[of]]
    later = np.flatnonzero(lead != elems)
    count = np.bincount(of)
    return elems, lead, \
        (int(lead[later[0]]), int(elems[later[0]])) if len(later) else None, \
        int((count * (count - 1) // 2).sum())


def _theorem_verdict(s: _Scan, which: str, first_pair, npairs: int, extra=""):
    ring, semi = s.ring, rings.is_semiprime(s.ring)
    scope = f"{len(s.regulars)} regular elements"
    if first_pair is None:
        note = f"{which}-sets pairwise distinct across {scope}{extra}"
        if not semi.semiprime:
            note += "; the ring is not semiprime, so this was not guaranteed"
        return PASS, [], s.note(note)
    a, b = first_pair
    if semi.semiprime:
        return VIOLATION, [("a", a), ("b", b)], s.note(
            f"distinct regular elements share {which}-sets on a semiprime "
            f"ring ({npairs} colliding pairs; {scope}{extra})")
    return VIOLATION, [("a", a), ("b", b)], s.note(
        f"distinct regular elements share {which}-sets; the ring is not "
        f"semiprime (witness {_render(ring, semi.witness.index)}), so this "
        f"is the expected counterexample, consistent with the theorem "
        f"({npairs} colliding pairs; {scope}{extra})")


def _check_theorem_inner(s: _Scan):
    return _theorem_verdict(s, "I", *_collisions(*s._domain)[2:])


def _check_nielsen(s: _Scan):
    elems, lead, _, npairs = _collisions(*s._domain)
    # every ordered pair within a group, groups by first member, then a, b
    order = np.lexsort((elems, lead))
    members, lead = elems[order], lead[order]
    a, b = (members[v] for v in _within(lead, lead))
    diffs = s.ring.idx_sub(a, b)
    bad = np.flatnonzero(s.regular_at(diffs) & (a != b))
    if len(bad):
        k = bad[0]
        return VIOLATION, [("a", int(a[k])), ("b", int(b[k])),
                           ("d", int(diffs[k]))], \
            s.note("I(a) = I(b) with a-b regular but a != b")
    if npairs:
        return PASS, [], s.note(
            f"{npairs} pairs of distinct regular elements share I-sets; "
            "every such difference is non-regular")
    return PASS, [], s.note("no I-set collisions among regular elements")


def _check_theorem_reflexive(s: _Scan):
    if not np.array_equal(s.refset(0), [0]):
        return VIOLATION, [("a", 0)], "Ref(0) is not {0}"
    return _theorem_verdict(s, "Ref", *_collisions(*s.ref_pairs)[2:],
                            extra="; Ref(0) = {0} verified first")


def _check_hartwig(s: _Scan):
    ring = s.ring
    try:
        units = ring.unit_indices()
    except TableCapExceeded as exc:  # past the budget, _run_one skips
        return SKIPPED, [], f"unit enumeration is not feasible here: {exc}"
    first, of = _group(*s.ideal_key(s.regulars))
    laws = ("u with b = a*u", "v with b = v*a")
    pairs = 0
    for g in np.argsort(first).tolist():  # the classes by first member
        arr = s.regulars[of == g]
        # mark the orbits a*U and U*a of a block of the class, one gather
        # each, and read which members of the class they miss
        for rows in _row_blocks(len(arr), max(len(units), ring.size)):
            a = arr[rows, None]
            miss = np.empty((len(a), 2, len(arr)), dtype=bool)
            for k, orbit in enumerate((ring.idx_mul(a, units),
                                       ring.idx_mul(units, a))):
                marks = np.zeros((len(a), ring.size), dtype=bool)
                marks.reshape(-1)[orbit + np.arange(len(a))[:, None]
                                  * ring.size] = True
                miss[:, k] = ~marks[:, arr]
            if miss.any():
                # the first a in class order, u before v, then the first b
                i, k, j = np.unravel_index(np.argmax(miss), miss.shape)
                return VIOLATION, [("a", int(a[i, 0])), ("b", int(arr[j]))], \
                    s.note(f"no unit {laws[k]} although aR = bR and Ra = Rb")
        pairs += len(arr) ** 2
    return PASS, [], s.note(
        f"{pairs} ordered pairs across {len(first)} ideal classes, "
        f"unit group of order {len(units)}")


def _check_example_claims(s: _Scan):
    ring = s.ring
    if not fixture.looks_like_example_ring(ring):
        return SKIPPED, [], "only applies to the builtin example ring"
    if not fixture.is_example_ring(ring):
        raise WrongRing(
            "ring has the example basis but its products differ from the "
            "builtin fixture")
    gens = ring.generator_labels()
    a, b, x = gens["a"], gens["b"], gens["x"]

    def fail(witnesses, note):
        return VIOLATION, witnesses, note

    def span(words: str) -> np.ndarray:
        return additive_span(
            ring, [Elem(ring, gens[w]) for w in words.split()]).indices()

    if a == b:
        return fail([("a", a), ("b", b)], "the generators a and b coincide")
    ia, ib = s.iset(a), s.iset(b)
    if not np.array_equal(ia, ib):
        return fail([("a", a), ("b", b)], "I(a) differs from I(b)")
    if len(ia) != 512:
        return fail([("a", a)], f"|I(a)| = {len(ia)}, expected 512")
    refa, refb = s.refset(a), s.refset(b)
    if not np.array_equal(refa, refb):
        return fail([("a", a), ("b", b)], "Ref(a) differs from Ref(b)")
    if x not in refa:
        return fail([("a", a), ("x", x)], "x is not in Ref(a)")
    if len(refa) != 16:
        return fail([("a", a)], f"|Ref(a)| = {len(refa)}, expected 16")
    x_ax = int(ring.idx_add(x, int(ring.idx_mul(a, x))))
    if x_ax not in refa:
        return fail([("a", a), ("x", x_ax)],
                    "x + ax unexpectedly left Ref(a)")
    sub9 = span("a b x ax bx xa xb axb bxa")
    span_r, span_l = span("a b ax bx axb bxa"), span("a b xa xb axb bxa")
    ea, eb = Elem(ring, a), Elem(ring, b)
    r_a, r_b = right_annihilator(ea).indices(), right_annihilator(eb).indices()
    l_a, l_b = left_annihilator(ea).indices(), left_annihilator(eb).indices()
    for name, ann, stated in (("r(a)", r_a, span_r), ("r(b)", r_b, span_r),
                              ("l(a)", l_a, span_l), ("l(b)", l_b, span_l)):
        got = np.intersect1d(ann, sub9, assume_unique=True)
        if not np.array_equal(got, stated):
            return fail([("a", a)], f"{name} inside the unity-free "
                        "subalgebra differs from the stated span")
    # the full unital ring separates the annihilators; record the witnesses
    r_diff = np.setdiff1d(r_a, r_b)
    l_diff = np.setdiff1d(l_a, l_b)
    if len(r_diff) == 0 or len(l_diff) == 0:
        return fail([("a", a), ("b", b)],
                    "expected the unital ring to separate the annihilators")
    semi = rings.is_semiprime(ring)
    if semi.semiprime:
        return fail([], "the ring reports semiprime")
    w = semi.witness.index
    agens = ring.additive_generator_indices()
    wgw = ring.idx_mul(ring.idx_mul(w, agens), w)
    if np.any(wgw != 0):
        return fail([("w", w)], "the semiprimeness witness fails w*t*w = 0")
    rws = ring.idx_mul(ring.idx_mul(agens[:, None], w),
                       agens[None, :]).reshape(-1)
    quad = ring.idx_mul(rws[:, None], rws[None, :])
    if np.any(quad != 0):
        return fail([("w", w)], "(RwR)^2 is not zero for the witness")
    # the generator a does not witness failure: a*x*a = a is nonzero and
    # lies in (RaR)^2, refuting the stated (RaR)^2 = 0
    if int(ring.idx_mul(a, int(ring.idx_mul(x, a)))) != a:
        return fail([("a", a)], "expected a*(xa) = a inside (RaR)^2")
    note = (
        "verified: a != b, I(a) = I(b) with 512 members, Ref(a) = Ref(b) "
        "with 16 members containing x, annihilator spans inside the "
        "unity-free subalgebra, not semiprime with witness "
        f"{_render(ring, w)}, and (RwR)^2 = 0 for that witness. Stated "
        "literals amended: ref(a) = {x} is refuted by x + ax in Ref(a); "
        "r(a) = r(b) and l(a) = l(b) fail in the full unital ring (e.g. "
        f"{_render(ring, int(r_diff[0]))} separates r(a) from r(b)) and "
        "hold inside the subalgebra; (RaR)^2 = 0 fails for the generator "
        "a itself since a*(xa) = a, and holds for the witness above.")
    return PASS, [("a", a), ("b", b), ("x", x), ("w", w)], note


_CHECKS = {
    "inner_param": _check_inner_param,
    "refl_map": _check_refl_map,
    "decomposition": _check_decomposition,
    "invariance": _check_invariance,
    "jain_prasad": _check_jain_prasad,
    "subset_criterion": _check_subset_criterion,
    "theorem_inner": _check_theorem_inner,
    "nielsen": _check_nielsen,
    "theorem_reflexive": _check_theorem_reflexive,
    "hartwig": _check_hartwig,
    "example_claims": _check_example_claims,
}
CHECK_NAMES = tuple(_CHECKS)


def _run_one(scan: _Scan, name: str) -> CheckVerdict:
    start = time.perf_counter()
    try:
        status, raw, note = _CHECKS[name](scan)
    except BudgetExceeded as exc:
        status, raw, note = SKIPPED, [], str(exc)
    elapsed = (time.perf_counter() - start) * 1000.0
    witnesses = [(label, Elem(scan.ring, i)) for label, i in raw]
    return CheckVerdict(name, status, witnesses, note, elapsed)


def run_suite(ring: Ring,
              selection: Optional[Sequence[str]] = None) -> SuiteReport:
    """Run the selected checks (all by default) in name order, within the
    ring's enumeration budget."""
    names: Iterable[str] = CHECK_NAMES if selection is None else selection
    unknown = sorted(set(names) - set(CHECK_NAMES))
    if unknown:
        raise UnknownCheck(f"unknown check name(s): {', '.join(unknown)}")
    scan = _Scan(ring)
    verdicts = [_run_one(scan, name) for name in sorted(dict.fromkeys(names))]
    return SuiteReport(ring=ring, verdicts=verdicts, version=__version__)


def _single(name: str):
    def check(ring: Ring) -> CheckVerdict:
        return _run_one(_Scan(ring), name)
    check.__name__ = f"check_{name}"
    check.__doc__ = f"Run the {name} check on one ring."
    return check


check_inner_param = _single("inner_param")
check_refl_map = _single("refl_map")
check_decomposition = _single("decomposition")
check_invariance = _single("invariance")
check_jain_prasad = _single("jain_prasad")
check_subset_criterion = _single("subset_criterion")
check_theorem_inner = _single("theorem_inner")
check_nielsen = _single("nielsen")
check_theorem_reflexive = _single("theorem_reflexive")
check_hartwig = _single("hartwig")
check_example_claims = _single("example_claims")
