"""Executable forms of the generalized-inverse theorems.

Each check scans a ring and returns pass, violation, or skipped together
with witness elements and a note.  Every set a check reads (I(a),
Ref(a), Iann(a), l(a), r(a), aR, Ra) comes from a ginv kernel, and
regularity is read from I(a): a is regular exactly when I(a) is not
empty.  The identities that inner_param, decomposition, invariance and
refl_map verify come from the ginv functions that state them, in their
batched forms; no check computes its own copy.  inner_param and
decomposition items (i)-(ii) read one verdict per witness, and name the
first failing witness in array order.

_Scan alone decides between exhaustive and sampled quantification.
Rings of at most TABLE_CAP elements quantify over every element and
every witness; larger (but still budget-sized) rings over a
deterministic evenly-spaced sample (pairs over a smaller subsample), the
first inner inverse of each element and no reflexive witness, and
_Scan.note marks their notes "sampled".  _Scan is also the only reader
of how principal ideals are stored: one store per side, filled from the
batched kernel ginv.principal_ideal_rows in both modes, so jain_prasad,
subset_criterion, invariance and hartwig run one body.

Checks on rings whose hypotheses fail are never asserted silently: they
either skip with an observational note or report the counterexample and
label it as consistent with the hypothesis failing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import __version__, fixture, parsing, rings
from .errors import BudgetExceeded, UnknownCheck, WrongRing
from .ginv import (_first_difference, additive_span,
                   iann_decomposition_batch, idempotent_frames,
                   inner_inverses, inner_inverses_param_batch, inner_products,
                   left_annihilator, principal_ideal_rows,
                   ref_decomposition, reflexive_inverses, right_annihilator,
                   singleton_conjugate_batch)
from .rings import TABLE_CAP, Elem, Ring, _distinct

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
        unseen = s[self.ids[s] < 0]
        if len(unseen):
            self.intern(_distinct(self.ring, [unseen]))
        return self.ids[s]

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
    the regular sample points, `regular_at` answers regularity anywhere,
    `inner_witnesses` and `reflexive_witnesses` pick the witnesses that
    per-witness checks test, and `note`, `inner_scope` and `pair_scope`
    word the notes of sampled runs.

    Principal ideals answer three questions, each broadcast over index
    arrays: `ideal_key(a)` (the pair of ideal ids, equal exactly when
    aR = bR and Ra = Rb), `trivial_meet(side, b, d)` (bR and dR, or Rb
    and Rd, meet only in 0) and `member(side, x, s)` (x in sR, or x in
    Rs).  One _Ideals store per side answers them the same way in both
    modes: each element's ideal comes from one ginv.principal_ideal_rows
    call, made on first use, and the first use interns the whole sample,
    so an exhaustive run makes one kernel call per side.  I(a) and Ref(a)
    are likewise computed once per element and kept, and regularity is
    read from I(a) in both modes: `regular_at` computes I(a) for each
    element not asked about before and keeps whether it is empty.

    `idx`, the first thing every scan reads, also builds the ring's op
    tables (rings.Ring.build_tables) within the enumeration budget: a
    suite's quadratic scans pay the build back, a single query would not.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.sampled = ring.size > TABLE_CAP
        self._isets: dict[int, np.ndarray] = {}
        self._refsets: dict[int, np.ndarray] = {}
        self._ideals: dict[str, _Ideals] = {}

    @cached_property
    def idx(self) -> np.ndarray:
        self.ring.ensure_enumerable()
        self.ring.build_tables()
        return self.ring.all_indices()

    @cached_property
    def semi(self) -> rings.SemiprimeVerdict:
        self.idx
        return rings.is_semiprime(self.ring)

    @cached_property
    def sample(self) -> np.ndarray:
        idx = self.idx  # enforces the enumeration budget in sampled mode too
        return _sample_indices(self.ring.size) if self.sampled else idx

    @cached_property
    def _regular(self) -> np.ndarray:
        """Per element: 1 if regular, 0 if not, -1 while not known yet."""
        self.sample  # checks the budget before the array spans the ring
        return np.full(self.ring.size, -1, dtype=np.int8)

    @cached_property
    def regulars(self) -> np.ndarray:
        return self.sample[self.regular_at(self.sample)]

    def regular_at(self, indices) -> np.ndarray:
        """Whether each index is regular, that is I(a) is not empty, as a
        bool array of the same shape."""
        known = self._regular
        indices = np.asarray(indices, dtype=np.int64)
        for i in _distinct(self.ring, [indices[known[indices] < 0]]).tolist():
            known[i] = len(self.iset(i)) > 0
        return known[indices] == 1

    def _kept(self, cache: dict, kernel, a: int) -> np.ndarray:
        if a not in cache:
            cache[a] = kernel(Elem(self.ring, a)).indices()
        return cache[a]

    def iset(self, a: int) -> np.ndarray:
        return self._kept(self._isets, inner_inverses, a)

    def refset(self, a: int) -> np.ndarray:
        return self._kept(self._refsets, reflexive_inverses, a)

    def note(self, text: str) -> str:
        return "sampled: " + text if self.sampled else text

    def inner_witnesses(self, ia: np.ndarray) -> np.ndarray:
        """I(a), or its first member when sampled: the a0s checks test."""
        return ia[:1] if self.sampled else ia

    def reflexive_witnesses(self, a: int) -> np.ndarray:
        """Ref(a), or none when sampled: Ref(a) is itself a scan of R,
        and each witness adds an |R|-wide membership row."""
        return np.empty(0, dtype=np.int64) if self.sampled else self.refset(a)

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
        return store.meets[ib, jd]

    def member(self, side: str, x, s) -> np.ndarray:
        """Whether x lies in sR (or in Rs)."""
        store = self._store(side)
        at = store.ids_of(s)  # may grow store.rows
        return store.rows[at, x]

    def _store(self, side: str) -> _Ideals:
        if side not in self._ideals:
            # self.sample checks the budget before ids spans the ring
            self._ideals[side] = _Ideals(self.ring, side, self.sample)
        return self._ideals[side]

    @cached_property
    def unit_idx(self) -> np.ndarray:
        return self.ring.unit_indices()


# ---------------------------------------------------------------------------
# individual checks: each returns (status, [(name, index)], note)


def _check_inner_param(s: _Scan):
    ring = s.ring
    total = 0
    for a in (int(v) for v in s.regulars):
        witnesses = s.inner_witnesses(s.iset(a))
        ok = inner_inverses_param_batch(Elem(ring, a), witnesses)
        if not ok.all():
            a0 = int(witnesses[np.argmin(ok)])
            return VIOLATION, [("a", a), ("a0", a0)], \
                s.note("parametrized I(a) differs from the scan")
        total += len(witnesses)
    return PASS, [], s.inner_scope(total)


def _first_clash(keys: np.ndarray, vals: np.ndarray):
    """(i, j): the first j whose key first occurred at i, with another val."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    earlier = first[inverse.reshape(-1)]
    bad = np.nonzero(vals[earlier] != vals)[0]
    return (int(earlier[bad[0]]), int(bad[0])) if len(bad) else None


def _check_refl_map(s: _Scan):
    ring = s.ring
    for a in (int(v) for v in s.regulars):
        ia = s.iset(a)
        ref = s.refset(a)
        phi_vals = ring.idx_mul(ring.idx_mul(ia, a), ia)
        image = _distinct(ring, [phi_vals])
        if not np.array_equal(image, ref):
            w = _first_difference(image, ref)
            return VIOLATION, [("a", a), ("x", w)], \
                "image of x -> x*a*x over I(a) differs from Ref(a)"
        fixed = ring.idx_mul(ring.idx_mul(ref, a), ref)
        if np.any(fixed != ref):
            x = int(ref[np.nonzero(fixed != ref)[0][0]])
            return VIOLATION, [("a", a), ("x", x)], \
                "x in Ref(a) is not a fixed point of x -> x*a*x"
        # x*a*x = y*a*y iff x and y share the frame (x*a, a*x); the first y
        # to break either direction is named, the first direction on ties
        frames = idempotent_frames(Elem(ring, a), ia)
        clashes = [(clash[1], k, clash[0]) for k, clash in enumerate(
            (_first_clash(phi_vals, frames.of),
             _first_clash(frames.of, phi_vals))) if clash is not None]
        if clashes:
            y, k, x = min(clashes)
            return VIOLATION, \
                [("a", a), ("x", int(ia[x])), ("y", int(ia[y]))], (
                    "x*a*x = y*a*y but (x*a, a*x) != (y*a, a*y)",
                    "(x*a, a*x) = (y*a, a*y) but x*a*x != y*a*y")[k]
        prods = inner_products(Elem(ring, a), ia, ia).indices()
        if not np.array_equal(prods, ref):
            w = _first_difference(prods, ref)
            return VIOLATION, [("a", a), ("x", w)], \
                "the product set I(a)*a*I(a) differs from Ref(a)"
    return PASS, [], s.note(
        f"all four properties on {len(s.regulars)} regular elements")


def _check_decomposition(s: _Scan):
    ring = s.ring
    for a in (int(v) for v in s.regulars):
        ea = Elem(ring, a)
        witnesses = s.inner_witnesses(s.iset(a))
        sums = iann_decomposition_batch(ea, witnesses)
        if sums.ann_mismatch is not None:
            return VIOLATION, [("a", a), ("x", sums.ann_mismatch)], \
                s.note("l(a)+r(a) differs from Iann(a)")
        if not sums.frame_ok.all():
            a0 = int(witnesses[np.argmin(sums.frame_ok)])
            return VIOLATION, [("a", a), ("a0", a0)], \
                s.note("Re'+f'R differs from Iann(a)")
        if not sums.translate_ok.all():
            a0 = int(witnesses[np.argmin(sums.translate_ok)])
            return VIOLATION, [("a", a), ("a0", a0)], \
                s.note("a0 + Iann(a) differs from I(a)")
        refl = s.reflexive_witnesses(a)
        if len(refl):
            want = np.zeros(ring.size, dtype=bool)
            want[s.refset(a)] = True
            wrong = (ref_decomposition(ea, refl) != want).any(axis=1)
            if wrong.any():
                a0 = int(refl[np.argmax(wrong)])
                return VIOLATION, [("a", a), ("a0", a0)], \
                    s.note("the reflexive decomposition differs from Ref(a)")
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
    for a in (int(v) for v in s.regulars):
        ea = Elem(ring, a)
        singleton = singleton_conjugate_batch(
            bcols, ea, Elem(ring, int(s.iset(a)[0])))
        member = s.member("right", bcols, a) & s.member("left", bcols, a)
        for k, only in enumerate((singleton & ~member, member & ~singleton)):
            if only.any():
                b = int(bcols[np.argmax(only)])
                if s.semi.semiprime:
                    return VIOLATION, [("a", a), ("b", b)], sides[k]
                firsts[k] = firsts[k] or (a, b)
                counts[k] += int(only.sum())
    if s.semi.semiprime:
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
        eq = (c1 == c2) & (c2 == c3)
        bad = ok & ~eq
        if bad.any():
            j = int(np.argmax(bad))
            return VIOLATION, [("b", b), ("d", int(pts[j]))], s.note(
                f"conditions evaluated as ({bool(c1[j])}, {bool(c2[j])}, "
                f"{bool(c3[j])})")
        checked += int(ok.sum())
    return PASS, [], s.pair_scope(checked, "ordered pairs with b+d regular")


def _check_subset_criterion(s: _Scan):
    ring = s.ring
    semi = s.semi
    if not semi.semiprime:
        return SKIPPED, [], (
            "stated for semiprime rings only; this ring has witness "
            f"{_render(ring, semi.witness.index)} with a*R*a = 0")
    regs = s.pair_points[s.regular_at(s.pair_points)]
    masks = np.zeros((len(regs), ring.size), dtype=bool)
    for j, b in enumerate(int(v) for v in regs):
        masks[j, s.iset(b)] = True
    verified_subsets = 0
    for a in (int(v) for v in regs):
        ia = s.iset(a)
        subs = masks[:, ia].all(axis=1)
        drow = ring.idx_sub(a, regs)
        crit = (s.trivial_meet("right", regs, drow)
                & s.trivial_meet("left", regs, drow))
        mism = subs != crit
        if mism.any():
            j = int(np.nonzero(mism)[0][0])
            b, d = int(regs[j]), int(drow[j])
            side = ("I(a) is contained in I(b) but the annihilation "
                    "criterion fails" if subs[j] else
                    "the annihilation criterion holds without the subset")
            return VIOLATION, [("a", a), ("b", b), ("d", d)], s.note(side)
        js = np.flatnonzero(subs)
        failure = _proof_identity_failure(ring, ia, regs[js], drow[js])
        if failure is not None:
            j, which, w = failure
            b, d = int(regs[js[j]]), int(drow[js[j]])
            return VIOLATION, [("a", a), ("b", b), ("d", d), ("x", w)], \
                s.note(f"proof identity {which} fails")
        verified_subsets += len(js)
    return PASS, [], s.note(
        f"biconditional on {len(regs)}^2 ordered regular pairs; proof "
        f"identities on the {verified_subsets} pairs with I(a) in I(b)")


_PROOF_IDENTITIES = ("b*x*d = 0", "d*x*b = 0", "d*x*d = d")


def _proof_identity_failure(ring, ia, bs, ds):
    """The first failure of b*x*d = 0, d*x*b = 0, d*x*d = d over x in I(a)
    and the pairs (b, d) = (bs[j], ds[j]), as (j, identity, x), or None.

    Each identity is one (pairs x |I(a)|) gather.  Failures are ordered
    by pair, then identity, then x in I(a) order.
    """
    bs = np.asarray(bs, dtype=np.int64)[:, None]
    ds = np.asarray(ds, dtype=np.int64)[:, None]
    bad = np.stack([ring.idx_mul(ring.idx_mul(left, ia), right) != want
                    for left, right, want in ((bs, ds, 0), (ds, bs, 0),
                                              (ds, ds, ds))], axis=1)
    if not bad.any():
        return None
    j, which, x = np.unravel_index(np.argmax(bad), bad.shape)
    return int(j), _PROOF_IDENTITIES[which], int(ia[x])


def _collisions(s: _Scan, setter: Callable[[int], np.ndarray]):
    """Group regular elements by their set; yield stats and first collision."""
    first_of: dict[bytes, int] = {}
    groups: dict[bytes, list] = {}
    first_pair = None
    npairs = 0
    for a in (int(v) for v in s.regulars):
        key = setter(a).tobytes()
        if key in first_of:
            npairs += len(groups[key])
            if first_pair is None:
                first_pair = (first_of[key], a)
        else:
            first_of[key] = a
        groups.setdefault(key, []).append(a)
    return groups, first_pair, npairs


def _theorem_verdict(s: _Scan, which: str, first_pair, npairs: int, extra=""):
    ring = s.ring
    scope = f"{len(s.regulars)} regular elements"
    if first_pair is None:
        note = f"{which}-sets pairwise distinct across {scope}{extra}"
        if not s.semi.semiprime:
            note += "; the ring is not semiprime, so this was not guaranteed"
        return PASS, [], s.note(note)
    a, b = first_pair
    if s.semi.semiprime:
        return VIOLATION, [("a", a), ("b", b)], s.note(
            f"distinct regular elements share {which}-sets on a semiprime "
            f"ring ({npairs} colliding pairs; {scope}{extra})")
    return VIOLATION, [("a", a), ("b", b)], s.note(
        f"distinct regular elements share {which}-sets; the ring is not "
        f"semiprime (witness {_render(ring, s.semi.witness.index)}), so this "
        f"is the expected counterexample, consistent with the theorem "
        f"({npairs} colliding pairs; {scope}{extra})")


def _check_theorem_inner(s: _Scan):
    _, first_pair, npairs = _collisions(s, s.iset)
    return _theorem_verdict(s, "I", first_pair, npairs)


def _check_nielsen(s: _Scan):
    ring = s.ring
    groups, _, npairs = _collisions(s, s.iset)
    for members in groups.values():
        if len(members) < 2:
            continue
        arr = np.asarray(members, dtype=np.int64)
        diffs = ring.idx_sub(arr[:, None], arr[None, :])
        reg = s.regular_at(diffs)
        np.fill_diagonal(reg, False)
        if reg.any():
            i, j = (int(v[0]) for v in np.nonzero(reg))
            return VIOLATION, \
                [("a", int(arr[i])), ("b", int(arr[j])),
                 ("d", int(diffs[i, j]))], \
                "I(a) = I(b) with a-b regular but a != b"
    if npairs:
        return PASS, [], s.note(
            f"{npairs} pairs of distinct regular elements share I-sets; "
            "every such difference is non-regular")
    return PASS, [], s.note("no I-set collisions among regular elements")


def _check_theorem_reflexive(s: _Scan):
    zero_ref = s.refset(0)
    if not np.array_equal(zero_ref, np.asarray([0])):
        return VIOLATION, [("a", 0)], "Ref(0) is not {0}"
    _, first_pair, npairs = _collisions(s, s.refset)
    return _theorem_verdict(s, "Ref", first_pair, npairs,
                            extra="; Ref(0) = {0} verified first")


def _check_hartwig(s: _Scan):
    ring = s.ring
    try:
        units = s.unit_idx
    except BudgetExceeded as exc:
        return SKIPPED, [], f"unit enumeration is not feasible here: {exc}"
    classes: dict = {}
    right, left = s.ideal_key(s.regulars)
    for a, key in zip(s.regulars.tolist(), zip(right.tolist(), left.tolist())):
        classes.setdefault(key, []).append(a)
    pairs = 0
    for members in classes.values():
        arr = np.asarray(members, dtype=np.int64)
        for a in (int(v) for v in arr):
            for orbit, law in ((ring.idx_mul(a, units), "u with b = a*u"),
                               (ring.idx_mul(units, a), "v with b = v*a")):
                miss = ~np.isin(arr, orbit)
                if miss.any():
                    b = int(arr[np.argmax(miss)])
                    return VIOLATION, [("a", a), ("b", b)], \
                        f"no unit {law} although aR = bR and Ra = Rb"
            pairs += len(arr)
    return PASS, [], s.note(
        f"{pairs} ordered pairs across {len(classes)} ideal classes, "
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
    semi = s.semi
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
