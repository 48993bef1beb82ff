"""Executable forms of the generalized-inverse theorems.

Each check scans a ring and returns pass, violation, or skipped together
with witness elements and a note.  Every set a check reads (I(a),
Ref(a), Iann(a), l(a), r(a), aR, Ra) comes from a ginv kernel, and
regularity from rings.regular_elements or rings.is_regular.

_Scan alone decides between exhaustive and sampled quantification.
Rings of at most TABLE_CAP elements quantify over every element; larger
(but still budget-sized) rings over a deterministic evenly-spaced sample,
and _Scan.note marks their notes "sampled".  Five checks keep two
algorithms, because each is the cheaper one on its side of TABLE_CAP:

- inner_param tests every frame (a*a0, a0*a) of every inner inverse,
  which for a = 0 above the cap would need a |R| x |R| block, so sampled
  rings test the first inner inverse only;
- refl_map's product law I(a)*a*I(a) samples factor pairs once the pair
  count passes 2^22;
- decomposition checks the sums l(a)+r(a) and Re'+f'R in full, and the
  reflexive decomposition for every reflexive inverse, only below the cap;
- jain_prasad and subset_criterion read the n x n ideal interning, which
  needs op tables, and otherwise build principal ideals per sampled pair.

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
from .ginv import (_pairwise, additive_span, inner_annihilator,
                   inner_inverses, inner_inverses_param, left_annihilator,
                   principal_left_ideal, principal_right_ideal,
                   ref_decomposition, reflexive_inverses, right_annihilator)
from .rings import TABLE_CAP, Elem, Ring

PASS = "pass"
VIOLATION = "violation"
SKIPPED = "skipped"

# quantifier sample for rings above TABLE_CAP: 64 outer points, 16 for pairs
SAMPLE_COUNT = 64
PAIR_SAMPLE = 16

CHECK_NAMES = (
    "inner_param",
    "refl_map",
    "decomposition",
    "invariance",
    "jain_prasad",
    "subset_criterion",
    "theorem_inner",
    "nielsen",
    "theorem_reflexive",
    "hartwig",
    "example_claims",
)


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


class _Scan:
    """Shared per-run caches over one ring, and its quantified domain.

    The one place that tells exhaustive from sampled mode: `sample` is
    the domain, `regulars` its regular elements, `regular_at` answers
    regularity anywhere, `ideal_key` groups elements by (aR, Ra), and
    `note` marks the notes of sampled runs.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.sampled = ring.size > TABLE_CAP
        self._isets: dict[int, np.ndarray] = {}
        self._refsets: dict[int, np.ndarray] = {}
        self._isreg: dict[int, bool] = {}

    @cached_property
    def idx(self) -> np.ndarray:
        self.ring.ensure_enumerable()
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
    def reg_mask(self) -> np.ndarray:
        mask = np.zeros(self.ring.size, dtype=bool)
        mask[rings.regular_elements(self.ring).indices()] = True
        return mask

    @cached_property
    def regulars(self) -> np.ndarray:
        return self.sample[self.regular_at(self.sample)]

    def regular_at(self, indices) -> np.ndarray:
        """Whether each index is regular, as a bool array of the same shape."""
        if not self.sampled:
            return self.reg_mask[indices]
        arr = np.asarray(indices, dtype=np.int64)
        flat = arr.reshape(-1).tolist()
        for i in flat:
            if i not in self._isreg:
                self._isreg[i] = rings.is_regular(Elem(self.ring, i)) is not None
        return np.asarray([self._isreg[i] for i in flat],
                          dtype=bool).reshape(arr.shape)

    def _kept(self, cache: dict, kernel, a: int) -> np.ndarray:
        if a in cache:
            return cache[a]
        out = kernel(Elem(self.ring, a)).indices()
        if not self.sampled:  # sampled sets are not kept; they may be large
            cache[a] = out
        return out

    def iset(self, a: int) -> np.ndarray:
        return self._kept(self._isets, inner_inverses, a)

    def refset(self, a: int) -> np.ndarray:
        return self._kept(self._refsets, reflexive_inverses, a)

    def ideal_key(self, a: int):
        """Equal for a and b exactly when aR = bR and Ra = Rb."""
        if not self.sampled:
            return int(self.right_ideals[0][a]), int(self.left_ideals[0][a])
        e = Elem(self.ring, a)
        return principal_right_ideal(e), principal_left_ideal(e)

    def note(self, text: str) -> str:
        return "sampled: " + text if self.sampled else text

    def _ideal_interning(self, side: str):
        ring = self.ring
        idx = self.idx
        n = ring.size
        ids = np.empty(n, dtype=np.int64)
        masks: list[np.ndarray] = []
        seen: dict[bytes, int] = {}
        for i in range(n):
            row = np.asarray(ring.idx_mul(i, idx) if side == "right"
                             else ring.idx_mul(idx, i))
            m = np.zeros(n, dtype=bool)
            m[row] = True
            key = m.tobytes()
            if key not in seen:
                seen[key] = len(masks)
                masks.append(m)
            ids[i] = seen[key]
        return ids, np.asarray(masks)

    @cached_property
    def right_ideals(self):
        return self._ideal_interning("right")

    @cached_property
    def left_ideals(self):
        return self._ideal_interning("left")

    @staticmethod
    def _trivial_table(masks: np.ndarray) -> np.ndarray:
        k = len(masks)
        table = np.zeros((k, k), dtype=bool)
        for i in range(k):
            table[i] = (masks[i][None, :] & masks).sum(axis=1) == 1
        return table

    @cached_property
    def tint_right(self) -> np.ndarray:
        return self._trivial_table(self.right_ideals[1])

    @cached_property
    def tint_left(self) -> np.ndarray:
        return self._trivial_table(self.left_ideals[1])

    @cached_property
    def unit_idx(self) -> np.ndarray:
        return self.ring.unit_indices()


# ---------------------------------------------------------------------------
# individual checks: each returns (status, [(name, index)], note)


def _frames(ring: Ring, a: int, ia: np.ndarray):
    """Each distinct frame (a0*a, a*a0) over a0 in I(a), with its a0s."""
    f_arr = np.asarray(ring.idx_mul(ia, a), dtype=np.int64)
    e_arr = np.asarray(ring.idx_mul(a, ia), dtype=np.int64)
    uniq, inv = np.unique(f_arr * ring.size + e_arr, return_inverse=True)
    for k_i, key in enumerate(uniq.tolist()):
        yield key // ring.size, key % ring.size, ia[inv == k_i]


def _check_inner_param(s: _Scan):
    ring = s.ring
    idx = s.idx
    regs = s.regulars
    if s.sampled:
        for a in (int(v) for v in regs):
            ia = s.iset(a)
            a0 = int(ia[0])
            param = inner_inverses_param(Elem(ring, a), Elem(ring, a0))
            if not np.array_equal(param.indices(), ia):
                return VIOLATION, [("a", a), ("a0", a0)], \
                    "sampled: parametrized I(a) differs from the scan"
        return PASS, [], (
            f"sampled: {len(regs)} regular elements from a deterministic "
            f"{len(s.sample)}-point sample, first inner inverse each")
    total = 0
    for a in (int(v) for v in regs):
        ia = s.iset(a)
        total += len(ia)
        in_ia = np.zeros(ring.size, dtype=bool)
        in_ia[ia] = True
        for f, e, group in _frames(ring, a, ia):
            base = np.unique(np.asarray(
                ring.idx_sub(idx, ring.idx_mul(ring.idx_mul(f, idx), e))))
            if len(base) != len(ia):
                return VIOLATION, [("a", a), ("a0", int(group[0]))], (
                    f"parametrized set has {len(base)} members, "
                    f"the scan has {len(ia)}")
            # translation by a0 is injective, so size + membership suffice
            rows = np.asarray(ring.idx_add(group[:, None], base[None, :]))
            bad = np.nonzero(~in_ia[rows].all(axis=1))[0]
            if len(bad):
                return VIOLATION, [("a", a), ("a0", int(group[bad[0]]))], \
                    "parametrized I(a) differs from the scan"
    return PASS, [], (
        f"all {len(regs)} regular elements, all {total} inner-inverse "
        f"witnesses")


def _check_refl_map(s: _Scan):
    ring = s.ring
    n = ring.size
    pair_cap = 1 << 22
    sampled_products = False
    for a in (int(v) for v in s.regulars):
        ia = s.iset(a)
        ref = s.refset(a)
        phi_vals = np.asarray(ring.idx_mul(ring.idx_mul(ia, a), ia),
                              dtype=np.int64)
        if not np.array_equal(np.unique(phi_vals), ref):
            extra = np.setdiff1d(np.unique(phi_vals), ref)
            missing = np.setdiff1d(ref, np.unique(phi_vals))
            w = int(extra[0]) if len(extra) else int(missing[0])
            return VIOLATION, [("a", a), ("x", w)], \
                "image of x -> x*a*x over I(a) differs from Ref(a)"
        fixed = np.asarray(ring.idx_mul(ring.idx_mul(ref, a), ref))
        if np.any(fixed != ref):
            x = int(ref[np.nonzero(fixed != ref)[0][0]])
            return VIOLATION, [("a", a), ("x", x)], \
                "x in Ref(a) is not a fixed point of x -> x*a*x"
        xa = np.asarray(ring.idx_mul(ia, a), dtype=np.int64)
        ax = np.asarray(ring.idx_mul(a, ia), dtype=np.int64)
        n_fib = len(np.unique(phi_vals))
        if (len(np.unique(phi_vals * n + xa)) != n_fib
                or len(np.unique(phi_vals * n + ax)) != n_fib
                or len(np.unique(xa * n + ax)) != n_fib):
            by_val: dict[int, int] = {}
            by_pair: dict[int, int] = {}
            for pos, val in enumerate(phi_vals):
                val = int(val)
                pair = int(xa[pos]) * n + int(ax[pos])
                if val in by_val:
                    other = by_val[val]
                    if xa[pos] != xa[other] or ax[pos] != ax[other]:
                        return VIOLATION, \
                            [("a", a), ("x", int(ia[other])), ("y", int(ia[pos]))], \
                            "x*a*x = y*a*y but (x*a, a*x) != (y*a, a*y)"
                else:
                    by_val[val] = pos
                if pair in by_pair:
                    other = by_pair[pair]
                    if phi_vals[pos] != phi_vals[other]:
                        return VIOLATION, \
                            [("a", a), ("x", int(ia[other])), ("y", int(ia[pos]))], \
                            "(x*a, a*x) = (y*a, a*y) but x*a*x != y*a*y"
                else:
                    by_pair[pair] = pos
        left = np.unique(xa)
        if s.sampled and len(left) * len(ia) > pair_cap:
            sampled_products = True
            step = max(1, len(ia) // SAMPLE_COUNT)
            prods = _pairwise(ring.idx_mul, left, ia[::step])
            ref_mask = np.zeros(n, dtype=bool)
            ref_mask[ref] = True
            if not ref_mask[prods].all():
                w = int(prods[~ref_mask[prods]][0])
                return VIOLATION, [("a", a), ("x", w)], \
                    "a product x*a*y with x,y in I(a) falls outside Ref(a)"
        else:
            prods = _pairwise(ring.idx_mul, left, ia)
            if not np.array_equal(prods, ref):
                diff = np.setdiff1d(prods, ref)
                w = int(diff[0]) if len(diff) else int(np.setdiff1d(ref, prods)[0])
                return VIOLATION, [("a", a), ("x", w)], \
                    "the product set I(a)*a*I(a) differs from Ref(a)"
    return PASS, [], s.note(
        f"all four properties on {len(s.regulars)} regular elements"
        + ("; product law restricted to sampled factor pairs"
           if sampled_products else ""))


def _check_decomposition(s: _Scan):
    ring = s.ring
    one = ring._one_index

    def annihilators(a):
        """Iann(a), l(a) and r(a)."""
        ea = Elem(ring, a)
        return (inner_annihilator(ea).indices(), left_annihilator(ea).indices(),
                right_annihilator(ea).indices())

    def frame_ideals(e, f):
        """R*e_c and f_c*R, with e_c = 1-e and f_c = 1-f."""
        e_c, f_c = int(ring.idx_sub(one, e)), int(ring.idx_sub(one, f))
        return (principal_left_ideal(Elem(ring, e_c)).indices(),
                principal_right_ideal(Elem(ring, f_c)).indices())

    if s.sampled:
        for a in (int(v) for v in s.regulars):
            iann, l_arr, r_arr = annihilators(a)
            iann_mask = np.zeros(ring.size, dtype=bool)
            iann_mask[iann] = True
            ia = s.iset(a)
            a0 = int(ia[0])
            ls = l_arr[:: max(1, len(l_arr) // SAMPLE_COUNT)]
            rs = r_arr[:: max(1, len(r_arr) // SAMPLE_COUNT)]
            sums = _pairwise(ring.idx_add, ls, rs)
            if not iann_mask[sums].all():
                w = int(sums[~iann_mask[sums]][0])
                return VIOLATION, [("a", a), ("x", w)], \
                    "sampled: an l(a)+r(a) sum falls outside Iann(a)"
            r_ec, fc_r = frame_ideals(int(ring.idx_mul(a, a0)),
                                      int(ring.idx_mul(a0, a)))
            pieces = _pairwise(ring.idx_add,
                               r_ec[:: max(1, len(r_ec) // SAMPLE_COUNT)],
                               fc_r[:: max(1, len(fc_r) // SAMPLE_COUNT)])
            if not iann_mask[pieces].all():
                w = int(pieces[~iann_mask[pieces]][0])
                return VIOLATION, [("a", a), ("a0", a0), ("x", w)], \
                    "sampled: an Re'+f'R sum falls outside Iann(a)"
            translate = np.unique(np.asarray(ring.idx_add(a0, iann)))
            if not np.array_equal(translate, ia):
                return VIOLATION, [("a", a), ("a0", a0)], \
                    "a0 + Iann(a) differs from I(a)"
        return PASS, [], (
            f"sampled: {len(s.regulars)} regular elements; sum inclusions "
            "on sampled pairs, translate identity in full; the reflexive "
            "decomposition is exercised only in exhaustive mode")

    for a in (int(v) for v in s.regulars):
        iann, l_arr, r_arr = annihilators(a)
        via_lr = _pairwise(ring.idx_add, l_arr, r_arr)
        if not np.array_equal(via_lr, iann):
            diff = np.setdiff1d(via_lr, iann)
            w = int(diff[0]) if len(diff) else int(np.setdiff1d(iann, via_lr)[0])
            return VIOLATION, [("a", a), ("x", w)], "l(a)+r(a) differs from Iann(a)"
        ia = s.iset(a)
        for f, e, group in _frames(ring, a, ia):
            r_ec, fc_r = frame_ideals(e, f)
            if not np.array_equal(_pairwise(ring.idx_add, r_ec, fc_r), iann):
                return VIOLATION, [("a", a), ("a0", int(group[0]))], \
                    "Re'+f'R differs from Iann(a)"
        if len(iann) != len(ia):
            return VIOLATION, [("a", a), ("a0", int(ia[0]))], (
                f"|Iann(a)| = {len(iann)} cannot translate onto "
                f"|I(a)| = {len(ia)}")
        in_ia = np.zeros(ring.size, dtype=bool)
        in_ia[ia] = True
        # translation by a0 is injective, so size + membership suffice
        step = max(1, (1 << 20) // max(1, len(iann)))
        for lo in range(0, len(ia), step):
            block = np.asarray(ring.idx_add(ia[lo:lo + step, None],
                                            iann[None, :]))
            bad = np.nonzero(~in_ia[block].all(axis=1))[0]
            if len(bad):
                return VIOLATION, [("a", a), ("a0", int(ia[lo + bad[0]]))], \
                    "a0 + Iann(a) differs from I(a)"
        ref = s.refset(a)
        for a0 in (int(v) for v in ref):
            got = ref_decomposition(Elem(ring, a), Elem(ring, a0)).indices()
            if not np.array_equal(got, ref):
                return VIOLATION, [("a", a), ("a0", a0)], \
                    "the reflexive decomposition differs from Ref(a)"
    return PASS, [], (
        f"items (i)-(iii) on {len(s.regulars)} regular elements, "
        "all inner witnesses for (i)-(ii), all reflexive witnesses for (iii)")


def _check_invariance(s: _Scan):
    ring = s.ring
    semi = s.semi
    gens = ring.additive_generator_indices()
    bcols = s.sample
    only_singleton = 0
    only_member = 0
    first_sm: Optional[tuple] = None
    first_mem: Optional[tuple] = None
    pairs = 0
    for a in (int(v) for v in s.regulars):
        a0 = int(s.iset(a)[0])
        f = int(ring.idx_mul(a0, a))
        e = int(ring.idx_mul(a, a0))
        diffs = ring.idx_sub(gens, ring.idx_mul(ring.idx_mul(f, gens), e))
        singleton = np.ones(len(bcols), dtype=bool)
        for d in np.asarray(diffs).reshape(-1):
            vals = ring.idx_mul(ring.idx_mul(bcols, int(d)), bcols)
            singleton &= np.asarray(vals) == 0
        ea = Elem(ring, a)
        member = (np.isin(bcols, principal_right_ideal(ea).indices())
                  & np.isin(bcols, principal_left_ideal(ea).indices()))
        pairs += len(bcols)
        d1 = singleton & ~member
        d2 = member & ~singleton
        if semi.semiprime and (d1.any() or d2.any()):
            b = int(bcols[np.nonzero(d1 | d2)[0][0]])
            side = ("singleton without ideal membership" if d1.any()
                    else "ideal membership without singleton")
            return VIOLATION, [("a", a), ("b", b)], side
        if d1.any() and first_sm is None:
            first_sm = (a, int(bcols[np.nonzero(d1)[0][0]]))
        if d2.any() and first_mem is None:
            first_mem = (a, int(bcols[np.nonzero(d2)[0][0]]))
        only_singleton += int(d1.sum())
        only_member += int(d2.sum())
    if semi.semiprime:
        return PASS, [], s.note(f"biconditional on {pairs} (a, b) pairs")
    clauses = [
        "ring is not semiprime, so the biconditional is not asserted"]
    if only_singleton:
        a, b = first_sm
        clauses.append(
            f"{only_singleton} pair(s) had b*I(a)*b a singleton with b outside "
            f"Ra and aR (first: a = {_render(ring, a)}, b = {_render(ring, b)})")
    if only_member:
        a, b = first_mem
        clauses.append(
            f"{only_member} pair(s) had b in Ra and aR without the singleton "
            f"(first: a = {_render(ring, a)}, b = {_render(ring, b)})")
    if not (only_singleton or only_member):
        clauses.append("no direction failed on the scanned pairs")
    return SKIPPED, [], s.note("; ".join(clauses))


def _jp_conditions(ring, b, d):
    """The three equivalent direct-sum conditions for one pair (b, d)."""
    eb, ed = Elem(ring, b), Elem(ring, d)
    es = eb + ed
    br = principal_right_ideal(eb).indices()
    dr = principal_right_ideal(ed).indices()
    sr = principal_right_ideal(es).indices()
    lb = principal_left_ideal(eb).indices()
    ld = principal_left_ideal(ed).indices()
    ls = principal_left_ideal(es).indices()
    int_r = len(np.intersect1d(br, dr)) == 1
    int_l = len(np.intersect1d(lb, ld)) == 1
    c1 = int_r and bool(np.isin(b, sr))
    c2 = int_l and bool(np.isin(b, ls))
    c3 = int_r and int_l
    return c1, c2, c3


def _check_jain_prasad(s: _Scan):
    ring = s.ring
    if s.sampled:
        pts = s.sample[:: max(1, len(s.sample) // PAIR_SAMPLE)]
        ok = s.regular_at(ring.idx_add(pts[:, None], pts[None, :]))
        pairs = 0
        for i, b in enumerate(pts.tolist()):
            for j, d in enumerate(pts.tolist()):
                if not ok[i, j]:
                    continue
                pairs += 1
                c1, c2, c3 = _jp_conditions(ring, b, d)
                if not (c1 == c2 == c3):
                    return VIOLATION, [("b", b), ("d", d)], (
                        f"sampled: conditions evaluated as ({c1}, {c2}, {c3})")
        return PASS, [], f"sampled: {pairs} pairs with b+d regular"
    idx = s.idx
    rid, rmasks = s.right_ideals
    lid, lmasks = s.left_ideals
    tr, tl = s.tint_right, s.tint_left
    checked = 0
    for b in range(ring.size):
        srow = np.asarray(ring.idx_add(b, idx))
        ok = s.regular_at(srow)
        int_r = tr[rid[b], rid]
        int_l = tl[lid[b], lid]
        c1 = int_r & rmasks[rid[srow], b]
        c2 = int_l & lmasks[lid[srow], b]
        c3 = int_r & int_l
        eq = (c1 == c2) & (c2 == c3)
        bad = ok & ~eq
        if bad.any():
            d = int(np.nonzero(bad)[0][0])
            got = _jp_conditions(ring, b, d)
            return VIOLATION, [("b", b), ("d", d)], (
                f"conditions evaluated as {got}")
        checked += int(ok.sum())
    return PASS, [], f"all {checked} ordered pairs with b+d regular"


def _check_subset_criterion(s: _Scan):
    ring = s.ring
    semi = s.semi
    if not semi.semiprime:
        return SKIPPED, [], (
            "stated for semiprime rings only; this ring has witness "
            f"{_render(ring, semi.witness.index)} with a*R*a = 0")
    if s.sampled:
        sub = s.sample[:: max(1, len(s.sample) // PAIR_SAMPLE)]
        pts = sub[s.regular_at(sub)].tolist()
        pairs = 0
        for a in pts:
            ia = s.iset(a)
            for b in pts:
                pairs += 1
                d = int(ring.idx_sub(a, b))
                ib = s.iset(b)
                subset = bool(np.isin(ia, ib).all())
                c1, c2, c3 = _jp_conditions(ring, b, d)
                if subset != c3:
                    return VIOLATION, [("a", a), ("b", b), ("d", d)], (
                        "sampled: subset holds without the criterion"
                        if subset else
                        "sampled: criterion holds without the subset")
                if subset:
                    ok, which, w = _proof_identities_hold(ring, ia, b, d)
                    if not ok:
                        return VIOLATION, \
                            [("a", a), ("b", b), ("d", d), ("x", w)], \
                            f"sampled: proof identity {which} fails"
        return PASS, [], f"sampled: {pairs} ordered regular pairs"
    regs = s.regulars
    n = ring.size
    masks = np.zeros((len(regs), n), dtype=bool)
    for j, b in enumerate(int(v) for v in regs):
        masks[j, s.iset(b)] = True
    sizes = masks.sum(axis=1)
    rid, _ = s.right_ideals
    lid, _ = s.left_ideals
    tr, tl = s.tint_right, s.tint_left
    verified_subsets = 0
    for a in (int(v) for v in regs):
        ia = s.iset(a)
        probes = masks[:, ia[0]] & masks[:, ia[len(ia) // 2]] & masks[:, ia[-1]]
        cand = np.nonzero(probes & (sizes >= len(ia)))[0]
        subs = np.zeros(len(regs), dtype=bool)
        for j in cand:
            subs[j] = not np.any(~masks[j][ia])
        drow = np.asarray(ring.idx_sub(a, regs))
        crit = tr[rid[regs], rid[drow]] & tl[lid[regs], lid[drow]]
        mism = subs != crit
        if mism.any():
            j = int(np.nonzero(mism)[0][0])
            b, d = int(regs[j]), int(drow[j])
            side = ("I(a) is contained in I(b) but the annihilation "
                    "criterion fails" if subs[j] else
                    "the annihilation criterion holds without the subset")
            return VIOLATION, [("a", a), ("b", b), ("d", d)], side
        for j in np.nonzero(subs)[0]:
            b, d = int(regs[j]), int(drow[j])
            ok, which, w = _proof_identities_hold(ring, ia, b, d)
            if not ok:
                return VIOLATION, [("a", a), ("b", b), ("d", d), ("x", w)], \
                    f"proof identity {which} fails"
            verified_subsets += 1
    return PASS, [], (
        f"biconditional on {len(regs)}^2 ordered regular pairs; proof "
        f"identities on the {verified_subsets} pairs with I(a) in I(b)")


def _proof_identities_hold(ring, ia, b, d):
    """b*x*d = 0, d*x*b = 0, d*x*d = d over x in I(a)."""
    bxd = np.asarray(ring.idx_mul(ring.idx_mul(b, ia), d))
    if np.any(bxd != 0):
        return False, "b*x*d = 0", int(ia[np.nonzero(bxd != 0)[0][0]])
    dxb = np.asarray(ring.idx_mul(ring.idx_mul(d, ia), b))
    if np.any(dxb != 0):
        return False, "d*x*b = 0", int(ia[np.nonzero(dxb != 0)[0][0]])
    dxd = np.asarray(ring.idx_mul(ring.idx_mul(d, ia), d))
    if np.any(dxd != d):
        return False, "d*x*d = d", int(ia[np.nonzero(dxd != d)[0][0]])
    return True, "", 0


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
        diffs = np.asarray(ring.idx_sub(arr[:, None], arr[None, :]))
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
    ring = s.ring
    zero_ref = s.refset(0)
    if not np.array_equal(zero_ref, np.asarray([0])):
        return VIOLATION, [("a", 0)], "Ref(0) is not {0}"
    _, first_pair, npairs = _collisions(s, s.refset)
    return _theorem_verdict(s, "Ref", first_pair, npairs,
                            extra="; Ref(0) = {0} verified first")


def _check_hartwig(s: _Scan):
    ring = s.ring
    try:
        units = np.asarray(s.unit_idx, dtype=np.int64)
    except BudgetExceeded as exc:
        return SKIPPED, [], f"unit enumeration is not feasible here: {exc}"
    classes: dict = {}
    for a in (int(v) for v in s.regulars):
        classes.setdefault(s.ideal_key(a), []).append(a)
    pairs = 0
    for members in classes.values():
        arr = np.asarray(members, dtype=np.int64)
        for a in (int(v) for v in arr):
            au = np.unique(np.asarray(ring.idx_mul(a, units)))
            ua = np.unique(np.asarray(ring.idx_mul(units, a)))
            miss_u = ~np.isin(arr, au)
            if miss_u.any():
                b = int(arr[np.nonzero(miss_u)[0][0]])
                return VIOLATION, [("a", a), ("b", b)], \
                    "no unit u with b = a*u although aR = bR and Ra = Rb"
            miss_v = ~np.isin(arr, ua)
            if miss_v.any():
                b = int(arr[np.nonzero(miss_v)[0][0]])
                return VIOLATION, [("a", a), ("b", b)], \
                    "no unit v with b = v*a although aR = bR and Ra = Rb"
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
    sub9 = additive_span(ring, [Elem(ring, gens[w]) for w in
                                ("a", "b", "x", "ax", "bx", "xa", "xb",
                                 "axb", "bxa")]).indices()
    span_r = additive_span(ring, [Elem(ring, gens[w]) for w in
                                  ("a", "b", "ax", "bx", "axb", "bxa")]).indices()
    span_l = additive_span(ring, [Elem(ring, gens[w]) for w in
                                  ("a", "b", "xa", "xb", "axb", "bxa")]).indices()
    ea, eb = Elem(ring, a), Elem(ring, b)
    r_a, r_b = right_annihilator(ea).indices(), right_annihilator(eb).indices()
    l_a, l_b = left_annihilator(ea).indices(), left_annihilator(eb).indices()
    for name, ann in (("r(a)", r_a), ("r(b)", r_b)):
        got = np.intersect1d(ann, sub9)
        if not np.array_equal(got, span_r):
            return fail([("a", a)], f"{name} inside the unity-free "
                        "subalgebra differs from the stated span")
    for name, ann in (("l(a)", l_a), ("l(b)", l_b)):
        got = np.intersect1d(ann, sub9)
        if not np.array_equal(got, span_l):
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
    if np.any(np.asarray(wgw) != 0):
        return fail([("w", w)], "the semiprimeness witness fails w*t*w = 0")
    rws = np.asarray(ring.idx_mul(ring.idx_mul(agens[:, None], w),
                                  agens[None, :])).reshape(-1)
    quad = np.asarray(ring.idx_mul(rws[:, None], rws[None, :]))
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


def _run_one(scan: _Scan, name: str) -> CheckVerdict:
    start = time.perf_counter()
    try:
        status, raw, note = _CHECKS[name](scan)
    except BudgetExceeded as exc:
        status, raw, note = SKIPPED, [], str(exc)
    elapsed = (time.perf_counter() - start) * 1000.0
    witnesses = [(label, Elem(scan.ring, i)) for label, i in raw]
    return CheckVerdict(name, status, witnesses, note, elapsed)


def run_suite(ring: Ring, selection: Optional[Sequence[str]] = None,
              budget: Optional[int] = None) -> SuiteReport:
    """Run the selected checks (all by default) in name order."""
    names: Iterable[str] = CHECK_NAMES if selection is None else selection
    unknown = sorted(set(names) - set(CHECK_NAMES))
    if unknown:
        raise UnknownCheck(f"unknown check name(s): {', '.join(unknown)}")
    ordered = sorted(dict.fromkeys(names))
    scan = _Scan(ring)
    saved = ring.enumeration_budget
    if budget is not None:
        ring.enumeration_budget = budget
    try:
        verdicts = [_run_one(scan, name) for name in ordered]
    finally:
        ring.enumeration_budget = saved
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
