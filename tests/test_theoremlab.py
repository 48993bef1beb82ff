"""Suite verdicts on every bundled ring, frozen from independent runs."""

import math
import random

import numpy as np
import pytest

import ginvlab
from ginvlab import (CHECK_NAMES, TABLE_CAP, UnknownCheck, WrongRing,
                     ZmodRing, build_matrix_ring, build_table_algebra,
                     check_decomposition, check_example_claims,
                     check_hartwig, check_inner_param, check_invariance,
                     check_jain_prasad, check_nielsen, check_refl_map,
                     check_subset_criterion, inner_annihilator,
                     inner_inverses, is_regular, parse_element,
                     principal_ideal_rows, principal_left_ideal,
                     principal_right_ideal, ref_decomposition,
                     reflexive_inverses, rings, run_suite, theoremlab)
from ginvlab.fixture import BASIS

from conftest import CHECK_ORACLES


@pytest.fixture(scope="module")
def example_report(example):
    return run_suite(example)


def _statuses(report):
    return {v.name: v.status for v in report.verdicts}


def _by_name(report, name):
    return next(v for v in report.verdicts if v.name == name)


def test_verdicts_cover_all_checks_in_order(z6):
    report = run_suite(z6)
    assert [v.name for v in report.verdicts] == sorted(CHECK_NAMES)
    assert report.version == ginvlab.__version__
    assert all(v.elapsed_ms >= 0 for v in report.verdicts)


def test_z6_all_pass(z6):
    report = run_suite(z6)
    assert report.summary() == {"pass": 10, "violation": 0, "skipped": 1}
    assert not report.has_violation()
    statuses = _statuses(report)
    assert statuses.pop("example_claims") == "skipped"
    assert set(statuses.values()) == {"pass"}


def test_z30_and_matrix_rings_pass(z30, m2gf2, m2gf3):
    for ring in (z30, m2gf2, m2gf3):
        report = run_suite(ring)
        assert report.summary() == {"pass": 10, "violation": 0, "skipped": 1}


def test_z4_semiprime_dependent_checks_skip(z4):
    report = run_suite(z4)
    assert report.summary() == {"pass": 8, "violation": 0, "skipped": 3}
    statuses = _statuses(report)
    assert statuses["invariance"] == "skipped"
    assert statuses["subset_criterion"] == "skipped"
    assert "not semiprime" in _by_name(report, "invariance").note
    assert "witness 2" in _by_name(report, "subset_criterion").note
    # the uniqueness results still hold here, just without the guarantee
    assert statuses["theorem_inner"] == "pass"
    assert "not guaranteed" in _by_name(report, "theorem_inner").note


def test_example_statuses(example_report):
    assert example_report.summary() == {"pass": 7, "violation": 2, "skipped": 2}
    assert example_report.has_violation()
    statuses = _statuses(example_report)
    assert statuses == {
        "decomposition": "pass",
        "example_claims": "pass",
        "hartwig": "pass",
        "inner_param": "pass",
        "invariance": "skipped",
        "jain_prasad": "pass",
        "nielsen": "pass",
        "refl_map": "pass",
        "subset_criterion": "skipped",
        "theorem_inner": "violation",
        "theorem_reflexive": "violation",
    }
    for name in ("theorem_inner", "theorem_reflexive"):
        assert "expected" in _by_name(example_report, name).note


def test_example_violation_witnesses_replay(example, example_report):
    for name, setter in (("theorem_inner", inner_inverses),
                         ("theorem_reflexive", reflexive_inverses)):
        wit = dict(_by_name(example_report, name).witnesses)
        a, b = wit["a"], wit["b"]
        assert a != b
        assert is_regular(a) is not None and is_regular(b) is not None
        assert setter(a) == setter(b)


def test_example_claims_witnesses(example, example_report):
    wit = dict(_by_name(example_report, "example_claims").witnesses)
    assert wit["a"] == parse_element(example, "a")
    assert wit["b"] == parse_element(example, "b")
    assert wit["x"] == parse_element(example, "x")
    w = wit["w"]
    assert w == parse_element(example, "xa + xb")
    for gi in example.additive_generator_indices():
        g = example.from_index(int(gi))
        assert w * g * w == example.zero()


def test_nielsen_note_counts_collisions(example_report):
    verdict = _by_name(example_report, "nielsen")
    assert verdict.status == "pass"
    assert "774" in verdict.note


def test_sampled_large_ring():
    report = run_suite(ZmodRing(16384))
    assert report.summary() == {"pass": 8, "violation": 0, "skipped": 3}
    statuses = _statuses(report)
    assert statuses["invariance"] == "skipped"
    assert statuses["subset_criterion"] == "skipped"
    assert "sampled" in _by_name(report, "inner_param").note
    assert "sampled" in _by_name(report, "nielsen").note


def test_budget_override_skips_everything():
    # M_5(GF(3)) has 3^25 elements, past the default budget, so no
    # per-element array (op tables, ideal ids) may exist before the check
    for ring in (ZmodRing(16384, enumeration_budget=100),
                 build_matrix_ring(5, 3)):
        report = run_suite(ring)
        assert report.summary() == {"pass": 0, "violation": 0, "skipped": 11}


def test_unknown_check_rejected(z6):
    with pytest.raises(UnknownCheck):
        run_suite(z6, ["nope"])


def test_selection_deduplicated_and_sorted(z6):
    report = run_suite(z6, ["nielsen", "inner_param", "nielsen"])
    assert [v.name for v in report.verdicts] == ["inner_param", "nielsen"]


def test_empty_selection(z6):
    report = run_suite(z6, [])
    assert report.verdicts == []
    assert report.summary() == {"pass": 0, "violation": 0, "skipped": 0}


def test_runs_are_deterministic(z6):
    first = run_suite(z6)
    second = run_suite(z6)
    for u, v in zip(first.verdicts, second.verdicts):
        assert (u.name, u.status, u.witnesses, u.note) == \
            (v.name, v.status, v.witnesses, v.note)


def test_single_check_wrappers(z6, example):
    verdict = check_nielsen(z6)
    assert verdict.name == "nielsen" and verdict.status == "pass"
    assert check_example_claims(example).status == "pass"


def test_example_claims_rejects_lookalike():
    rows = [[0, j, j, 1] for j in range(10)]
    rows += [[i, 0, i, 1] for i in range(1, 10)]
    fake = build_table_algebra(2, list(BASIS), [1] + [0] * 9, rows)
    with pytest.raises(WrongRing):
        check_example_claims(fake)


def test_example_claims_skips_elsewhere(z6):
    verdict = check_example_claims(z6)
    assert verdict.status == "skipped"
    assert "builtin example ring" in verdict.note


# gf3t3 runs the odd-p table algebra on the digit kernel, z4 is a Z/n that
# is not semiprime
@pytest.mark.parametrize("name", ["z30", "m2gf3", "example", "gf3t3", "z4",
                                  "m2gf2"])
def test_sampled_mode_agrees_with_exhaustive(request, monkeypatch, name):
    # TABLE_CAP = 0 samples every quantifier while the op tables stay
    ring = request.getfixturevalue(name)
    exhaustive = (request.getfixturevalue("example_report")
                  if name == "example" else run_suite(ring))
    monkeypatch.setattr(theoremlab, "TABLE_CAP", 0)
    sampled = run_suite(ring)
    assert _by_name(sampled, "inner_param").note.startswith("sampled: ")
    assert _statuses(sampled) == _statuses(exhaustive)


def test_hartwig_skip_names_the_table_cap():
    # GF(2)[t]/(t^13): 8192 elements, above TABLE_CAP: no quadratic unit scan
    basis = ["1"] + [f"t{k}" for k in range(1, 13)]
    rows = [[i, j, i + j, 1] for i in range(13) for j in range(13) if i + j < 13]
    ring = build_table_algebra(2, basis, [1] + [0] * 12, rows)
    verdict = check_hartwig(ring)
    assert verdict.status == "skipped"
    assert verdict.note == ("unit enumeration is not feasible here: ring has "
                            "8192 elements, op-table cap is 4096")


def test_hartwig_past_the_budget_skips_like_every_other_check():
    # M_2(GF(3)) is below TABLE_CAP, so only the budget stops the unit
    # scan: hartwig skips with the budget's own note, as the others do
    ring = build_matrix_ring(2, 3, enumeration_budget=10)
    for verdict in (check_hartwig(ring), check_nielsen(ring)):
        assert verdict.status == "skipped"
        assert verdict.note == "ring has 81 elements, enumeration budget is 10"


def test_decomposition_checks_every_reflexive_witness(m2gf2, monkeypatch):
    # break the kernel for one (a, a0) only: the last reflexive witness of
    # the last element that has several, so every earlier witness passes
    a, a0 = [(a, ref.indices()[-1]) for a in m2gf2.elements()
             for ref in [reflexive_inverses(a)] if len(ref) > 1][-1]

    def dropping_one(frames, sizes):
        ok = ref_decomposition(frames, sizes)
        ok[(frames.a == a.index) & (frames.witnesses == a0)] = False
        return ok

    monkeypatch.setattr(theoremlab, "ref_decomposition", dropping_one)
    verdict = check_decomposition(m2gf2)
    assert verdict.status == "violation"
    assert [(k, e.index) for k, e in verdict.witnesses] == \
        [("a", a.index), ("a0", int(a0))]
    assert verdict.note == "the reflexive decomposition differs from Ref(a)"


# Each check below must read its identity from the batched ginv function:
# corrupting that function's result for one witness (of the last element
# that has several, so every earlier witness passes) must surface as a
# violation naming exactly that element and witness.


def _last_with_several(ring, setter):
    """(a, w): the last element whose set has several members, and its last."""
    return [(a.index, int(got[-1])) for a in ring.elements()
            for got in [setter(a).indices()] if len(got) > 1][-1]


def _outside(ring, members):
    return int(np.setdiff1d(ring.all_indices(), members)[0])


def _witnesses(verdict):
    return [(k, e.index) for k, e in verdict.witnesses]


def _corrupt(name, a, change):
    """Wrap the ginv kernel name: change(result, pairs) on the pairs of a,
    a bool mask per pair, witnesses beside it."""
    real = getattr(ginvlab.ginv, name)

    def corrupted(frames, sizes):
        return change(real(frames, sizes), frames.a == a, frames.witnesses)
    return corrupted


def _corrupt_sums(a, change):
    """_corrupt for iann_decomposition_batch."""
    return _corrupt("iann_decomposition_batch", a, change)


def test_inner_param_checks_the_batched_parametrization(m2gf2, monkeypatch):
    a, a0 = _last_with_several(m2gf2, inner_inverses)
    monkeypatch.setattr(theoremlab, "inner_inverses_param_batch", _corrupt(
        "inner_inverses_param_batch", a,
        lambda got, mine, a0s: got & ~(mine & (a0s == a0))))
    verdict = check_inner_param(m2gf2)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("a", a), ("a0", a0)]
    assert verdict.note == "parametrized I(a) differs from the scan"


def test_decomposition_checks_the_batched_translate(m2gf2, monkeypatch):
    a, a0 = _last_with_several(m2gf2, inner_inverses)
    monkeypatch.setattr(theoremlab, "iann_decomposition_batch", _corrupt_sums(
        a, lambda got, mine, a0s: got._replace(
            translate_ok=got.translate_ok & ~(mine & (a0s == a0)))))
    verdict = check_decomposition(m2gf2)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("a", a), ("a0", a0)]
    assert verdict.note == "a0 + Iann(a) differs from I(a)"


def test_decomposition_checks_the_batched_annihilator_sum(m2gf2, monkeypatch):
    a, _ = _last_with_several(m2gf2, inner_inverses)
    x = _outside(m2gf2, inner_annihilator(m2gf2.from_index(a)).indices())
    monkeypatch.setattr(theoremlab, "iann_decomposition_batch", _corrupt_sums(
        a, lambda got, mine, a0s: got._replace(
            ann_mismatch=np.where(mine, x, got.ann_mismatch))))
    verdict = check_decomposition(m2gf2)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("a", a), ("x", x)]
    assert verdict.note == "l(a)+r(a) differs from Iann(a)"


def test_decomposition_checks_the_batched_frame_sum(m2gf2, monkeypatch):
    a, a0 = _last_with_several(m2gf2, inner_inverses)
    monkeypatch.setattr(theoremlab, "iann_decomposition_batch", _corrupt_sums(
        a, lambda got, mine, a0s: got._replace(
            frame_ok=got.frame_ok & ~(mine & (a0s == a0)))))
    verdict = check_decomposition(m2gf2)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("a", a), ("a0", a0)]
    assert verdict.note == "Re'+f'R differs from Iann(a)"


@pytest.mark.parametrize("sampled", [False, True],
                         ids=["exhaustive", "sampled"])
def test_decomposition_names_the_first_element_then_item_then_witness(
        z30, monkeypatch, sampled):
    # failures planted at two elements, and at two items of the earlier
    # one: the check names the earlier element, its earlier item (i') and
    # that item's first failing witness, although item (ii) fails at an
    # earlier witness and the later element fails item (i) as well
    if sampled:
        monkeypatch.setattr(theoremlab, "TABLE_CAP", 0)  # all 30 sampled
    frames = theoremlab._Scan(z30).inner_frames
    counts = np.bincount(frames.a)
    several = np.flatnonzero(counts > (0 if sampled else 1))
    early, late = int(several[1]), int(several[-1])
    first, last = (frames.witnesses[frames.a == early][k] for k in (0, -1))
    assert sampled == (first == last)
    x = _outside(z30, inner_annihilator(z30.from_index(late)).indices())
    real = ginvlab.ginv.iann_decomposition_batch

    def planted(frames, sizes):
        got = real(frames, sizes)

        def at(a, a0=None):
            return (frames.a == a) & ((frames.witnesses == a0)
                                      if a0 is not None else True)
        return got._replace(
            ann_mismatch=np.where(at(late), x, got.ann_mismatch),
            frame_ok=got.frame_ok & ~at(early, last) & ~at(late),
            translate_ok=got.translate_ok & ~at(early, first))

    monkeypatch.setattr(theoremlab, "iann_decomposition_batch", planted)
    verdict = check_decomposition(z30)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("a", early), ("a0", int(last))]
    assert verdict.note == ("sampled: " if sampled else "") + \
        "Re'+f'R differs from Iann(a)"


def _flipping_singletons(flips):
    """Wrap ginv.singleton_conjugate_batch: the verdict of each (a, b) in
    flips is flipped."""
    real = ginvlab.ginv.singleton_conjugate_batch

    def flipped(bs, frames):
        got = real(bs, frames)
        for a, b in flips:
            got[np.ix_(frames.a == a, np.asarray(bs) == b)] ^= True
        return got
    return flipped


def test_invariance_checks_the_batched_singleton_test(m2gf2, monkeypatch):
    # m2gf2 is semiprime, so one flipped (a, b) verdict is a violation; b
    # lies in aR and Ra, so the flip drops a singleton that should be there
    a = m2gf2.size - 1
    b = int(principal_right_ideal(m2gf2.from_index(a)).indices()[-1])
    monkeypatch.setattr(theoremlab, "singleton_conjugate_batch",
                        _flipping_singletons([(a, b)]))
    verdict = check_invariance(m2gf2)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("a", a), ("b", b)]
    assert verdict.note == "ideal membership without singleton"


@pytest.mark.parametrize("early", [0, 1])
def test_invariance_names_the_direction_failing_at_the_smaller_a(
        m2gf2, monkeypatch, early):
    # plant each direction of the biconditional at its own non-unit a:
    # direction 0 at b = 1, outside aR, where b*I(a)*b = I(a) has several
    # members; direction 1 at b = a, in aR and Ra, where a*I(a)*a = {a}
    one, first, last = m2gf2.one().index, 1, m2gf2.size - 1
    at = (first, last) if early == 0 else (last, first)
    flips = [(at[0], one), (at[1], at[1])]
    monkeypatch.setattr(theoremlab, "singleton_conjugate_batch",
                        _flipping_singletons(flips))
    verdict = check_invariance(m2gf2)
    assert verdict.status == "violation"
    a, b = flips[early]
    assert a == first
    assert _witnesses(verdict) == [("a", a), ("b", b)]
    assert verdict.note == ("singleton without ideal membership",
                            "ideal membership without singleton")[early]


def _dropping_products(a, x):
    """Wrap theoremlab._ref_products: the product x*a*y = x of a is lost."""
    real = theoremlab._ref_products

    def dropping(frames):
        got_a, got = real(frames)
        keep = (got_a != a) | (got != x)
        return got_a[keep], got[keep]
    return dropping


def test_refl_map_checks_the_batched_product_law(m2gf2, monkeypatch):
    a, x = _last_with_several(m2gf2, reflexive_inverses)
    monkeypatch.setattr(theoremlab, "_ref_products", _dropping_products(a, x))
    exhaustive = check_refl_map(m2gf2)
    # sampled mode runs the same product law over every factor pair
    monkeypatch.setattr(theoremlab, "TABLE_CAP", 0)  # op tables stay
    assert theoremlab._Scan(m2gf2).sampled
    sampled = check_refl_map(m2gf2)
    for verdict, prefix in ((exhaustive, ""), (sampled, "sampled: ")):
        assert verdict.status == "violation"
        assert _witnesses(verdict) == [("a", a), ("x", x)]
        assert verdict.note == \
            prefix + "the product set I(a)*a*I(a) differs from Ref(a)"


def test_refl_map_names_the_first_element_with_a_failing_property(m2gf2):
    # refl_map decides its first three properties on the scan's pair
    # arrays: dropping a member from the later element's Ref(a) breaks the
    # image there, and merging the earlier element's frames breaks the
    # fibers there; the earlier element is named, with its first clash
    several = [a.index for a in m2gf2.elements()
               if len(reflexive_inverses(a)) > 1]
    early, late = several[0], several[-1]
    scan = theoremlab._Scan(m2gf2)
    a, x = scan._domain
    dropped = int(scan.refset(late)[-1])
    outer = scan._outer.copy()
    outer[np.flatnonzero((a == late) & (x == dropped))] = False
    scan._outer = outer
    status, witnesses, note = theoremlab._check_refl_map(scan)
    assert (status, witnesses, note) == (
        "violation", [("a", late), ("x", dropped)],
        "image of x -> x*a*x over I(a) differs from Ref(a)")
    frames = scan.frames
    mine = np.flatnonzero(frames.a == early)
    merged = frames.of.copy()
    merged[mine] = frames.of[mine[0]]
    scan.frames = frames._replace(of=merged)
    ia = frames.witnesses[mine]
    phi = [(m2gf2.from_index(int(w)) * m2gf2.from_index(early)
            * m2gf2.from_index(int(w))).index for w in ia]
    y = next(w for w, v in zip(ia.tolist(), phi) if v != phi[0])
    assert theoremlab._check_refl_map(scan) == (
        "violation", [("a", early), ("x", int(ia[0])), ("y", y)],
        "(x*a, a*x) = (y*a, a*y) but x*a*x != y*a*y")


def test_refl_map_names_a_value_shared_by_two_frames(m2gf2):
    # the converse fiber failure: moving the last witness of a frame into a
    # frame of its own leaves x*a*x constant on every frame, but gives the
    # element more frames than values; the frame's first witness is named
    # as x and the moved one as y
    early = next(a.index for a in m2gf2.elements()
                 if len(reflexive_inverses(a)) > 1)
    scan = theoremlab._Scan(m2gf2)
    frames = scan.frames
    mine = np.flatnonzero(frames.a == early)
    sizes = np.bincount(frames.of[mine])
    frame = int(np.flatnonzero(sizes > 1)[0])
    share = mine[frames.of[mine] == frame]
    of = frames.of.copy()
    of[share[-1]] = len(frames.f)
    scan.frames = frames._replace(
        of=of, frame_a=np.append(frames.frame_a, early),
        f=np.append(frames.f, frames.f[frame]),
        e=np.append(frames.e, frames.e[frame]))
    assert theoremlab._check_refl_map(scan) == (
        "violation", [("a", early), ("x", int(frames.witnesses[share[0]])),
                      ("y", int(frames.witnesses[share[-1]]))],
        "x*a*x = y*a*y but (x*a, a*x) != (y*a, a*y)")


WITNESS_KERNELS = ("inner_inverses_param_batch", "iann_decomposition_batch",
                   "ref_decomposition", "singleton_conjugate_batch")


@pytest.mark.parametrize("blocks", [1, 5])
def test_suite_calls_each_witness_kernel_once_per_domain_row_block(
        m2gf3, monkeypatch, blocks):
    # the scan hands each kernel ring-wide pair arrays, so an exhaustive
    # suite calls it once per row block of its domain at most (the
    # singleton test takes one block of elements per call), not once per
    # element; M_2(GF(3)) is one block, or five blocks of 20 elements
    if blocks > 1:
        monkeypatch.setattr(rings, "_CHUNK", 81 * 20)
    calls = {name: 0 for name in WITNESS_KERNELS}

    def counted(name):
        real = getattr(ginvlab.ginv, name)

        def kernel(*args):
            calls[name] += 1
            return real(*args)
        return kernel

    for name in WITNESS_KERNELS:
        monkeypatch.setattr(theoremlab, name, counted(name))
    report = run_suite(m2gf3)
    assert report.summary() == {"pass": 10, "violation": 0, "skipped": 1}
    # M_2(GF(3)) is von Neumann regular: the domain is every element
    assert len(list(rings._row_blocks(m2gf3.size, m2gf3.size))) == blocks
    assert calls == {"inner_inverses_param_batch": 1,
                     "iann_decomposition_batch": 1, "ref_decomposition": 1,
                     "singleton_conjugate_batch": blocks}


# _Scan's ideal questions (trivial_meet, member, ideal_key) must give the
# same answers in both modes, and the definition's, computed from ElemSets.

KERNELS = (("right", principal_right_ideal), ("left", principal_left_ideal))


def _classes(keys):
    """Each key's position of first occurrence: equal keys, equal labels."""
    first: dict = {}
    return [first.setdefault(k, i) for i, k in enumerate(keys)]


@pytest.mark.parametrize("name", ["z30", "m2gf3", "example"])
def test_ideal_oracle_agrees_across_modes_and_with_definition(
        request, monkeypatch, name):
    ring = request.getfixturevalue(name)
    pts = ring.all_indices()
    if name == "example":
        pts = np.sort(np.random.default_rng(7).choice(ring.size, 40,
                                                      replace=False))
    elems = [ring.from_index(int(i)) for i in pts]
    exhaustive = theoremlab._Scan(ring)
    monkeypatch.setattr(theoremlab, "TABLE_CAP", 0)  # op tables stay
    sampled = theoremlab._Scan(ring)
    assert (exhaustive.sampled, sampled.sampled) == (False, True)
    b, d = pts[:, None], pts[None, :]
    for side, kernel in KERNELS:
        ideals = [kernel(e) for e in elems]
        meets = [[len(u.intersection(w)) == 1 for w in ideals] for u in ideals]
        members = [[e in ideal for ideal in ideals] for e in elems]
        for scan in (exhaustive, sampled):
            assert scan.trivial_meet(side, b, d).tolist() == meets
            assert scan.member(side, b, d).tolist() == members
    want = _classes([(principal_right_ideal(e), principal_left_ideal(e))
                     for e in elems])
    for scan in (exhaustive, sampled):
        assert _classes([scan.ideal_key(int(a)) for a in pts]) == want


@pytest.mark.parametrize("sampled", [False, True],
                         ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("name", ["z30", "m2gf3"])
def test_ideal_store_answers_do_not_depend_on_query_order(
        request, monkeypatch, name, sampled):
    # The store interns its sample on first use; with a one-point sample it
    # then grows by one element per single-element question, and its ids
    # follow the (shuffled) order of the questions.  Regularity is kept
    # per element too, one more element per regular_at question.
    ring = request.getfixturevalue(name)
    if sampled:
        monkeypatch.setattr(theoremlab, "TABLE_CAP", 0)  # op tables stay
    pts = ring.all_indices()
    order = np.random.default_rng(11).permutation(pts).tolist()
    grown = theoremlab._Scan(ring)
    assert grown.sampled == sampled
    grown.sample = np.asarray(order[:1])
    for k, a in enumerate(order):
        if k % 3 == 0:
            grown.ideal_key(a)
        for side, _ in KERNELS:
            if k % 3 == 1:
                grown.trivial_meet(side, a, order[0])
            elif k % 3 == 2:
                grown.member(side, order[0], a)
            assert np.count_nonzero(grown._ideals[side].ids >= 0) == k + 1
        grown.regular_at(a)
        assert np.count_nonzero(grown._where[1] >= 0) == k + 1
    oneshot = theoremlab._Scan(ring)
    elems = [ring.from_index(int(i)) for i in pts]
    b, d = pts[:, None], pts[None, :]
    for side, kernel in KERNELS:
        ideals = [kernel(e) for e in elems]
        meets = [[len(u.intersection(w)) == 1 for w in ideals] for u in ideals]
        members = [[e in ideal for ideal in ideals] for e in elems]
        for scan in (grown, oneshot):
            assert scan.trivial_meet(side, b, d).tolist() == meets
            assert scan.member(side, b, d).tolist() == members
    want = _classes([(principal_right_ideal(e), principal_left_ideal(e))
                     for e in elems])
    for scan in (grown, oneshot):
        right, left = scan.ideal_key(pts)
        assert _classes(list(zip(right.tolist(), left.tolist()))) == want
    regular = np.zeros(ring.size, dtype=bool)
    regular[rings.regular_elements(ring).indices()] = True
    for scan in (grown, oneshot):
        assert np.array_equal(scan.regular_at(pts), regular)


def test_zmod_ideal_oracle_matches_closed_forms():
    # above TABLE_CAP: aR = Ra = gcd(a, n)*Z/n, so bR and dR meet only in 0
    # iff n divides lcm(gcd(b, n), gcd(d, n)), and x in sR iff gcd(s, n) | x
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(TABLE_CAP + 1, 3 * TABLE_CAP), label="n")
        divisors = [g for g in range(1, n + 1) if n % g == 0]
        # multiples of a divisor, so that nontrivial gcds are common
        elems = st.builds(lambda g, k: g * k % n, st.sampled_from(divisors),
                          st.integers(0, n - 1))
        pairs = st.lists(st.tuples(elems, elems), min_size=1, max_size=6)
        b, d = np.asarray(data.draw(pairs, label="(b, d)")).T
        x, s = np.asarray(data.draw(pairs, label="(x, s)")).T
        scan = theoremlab._Scan(ZmodRing(n))
        assert scan.sampled
        meet = [math.lcm(math.gcd(u, n), math.gcd(w, n)) % n == 0
                for u, w in zip(b.tolist(), d.tolist())]
        member = [[v % math.gcd(t, n) == 0 for t in s.tolist()]
                  for v in x.tolist()]
        for side in ("right", "left"):
            assert scan.trivial_meet(side, b, d).tolist() == meet
            assert scan.member(side, x[:, None], s[None, :]).tolist() == member

    check()


# jain_prasad, subset_criterion and invariance must read aR and Ra from the
# principal ideal kernel in both modes: one element's ideal losing one
# member must surface as a violation naming the first pair it affects.


@pytest.fixture(params=["exhaustive", "sampled"])
def note_prefix(request, monkeypatch):
    """Run in either mode; TABLE_CAP = 0 samples z30 at every element."""
    if request.param == "sampled":
        monkeypatch.setattr(theoremlab, "TABLE_CAP", 0)
        return "sampled: "
    return ""


def _dropping(sides, target, dropped):
    """Wrap principal_ideal_rows: on each of sides, target's row loses
    dropped."""
    def kernel(ring, side, s):
        rows = principal_ideal_rows(ring, side, s)
        if side in sides:
            rows[np.asarray(s).reshape(-1) == target, dropped] = False
        return rows
    return kernel


def test_jain_prasad_reads_the_ideal_kernels(z30, monkeypatch, note_prefix):
    # 6R and 25R meet only in 0 and 6 + 25 = 1: without 6 in 1R, c1 fails
    monkeypatch.setattr(theoremlab, "principal_ideal_rows",
                        _dropping(("right",), 1, 6))
    verdict = check_jain_prasad(z30)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("b", 6), ("d", 25)]
    assert verdict.note == (note_prefix +
                            "conditions evaluated as (False, True, True)")


def test_invariance_reads_the_ideal_kernels(z30, monkeypatch, note_prefix):
    monkeypatch.setattr(theoremlab, "principal_ideal_rows",
                        _dropping(("right",), 1, 6))
    verdict = check_invariance(z30)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("a", 1), ("b", 6)]
    assert verdict.note == note_prefix + "singleton without ideal membership"


def test_subset_criterion_reads_the_ideal_kernels(z30, monkeypatch,
                                                  note_prefix):
    # 5R and 27R = 3R share only 0 and 15: without 15 they meet trivially
    monkeypatch.setattr(theoremlab, "principal_ideal_rows",
                        _dropping(("right", "left"), 5, 15))
    verdict = check_subset_criterion(z30)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("a", 2), ("b", 5), ("d", 27)]
    assert verdict.note == (
        note_prefix + "the annihilation criterion holds without the subset")


# subset_criterion evaluates its proof identities for every triple
# (a, b, d) of a row block of a, over every x in I(a), in one gather per
# identity; the per-pair loop it replaced is the reference, failures
# included.


def _proof_identities_per_pair(ring, inner, triples):
    """The first (triple, identity, x) that fails, one triple at a time,
    with inner[a] = I(a)."""
    for p, (a, b, d) in enumerate(triples):
        ia = inner[a]
        for which, left, right, want in (("b*x*d = 0", b, d, 0),
                                         ("d*x*b = 0", d, b, 0),
                                         ("d*x*d = d", d, d, d)):
            bad = np.asarray(ring.idx_mul(ring.idx_mul(left, ia), right))
            if (bad != want).any():
                return p, which, int(ia[np.argmax(bad != want)])
    return None


@pytest.mark.parametrize("name", ["z30", "m2gf3", "example"])
def test_batched_proof_identities_match_the_per_pair_loop(request, name):
    ring = request.getfixturevalue(name)
    rng = random.Random(3)
    regs = rings.regular_elements(ring).indices().tolist()
    inner = {a: inner_inverses(ring.from_index(a)).indices() for a in regs}
    masks = np.zeros((len(regs), ring.size), dtype=bool)
    for j, b in enumerate(regs):
        masks[j, inner[b]] = True
    scan = theoremlab._Scan(ring)
    assert scan.regular_at(regs).all()  # scans I(a) for every a
    helper = theoremlab._first_proof_failure
    triples = []
    for a in regs:
        subsets = [regs[j] for j in
                   np.flatnonzero(masks[:, inner[a]].all(axis=1))]
        bs = rng.sample(subsets, min(3, len(subsets))) + rng.sample(regs, 4)
        triples += [(a, b, int(ring.idx_sub(a, b))) for b in bs]
    rng.shuffle(triples)
    outcomes = {"fails": 0, "holds": 0}
    for lo in range(0, len(triples), 9):
        block = triples[lo:lo + 9]
        a, b, d = (np.asarray(v) for v in zip(*block))
        assert helper(scan, a, b, d) == \
            _proof_identities_per_pair(ring, inner, block), block
    for triple in triples:
        a, b, d = (np.asarray([v]) for v in triple)
        want = _proof_identities_per_pair(ring, inner, [triple])
        assert helper(scan, a, b, d) == want, triple
        outcomes["holds" if want is None else "fails"] += 1
    assert outcomes["fails"] and outcomes["holds"], outcomes


# The ring-wide checks against their per-element oracles (tests/conftest):
# the full verdict, status, witnesses and note, in both modes.

RING_WIDE = tuple(CHECK_ORACLES)


def _verdicts(ring, names, oracle=False):
    """Each check's (status, witnesses, note) on its own fresh scan."""
    checks = CHECK_ORACLES if oracle else theoremlab._CHECKS
    return {name: checks[name](theoremlab._Scan(ring)) for name in names}


@pytest.mark.parametrize("name,sampled,chunk", [
    ("z30", False, None), ("m2gf3", False, None), ("gf3t3", False, None),
    ("example", False, None), ("z30", True, None), ("m2gf3", False, 200)],
    ids=["z30", "m2gf3", "gf3t3", "example10", "z30-sampled",
         "m2gf3-small-blocks"])
def test_ring_wide_checks_match_their_per_element_oracles(
        request, monkeypatch, name, sampled, chunk):
    ring = request.getfixturevalue(name)
    if sampled:
        monkeypatch.setattr(theoremlab, "TABLE_CAP", 0)  # op tables stay
    if chunk:  # row blocks of a few pair points each
        monkeypatch.setattr(rings, "_CHUNK", chunk)
    assert theoremlab._Scan(ring).sampled == sampled
    assert _verdicts(ring, RING_WIDE) == _verdicts(ring, RING_WIDE, True)


# Witness order: with two failures planted, each ring-wide check names the
# one its per-element form met first.


def test_jain_prasad_names_the_first_b_then_the_first_d(
        z30, monkeypatch, note_prefix):
    # 6 + 25 = 1 and 10 + 3 = 13, each pair meeting only in 0: without 6
    # in 1R and 10 in 13R both pairs fail c1; b = 6 comes first, although
    # d = 3 comes before d = 25
    early, late = _dropping(("right",), 1, 6), _dropping(("right",), 13, 10)
    monkeypatch.setattr(theoremlab, "principal_ideal_rows",
                        lambda *args: early(*args) & late(*args))
    for oracle in (False, True):
        status, witnesses, note = _verdicts(z30, ["jain_prasad"],
                                            oracle)["jain_prasad"]
        assert (status, witnesses) == ("violation", [("b", 6), ("d", 25)])
        assert note == \
            note_prefix + "conditions evaluated as (False, True, True)"
    # alone, the later failure is named
    monkeypatch.setattr(theoremlab, "principal_ideal_rows", late)
    assert _witnesses(check_jain_prasad(z30)) == [("b", 10), ("d", 3)]


def test_jain_prasad_evaluates_pairs_meeting_trivially_on_one_side(
        z30, monkeypatch, note_prefix):
    # with R*6 emptied to {0}, 1R and 6R still share 6R but R1 and R6 meet
    # only in 0, and 1 lies in R*7 = R: c2 holds alone at (1, 6)
    def emptied(ring, side, s):
        rows = principal_ideal_rows(ring, side, s)
        if side == "left":
            rows[np.asarray(s).reshape(-1) == 6, 1:] = False
        return rows

    monkeypatch.setattr(theoremlab, "principal_ideal_rows", emptied)
    want = ("violation", [("b", 1), ("d", 6)],
            note_prefix + "conditions evaluated as (False, True, False)")
    for oracle in (False, True):
        assert _verdicts(z30, ["jain_prasad"], oracle)["jain_prasad"] == want


def _planted_proof_failure(a, b, which):
    """Wrap theoremlab._first_proof_failure: the triple (a, b, d) fails the
    identity named which, at the first x in I(a)."""
    real = theoremlab._first_proof_failure

    def planted(s, a_, bs, ds):
        at = np.flatnonzero((np.asarray(a_) == a) & (np.asarray(bs) == b))
        if len(at):
            return int(at[0]), which, int(s.iset(a)[0])
        return real(s, a_, bs, ds)
    return planted


@pytest.mark.parametrize("early", [1, 2])
def test_subset_criterion_names_the_first_a_then_a_mismatch(
        z30, monkeypatch, note_prefix, early):
    # a criterion mismatch at a = 2 (5R and 27R lose their common 15) and
    # a proof identity failing at a = early, at its first subset pair
    # b = 0 (I(0) = R): an earlier a wins; at the same a the mismatch
    # wins, although its pair b = 5 comes later
    monkeypatch.setattr(theoremlab, "principal_ideal_rows",
                        _dropping(("right", "left"), 5, 15))
    monkeypatch.setattr(theoremlab, "_first_proof_failure",
                        _planted_proof_failure(early, 0, "d*x*b = 0"))
    verdict = check_subset_criterion(z30)
    assert verdict.status == "violation"
    if early == 1:
        x = int(inner_inverses(z30.from_index(1)).indices()[0])
        assert _witnesses(verdict) == [("a", 1), ("b", 0), ("d", 1),
                                       ("x", x)]
        assert verdict.note == note_prefix + "proof identity d*x*b = 0 fails"
    else:
        assert _witnesses(verdict) == [("a", 2), ("b", 5), ("d", 27)]
        assert verdict.note == note_prefix + \
            "the annihilation criterion holds without the subset"


@pytest.mark.parametrize("same", [False, True], ids=["earlier", "same"])
def test_refl_map_names_the_first_element_then_a_property(
        m2gf2, monkeypatch, same):
    # the later element loses a member of Ref(a), so its image fails; the
    # product law fails at the earlier element (or at the later one too):
    # an earlier product-law failure wins, a property wins at the same a
    several = [a.index for a in m2gf2.elements()
               if len(reflexive_inverses(a)) > 1]
    early, late = several[0], several[-1]
    lost = late if same else early
    x = int(reflexive_inverses(m2gf2.from_index(lost)).indices()[0])
    monkeypatch.setattr(theoremlab, "_ref_products",
                        _dropping_products(lost, x))
    scan = theoremlab._Scan(m2gf2)
    a, a0s = scan._domain
    dropped = int(scan.refset(late)[-1])
    outer = scan._outer.copy()
    outer[np.flatnonzero((a == late) & (a0s == dropped))] = False
    scan._outer = outer
    if same:
        assert theoremlab._check_refl_map(scan) == (
            "violation", [("a", late), ("x", dropped)],
            "image of x -> x*a*x over I(a) differs from Ref(a)")
    else:
        assert theoremlab._check_refl_map(scan) == (
            "violation", [("a", early), ("x", x)],
            "the product set I(a)*a*I(a) differs from Ref(a)")


def _planted_sets(ring, copies):
    """A scan of ring in which each target of copies has the I(a) and
    Ref(a) of its source."""
    scan = theoremlab._Scan(ring)
    a, x = scan._domain
    outer = scan._outer[:len(x)]
    keep = ~np.isin(a, list(copies))
    parts = [(a[keep], x[keep], outer[keep])]
    for target, source in copies.items():
        mine = a == source
        parts.append((np.full(mine.sum(), target), x[mine], outer[mine]))
    a, x, outer = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort((x, a))
    a, x, outer = a[order], x[order], outer[order]
    counts = np.bincount(a, minlength=ring.size)
    scan._a0s, scan._outer, scan._domain = x, outer, (a, x)
    scan._where = np.stack([np.cumsum(counts) - counts, counts])
    return scan


def test_collision_checks_name_the_first_colliding_pair(z30, note_prefix):
    # I(20) := I(5) and I(25) := I(2), with their Ref-sets: the first pair
    # is the one whose later member comes first, (5, 20), and nielsen
    # names the group whose first member comes first, (2, 25)
    copies = {20: 5, 25: 2}
    for name, want in (
            ("theorem_inner", [("a", 5), ("b", 20)]),
            ("theorem_reflexive", [("a", 5), ("b", 20)]),
            ("nielsen", [("a", 2), ("b", 25), ("d", 7)])):
        got = theoremlab._CHECKS[name](_planted_sets(z30, copies))
        assert got == CHECK_ORACLES[name](_planted_sets(z30, copies))
        assert got[:2] == ("violation", want)
        assert got[2].startswith(note_prefix)
        if name != "nielsen":
            assert "(2 colliding pairs; 30 regular elements" in got[2]


def test_ideal_stores_grow_rarely_on_a_sampled_ring(monkeypatch):
    # Z/5005: b+d in jain_prasad and a-b in subset_criterion leave the
    # interned sample; each check interns them in one call per side, and
    # reads the ideal ids before it indexes the grown store
    calls = {"right": 0, "left": 0}
    real = theoremlab._Ideals.intern

    def counted(store, s):
        calls[store.side] += 1
        return real(store, s)

    monkeypatch.setattr(theoremlab._Ideals, "intern", counted)
    report = run_suite(ZmodRing(5005))
    assert report.summary() == {"pass": 10, "violation": 0, "skipped": 1}
    assert 1 < calls["right"] <= 4 and 1 < calls["left"] <= 4, calls
