"""Suite verdicts on every bundled ring, frozen from independent runs."""

import math
import random

import numpy as np
import pytest

import ginvlab
from ginvlab import (CHECK_NAMES, TABLE_CAP, ElemSet, UnknownCheck, WrongRing,
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


@pytest.mark.parametrize("name", ["z30", "m2gf3", "example"])
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


def test_decomposition_checks_every_reflexive_witness(m2gf2, monkeypatch):
    # break the kernel for one (a, a0) only: the last reflexive witness of
    # the last element that has several, so every earlier witness passes
    a, a0 = [(a, ref.indices()[-1]) for a in m2gf2.elements()
             for ref in [reflexive_inverses(a)] if len(ref) > 1][-1]

    def dropping_one(x, x0s):
        rows = ref_decomposition(x, x0s)
        if x.index == a.index:
            k = int(np.flatnonzero(np.asarray(x0s) == a0)[0])
            rows[k, np.argmax(rows[k])] = False  # drop the row's first member
        return rows

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
    """Wrap the ginv kernel name: change(result, a0s) for a only."""
    real = getattr(ginvlab.ginv, name)

    def corrupted(x, a0s):
        got = real(x, a0s)
        return change(got, np.asarray(a0s)) if x.index == a else got
    return corrupted


def _corrupt_sums(a, change):
    """_corrupt for iann_decomposition_batch."""
    return _corrupt("iann_decomposition_batch", a, change)


def test_inner_param_checks_the_batched_parametrization(m2gf2, monkeypatch):
    a, a0 = _last_with_several(m2gf2, inner_inverses)
    monkeypatch.setattr(theoremlab, "inner_inverses_param_batch", _corrupt(
        "inner_inverses_param_batch", a, lambda got, a0s: got & (a0s != a0)))
    verdict = check_inner_param(m2gf2)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("a", a), ("a0", a0)]
    assert verdict.note == "parametrized I(a) differs from the scan"


def test_decomposition_checks_the_batched_translate(m2gf2, monkeypatch):
    a, a0 = _last_with_several(m2gf2, inner_inverses)
    monkeypatch.setattr(theoremlab, "iann_decomposition_batch", _corrupt_sums(
        a, lambda got, a0s: got._replace(
            translate_ok=got.translate_ok & (a0s != a0))))
    verdict = check_decomposition(m2gf2)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("a", a), ("a0", a0)]
    assert verdict.note == "a0 + Iann(a) differs from I(a)"


def test_decomposition_checks_the_batched_annihilator_sum(m2gf2, monkeypatch):
    a, _ = _last_with_several(m2gf2, inner_inverses)
    x = _outside(m2gf2, inner_annihilator(m2gf2.from_index(a)).indices())
    monkeypatch.setattr(theoremlab, "iann_decomposition_batch", _corrupt_sums(
        a, lambda got, a0s: got._replace(ann_mismatch=x)))
    verdict = check_decomposition(m2gf2)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("a", a), ("x", x)]
    assert verdict.note == "l(a)+r(a) differs from Iann(a)"


def test_decomposition_checks_the_batched_frame_sum(m2gf2, monkeypatch):
    a, a0 = _last_with_several(m2gf2, inner_inverses)
    monkeypatch.setattr(theoremlab, "iann_decomposition_batch", _corrupt_sums(
        a, lambda got, a0s: got._replace(frame_ok=got.frame_ok & (a0s != a0))))
    verdict = check_decomposition(m2gf2)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("a", a), ("a0", a0)]
    assert verdict.note == "Re'+f'R differs from Iann(a)"


def test_invariance_checks_the_batched_singleton_test(m2gf2, monkeypatch):
    # m2gf2 is semiprime, so one flipped (a, b) verdict is a violation; b
    # lies in aR and Ra, so the flip drops a singleton that should be there
    a = m2gf2.size - 1
    b = int(principal_right_ideal(m2gf2.from_index(a)).indices()[-1])
    real = ginvlab.ginv.singleton_conjugate_batch

    def flipped(bs, x, x0):
        got = real(bs, x, x0).copy()
        got[np.asarray(bs) == b] ^= x.index == a
        return got

    monkeypatch.setattr(theoremlab, "singleton_conjugate_batch", flipped)
    verdict = check_invariance(m2gf2)
    assert verdict.status == "violation"
    assert _witnesses(verdict) == [("a", a), ("b", b)]
    assert verdict.note == "ideal membership without singleton"


def test_refl_map_checks_the_batched_product_law(m2gf2, monkeypatch):
    a, x = _last_with_several(m2gf2, reflexive_inverses)
    real = ginvlab.ginv.inner_products

    def dropping(e, xs, ys):
        got = real(e, xs, ys)
        if e.index == a:
            return ElemSet(m2gf2, got.indices()[got.indices() != x])
        return got

    monkeypatch.setattr(theoremlab, "inner_products", dropping)
    exhaustive = check_refl_map(m2gf2)
    # sampled mode runs the same product law over every factor pair
    monkeypatch.setattr(theoremlab, "TABLE_CAP", 0)  # op tables stay
    assert theoremlab._Scan(m2gf2).sampled
    sampled = check_refl_map(m2gf2)
    for verdict in (exhaustive, sampled):
        assert verdict.status == "violation"
        assert _witnesses(verdict) == [("a", a), ("x", x)]
        assert verdict.note == \
            "the product set I(a)*a*I(a) differs from Ref(a)"


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
        assert np.count_nonzero(grown._regular >= 0) == k + 1
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
    assert verdict.note == "singleton without ideal membership"


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


# subset_criterion evaluates its proof identities for every b with
# I(a) in I(b) in one gather per identity; the per-pair loop it replaced
# is the reference, failures included.


def _proof_identities_per_pair(ring, ia, bs, ds):
    """The first (pair, identity, x) that fails, one pair at a time."""
    for j, (b, d) in enumerate(zip(bs, ds)):
        for which, left, right, want in (("b*x*d = 0", b, d, 0),
                                         ("d*x*b = 0", d, b, 0),
                                         ("d*x*d = d", d, d, d)):
            bad = np.asarray(ring.idx_mul(ring.idx_mul(left, ia), right))
            if (bad != want).any():
                return j, which, int(ia[np.argmax(bad != want)])
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
    outcomes = {"fails": 0, "holds": 0}
    for a in regs:
        ia = inner[a]
        subsets = [regs[j] for j in np.flatnonzero(masks[:, ia].all(axis=1))]
        bs = rng.sample(subsets, min(3, len(subsets))) + rng.sample(regs, 4)
        rng.shuffle(bs)
        ds = [int(ring.idx_sub(a, b)) for b in bs]
        helper = theoremlab._proof_identity_failure
        assert helper(ring, ia, bs, ds) == \
            _proof_identities_per_pair(ring, ia, bs, ds), a
        for b, d in zip(bs, ds):
            want = _proof_identities_per_pair(ring, ia, [b], [d])
            assert helper(ring, ia, [b], [d]) == want, (a, b)
            outcomes["holds" if want is None else "fails"] += 1
    assert outcomes["fails"] and outcomes["holds"], outcomes
