"""Suite verdicts on every bundled ring, frozen from independent runs."""

import pytest

import ginvlab
from ginvlab import (CHECK_NAMES, UnknownCheck, WrongRing, ZmodRing,
                     build_table_algebra, check_example_claims, check_hartwig,
                     check_nielsen, inner_inverses, is_regular, parse_element,
                     reflexive_inverses, run_suite, theoremlab)
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
    report = run_suite(ZmodRing(16384), budget=100)
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
    # GF(2)[t]/(t^13): 8192 elements, above TABLE_CAP, units need op tables
    basis = ["1"] + [f"t{k}" for k in range(1, 13)]
    rows = [[i, j, i + j, 1] for i in range(13) for j in range(13) if i + j < 13]
    ring = build_table_algebra(2, basis, [1] + [0] * 12, rows)
    verdict = check_hartwig(ring)
    assert verdict.status == "skipped"
    assert verdict.note == ("unit enumeration is not feasible here: ring has "
                            "8192 elements, op-table cap is 4096")
