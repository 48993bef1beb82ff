"""One test per acceptance criterion, at the stated tolerance.

Each test name reads as the criterion it covers, so `pytest -v` on this
file prints one pass/fail line per criterion.  Everything here recomputes
the claimed facts through the public API (or plain loops) rather than
trusting cached suite output.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from ginvlab import (ZmodRing, additive_span, build_example_ring,
                     check_example_claims, check_nielsen, check_theorem_inner,
                     check_theorem_reflexive, idempotent_frames,
                     inner_annihilator, inner_inverses,
                     inner_inverses_param_batch, is_semiprime,
                     left_annihilator, parse_element, principal_left_ideal,
                     principal_right_ideal, reflexive_inverses,
                     regular_elements, right_annihilator)
from ginvlab.gfmatrix import (inner_set_equal_matrices, membership_Ra,
                              membership_aR)

from conftest import meets_in_zero, squarefree


def _semiprime_rings(z6, z30, m2gf2, m2gf3):
    return [z6, z30, m2gf2, m2gf3]


def test_c01_example_ring_reproduction_under_60s():
    started = time.perf_counter()
    ring = build_example_ring()
    verdict = check_example_claims(ring)
    elapsed = time.perf_counter() - started
    assert verdict.status == "pass"
    assert elapsed < 60.0
    # the check flags the statements that only hold in amended form
    assert "amended" in verdict.note

    gens = {w: parse_element(ring, w) for w in
            ("a", "b", "x", "ax", "bx", "xa", "xb", "axb", "bxa")}
    a, b, x = gens["a"], gens["b"], gens["x"]
    assert a != b
    assert inner_inverses(a) == inner_inverses(b)
    refl_a = reflexive_inverses(a)
    assert refl_a == reflexive_inverses(b)
    assert x in refl_a and len(refl_a) == 16
    sub = additive_span(ring, [gens[w] for w in
                               ("a", "b", "x", "ax", "bx", "xa", "xb",
                                "axb", "bxa")])
    span_r = additive_span(ring, [gens[w] for w in
                                  ("a", "b", "ax", "bx", "axb", "bxa")])
    span_l = additive_span(ring, [gens[w] for w in
                                  ("a", "b", "xa", "xb", "axb", "bxa")])
    for g in (a, b):
        for kernel, span in ((right_annihilator, span_r),
                             (left_annihilator, span_l)):
            assert np.array_equal(np.intersect1d(
                kernel(g).indices(), sub.indices()), span.indices())
    semi = is_semiprime(ring)
    assert not semi.semiprime
    # the square-zero ideal is generated by the semiprime witness
    w = semi.witness
    zero = ring.zero()
    assert w != zero
    for gi in ring.additive_generator_indices():
        assert w * ring.from_index(int(gi)) * w == zero


def test_c02_theorem_checks_on_four_semiprime_rings_under_30s():
    started = time.perf_counter()
    from ginvlab import build_matrix_ring
    rings = [ZmodRing(6), ZmodRing(30), build_matrix_ring(2, 2),
             build_matrix_ring(2, 3)]
    for ring in rings:
        assert check_theorem_inner(ring).status == "pass"
        assert check_theorem_reflexive(ring).status == "pass"
    assert time.perf_counter() - started < 30.0


def test_c03_parametrization_matches_scan_for_every_witness(
        z6, z30, m2gf2, m2gf3, example):
    for ring in (z6, z30, m2gf2, m2gf3, example):
        for a in regular_elements(ring):
            # one verdict per witness: a0 + {t - f*t*e : t in R} = I(a)
            inner = inner_inverses(a).indices()
            verdicts = inner_inverses_param_batch(
                idempotent_frames(ring, a.index, inner), len(inner))
            assert verdicts.shape == inner.shape and verdicts.all(), a
            # and, built in full for the first witness, the scan's set
            t, a0 = ring.all_indices(), int(inner[0])
            f, e = ring.idx_mul(a0, a.index), ring.idx_mul(a.index, a0)
            row = ring.idx_add(a0, ring.idx_sub(
                t, ring.idx_mul(ring.idx_mul(f, t), e)))
            assert np.array_equal(np.unique(row), inner), a


def test_c04_comparison_biconditional_with_proof_identities(
        z6, z30, m2gf2, m2gf3):
    for ring in _semiprime_rings(z6, z30, m2gf2, m2gf3):
        regs = list(regular_elements(ring))
        inner = {a.index: inner_inverses(a) for a in regs}
        rid = {i: principal_right_ideal(ring.from_index(i))
               for i in range(ring.size)}
        lid = {i: principal_left_ideal(ring.from_index(i))
               for i in range(ring.size)}
        zero = ring.zero()
        for a in regs:
            for b in regs:
                d = a - b
                subset = np.isin(inner[a.index].indices(),
                                 inner[b.index].indices()).all()
                trivial = (meets_in_zero(rid[b.index], rid[d.index])
                           and meets_in_zero(lid[b.index], lid[d.index]))
                assert subset == trivial
                if subset:
                    for x in inner[a.index]:
                        assert b * x * d == zero
                        assert d * x * b == zero
                        assert d * x * d == d


def test_c05_direct_sum_equivalence_for_pairs_with_regular_sum(
        z6, z30, m2gf2, m2gf3):
    for ring in _semiprime_rings(z6, z30, m2gf2, m2gf3):
        regular = {a.index for a in regular_elements(ring)}
        rid = {i: principal_right_ideal(ring.from_index(i))
               for i in range(ring.size)}
        lid = {i: principal_left_ideal(ring.from_index(i))
               for i in range(ring.size)}
        checked = 0
        for bi in range(ring.size):
            b = ring.from_index(bi)
            for di in range(ring.size):
                d = ring.from_index(di)
                s = b + d
                if s.index not in regular:
                    continue
                checked += 1
                int_r = meets_in_zero(rid[bi], rid[di])
                int_l = meets_in_zero(lid[bi], lid[di])
                c1 = int_r and b in rid[s.index]
                c2 = int_l and b in lid[s.index]
                c3 = int_r and int_l
                assert c1 == c2 == c3, (ring.kind, bi, di)
        assert checked > 0


def test_c06_matrix_oracles_agree_with_enumeration(m2gf2, m2gf3):
    for ring, q in ((m2gf2, 2), (m2gf3, 3)):
        mats = [np.reshape(ring.digits(i), (2, 2)) for i in range(ring.size)]
        keys = [tuple(sorted(inner_inverses(ring.from_index(i)).indices()
                             .tolist()))
                for i in range(ring.size)]
        rid = [principal_right_ideal(ring.from_index(i))
               for i in range(ring.size)]
        lid = [principal_left_ideal(ring.from_index(i))
               for i in range(ring.size)]
        for i in range(ring.size):
            for j in range(ring.size):
                enum_equal = keys[i] == keys[j] and len(keys[i]) > 0
                assert inner_set_equal_matrices(mats[i], mats[j], q) \
                    == enum_equal
                b = ring.from_index(i)
                assert membership_aR(mats[i], mats[j], q) == (b in rid[j])
                assert membership_Ra(mats[i], mats[j], q) == (b in lid[j])


def test_c07_shared_inverse_sets_force_nonregular_sum(
        z6, z30, m2gf2, m2gf3, example):
    for ring in (z6, z30, m2gf2, m2gf3, example):
        assert check_nielsen(ring).status == "pass"
    a = parse_element(example, "a")
    b = parse_element(example, "b")
    assert inner_inverses(a) == inner_inverses(b)
    s = a + b
    # exhaustive scan: no x anywhere in the ring makes s*x*s = s
    for i in range(example.size):
        assert s * example.from_index(i) * s != s


def test_c08_units_connect_elements_with_matching_ideals(
        z6, z30, m2gf2, m2gf3):
    for ring in _semiprime_rings(z6, z30, m2gf2, m2gf3):
        units = [ring.from_index(int(i)) for i in ring.unit_indices()]
        classes = {}
        for a in regular_elements(ring):
            key = (tuple(principal_right_ideal(a).indices().tolist()),
                   tuple(principal_left_ideal(a).indices().tolist()))
            classes.setdefault(key, []).append(a)
        pairs = 0
        for members in classes.values():
            for a in members:
                right = {(a * u).index: u for u in units}
                left = {(v * a).index: v for v in units}
                for b in members:
                    pairs += 1
                    u = right.get(b.index)
                    v = left.get(b.index)
                    assert u is not None and a * u == b
                    assert v is not None and v * a == b
        assert pairs > 0


def test_c09_pinned_cardinalities(z6, z30, m2gf2, m2gf3, example):
    three = z6.from_index(3)
    assert sorted(inner_inverses(three).indices().tolist()) == [1, 3, 5]
    assert sorted(reflexive_inverses(three).indices().tolist()) == [3]
    e11 = parse_element(m2gf2, "e11")
    assert len(inner_inverses(e11)) == 8
    assert len(reflexive_inverses(e11)) == 4
    assert len(inner_inverses(parse_element(example, "a"))) == 512
    # the annihilator is a translate of I(a) wherever a base point exists
    for ring in (z6, z30, m2gf2, m2gf3, example):
        for a in regular_elements(ring):
            assert len(inner_inverses(a)) == len(inner_annihilator(a))


def _validate_report_schema(doc):
    assert isinstance(doc["tool"], str) and isinstance(doc["version"], str)
    ring = doc["ring"]
    assert isinstance(ring["kind"], str)
    assert isinstance(ring["size"], int)
    assert isinstance(ring["semiprime"], bool)
    for entry in doc["checks"]:
        assert isinstance(entry["name"], str)
        assert entry["status"] in ("pass", "violation", "skipped")
        for w in entry["witnesses"]:
            assert isinstance(w["name"], str) and isinstance(w["value"], str)
        assert isinstance(entry["note"], str)
        assert isinstance(entry["elapsed_ms"], (int, float))
    summary = doc["summary"]
    assert all(isinstance(summary[k], int)
               for k in ("pass", "violation", "skipped"))
    statuses = [c["status"] for c in doc["checks"]]
    assert summary == {"pass": statuses.count("pass"),
                       "violation": statuses.count("violation"),
                       "skipped": statuses.count("skipped")}


def test_c10_cli_contract_and_semiprime_squarefree_agreement():
    argv = [sys.executable, "-m", "ginvlab", "check", "example10",
            "--checks", "all", "--expect-violation", "--format", "json",
            "--no-timing"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    _validate_report_schema(json.loads(first.stdout))
    for n in range(2, 101):
        assert is_semiprime(ZmodRing(n)).semiprime == squarefree(n)
