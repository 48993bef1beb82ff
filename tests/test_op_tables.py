"""The product table only where it pays: who builds it, and that it
changes no answer.

A ring's |R|^2 product table is built only by build_tables(), which only
theoremlab's _Scan and regular_elements call, and which leaves Z/n raw.
Sums always run raw; a negation is the product by -1, so it reads the
table once built.  Single queries (every `inv` kind, every `matrix` op,
the semiprime header) run on raw arithmetic.  Builds are counted at
Ring._tables, the one place that fills the table.
"""

import json
import random

import numpy as np
import pytest

from ginvlab import (TABLE_CAP, BudgetExceeded, TableCapExceeded,
                     build_matrix_ring, build_zmod, cli, ginv, is_semiprime,
                     regular_elements, rings, run_suite)

from conftest import truncated_polynomials
from test_index_contract import RINGS

# ring specs for the command line; None is the builtin ring
SPECS = {
    "z30": {"kind": "zmod", "n": 30},
    "m2gf3": {"kind": "matrix", "k": 2, "q": 3},
    "example10": None,
    "gf3t3": {"kind": "table", "p": 3, "basis": ["1", "t1", "t2"],
              "unity": [1, 0, 0],
              "constants": [[i, j, i + j, 1] for i in range(3)
                            for j in range(3 - i)]},
}
ELEMS = {"z30": "6", "m2gf3": "e11 + e12", "example10": "a + x",
         "gf3t3": "t1"}
INV_KINDS = ("inner", "outer", "reflexive", "iann", "left-ann", "right-ann",
             "ideals")
KERNELS = (ginv.inner_inverses, ginv.outer_inverses, ginv.reflexive_inverses,
           ginv.inner_annihilator, ginv.left_annihilator,
           ginv.right_annihilator, ginv.principal_right_ideal,
           ginv.principal_left_ideal)


@pytest.fixture
def builds(monkeypatch):
    """The kind of each ring whose op tables get built, one entry a build."""
    built = []
    plain = rings.Ring._tables

    def counted(ring):
        if ring._mul_table is None:
            built.append(ring.kind)
        return plain(ring)

    monkeypatch.setattr(rings.Ring, "_tables", counted)
    return built


@pytest.fixture(scope="module")
def spec_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("specs")
    paths = {}
    for name, spec in SPECS.items():
        if spec is None:
            paths[name] = name
        else:
            paths[name] = str(folder / f"{name}.json")
            (folder / f"{name}.json").write_text(json.dumps(spec))
    return paths


def _run(capsys, *argv):
    assert cli.main(list(argv)) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_inv_builds_no_tables(name, spec_paths, builds, capsys):
    for kind in INV_KINDS:
        _run(capsys, "inv", spec_paths[name], "--elem", ELEMS[name],
             "--kind", kind, "--all", "--format", "json")
    assert builds == []


@pytest.mark.parametrize("op,mats", [
    ("ginverse", ["1,2;0,0"]),
    ("seteq", ["1,2;0,0", "1,2;0,1"]),
    ("membership", ["1,1;0,0", "1,0;0,0"]),
])
def test_matrix_builds_no_tables(op, mats, builds, capsys):
    _run(capsys, "matrix", "--k", "2", "--q", "3", op, *mats)
    assert builds == []


@pytest.mark.parametrize("name", sorted(SPECS))
def test_semiprime_header_builds_no_tables(name, spec_paths, builds):
    ring = cli.load_ring(spec_paths[name])
    is_semiprime(ring)
    assert builds == []
    assert ring._mul_table is None


@pytest.mark.parametrize("name,count", [("z30", 0), ("m2gf3", 0),
                                        ("example10", 1), ("gf3t3", 1)])
def test_ring_info_builds_tables_for_its_regular_scan_only(
        name, count, spec_paths, builds, capsys):
    # matrix rings are regular without a scan; Z/n scans raw
    _run(capsys, "ring", "info", spec_paths[name], "--format", "json")
    assert len(builds) == count


# name -> (ring constructor, op-table builds of one run_suite)
SUITE_BUILDS = {
    "z30": (lambda: build_zmod(30), 0),
    "m2gf2": (lambda: build_matrix_ring(2, 2), 1),
    "gf3t3": (lambda: truncated_polynomials(3, 3), 1),
    "gf2t13": (lambda: truncated_polynomials(2, 13), 0),  # above TABLE_CAP
}


@pytest.mark.parametrize("name", sorted(SUITE_BUILDS))
def test_run_suite_builds_tables_once_up_to_the_cap(name, builds):
    build, count = SUITE_BUILDS[name]
    run_suite(build())
    assert len(builds) == count


@pytest.mark.parametrize("name", sorted(RINGS))
def test_tables_change_no_answer(name):
    raw, tabled = RINGS[name](), RINGS[name]()
    tabled.build_tables()
    assert raw._mul_table is None
    assert (tabled._mul_table is not None) == (raw.size <= TABLE_CAP
                                               and raw.kind != "zmod")
    if raw.size <= TABLE_CAP:
        assert regular_elements(raw) == regular_elements(tabled)
        assert raw.unit_indices().tolist() == tabled.unit_indices().tolist()
    else:
        for ring in (raw, tabled):
            with pytest.raises(TableCapExceeded):
                regular_elements(ring)
    assert is_semiprime(raw) == is_semiprime(tabled)
    picks = random.Random(raw.size).sample(range(raw.size), 4)
    for i in [0, raw.one().index, *picks]:
        for kernel in KERNELS:
            assert kernel(raw.from_index(i)) == kernel(tabled.from_index(i))


@pytest.mark.parametrize("name", ["m2gf3", "example"])
def test_sums_run_raw_and_negations_read_the_product_table(
        name, request, monkeypatch):
    ring = request.getfixturevalue(name)
    ring.build_tables()
    assert ring._mul_table is not None
    calls = []
    for op in ("_raw_add", "_raw_mul"):
        plain = getattr(ring, op)
        monkeypatch.setattr(ring, op, lambda *args, op=op, plain=plain:
                            calls.append(op) or plain(*args))
    idx = ring.all_indices()
    ring.idx_add(idx, idx[::-1])
    ring.idx_neg(idx)
    assert calls == ["_raw_add"]


@pytest.mark.parametrize("tables", [False, True])
@pytest.mark.parametrize("name", ["z30", "m2gf3", "example10", "m2gf5"])
def test_negation_is_the_product_by_minus_one(name, tables):
    ring = {**RINGS, "m2gf5": lambda: build_matrix_ring(2, 5)}[name]()
    if tables:
        ring.build_tables()
    idx = ring.all_indices()
    # -1 found by sums alone: the one m with 1 + m = 0
    (minus_one,) = np.flatnonzero(ring.idx_add(ring.one().index, idx) == 0)
    neg = ring.idx_neg(idx)
    assert np.array_equal(neg, ring.idx_mul(idx, minus_one))
    assert not ring.idx_add(idx, neg).any()


@pytest.mark.parametrize("k,q", [(2, 2), (2, 3), (3, 2), (2, 5)])
def test_matrix_semiprime_verdict_matches_the_scan(k, q, monkeypatch):
    scanned = rings._semiprime_scan(build_matrix_ring(k, q))

    def refuse(ring):
        raise AssertionError("M_k(GF(q)) needs no semiprime scan")

    monkeypatch.setattr(rings, "_semiprime_scan", refuse)
    verdict = is_semiprime(build_matrix_ring(k, q))
    assert (verdict.semiprime, verdict.witness) == (scanned < 0, None)


def test_matrix_semiprime_verdict_honours_the_budget():
    ring = build_matrix_ring(2, 3, enumeration_budget=5)
    for _ in range(2):  # the preset verdict never slips past the budget
        with pytest.raises(BudgetExceeded):
            is_semiprime(ring)
