"""Command-line behavior, exercised through real subprocess runs."""

import json
import shutil
import subprocess
import sys

import pytest

import ginvlab
from ginvlab import cli, parsing, rings

CMD = [sys.executable, "-m", "ginvlab"]


def run_cli(*argv):
    return subprocess.run(CMD + list(argv), capture_output=True, text=True)


@pytest.fixture(scope="module")
def z6_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "z6.json"
    path.write_text(json.dumps({"kind": "zmod", "n": 6}))
    return str(path)


@pytest.fixture(scope="module")
def m2gf3_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "m2gf3.json"
    path.write_text(json.dumps({"kind": "matrix", "k": 2, "q": 3}))
    return str(path)


@pytest.fixture(scope="module")
def big_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "z16384.json"
    path.write_text(json.dumps({"kind": "zmod", "n": 16384}))
    return str(path)


def test_ring_info_text(z6_spec):
    res = run_cli("ring", "info", z6_spec)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "ring: kind=zmod size=6 semiprime=true"
    assert lines[1] == "characteristic: 6"
    assert lines[2] == "regular: 6 of 6"


def test_ring_info_json_example10():
    res = run_cli("ring", "info", "example10", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["tool"] == "ginvlab"
    assert doc["version"] == ginvlab.__version__
    ring = doc["ring"]
    assert ring["kind"] == "table" and ring["size"] == 1024
    assert ring["semiprime"] is False
    assert ring["semiprime_witness"] == "xa + xb"
    assert ring["characteristic"] == 2
    assert ring["regular_count"] == 645
    assert doc["checks"] == []


def test_inv_pinned_values(z6_spec):
    res = run_cli("inv", z6_spec, "--elem", "3", "--kind", "inner",
                  "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    (entry,) = doc["checks"]
    assert entry["name"] == "inv_inner" and entry["status"] == "pass"
    assert entry["note"] == "3 members"
    members = {w["value"] for w in entry["witnesses"]}
    assert members == {"1", "3", "5"}


def test_inv_reflexive_text(z6_spec):
    res = run_cli("inv", z6_spec, "--elem", "3", "--kind", "reflexive")
    assert res.returncode == 0
    assert "reflexive inverses of 3: 1 members" in res.stdout
    assert "\n  3" in res.stdout


def test_inv_display_cap_and_all(m2gf3_spec):
    # I(0) is the whole 81-element ring, past the 64-member display cap
    res = run_cli("inv", m2gf3_spec, "--elem", "0", "--format", "json")
    assert res.returncode == 0
    (entry,) = json.loads(res.stdout)["checks"]
    assert entry["note"] == "81 members, showing first 64"
    assert len(entry["witnesses"]) == 64
    text = run_cli("inv", m2gf3_spec, "--elem", "0")
    assert "... (17 more; use --all)" in text.stdout
    res = run_cli("inv", m2gf3_spec, "--elem", "0", "--all", "--format", "json")
    (entry,) = json.loads(res.stdout)["checks"]
    assert len(entry["witnesses"]) == 81


def test_inv_listing_renders_only_the_shown_members(m2gf3_spec, monkeypatch,
                                                    capsys):
    rendered = []
    real = parsing.render_elem

    def counting(e):
        rendered.append(e.index)
        return real(e)

    monkeypatch.setattr(parsing, "render_elem", counting)
    argv = ["inv", m2gf3_spec, "--elem", "0", "--format", "json"]
    assert cli.main(argv) == 0
    (entry,) = json.loads(capsys.readouterr().out)["checks"]
    assert entry["note"] == "81 members, showing first 64"
    # the queried element once, then only the 64 listed members
    assert len(rendered) == 1 + 64


def test_inv_ideals(z6_spec):
    res = run_cli("inv", z6_spec, "--elem", "2", "--kind", "ideals",
                  "--format", "json")
    assert res.returncode == 0
    checks = json.loads(res.stdout)["checks"]
    byname = {c["name"]: {w["value"] for w in c["witnesses"]} for c in checks}
    assert byname["inv_right_ideal"] == {"0", "2", "4"}
    assert byname["inv_left_ideal"] == {"0", "2", "4"}


def test_inv_budget_exceeded_is_skipped(big_spec):
    res = run_cli("inv", big_spec, "--elem", "5", "--budget", "100",
                  "--format", "json")
    assert res.returncode == 0
    (entry,) = json.loads(res.stdout)["checks"]
    assert entry["status"] == "skipped"
    assert entry["witnesses"] == []


def test_check_exit_codes(z6_spec):
    assert run_cli("check", z6_spec, "--checks", "nielsen").returncode == 0
    assert run_cli("check", z6_spec, "--checks", "nielsen",
                   "--expect-violation").returncode == 1
    assert run_cli("check", "example10", "--checks",
                   "theorem_inner").returncode == 1
    assert run_cli("check", "example10", "--checks", "theorem_inner",
                   "--expect-violation").returncode == 0


def test_check_json_schema(z6_spec):
    res = run_cli("check", z6_spec, "--checks", "all", "--format", "json",
                  "--no-timing")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert set(doc) == {"tool", "version", "ring", "checks", "summary"}
    assert len(doc["checks"]) == len(ginvlab.CHECK_NAMES)
    for entry in doc["checks"]:
        assert set(entry) == {"name", "status", "witnesses", "note",
                              "elapsed_ms"}
        assert entry["elapsed_ms"] == 0.0
        for w in entry["witnesses"]:
            assert set(w) == {"name", "value"}
    assert doc["summary"] == {"pass": 10, "violation": 0, "skipped": 1}


def test_check_text_summary(z6_spec):
    res = run_cli("check", z6_spec, "--no-timing")
    assert res.returncode == 0
    assert res.stdout.splitlines()[-1] == "summary: pass=10 violation=0 skipped=1"


def test_check_violation_witnesses_rendered():
    res = run_cli("check", "example10", "--checks", "theorem_inner",
                  "--format", "json")
    (entry,) = json.loads(res.stdout)["checks"]
    assert entry["status"] == "violation"
    values = {w["name"]: w["value"] for w in entry["witnesses"]}
    assert values == {"a": "bxa", "b": "axb"}


def test_no_timing_is_reproducible(z6_spec):
    argv = ("check", z6_spec, "--checks", "inner_param,nielsen",
            "--format", "json", "--no-timing")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_matrix_ginverse():
    res = run_cli("matrix", "--k", "2", "--q", "2", "ginverse", "1,0;0,0")
    assert res.returncode == 0
    assert "ginverse: 1,0;0,0" in res.stdout


def test_matrix_honours_budget():
    # M_2(GF(3)) has 81 elements: a budget of 5 leaves semiprimeness
    # unknown, and the oracle's answer does not depend on it
    argv = ("matrix", "--k", "2", "--q", "3", "--format", "json")
    capped = run_cli(*argv, "--budget", "5", "ginverse", "1,0;0,0")
    full = run_cli(*argv, "ginverse", "1,0;0,0")
    assert capped.returncode == full.returncode == 0, capped.stderr
    capped_doc, full_doc = json.loads(capped.stdout), json.loads(full.stdout)
    assert capped_doc["ring"]["semiprime"] is None
    assert full_doc["ring"]["semiprime"] is True
    assert capped_doc["checks"] == full_doc["checks"]
    assert capped_doc["checks"][0]["witnesses"] == [
        {"name": "g", "value": "1,0;0,0"}]


def test_matrix_seteq():
    same = run_cli("matrix", "--k", "2", "--q", "2", "seteq",
                   "1,0;0,0", "1,0;0,0")
    assert "inner inverse sets equal: yes" in same.stdout
    diff = run_cli("matrix", "--k", "2", "--q", "2", "seteq",
                   "1,0;0,0", "0,0;0,1")
    assert "inner inverse sets equal: no" in diff.stdout
    assert same.returncode == diff.returncode == 0


def test_matrix_membership():
    res = run_cli("matrix", "--k", "2", "--q", "2", "membership",
                  "0,0;0,1", "1,0;0,0")
    assert res.returncode == 0
    assert "b in aR: no" in res.stdout
    assert "b in Ra: no" in res.stdout
    res = run_cli("matrix", "--k", "2", "--q", "3", "membership",
                  "2,0;0,0", "1,0;0,0", "--format", "json")
    (entry,) = json.loads(res.stdout)["checks"]
    assert entry["note"] == "b in aR: true; b in Ra: true"


def test_matrix_oracles_run_past_int64_indices():
    # M_8(GF(2)) has 2^64 elements: its indices refuse to exist, but the
    # oracles never use them
    eye = ";".join(",".join(str(int(r == c)) for c in range(8))
                   for r in range(8))
    res = run_cli("matrix", "--k", "8", "--q", "2", "ginverse", eye)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        f"ring: kind=matrix size={2 ** 64} semiprime=unknown",
        f"ginverse: {eye}"]


def _matmul_mod(X, Y, q):
    k = len(X)
    return [[sum(X[i][m] * Y[m][j] for m in range(k)) % q for j in range(k)]
            for i in range(k)]


@pytest.mark.parametrize("q", [4611686018427387847, 2 ** 64 + 13])
def test_matrix_ginverse_exact_past_int64_products(q):
    # (q-1)^2, or q itself, passes 2^63: elimination runs on Python ints,
    # so A*G*A = A
    A = [[3037000500, 1], [0, 3037000500]]
    res = run_cli("matrix", "--k", "2", "--q", str(q), "ginverse",
                  "3037000500,1;0,3037000500")
    assert res.returncode == 0, res.stderr
    text = res.stdout.splitlines()[1].removeprefix("ginverse: ")
    G = [[int(v) for v in row.split(",")] for row in text.split(";")]
    assert _matmul_mod(_matmul_mod(A, G, q), A, q) == A
    assert _matmul_mod(_matmul_mod(G, A, q), G, q) == G


@pytest.mark.parametrize("q", [2097143, 3037000493])
def test_matrix_membership_exact_for_large_q(q):
    # a*G*b sums products of size k*(q-1)^3 unless reduced in between;
    # b = a always lies in aR and Ra
    a = f"{q - 1},{q - 2};{q - 3},{q - 5}"
    res = run_cli("matrix", "--k", "2", "--q", str(q), "membership", a, a)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1:] == ["b in aR: yes", "b in Ra: yes"]


def test_matrix_wrong_arity():
    res = run_cli("matrix", "--k", "2", "--q", "2", "seteq", "1,0;0,0")
    assert res.returncode == 2
    assert "2 matrix argument(s)" in res.stderr


def test_matrix_malformed_input():
    res = run_cli("matrix", "--k", "2", "--q", "2", "ginverse", "1,x;0,0")
    assert res.returncode == 2
    assert res.stderr.startswith("error:")


def test_matrix_rejects_bad_q_before_arithmetic():
    res = run_cli("matrix", "--k", "2", "--q", "0", "ginverse", "1,0;0,1")
    assert res.returncode == 2
    assert res.stderr == "error: field order must be prime, got 0\n"
    assert res.stdout == ""


@pytest.mark.parametrize("spec,message", [
    ({"kind": "zmod", "n": 6.7},
     "ring spec field 'n' must be an integer, got 6.7"),
    ({"kind": "zmod", "n": True},
     "ring spec field 'n' must be an integer, got true"),
    ({"kind": "table", "p": 2, "basis": ["1", "t"], "unity": [1, 0],
      "constants": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1.9]]},
     "sparse entry value must be an integer, got 1.9"),
    ({"kind": "table", "p": 2, "basis": ["1", "t"], "unity": [True, 0],
      "constants": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]]},
     "unity entry must be an integer, got True"),
    ({"kind": "table", "p": 2, "basis": ["1", "t"], "unity": 1,
      "constants": []},
     "ring spec field 'unity' must be a list, got 1"),
    ({"kind": "table", "p": 2, "basis": ["1", "t"], "unity": [1, 0],
      "constants": [[0, 0, 0, 1], 5]},
     "sparse entry must be [i,j,k,c], got 5"),
    ({"kind": "table", "p": 2, "basis": [["x"]], "unity": [1],
      "constants": []},
     "bad basis label ['x']"),
    ({"kind": "table", "p": 2, "basis": [{"a": 1}], "unity": [1],
      "constants": []},
     "bad basis label {'a': 1}"),
], ids=["float-n", "bool-n", "float-constant", "bool-unity", "scalar-unity",
        "scalar-entry", "list-label", "object-label"])
def test_spec_loader_rejects_non_integers(tmp_path, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    res = run_cli("ring", "info", str(path))
    assert res.returncode == 2
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""


def test_spec_fuzzing_exits_0_or_2(tmp_path, capsys):
    # every field, and every entry of a list field, is either a small valid
    # value or arbitrary JSON: the loader builds the ring or exits 2 with a
    # one-line error, never a traceback and never the violations code 1
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    junk = st.recursive(
        st.none() | st.booleans() | st.floats() | st.text(max_size=4),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=3), inner,
                                         max_size=3)),
        max_leaves=6)
    small = st.integers(0, 5)
    label = st.sampled_from(["1", "t", "x", "e1"])
    fields = {
        "zmod": {"n": st.integers(0, 64)},
        "matrix": {"k": st.integers(0, 3), "q": small},
        "table": {"p": small,
                  "basis": st.lists(label | junk, max_size=3),
                  "unity": st.lists(small | junk, max_size=3),
                  "constants": st.lists(st.lists(small | junk, min_size=4,
                                                 max_size=4) | junk,
                                        max_size=6)},
    }
    specs = st.one_of(junk, *(
        st.fixed_dictionaries({"kind": st.just(kind) | junk,
                               **{name: valid | junk
                                  for name, valid in kind_fields.items()}})
        for kind, kind_fields in fields.items()))
    path = tmp_path / "spec.json"

    @settings(max_examples=150, deadline=None)
    @given(specs)
    def check(spec):
        path.write_text(json.dumps(spec))
        capsys.readouterr()
        code = cli.main(["ring", "info", str(path), "--format", "json"])
        err = capsys.readouterr().err
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1

    check()


def test_table_spec_file(tmp_path):
    spec = {"kind": "table", "p": 2, "basis": ["1", "t"], "unity": [1, 0],
            "constants": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]]}
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(spec))
    res = run_cli("ring", "info", str(path), "--format", "json")
    assert res.returncode == 0
    ring = json.loads(res.stdout)["ring"]
    assert ring["size"] == 4
    assert ring["semiprime"] is False
    assert ring["semiprime_witness"] == "t"


def test_zmod_past_int64_exits_2(tmp_path, capsys):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"kind": "zmod", "n": 10 ** 18 + 9}))
    assert cli.main(["ring", "info", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "int64" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("n,argv,limit", [
    (5005, [], "ring has 5005 elements, op-table cap is 4096"),
    (6, ["--budget", "3"], "ring has 6 elements, enumeration budget is 3"),
])
def test_ring_info_names_the_limit_it_hit(tmp_path, capsys, n, argv, limit):
    spec = tmp_path / "z.json"
    spec.write_text(json.dumps({"kind": "zmod", "n": n}))
    assert cli.main(["ring", "info", str(spec), *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == f"regular: unknown ({limit})"
    assert cli.main(["ring", "info", str(spec), *argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ring"]["regular_count"] is None


def test_check_scans_semiprimeness_once(z6_spec, monkeypatch, capsys):
    """The suite and the report header read one kept semiprime verdict."""
    scan = rings._semiprime_scan
    calls = []
    monkeypatch.setattr(rings, "_semiprime_scan",
                        lambda ring: calls.append(ring) or scan(ring))
    assert cli.main(["check", z6_spec, "--format", "json", "--no-timing"]) == 0
    assert json.loads(capsys.readouterr().out)["ring"]["semiprime"] is True
    assert len(calls) == 1


def test_error_exits(z6_spec, tmp_path):
    cases = [
        ("check", z6_spec, "--checks", "bogus"),
        ("check", z6_spec, "--checks", ","),
        ("check", z6_spec, "--budget", "-5"),
        ("ring", "info", z6_spec, "--budget", "0"),
        ("inv", z6_spec, "--elem", "1", "--budget", "-5"),
        ("check", str(tmp_path / "missing.json")),
        ("inv", z6_spec, "--elem", "q"),
        ("ring",),
        (),
    ]
    for argv in cases:
        res = run_cli(*argv)
        assert res.returncode == 2, argv
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "weird"}))
    res = run_cli("ring", "info", str(bad))
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_usage_errors_name_the_flag(z6_spec, tmp_path):
    res = run_cli("check", z6_spec, "--checks", ",")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: --checks names no check\n"
    # rejected before the ring loads: a missing spec file is not reached
    for argv in (("check", str(tmp_path / "missing.json")),
                 ("inv", str(tmp_path / "missing.json"), "--elem", "1"),
                 ("ring", "info", str(tmp_path / "missing.json")),
                 ("matrix", "--k", "2", "--q", "3", "ginverse", "1,0;0,0")):
        res = run_cli(*argv, "--budget", "-5")
        assert (res.returncode, res.stdout) == (2, ""), argv
        assert res.stderr == \
            "error: --budget must be a positive integer, got -5\n", argv


@pytest.mark.skipif(shutil.which("ginvlab") is None,
                    reason="console script not on PATH")
def test_console_script(z6_spec):
    res = subprocess.run(["ginvlab", "check", z6_spec, "--checks", "nielsen"],
                         capture_output=True, text=True)
    assert res.returncode == 0
