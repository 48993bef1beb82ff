"""Full check, matrix and query reports (notes and witnesses included),
byte for byte.

The files tests/golden/<ring>.json are the output of
`ginvlab check <ring> --format json --no-timing`, the files under
tests/golden/matrix/ that of `ginvlab matrix ... --format json`, and the
files under tests/golden/query/ that of `ginvlab ring info` and
`ginvlab inv` with --format json; a change that alters a report on
purpose regenerates them and says why.  These tests are the only place
the goldens are compared, so every .json file there must be a case's
(tests/golden/ginverse.json belongs to tests/test_gfmatrix.py).
"""

import json
from pathlib import Path

import pytest

from ginvlab import cli

GOLDEN = Path(__file__).parent / "golden"

# name -> (ring spec, or None for the builtin ring; expected exit code)
CASES = {
    "example10": (None, 1),
    "z30": ({"kind": "zmod", "n": 30}, 0),
    "m2gf3": ({"kind": "matrix", "k": 2, "q": 3}, 0),
    "m2gf5": ({"kind": "matrix", "k": 2, "q": 5}, 0),
    "m3gf3": ({"kind": "matrix", "k": 3, "q": 3}, 0),  # sampled, raw digits
    "z1155": ({"kind": "zmod", "n": 1155}, 0),
    "z5005": ({"kind": "zmod", "n": 5005}, 0),  # above TABLE_CAP: sampled
    # GF(2)[t]/(t^13): a table algebra above TABLE_CAP, not semiprime
    "gf2t13": ({"kind": "table", "p": 2,
                "basis": ["1", "t"] + [f"t{i}" for i in range(2, 13)],
                "unity": [1] + [0] * 12,
                "constants": [[i, j, i + j, 1] for i in range(13)
                              for j in range(13) if i + j < 13]}, 0),
}


def _spec_arg(name, tmp_path) -> str:
    """The ring argument for CASES[name]: a spec file, or the builtin name."""
    spec = CASES[name][0]
    if spec is None:
        return name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_report_matches_golden(name, tmp_path, capsys):
    argv = ["check", _spec_arg(name, tmp_path), "--format", "json",
            "--no-timing"]
    assert cli.main(argv) == CASES[name][1]
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / f"{name}.json").read_text()


# name -> arguments of `ginvlab matrix`, each run with --format json
MATRIX_CASES = {
    "ginverse-m3gf3": ["--k", "3", "--q", "3", "ginverse", "1,2,0;0,1,1;1,0,1"],
    # b in aR but not in Ra
    "membership-m3gf3": ["--k", "3", "--q", "3", "membership",
                         "1,1,0;0,0,0;0,0,0", "1,0,0;0,0,0;0,0,0"],
    "seteq-equal": ["--k", "3", "--q", "3", "seteq",
                    "1,2,0;0,1,1;0,0,0", "1,2,0;0,1,1;0,0,0"],
    "seteq-unequal": ["--k", "3", "--q", "3", "seteq",
                      "1,2,0;0,1,1;0,0,0", "1,2,0;0,1,1;0,0,1"],
    # (q-1)^2, or q itself, passes 2^63: elimination runs on Python ints
    "ginverse-past-int64": ["--k", "2", "--q", "4611686018427387847",
                            "ginverse", "3037000500,1;0,3037000500"],
    "ginverse-past-2p64": ["--k", "2", "--q", str(2 ** 64 + 13),
                           "ginverse", "3037000500,1;0,3037000500"],
}


@pytest.mark.parametrize("name", sorted(MATRIX_CASES))
def test_matrix_report_matches_golden(name, capsys):
    argv = ["matrix", *MATRIX_CASES[name], "--format", "json"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / "matrix" / f"{name}.json").read_text()


# name -> (ring of CASES, command, arguments after the ring spec), each run
# with --format json
QUERY_CASES = {
    **{f"info-{ring}": (ring, ["ring", "info"], [])
       for ring in ("example10", "z1155", "m2gf5", "gf2t13")},
    "inv-example10-inner": ("example10", ["inv"],
                            ["--elem", "a", "--kind", "inner", "--all"]),
    # the paper's 16-member Ref(a)
    "inv-example10-reflexive": ("example10", ["inv"],
                                ["--elem", "a", "--kind", "reflexive",
                                 "--all"]),
    "inv-m2gf5-reflexive": ("m2gf5", ["inv"],
                            ["--elem", "e11 + e12", "--kind", "reflexive"]),
    # parsing the element runs 0-d products and sums on the 9-digit,
    # 27-term digit kernel
    "inv-m3gf3-reflexive": ("m3gf3", ["inv"],
                            ["--elem", "e11 + 2 e12 + e23", "--kind",
                             "reflexive"]),
    "inv-z1155-ideals": ("z1155", ["inv"], ["--elem", "35", "--kind", "ideals"]),
    "inv-gf2t13-iann": ("gf2t13", ["inv"], ["--elem", "t5", "--kind", "iann"]),
    # above TABLE_CAP: the raw chunk-table arithmetic
    "inv-gf2t13-reflexive": ("gf2t13", ["inv"],
                             ["--elem", "1 + t5", "--kind", "reflexive"]),
}


@pytest.mark.parametrize("name", sorted(QUERY_CASES))
def test_query_report_matches_golden(name, tmp_path, capsys):
    ring, command, rest = QUERY_CASES[name]
    argv = [*command, _spec_arg(ring, tmp_path), *rest, "--format", "json"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / "query" / f"{name}.json").read_text()


def test_every_golden_file_is_a_case():
    # a golden without a case would go unchecked; ginverse.json is read by
    # tests/test_gfmatrix.py
    def stems(sub):
        return {path.stem for path in (GOLDEN / sub).glob("*.json")}
    assert stems(".") == set(CASES) | {"ginverse"}
    assert stems("matrix") == set(MATRIX_CASES)
    assert stems("query") == set(QUERY_CASES)
