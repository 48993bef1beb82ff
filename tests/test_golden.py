"""Full check and matrix reports (notes and witnesses included), byte
for byte.

The files tests/golden/<ring>.json are the output of
`ginvlab check <ring> --format json --no-timing`, and the files under
tests/golden/matrix/ that of `ginvlab matrix ... --format json`; a change
that alters a report on purpose regenerates them and says why.
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_report_matches_golden(name, tmp_path, capsys):
    spec, code = CASES[name]
    if spec is not None:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        spec = str(path)
    argv = ["check", spec or name, "--format", "json", "--no-timing"]
    assert cli.main(argv) == code
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
