"""Full check reports (notes and witnesses included), byte for byte.

The files under tests/golden/ are the output of
`ginvlab check <ring> --format json --no-timing`; a change that alters a
report on purpose regenerates them and says why.
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
    "z1155": ({"kind": "zmod", "n": 1155}, 0),
    "z5005": ({"kind": "zmod", "n": 5005}, 0),  # above TABLE_CAP: sampled
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
