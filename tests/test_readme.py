"""README.md's examples run and print what the README says they print.

Code blocks are found by the heading above them and their fence language,
so a test fails as soon as an example drifts from the code.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from ginvlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"

Z6 = {"kind": "zmod", "n": 6}


def _block(heading, lang):
    """The body of the first ```lang block under the heading."""
    under, fence, body = None, None, []
    for line in README.read_text().splitlines():
        if fence is not None:
            if line == "```":
                if fence == (heading, lang):
                    return "\n".join(body)
                fence = None
            elif fence == (heading, lang):
                body.append(line)
        elif line.startswith("```"):
            fence = (under, line[3:])
        elif line.startswith("#"):
            under = line.lstrip("#").strip()
    raise AssertionError(f"no ```{lang} block under {heading!r}")


def _run(argv):
    """(exit code, stdout) of one cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_library_example_prints_what_its_comments_say():
    source = _block("Library use", "python")
    want = [m.group(1) for m in re.finditer(r"^print\(.*\)\s+# (.*)$", source,
                                            re.MULTILINE)]
    printed = []
    exec(source, {"print": lambda *args: printed.append(
        " ".join(map(str, args)))})
    assert len(want) == 3
    assert printed == want


def test_spec_examples_load(tmp_path):
    text, at, kinds = _block("Command line", "json"), 0, []
    while text[at:].strip():
        at += len(text[at:]) - len(text[at:].lstrip())
        spec, at = json.JSONDecoder().raw_decode(text, at)
        path = tmp_path / f"spec{len(kinds)}.json"
        path.write_text(json.dumps(spec))
        assert cli.load_ring(str(path)).kind == spec["kind"]
        kinds.append(spec["kind"])
    assert kinds == ["zmod", "matrix", "table"]


def test_commands_exit_as_documented(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z6.json").write_text(json.dumps(Z6))
    commands = [shlex.split(line, comments=True)
                for line in _block("Commands", "sh").splitlines()
                if line.startswith("ginvlab ")]
    assert len(commands) == 10
    for argv in commands:
        violating = argv[1:] == ["check", "example10", "--checks",
                                 "theorem_inner,nielsen", "--format", "json"]
        assert _run(argv[1:])[0] == (1 if violating else 0), argv


def test_json_report_example_is_the_real_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z6.json").write_text(json.dumps(Z6))
    code, out = _run(["check", "z6.json", "--checks", "nielsen",
                      "--format", "json", "--no-timing"])
    assert code == 0
    assert json.loads(out) == json.loads(_block("JSON reports", "json"))
