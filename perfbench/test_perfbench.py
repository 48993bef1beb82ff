"""The benchmark's own tests; run with `python3 -m pytest perfbench`.

They use the smoke workload (Z/30 and M_2(GF(3))), which goes through the
same wrappers, spans and correctness checks as the real workloads.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_ginvlab()

import harness  # noqa: E402
import verify  # noqa: E402
from ginvlab import theoremlab  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_smoke_reports_every_end_to_end_metric():
    proc = _run("--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    names = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run_reports_per_layer_metrics_and_spans():
    proc = _run("--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    for m in CONTRACT["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
    assert metrics["ginv.ref_decomposition_calls"]["value"] > 0
    assert metrics["rings.table_builds"]["value"] > 0
    assert metrics["failed_frac"]["value"] == 0
    assert (HERE / "out" / "trace-smoke-seed3.npz").is_file()


def test_tampered_pinned_status_counts_in_failed_frac():
    bench = harness.Bench(WORKLOADS["smoke"], seed=1)
    bench.expected["suite"]["z30"]["nielsen"] = "violation"
    i = bench.ops.index(("suite", "z30"))
    bench.check(i, bench.execute(i))
    assert (bench.attempted, bench.failed) == (len(theoremlab.CHECK_NAMES), 1)


def test_violation_whose_witnesses_fail_counts_as_failed():
    from ginvlab import build_zmod

    ring = build_zmod(30)
    expected = verify.load_expected()
    expected["suite"]["z30"]["theorem_inner"] = "violation"
    report = theoremlab.run_suite(ring)
    for v in report.verdicts:
        if v.name == "theorem_inner":  # 1 and 7 are regular with different I-sets
            v.status = "violation"
            v.witnesses = [("a", ring.from_index(1)), ("b", ring.from_index(7))]
    assert verify.check_suite("z30", report, expected) == [
        "z30/theorem_inner: witnesses do not hold"]


def test_wrong_query_listing_is_caught():
    bench = harness.Bench(WORKLOADS["smoke"], seed=1)
    i, query = next((i, q) for i, (kind, q) in enumerate(bench.ops)
                    if kind == "query" and q.elem is not None)
    rc, out = bench.execute(i)
    doc = json.loads(out)
    assert verify.check_query(query, rc, out, bench.rings, bench.expected) == []
    doc["checks"][0]["witnesses"].append({"name": "member", "value": "0"})
    assert verify.check_query(query, rc, json.dumps(doc), bench.rings,
                              bench.expected)


def test_exits_nonzero_without_a_result_when_src_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
