"""Correctness of every output the benchmark times, checked outside the timing.

Suite reports are held against the statuses pinned in expected.json, and
the witnesses of each violation are recomputed with the public ginv
functions.  Notes and timings are never compared.  Query outputs are
checked against the defining equation of each listed member and against
direct scans or enumerations done here.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
from ginvlab import (inner_inverses, is_regular, parse_element,
                     reflexive_inverses)
from ginvlab.cli import DISPLAY_CAP

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


# ---------------------------------------------------------------------------
# suite reports


def _distinct_regular(w) -> bool:
    return w["a"] != w["b"] and is_regular(w["a"]) is not None \
        and is_regular(w["b"]) is not None


def _shared_inner(w) -> bool:
    return _distinct_regular(w) and inner_inverses(w["a"]) == inner_inverses(w["b"])


def _shared_reflexive(w) -> bool:
    return (_distinct_regular(w)
            and reflexive_inverses(w["a"]) == reflexive_inverses(w["b"]))


def _nielsen(w) -> bool:
    return (_shared_inner(w) and w["d"] == w["a"] - w["b"]
            and is_regular(w["d"]) is not None)


# What a violation of each check claims, recomputed from its witnesses.
WITNESS_CHECKS = {
    "theorem_inner": _shared_inner,
    "theorem_reflexive": _shared_reflexive,
    "nielsen": _nielsen,
}


def check_verdict(ring_name: str, verdict, expected: dict) -> list:
    """Problems with one check's verdict: its status, and its witnesses."""
    want = expected["suite"][ring_name].get(verdict.name)
    if verdict.status != want:
        return [f"{ring_name}/{verdict.name}: {verdict.status}, pinned {want}"]
    if verdict.status == "violation":
        verifier = WITNESS_CHECKS.get(verdict.name)
        if verifier is None or not verifier(dict(verdict.witnesses)):
            return [f"{ring_name}/{verdict.name}: witnesses do not hold"]
    return []


def check_suite(ring_name: str, report, expected: dict) -> list:
    """Problems with one run_suite report, one string per failed check."""
    got = {v.name for v in report.verdicts}
    problems = [f"{ring_name}/{name}: missing"
                for name in expected["suite"][ring_name] if name not in got]
    for verdict in report.verdicts:
        problems += check_verdict(ring_name, verdict, expected)
    return problems


# ---------------------------------------------------------------------------
# queries


def _members_hold(kind: str, a, xs) -> bool:
    zero = a.ring.zero()
    test = {
        "inner": lambda x: a * x * a == a,
        "outer": lambda x: x * a * x == x,
        "reflexive": lambda x: a * x * a == a and x * a * x == x,
        "iann": lambda x: a * x * a == zero,
        "left-ann": lambda x: x * a == zero,
        "right-ann": lambda x: a * x == zero,
    }[kind]
    return all(test(x) for x in xs)


def _scan(kind: str, a) -> np.ndarray:
    """Indices of every solution, by direct scan over the ring."""
    ring = a.ring
    idx = ring.all_indices()
    ax = np.asarray(ring.idx_mul(a.index, idx))
    xa = np.asarray(ring.idx_mul(idx, a.index))
    if kind == "right-ideal":
        return np.unique(ax)
    if kind == "left-ideal":
        return np.unique(xa)
    axa = np.asarray(ring.idx_mul(ax, a.index))
    xax = np.asarray(ring.idx_mul(xa, idx))
    mask = {
        "inner": axa == a.index,
        "outer": xax == idx,
        "reflexive": (axa == a.index) & (xax == idx),
        "iann": axa == 0,
        "left-ann": xa == 0,
        "right-ann": ax == 0,
    }[kind]
    return idx[mask]


def _check_listing(entry: dict, kind: str, a, cap: int) -> list:
    note = re.match(r"(\d+) members", entry["note"])
    if entry["status"] != "pass" or note is None:
        return [f"{entry['name']}: status {entry['status']}, note {entry['note']!r}"]
    total = int(note.group(1))
    xs = [parse_element(a.ring, w["value"]) for w in entry["witnesses"]]
    scan = _scan(kind, a)
    problems = []
    if len(xs) != min(total, cap) or total != len(scan):
        problems.append(f"{entry['name']}: {total} members, {len(xs)} listed, "
                        f"scan finds {len(scan)}")
    if len({x.index for x in xs}) != len(xs):
        problems.append(f"{entry['name']}: repeated members")
    if kind.endswith("ideal"):
        if not np.isin([x.index for x in xs], scan).all():
            problems.append(f"{entry['name']}: a member is outside the ideal")
    elif not _members_hold(kind, a, xs):
        problems.append(f"{entry['name']}: a member fails its equation")
    return problems


def _check_inv(query, doc: dict, ring) -> list:
    a = parse_element(ring, query.elem)
    if query.kind == "ideals":
        kinds = {"inv_right_ideal": "right-ideal", "inv_left_ideal": "left-ideal"}
    else:
        kinds = {f"inv_{query.kind.replace('-', '_')}": query.kind}
    if [c["name"] for c in doc["checks"]] != list(kinds):
        return [f"unexpected entries {[c['name'] for c in doc['checks']]}"]
    cap = ring.size if query.all else DISPLAY_CAP
    problems = []
    for entry in doc["checks"]:
        problems += _check_listing(entry, kinds[entry["name"]], a, cap)
    return problems


@lru_cache(maxsize=None)
def _all_matrices(k: int, q: int) -> np.ndarray:
    digits = np.arange(q ** (k * k))[:, None] // q ** np.arange(k * k - 1, -1, -1)
    return (digits % q).reshape(-1, k, k)


def _parse_matrix(text: str) -> np.ndarray:
    return np.asarray([[int(v) for v in row.split(",")] for row in text.split(";")])


def _check_matrix(query, doc: dict) -> list:
    k, q = query.k, query.q
    mats = [_parse_matrix(t) % q for t in query.mats]
    entry = doc["checks"][0]
    X = _all_matrices(k, q)
    if query.kind == "ginverse":
        A = mats[0]
        G = _parse_matrix(dict((w["name"], w["value"])
                               for w in entry["witnesses"])["g"])
        ok = (np.array_equal(A @ G @ A % q, A) and np.array_equal(G @ A @ G % q, G))
        return [] if ok else ["G is not a reflexive inner inverse of A"]
    if query.kind == "seteq":
        A, B = mats
        same = np.array_equal((A @ X @ A % q == A).all(axis=(1, 2)),
                              (B @ X @ B % q == B).all(axis=(1, 2)))
        want = "equal" if same else "not equal"
        return [] if entry["note"] == want else [f"seteq says {entry['note']!r}"]
    B, A = mats
    in_ar = bool((A @ X % q == B).all(axis=(1, 2)).any())
    in_ra = bool((X @ A % q == B).all(axis=(1, 2)).any())
    want = f"b in aR: {str(in_ar).lower()}; b in Ra: {str(in_ra).lower()}"
    return [] if entry["note"] == want else [f"membership says {entry['note']!r}"]


def check_query(query, rc: int, out: str, rings: dict, expected: dict) -> list:
    """Problems with one query's exit code and JSON output."""
    if rc != 0:
        return [f"exit code {rc}"]
    doc = json.loads(out)
    pinned = expected["ring_info"][query.ring]
    if query.kind != "info":  # other commands print the header fields only
        pinned = {key: value for key, value in pinned.items()
                  if key not in ("characteristic", "regular_count")}
    if doc["ring"] != pinned:
        return [f"ring fields {doc['ring']}, pinned {pinned}"]
    if query.kind == "info":
        return []
    if query.k:
        return _check_matrix(query, doc)
    return _check_inv(query, doc, rings[query.ring])
