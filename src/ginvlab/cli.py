"""Command-line front end: ring reports, inverse sets, theorem checks.

Ring specs are JSON files ({"kind":"zmod","n":6} and friends) or the
builtin name "example10".  Output is deterministic text or JSON; pass
--no-timing when byte-identical reports across runs are needed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import __version__, fixture, ginv, gfmatrix, parsing, rings, theoremlab
from .errors import BudgetExceeded, GinvError
from .rings import DEFAULT_BUDGET, Elem, Ring

DISPLAY_CAP = 64

_INV_KINDS = ("inner", "outer", "reflexive", "iann", "left-ann", "right-ann",
              "ideals")


# ---------------------------------------------------------------------------
# ring loading


def _field(data: dict, name: str):
    if name not in data:
        raise ValueError(f"ring spec is missing the {name!r} field")
    return data[name]


def _int_field(data: dict, name: str) -> int:
    """An integer field; 6.7, 6.0 and true are refused, not truncated."""
    value = _field(data, name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"ring spec field {name!r} must be an integer, got {json.dumps(value)}")
    return value


def _list_field(data: dict, name: str) -> list:
    value = _field(data, name)
    if not isinstance(value, list):
        raise ValueError(
            f"ring spec field {name!r} must be a list, got {json.dumps(value)}")
    return value


def load_ring(spec: str, budget: Optional[int] = None) -> Ring:
    """Builtin name or path to a JSON ring spec file."""
    bud = DEFAULT_BUDGET if budget is None else budget
    if spec == "example10":
        return fixture.build_example_ring(bud)
    path = Path(spec)
    if not path.is_file():
        raise ValueError(
            f"ring spec {spec!r} is neither a builtin name nor a file")
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ValueError("ring spec must be a JSON object")
    kind = _field(data, "kind")
    if kind == "zmod":
        return rings.build_zmod(_int_field(data, "n"), bud)
    if kind == "matrix":
        return rings.build_matrix_ring(_int_field(data, "k"),
                                       _int_field(data, "q"), bud)
    if kind == "table":
        return rings.build_table_algebra(
            _int_field(data, "p"), _list_field(data, "basis"),
            _list_field(data, "unity"), _list_field(data, "constants"), bud)
    raise ValueError(f"unknown ring spec kind {kind!r}")


def _ring_header(ring: Ring):
    try:
        verdict = rings.is_semiprime(ring)
        semi = bool(verdict.semiprime)
        witness = (None if verdict.witness is None
                   else parsing.render_elem(verdict.witness))
    except BudgetExceeded:
        semi, witness = None, None
    obj = {"kind": ring.kind, "size": ring.size, "semiprime": semi}
    if witness is not None:
        obj["semiprime_witness"] = witness
    shown = "unknown" if semi is None else ("true" if semi else "false")
    line = f"ring: kind={obj['kind']} size={ring.size} semiprime={shown}"
    if witness is not None:
        line += f" (witness: {witness})"
    return obj, line


def _document(ring_obj: dict, checks: list) -> dict:
    summary = {theoremlab.PASS: 0, theoremlab.VIOLATION: 0,
               theoremlab.SKIPPED: 0}
    for c in checks:
        summary[c["status"]] += 1
    return {"tool": "ginvlab", "version": __version__, "ring": ring_obj,
            "checks": checks, "summary": summary}


def _emit(args, document: dict, lines: list) -> None:
    if args.format == "json":
        print(json.dumps(document, indent=2))
    else:
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# commands


def cmd_ring_info(args) -> int:
    ring = load_ring(args.spec, args.budget)
    ring_obj, header = _ring_header(ring)
    ring_obj["characteristic"] = ring.char
    try:
        ring_obj["regular_count"] = len(rings.regular_elements(ring))
    except BudgetExceeded:
        ring_obj["regular_count"] = None
    lines = [header,
             f"characteristic: {ring.char}",
             "regular: " + ("unknown (enumeration budget exceeded)"
                            if ring_obj["regular_count"] is None
                            else f"{ring_obj['regular_count']} of {ring.size}")]
    _emit(args, _document(ring_obj, []), lines)
    return 0


def _set_entry(name: str, label: str, fn, a: Elem, cap: int):
    """One inverse-set result as a check-shaped report entry."""
    try:
        s = fn(a)
    except BudgetExceeded as exc:
        entry = {"name": name, "status": theoremlab.SKIPPED, "witnesses": [],
                 "note": str(exc), "elapsed_ms": 0.0}
        return entry, [f"{label}: skipped ({exc})"]
    total = len(s)
    shown = [parsing.render_elem(Elem(s.ring, i))
             for i in s.indices()[:cap].tolist()]
    note = f"{total} members"
    if len(shown) < total:
        note += f", showing first {cap}"
    entry = {"name": name, "status": theoremlab.PASS,
             "witnesses": [{"name": "member", "value": m} for m in shown],
             "note": note, "elapsed_ms": 0.0}
    lines = [f"{label}: {note}"] + [f"  {m}" for m in shown]
    if len(shown) < total:
        lines.append(f"  ... ({total - len(shown)} more; use --all)")
    return entry, lines


def cmd_inv(args) -> int:
    ring = load_ring(args.spec, args.budget)
    a = parsing.parse_element(ring, args.elem)
    ring_obj, header = _ring_header(ring)
    cap = ring.size if args.all else DISPLAY_CAP
    shown = parsing.render_elem(a)
    if args.kind == "ideals":
        jobs = [("inv_right_ideal", f"right ideal {shown}*R",
                 ginv.principal_right_ideal),
                ("inv_left_ideal", f"left ideal R*{shown}",
                 ginv.principal_left_ideal)]
    else:
        label = {"inner": "inner inverses", "outer": "outer inverses",
                 "reflexive": "reflexive inverses",
                 "iann": "inner annihilator", "left-ann": "left annihilator",
                 "right-ann": "right annihilator"}[args.kind]
        fn = {"inner": ginv.inner_inverses, "outer": ginv.outer_inverses,
              "reflexive": ginv.reflexive_inverses,
              "iann": ginv.inner_annihilator,
              "left-ann": ginv.left_annihilator,
              "right-ann": ginv.right_annihilator}[args.kind]
        jobs = [(f"inv_{args.kind.replace('-', '_')}",
                 f"{label} of {shown}", fn)]
    checks, lines = [], [header]
    for name, label, fn in jobs:
        entry, body = _set_entry(name, label, fn, a, cap)
        checks.append(entry)
        lines.extend(body)
    _emit(args, _document(ring_obj, checks), lines)
    return 0


def cmd_check(args) -> int:
    selection = None
    if args.checks != "all":
        selection = [s.strip() for s in args.checks.split(",") if s.strip()]
        if not selection:
            raise ValueError("--checks names no check")
    ring = load_ring(args.spec, args.budget)
    report = theoremlab.run_suite(ring, selection)
    ring_obj, header = _ring_header(ring)
    checks = []
    lines = [header]
    for v in report.verdicts:
        witnesses = [{"name": k, "value": parsing.render_elem(e)}
                     for k, e in v.witnesses]
        checks.append({"name": v.name, "status": v.status,
                       "witnesses": witnesses, "note": v.note,
                       "elapsed_ms": 0.0 if args.no_timing else v.elapsed_ms})
        wtxt = ""
        if witnesses:
            wtxt = "[" + ", ".join(f"{w['name']} = {w['value']}"
                                   for w in witnesses) + "] "
        ttxt = "" if args.no_timing else f" ({v.elapsed_ms:.0f} ms)"
        lines.append(f"{v.name:20s} {v.status:10s} {wtxt}{v.note}{ttxt}")
    document = _document(ring_obj, checks)
    s = document["summary"]
    lines.append(f"summary: pass={s['pass']} violation={s['violation']} "
                 f"skipped={s['skipped']}")
    _emit(args, document, lines)
    rc = 1 if report.has_violation() else 0
    if args.expect_violation:
        rc = 1 - rc
    return rc


def cmd_matrix(args) -> int:
    k, q = args.k, args.q
    need = {"ginverse": 1, "seteq": 2, "membership": 2}[args.op]
    if len(args.matrices) != need:
        print(f"error: {args.op} takes {need} matrix argument(s), "
              f"got {len(args.matrices)}", file=sys.stderr)
        return 2
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    # validates k and q before arithmetic
    ring = rings.build_matrix_ring(k, q, budget)
    mats = [gfmatrix.parse_matrix(t, k, q) for t in args.matrices]
    ring_obj, header = _ring_header(ring)
    lines = [header]
    if args.op == "ginverse":
        g = gfmatrix.inner_inverse_matrix(mats[0], q)
        rendered = gfmatrix.render_matrix(g)
        entry = {"name": "matrix_ginverse", "status": theoremlab.PASS,
                 "witnesses": [{"name": "g", "value": rendered}],
                 "note": "reflexive inner inverse (A*G*A = A, G*A*G = G)",
                 "elapsed_ms": 0.0}
        lines.append(f"ginverse: {rendered}")
    elif args.op == "seteq":
        equal = gfmatrix.inner_set_equal_matrices(mats[0], mats[1], q)
        entry = {"name": "matrix_seteq", "status": theoremlab.PASS,
                 "witnesses": [{"name": "A", "value": args.matrices[0]},
                               {"name": "B", "value": args.matrices[1]}],
                 "note": "equal" if equal else "not equal",
                 "elapsed_ms": 0.0}
        lines.append("inner inverse sets equal: " + ("yes" if equal else "no"))
    else:
        b, a = mats
        in_ar = gfmatrix.membership_aR(b, a, q)
        in_ra = gfmatrix.membership_Ra(b, a, q)
        entry = {"name": "matrix_membership", "status": theoremlab.PASS,
                 "witnesses": [{"name": "b", "value": args.matrices[0]},
                               {"name": "a", "value": args.matrices[1]}],
                 "note": f"b in aR: {str(in_ar).lower()}; "
                         f"b in Ra: {str(in_ra).lower()}",
                 "elapsed_ms": 0.0}
        lines.append("b in aR: " + ("yes" if in_ar else "no"))
        lines.append("b in Ra: " + ("yes" if in_ra else "no"))
    _emit(args, _document(ring_obj, [entry]), lines)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _common() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    common.add_argument("--budget", type=int, default=None,
                        help="enumeration budget override")
    common.add_argument("--no-timing", action="store_true",
                        help="zero out timing fields for reproducible output")
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginvlab",
        description="inverse sets and theorem checks in small finite rings")
    sub = parser.add_subparsers(dest="command")
    common = _common()

    p_ring = sub.add_parser("ring", help="ring-level reports")
    ring_sub = p_ring.add_subparsers(dest="ring_command")
    p_info = ring_sub.add_parser("info", parents=[common],
                                 help="size, characteristic, semiprimeness")
    p_info.add_argument("spec", help='ring spec file or "example10"')
    p_info.set_defaults(func=cmd_ring_info)

    p_inv = sub.add_parser("inv", parents=[common],
                           help="inverse and annihilator sets of one element")
    p_inv.add_argument("spec", help='ring spec file or "example10"')
    p_inv.add_argument("--elem", required=True,
                       help='element expression, e.g. "3" or "a + bx"')
    p_inv.add_argument("--kind", choices=_INV_KINDS, default="inner")
    p_inv.add_argument("--all", action="store_true",
                       help=f"list every member (default caps at {DISPLAY_CAP})")
    p_inv.set_defaults(func=cmd_inv)

    p_check = sub.add_parser("check", parents=[common],
                             help="run theorem checks against a ring")
    p_check.add_argument("spec", help='ring spec file or "example10"')
    p_check.add_argument("--checks", default="all",
                         help='comma-separated check names, or "all"')
    p_check.add_argument("--expect-violation", action="store_true",
                         help="invert the pass/violation exit code")
    p_check.set_defaults(func=cmd_check)

    p_mat = sub.add_parser("matrix", parents=[common],
                           help="matrix-ring oracles over GF(q)")
    p_mat.add_argument("--k", type=int, required=True, help="matrix dimension")
    p_mat.add_argument("--q", type=int, required=True, help="prime field order")
    p_mat.add_argument("op", choices=("ginverse", "seteq", "membership"))
    p_mat.add_argument("matrices", nargs="+",
                       help='row-major matrices like "1,0;0,0" '
                            "(membership order: B A, deciding B in A*R, R*A)")
    p_mat.set_defaults(func=cmd_matrix)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        if getattr(args, "budget", None) is not None and args.budget < 1:
            raise ValueError("--budget must be a positive integer, "
                             f"got {args.budget}")
        return args.func(args)
    except (GinvError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
