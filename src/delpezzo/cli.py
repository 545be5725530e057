"""Command-line front end.

Subcommands: ``classify`` (the p=2 / p=3 tables), ``bound`` (volume bounds),
``examples`` (the gallery tables, with ``--verify``), ``oracle`` (closed form
vs brute force), and ``lattice`` (one arithmetic request as JSON on stdin).
Output is deterministic text, markdown, or JSON.  Exit codes: 0 success or
verified, 1 verification mismatch, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import classify as cls
from . import gallery as gal
from . import lattice as lat

FORMATS = ("text", "markdown", "json")


def _text_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _emit_table(fmt: str, headers: list[str], rows: list[list[str]]) -> None:
    if fmt == "markdown":
        print(_markdown_table(headers, rows))
    else:
        print(_text_table(headers, rows))


def _row_to_json(row: cls.ClassificationRow) -> dict:
    return {
        "model": lat.model_to_json(row.model),
        "e": lat.class_to_json(row.e),
        "e_display": lat.display_class(row.e),
        "gk_square": lat.rational_to_str(row.gk_square),
        "kx_square": {
            "coeff": row.kx_coeff,
            "offset": row.kx_offset,
            "display": row.kx_display,
        },
    }


def _case_to_json(case: cls.RestrictionCase) -> dict:
    return {
        "model": lat.model_to_json(case.model),
        "d": lat.class_to_json(case.d),
        "d_display": lat.display_class(case.d),
        "gk_square": lat.rational_to_str(case.gk_square),
    }


def _case_display(case: cls.RestrictionCase) -> str:
    return f"{lat.display_model(case.model)}: {lat.display_class(case.d)}  (g*K)^2 = {case.gk_square}"


def _cmd_classify(args) -> int:
    if args.p not in (2, 3):
        print(f"error: classify requires --p 2 or --p 3, got {args.p}", file=sys.stderr)
        return 2
    try:
        rows = cls.classify_rows(args.p, m_max=args.m_max, fold_quadric=not args.no_fold)
        audits = cls.audit_m_filters(args.p, m_max=args.m_max) if args.audit else []
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = [_row_to_json(r) for r in rows]
        if args.audit:
            payload = {
                "rows": payload,
                "audit": [
                    {
                        "name": a.name,
                        "stated": list(a.stated),
                        "computed": list(a.computed),
                        "note": a.note,
                    }
                    for a in audits
                ],
            }
        print(json.dumps(payload, indent=2))
        return 0
    headers = ["Z", "E", "(g^*K_X)^2", "K_X^2"]
    table = [
        [lat.display_model(r.model), lat.display_class(r.e), str(r.gk_square), r.kx_display]
        for r in rows
    ]
    _emit_table(args.format, headers, table)
    for a in audits:
        print()
        print(f"audit: {a.name}")
        print(f"  stated filter:   m in {{{', '.join(map(str, a.stated))}}}")
        print(f"  raw computation: m in {{{', '.join(map(str, a.computed))}}}")
        print(f"  ({a.note})")
    return 0


def _cmd_bound(args) -> int:
    p = args.p
    try:
        context = cls.BoundContext(p, epsilon=args.epsilon, r=args.r)
        value = context.bound()
        formula = context.formula
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.epsilon is not None:
        branch = f"p={p}, ε={args.epsilon}"
    else:
        branch = f"p={p}, r={args.r}"
    if args.format == "json":
        payload = {"p": p, "bound": value, "formula": formula}
        if args.epsilon is not None:
            payload["epsilon"] = args.epsilon
        else:
            payload["r"] = args.r
        print(json.dumps(payload, indent=2))
        return 0
    if args.format == "markdown":
        _emit_table("markdown", ["branch", "formula", "K_X^2 <="], [[branch, formula, str(value)]])
        return 0
    print(value)
    print(f"formula: {formula}  [{branch}]")
    return 0


def _gallery_tables(records) -> dict[int, list[list[str]]]:
    tables: dict[int, list[list[str]]] = {3: [], 2: []}
    for rec in records:
        tables[rec.p].append(
            [rec.id, str(rec.kx_square), str(rec.epsilon), lat.display_model(rec.z_model)]
        )
    return tables


def _cmd_examples(args) -> int:
    records = gal.build_gallery()
    report = gal.verify_gallery(records) if args.verify else None
    if args.format == "json":
        payload = {
            "records": [
                {
                    "id": rec.id,
                    "p": rec.p,
                    "kx_square": lat.rational_to_str(rec.kx_square),
                    "epsilon": rec.epsilon,
                    "z_model": lat.model_to_json(rec.z_model),
                }
                for rec in records
            ]
        }
        if report is not None:
            payload["verified"] = report.ok
            payload["checks"] = [
                {
                    "record": c.record_id,
                    "field": c.field,
                    "expected": c.expected,
                    "actual": c.actual,
                    "ok": c.ok,
                }
                for c in report.checks
            ]
        print(json.dumps(payload, indent=2))
        return 0 if report is None or report.ok else 1
    headers = ["X", "K_X^2", "ε", "Z"]
    tables = _gallery_tables(records)
    for p in (3, 2):
        print(f"p = {p}:")
        _emit_table(args.format, headers, tables[p])
        print()
    if report is not None:
        for c in report.checks:
            print(c.line())
        print(f"verified: {'yes' if report.ok else 'NO'}")
        return 0 if report.ok else 1
    return 0


def _cmd_oracle(args) -> int:
    try:
        closed = cls.restriction_cases(args.family, m_max=args.m_max)
        brute = cls.restriction_cases_oracle(args.family, m_max=args.m_max, box=args.box)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    only_closed = [c for c in closed if c not in set(brute)]
    only_brute = [c for c in brute if c not in set(closed)]
    agree = not only_closed and not only_brute
    if args.format == "json":
        print(
            json.dumps(
                {
                    "family": args.family,
                    "m_max": args.m_max,
                    "box": args.box,
                    "closed_form": [_case_to_json(c) for c in closed],
                    "brute_force": [_case_to_json(c) for c in brute],
                    "only_closed_form": [_case_to_json(c) for c in only_closed],
                    "only_brute_force": [_case_to_json(c) for c in only_brute],
                    "agree": agree,
                },
                indent=2,
            )
        )
        return 0 if agree else 1
    print(f"closed form ({len(closed)} cases):")
    for c in closed:
        print(f"  {_case_display(c)}")
    print(f"brute force over [0,{args.box}] ({len(brute)} cases):")
    for c in brute:
        print(f"  {_case_display(c)}")
    if agree:
        print("diff: none")
    else:
        for c in only_closed:
            print(f"diff: only in closed form: {_case_display(c)}")
        for c in only_brute:
            print(f"diff: only in brute force: {_case_display(c)}")
    return 0 if agree else 1


def _lattice_result(value) -> dict:
    if isinstance(value, bool):
        return {"result": value}
    if isinstance(value, Fraction):
        return {"result": lat.rational_to_str(value)}
    if isinstance(value, lat.DivisorClass):
        return {"result": lat.class_to_json(value)}
    if isinstance(value, lat.SurfaceModel):
        return {"result": lat.model_to_json(value)}
    return {"result": value}


def _cmd_lattice(args) -> int:
    raw = sys.stdin.read()
    try:
        request = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON on stdin: {exc}", file=sys.stderr)
        return 2
    try:
        value = _dispatch_lattice(request)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(_lattice_result(value), indent=2))
    return 0


def _dispatch_lattice(request: dict):
    if not isinstance(request, dict) or "op" not in request:
        raise ValueError("request must be a JSON object with an 'op' field")
    op = request["op"]
    if op == "intersect":
        a = lat.class_from_json(request["a"])
        b = lat.class_from_json(request["b"])
        return lat.intersect(a, b)
    if op == "canonical_square":
        return lat.canonical_square(lat.model_from_json(request["model"]))
    if op == "canonical_class":
        return lat.model_from_json(request["model"]).canonical
    if op in ("is_effective", "is_nef", "is_ample", "is_cartier", "riemann_roch_chi"):
        d = lat.class_from_json(request["class"])
        fn = getattr(lat, op)
        return fn(d)
    if op == "resolution_pullback":
        d = lat.class_from_json(request["class"])
        m = d.model.m if d.model.kind == lat.WEIGHTED_PLANE else None
        if m is None:
            raise ValueError("resolution_pullback expects a class on a weighted plane")
        return lat.resolution_pullback(m, d)
    if op == "discrepancy":
        return lat.discrepancy(lat.int_from_json(request["m"], "m"))
    if op == "blowup":
        model = lat.model_from_json(request["model"])
        return lat.blowup(model, lat.int_from_json(request["degree"], "degree"))
    if op == "total_transform":
        model = lat.model_from_json(request["model"])
        return lat.total_transform(model, lat.class_from_json(request["class"]))
    if op == "proper_transform":
        model = lat.model_from_json(request["model"])
        d = lat.class_from_json(request["class"])
        return lat.proper_transform(model, d, lat.int_from_json(request["multiplicity"], "multiplicity"))
    raise ValueError(f"unknown op: {op!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description="Exact classification tables, volume bounds, and lattice arithmetic "
        "for regular del Pezzo surfaces over imperfect fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="print the classification table for p")
    p_classify.add_argument("--p", type=int, required=True)
    p_classify.add_argument("--format", choices=FORMATS, default="text")
    p_classify.add_argument("--m-max", type=int, default=cls.DEFAULT_M_MAX)
    p_classify.add_argument("--audit", action="store_true", help="also print each m-filter next to the raw computation")
    p_classify.add_argument("--no-fold", action="store_true", help="emit both quadric orientations")
    p_classify.set_defaults(fn=_cmd_classify)

    p_bound = sub.add_parser("bound", help="volume bound from ε or from r = log_p [k:k^p]")
    p_bound.add_argument("--p", type=int, required=True)
    group = p_bound.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilon", type=int)
    group.add_argument("--r", type=int)
    p_bound.add_argument("--format", choices=FORMATS, default="text")
    p_bound.set_defaults(fn=_cmd_bound)

    p_examples = sub.add_parser("examples", help="print the gallery summary tables")
    p_examples.add_argument("--verify", action="store_true", help="check every record; exit 1 on mismatch")
    p_examples.add_argument("--format", choices=FORMATS, default="text")
    p_examples.set_defaults(fn=_cmd_examples)

    p_oracle = sub.add_parser("oracle", help="closed-form enumeration vs brute force")
    p_oracle.add_argument("--family", choices=cls.FAMILIES + ("all",), default="all")
    p_oracle.add_argument("--m-max", type=int, default=cls.DEFAULT_M_MAX)
    p_oracle.add_argument("--box", type=int, default=cls.DEFAULT_BOX)
    p_oracle.add_argument("--format", choices=FORMATS, default="text")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_lattice = sub.add_parser("lattice", help="evaluate one lattice request from JSON on stdin")
    p_lattice.set_defaults(fn=_cmd_lattice)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
