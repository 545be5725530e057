"""The three seeded workloads: one cycle of ops each, with its references.

A cycle is a fixed multiset of op shapes (which subcommand or function, and
how big) whose details and order come from the seed.  The cost profile of a
cycle is therefore the same for every seed, which is what keeps medians and
tails steady across seeds; the seed only varies the data inside each shape.

Every op carries ``expected`` and a ``view`` that turns the program's output
into plain data; an op passes when ``view(output, mods) == expected``.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable

import reference as R

WORKLOADS = ("cli_oneshot", "lattice_wire", "tables_sweep")
FORMATS = ("text", "markdown", "json")


@dataclass
class Op:
    """One request.  CLI ops have ``argv`` (and ``stdin``); library ops name
    a function ``module.fn`` called with ``args``."""

    label: str
    view: Callable
    expected: object
    argv: tuple[str, ...] = ()
    stdin: str = ""
    module: str = ""
    fn: str = ""
    args: tuple = ()


# ---------------------------------------------------------------------------
# lattice requests

BASE_KINDS = ("plane", "quadric", "hirzebruch", "weighted_plane")
#: 17 center counts on a log grid over [1, 200], largest first
CHAIN_CENTERS = tuple(round(200 ** (k / 16)) for k in range(16, -1, -1))
#: ops valid on a blowup chain, dealt to CHAIN_CENTERS in this order, so the
#: 200-center request is always an intersect
CHAIN_OPS = (
    "intersect", "total_transform", "canonical_square", "proper_transform",
    "blowup", "is_cartier", "canonical_class",
)
#: every op once on a rank-1/2 base model, plus five repeats of the cheap ones
BASE_OPS = (
    "intersect", "canonical_square", "canonical_class", "is_effective", "is_nef",
    "is_ample", "is_cartier", "riemann_roch_chi", "resolution_pullback",
    "discrepancy", "blowup", "total_transform", "proper_transform",
    "intersect", "intersect", "is_nef", "is_ample", "riemann_roch_chi",
)


def _base_model(rng: random.Random, kind: str | None = None) -> dict:
    kind = kind or rng.choice(BASE_KINDS)
    if kind == "hirzebruch":
        return {"kind": kind, "m": rng.randint(0, 30)}
    if kind == "weighted_plane":
        return {"kind": kind, "m": rng.randint(1, 30)}
    return {"kind": kind}


def _rational(rng: random.Random, integral: bool) -> str:
    if integral or rng.random() < 0.7:
        return str(rng.randint(-6, 6))
    return R.fstr(R.F(rng.randint(-9, 9), rng.choice((2, 3))))


def _class(rng: random.Random, model: dict, integral: bool = False) -> dict:
    return {"model": model, "coeffs": [_rational(rng, integral) for _ in range(R.rank(model))]}


def _chain(base: dict, centers: list[int]) -> dict:
    return {"kind": "blowup", "base": base, "centers": centers} if centers else base


def _cone_class(rng: random.Random, model: dict) -> dict:
    """A class near the nef/ample boundary, so both answers occur."""
    if model["kind"] == "hirzebruch":
        a = rng.randint(-1, 4)
        c = [a, a * model["m"] + rng.randint(-2, 2)]
    else:
        c = [rng.randint(-2, 4) for _ in range(R.rank(model))]
    return {"model": model, "coeffs": [str(x) for x in c]}


def _cartier_class(rng: random.Random, model: dict) -> dict:
    if model["kind"] == "weighted_plane":
        return {"model": model, "coeffs": [str(model["m"] * rng.randint(-3, 3))]}
    return _class(rng, model, integral=True)


def lattice_request(rng: random.Random, op: str, centers: int) -> dict:
    """One request for ``op``; with ``centers`` > 0 it lives on a chain of
    that many blowups (degrees 1-4) over a random base model."""
    base = _base_model(rng, "weighted_plane" if op == "resolution_pullback" else None)
    degrees = [rng.randint(1, 4) for _ in range(centers)]
    model = _chain(base, degrees)
    if op == "intersect":
        return {"op": op, "a": _class(rng, model), "b": _class(rng, model)}
    if op in ("canonical_square", "canonical_class"):
        return {"op": op, "model": model}
    if op == "discrepancy":
        return {"op": op, "m": rng.randint(1, 30)}
    if op == "blowup":
        return {"op": op, "model": model, "degree": rng.randint(1, 4)}
    if op in ("total_transform", "proper_transform"):
        if not degrees:
            degrees = [rng.randint(1, 4)]
        parent = _chain(base, degrees[:-1])
        req = {"op": op, "model": _chain(base, degrees), "class": _class(rng, parent)}
        if op == "proper_transform":
            req["multiplicity"] = rng.randint(0, 4)
        return req
    if op in ("is_nef", "is_ample"):
        return {"op": op, "class": _cone_class(rng, model)}
    if op in ("is_effective", "is_cartier"):
        return {"op": op, "class": _class(rng, model, integral=True)}
    if op == "riemann_roch_chi":
        return {"op": op, "class": _cartier_class(rng, model)}
    if op == "resolution_pullback":
        return {"op": op, "class": _class(rng, model)}
    raise ValueError(f"unknown op {op!r}")


def _view_json(res, mods):
    code, out = res
    return code, json.loads(out)


def lattice_op(request: dict, label: str = "") -> Op:
    return Op(
        label=label or f"lattice.{request['op']}",
        view=_view_json,
        expected=(0, {"result": R.lattice_answer(request)}),
        argv=("lattice",),
        stdin=json.dumps(request),
    )


def lattice_requests(rng: random.Random, max_centers: int = max(CHAIN_CENTERS)) -> list[dict]:
    reqs = [
        lattice_request(rng, CHAIN_OPS[i % len(CHAIN_OPS)], n)
        for i, n in enumerate(CHAIN_CENTERS)
        if n <= max_centers
    ]
    return reqs + [lattice_request(rng, op, 0) for op in BASE_OPS]


# ---------------------------------------------------------------------------
# CLI output views


def _split_by_p(lines: list[str], fmt: str) -> dict[int, list[tuple[str, ...]]]:
    tables = {}
    for i, line in enumerate(lines):
        if line.startswith("p = "):
            rest = lines[i + 1:]
            if fmt == "markdown":
                end = next((j for j, x in enumerate(rest) if not x.startswith("|")), len(rest))
                tables[int(line[4:].rstrip(":"))] = R.markdown_rows("\n".join(rest[:end]))
            else:
                tables[int(line[4:].rstrip(":"))] = R.text_rows(rest)
    return tables


_SET = re.compile(r"m in \{([^}]*)\}")


def _int_set(line: str) -> tuple[int, ...]:
    inner = _SET.search(line).group(1).strip()
    return tuple(int(x) for x in inner.split(",")) if inner else ()


def view_as_is(result, mods):
    return result


def view_classify(fmt: str, with_audit: bool):
    def view(res, mods):
        code, out = res
        if fmt == "json":
            payload = json.loads(out)
            rows = payload["rows"] if with_audit else payload
            cells = [
                (R.model_display(r["model"]), r["e_display"], r["gk_square"], r["kx_square"]["display"])
                for r in rows
            ]
            audits = (
                [(tuple(a["stated"]), tuple(a["computed"])) for a in payload["audit"]]
                if with_audit else None
            )
            return code, cells, audits
        lines = out.splitlines()
        cells = R.markdown_rows(out) if fmt == "markdown" else R.text_rows(lines)
        audits = None
        if with_audit:
            stated = [_int_set(x) for x in lines if x.strip().startswith("stated filter:")]
            raw = [_int_set(x) for x in lines if x.strip().startswith("raw computation:")]
            audits = list(zip(stated, raw))
        return code, cells, audits

    return view


def view_bound(fmt: str):
    def view(res, mods):
        code, out = res
        if fmt == "json":
            return code, json.loads(out)["bound"]
        if fmt == "markdown":
            return code, int(R.markdown_rows(out)[0][2])
        return code, int(out.splitlines()[0])

    return view


def view_examples(fmt: str, verify: bool):
    def view(res, mods):
        code, out = res
        if fmt == "json":
            payload = json.loads(out)
            tables = {3: [], 2: []}
            for rec in payload["records"]:
                tables[rec["p"]].append(
                    (rec["id"], rec["kx_square"], str(rec["epsilon"]), R.model_display(rec["z_model"]))
                )
            summary = None
            if verify:
                checks = payload["checks"]
                summary = (
                    payload["verified"],
                    all(c["ok"] for c in checks),
                    frozenset(
                        c["record"] for c in checks
                        if c["field"] == "classification_matches" and c["ok"] and c["actual"] == "1"
                    ),
                )
            return code, tables, summary
        lines = out.splitlines()
        summary = None
        if verify:
            checks = [x for x in lines if x.startswith(("PASS ", "FAIL "))]
            matched = (re.fullmatch(r"PASS (\S+)\.classification_matches = 1", x) for x in checks)
            summary = (
                lines[-1] == "verified: yes",
                all(x.startswith("PASS ") for x in checks),
                frozenset(m.group(1) for m in matched if m),
            )
        return code, _split_by_p(lines, fmt), summary

    return view


def view_oracle(res, mods):
    """(exit code, closed-form case lines, brute-force case lines, no diff)."""
    code, out = res
    sections: dict[str, set[str]] = {"closed": set(), "brute": set()}
    current = None
    for line in out.splitlines():
        if line.startswith("closed form ("):
            current = "closed"
        elif line.startswith("brute force over"):
            current = "brute"
        elif line.startswith("  ") and current:
            sections[current].add(line.strip())
    return code, frozenset(sections["closed"]), frozenset(sections["brute"]), "diff: none" in out


def cli_oneshot(rng: random.Random, golden: R.Golden) -> list[Op]:
    """55 one-shot CLI invocations: 14 classify, 12 bound, 6 examples,
    1 oracle, 22 lattice."""
    ops = []
    ex_ids = frozenset(r[0] for p in golden.examples for r in golden.examples[p])
    audit_ref = {p: R.audit(p, 8) for p in (2, 3)}

    def classify(p, fmt, audit=False, fold=True):
        argv = ("classify", "--p", str(p), "--format", fmt)
        argv += ("--audit",) * audit + ("--no-fold",) * (not fold)
        exact = (p, fmt) in golden.text and not audit and fold
        if exact:
            ops.append(Op("cli.classify", view_as_is, (0, golden.text[(p, fmt)]), argv=argv))
        else:
            expected = (0, golden.table(p, fold), audit_ref[p] if audit else None)
            ops.append(Op("cli.classify", view_classify(fmt, audit), expected, argv=argv))

    for p in (2, 3):
        for fmt in FORMATS:
            classify(p, fmt)
    for p, fmt in ((2, "text"), (3, "json"), (2, "markdown"), (3, "text")):
        classify(p, fmt, audit=True)
    for p, fmt in ((2, "text"), (2, "json"), (3, "markdown"), (2, "markdown")):
        classify(p, fmt, fold=False)

    for p in (2, 3, 5):
        for flag in ("--r", "--epsilon", "--r", "--epsilon"):
            value, fmt = rng.randint(0, 8), rng.choice(FORMATS)
            ref = R.bound_r(p, value) if flag == "--r" else R.bound_epsilon(p, value)
            argv = ("bound", "--p", str(p), flag, str(value), "--format", fmt)
            ops.append(Op("cli.bound", view_bound(fmt), (0, ref), argv=argv))

    for verify in (False, True):
        for fmt in FORMATS:
            argv = ("examples", "--format", fmt) + ("--verify",) * verify
            if fmt == "markdown" and not verify:
                ops.append(Op("cli.examples", view_as_is, (0, golden.examples_md), argv=argv))
                continue
            summary = (True, True, ex_ids) if verify else None
            ops.append(Op("cli.examples", view_examples(fmt, verify), (0, golden.examples, summary), argv=argv))

    ref_lines = frozenset(f"{z}: {d}  (g*K)^2 = {gk}" for z, d, _, gk in R.restriction_cases("all", 8))
    ops.append(Op("cli.oracle", view_oracle, (0, ref_lines, ref_lines, True), argv=("oracle",)))

    ops += [lattice_op(req, "cli.lattice") for req in lattice_requests(rng, max_centers=3)]
    return ops


# ---------------------------------------------------------------------------
# library-call views


def view_cases(family: str, m_max: int):
    """The brute-force cases, and the closed-form cases they must equal."""

    def key_set(cases, lat):
        return frozenset(
            (lat.display_model(c.model), lat.display_class(c.d), tuple(str(x) for x in c.d.coeffs), str(c.gk_square))
            for c in cases
        )

    def view(result, mods):
        closed = mods.classify.restriction_cases(family, m_max)
        return key_set(result, mods.lattice), key_set(closed, mods.lattice)

    return view


def view_rows(result, mods):
    lat = mods.lattice
    return [(lat.display_model(r.model), lat.display_class(r.e), str(r.gk_square), r.kx_display) for r in result]


def view_audit(result, mods):
    return [(tuple(a.stated), tuple(a.computed)) for a in result]


def view_gallery(report, mods):
    matched = frozenset(
        c.record_id for c in report.checks if c.field == "classification_matches" and c.ok
    )
    return report.ok, matched


#: the seven heavy brute-force tasks, identical in every cycle: the
#: (m_max, box) grid from (8, 12) to (30, 40) on the two costly families
ORACLE_FIXED = (
    ("hirzebruch", 30, 40), ("all", 23, 31), ("hirzebruch", 19, 26), ("all", 15, 21),
    ("hirzebruch", 12, 16), ("all", 8, 12), ("hirzebruch", 8, 12),
)


def tables_sweep(rng: random.Random, golden: R.Golden) -> list[Op]:
    """55 library calls: 10 oracle, 20 classify_rows, 6 audit_m_filters,
    6 verify_gallery, 13 volume bounds."""
    ops = []
    cheap = [(fam, *_size(rng.random())) for fam in ("plane", "quadric", "weighted_plane")]
    for family, m_max, box in ORACLE_FIXED + tuple(cheap):
        ref = frozenset(R.restriction_cases(family, m_max))
        ops.append(Op(
            "classify.oracle", view_cases(family, m_max), (ref, ref),
            module="classify", fn="restriction_cases_oracle", args=(family, m_max, box),
        ))
    for p in (2, 3):
        for fold in (True, False):
            for m_max in (8, 13, 19, 24, 30):
                ops.append(Op(
                    "classify.classify_rows", view_rows, golden.table(p, fold),
                    module="classify", fn="classify_rows", args=(p, m_max, fold),
                ))
    for p in (2, 3, 2, 3, 2, 3):
        m_max = rng.randint(8, 30)
        ops.append(Op(
            "classify.audit_m_filters", view_audit, R.audit(p, m_max),
            module="classify", fn="audit_m_filters", args=(p, m_max),
        ))
    ids = frozenset(r[0] for p in golden.examples for r in golden.examples[p])
    for _ in range(6):
        ops.append(Op("gallery.verify_gallery", view_gallery, (True, ids), module="gallery", fn="verify_gallery"))
    for i in range(13):
        p, value = rng.choice((2, 3, 5, 7)), rng.randint(0, 12)
        fn, ref = (
            ("volume_bound_r", R.bound_r(p, value)) if i % 2 == 0
            else ("volume_bound_epsilon", R.bound_epsilon(p, value))
        )
        ops.append(Op(f"classify.{fn}", view_as_is, ref, module="classify", fn=fn, args=(p, value)))
    return ops


def _size(t: float) -> tuple[int, int]:
    """(m_max, box) a share t of the way from (8, 12) to (30, 40)."""
    return round(8 + 22 * t), round(12 + 28 * t)


def lattice_wire(rng: random.Random, golden: R.Golden) -> list[Op]:
    """35 lattice requests through ``cli.main(["lattice"])``: 17 on blowup
    chains (CHAIN_CENTERS) and 18 on base models (BASE_OPS)."""
    return [lattice_op(req) for req in lattice_requests(rng)]


def build(workload: str, seed: int, golden: R.Golden, corrupt: bool = False) -> list[Op]:
    """One cycle of ``workload`` for ``seed``, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = {"cli_oneshot": cli_oneshot, "lattice_wire": lattice_wire, "tables_sweep": tables_sweep}[workload](
        rng, golden
    )
    rng.shuffle(ops)
    if corrupt:
        for op in ops:
            op.expected = R.corrupt(op.expected)
    return ops
