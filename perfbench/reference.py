"""Independent references for every output the benchmark checks.

Nothing here imports ``delpezzo``.  Lattice answers come from closed forms
on the JSON wire format (the block formula for intersections, the per-model
nef/ample inequalities, chi = 1 + d.(d-K)/2); tables come from the golden
files under ``tests/golden`` (read only); bounds come from max{9, 3^r} and
max{9, 2^(2r+1)}.
"""
from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

F = Fraction


def fstr(x) -> str:
    """A rational as the wire format writes it: "n" or "num/den"."""
    return str(F(x))


# ---------------------------------------------------------------------------
# lattice: models and classes as JSON objects


def base_form(model: dict) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(intersection form, canonical coefficients) of a base model."""
    kind = model["kind"]
    if kind == "plane":
        return [[F(1)]], [F(-3)]
    if kind == "quadric":
        return [[F(0), F(1)], [F(1), F(0)]], [F(-2), F(-2)]
    m = model["m"]
    if kind == "hirzebruch":
        return [[F(-m), F(1)], [F(1), F(0)]], [F(-2), F(-(m + 2))]
    if kind == "weighted_plane":
        return [[F(1, m)]], [F(-(m + 2))]
    raise ValueError(f"no reference for model kind {kind!r}")


def flatten(model: dict) -> tuple[dict, list[int]]:
    """(base model, all center degrees) of a possibly nested blowup."""
    if model["kind"] != "blowup":
        return model, []
    base, centers = flatten(model["base"])
    return base, centers + list(model["centers"])


def normal_model(model: dict) -> dict:
    """The model as the program writes it back: one flat chain."""
    base, centers = flatten(model)
    return {"kind": "blowup", "base": base, "centers": centers} if centers else base


def rank(model: dict) -> int:
    base, centers = flatten(model)
    return len(base_form(base)[0]) + len(centers)


def pairing(model: dict, a: list[Fraction], b: list[Fraction]) -> Fraction:
    """a.b = (base block) + sum of -d_i a_i b_i over the exceptional classes."""
    base, centers = flatten(model)
    form, _ = base_form(base)
    r = len(form)
    total = sum((a[i] * form[i][j] * b[j] for i in range(r) for j in range(r)), F(0))
    return total + sum((-d * a[r + k] * b[r + k] for k, d in enumerate(centers)), F(0))


def canonical(model: dict) -> list[Fraction]:
    base, centers = flatten(model)
    return base_form(base)[1] + [F(1)] * len(centers)


def coeffs(cls: dict) -> list[Fraction]:
    return [F(c) for c in cls["coeffs"]]


def _class(model: dict, cs) -> dict:
    return {"model": normal_model(model), "coeffs": [fstr(c) for c in cs]}


def is_nef(model: dict, c: list[Fraction]) -> bool:
    kind = model["kind"]
    if kind in ("plane", "weighted_plane"):
        return c[0] >= 0
    if kind == "quadric":
        return c[0] >= 0 and c[1] >= 0
    return c[0] >= 0 and c[1] >= c[0] * model["m"]


def is_ample(model: dict, c: list[Fraction]) -> bool:
    kind = model["kind"]
    if kind in ("plane", "weighted_plane"):
        return c[0] > 0
    if kind == "quadric":
        return c[0] > 0 and c[1] > 0
    return c[0] > 0 and c[1] > c[0] * model["m"]


def is_cartier(model: dict, c: list[Fraction]) -> bool:
    if model["kind"] == "weighted_plane":
        return c[0].numerator % model["m"] == 0
    return True


def lattice_answer(request: dict):
    """The value of ``{"result": ...}`` the ``lattice`` subcommand must print."""
    op = request["op"]
    if op == "intersect":
        a, b = request["a"], request["b"]
        return fstr(pairing(a["model"], coeffs(a), coeffs(b)))
    if op == "canonical_square":
        k = canonical(request["model"])
        return fstr(pairing(request["model"], k, k))
    if op == "canonical_class":
        return _class(request["model"], canonical(request["model"]))
    if op == "discrepancy":
        m = request["m"]
        return fstr(F(2 - m, m))
    if op == "blowup":
        base, centers = flatten(request["model"])
        return {"kind": "blowup", "base": base, "centers": centers + [request["degree"]]}
    if op in ("total_transform", "proper_transform"):
        extra = 0 if op == "total_transform" else -request["multiplicity"]
        return _class(request["model"], coeffs(request["class"]) + [F(extra)])
    cls = request["class"]
    model, c = cls["model"], coeffs(cls)
    if op == "is_effective":
        return all(x >= 0 for x in c)
    if op == "is_nef":
        return is_nef(model, c)
    if op == "is_ample":
        return is_ample(model, c)
    if op == "is_cartier":
        return is_cartier(model, c)
    if op == "riemann_roch_chi":
        k = canonical(model)
        return fstr(1 + pairing(model, c, [x - y for x, y in zip(c, k)]) / 2)
    if op == "resolution_pullback":
        m = model["m"]
        return {"model": {"kind": "hirzebruch", "m": m}, "coeffs": [fstr(c[0] / m), fstr(c[0])]}
    raise ValueError(f"no reference for op {op!r}")


# ---------------------------------------------------------------------------
# restriction cases (the admissible (Z, D) pairs) and the m-filter audit

FAMILIES = ("plane", "quadric", "weighted_plane", "hirzebruch")


def restriction_cases(family: str, m_max: int) -> set[tuple[str, str, tuple[str, ...], str]]:
    """(model display, D display, D coefficients, (K+D)^2) for each case.

    plane: D = nH, (K+D)^2 = (n-3)^2.  quadric: (K+D)^2 = 2(a-2)(b-2).
    P(1,1,m): D = 2F, (K+D)^2 = m.  P(O+O(m)): D = C, C+F with
    (K+D)^2 = m+4, m+2.
    """
    fams = FAMILIES if family == "all" else (family,)
    out = set()
    if "plane" in fams:
        out |= {("P^2", f"O({n})", (str(n),), str((n - 3) ** 2)) for n in (1, 2)}
    if "quadric" in fams:
        for a, b in ((1, 1), (1, 0), (0, 1)):
            out.add(("P^1 x P^1", f"O({a},{b})", (str(a), str(b)), str(2 * (a - 2) * (b - 2))))
    if "weighted_plane" in fams:
        out |= {(f"P(1,1,{m})", "2F", ("2",), str(m)) for m in range(2, m_max + 1)}
    if "hirzebruch" in fams:
        for m in range(1, m_max + 1):
            out.add((f"P(O+O({m}))", "C", ("1", "0"), str(m + 4)))
            out.add((f"P(O+O({m}))", "C+F", ("1", "1"), str(m + 2)))
    return out


def oracle_cells(family: str, m_max: int, box: int) -> int:
    """Coefficient-box points the brute force visits."""
    side = box + 1
    per = {
        "plane": side,
        "quadric": side * side,
        "weighted_plane": (m_max - 1) * side,
        "hirzebruch": m_max * side * side,
    }
    return sum(per.values()) if family == "all" else per[family]


def audit(p: int, m_max: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(stated, computed) for the P(1,1,m) and the P(O+O(m)) filter.

    The cone filter is stated as {2,4} (p=2) / {3} (p=3); gK Cartier with
    g = 4 (p=2) / 3 (p=3) forces m | 2g.  Every ruled surface passes the
    lattice filters for p=2 (E = D, always Cartier) and none does for p=3
    (C and C+F are not divisible by 2).
    """
    gor = 4 if p == 2 else 3
    weighted_stated = tuple(m for m in ((2, 4) if p == 2 else (3,)) if m <= m_max)
    weighted_raw = tuple(m for m in range(2, m_max + 1) if (2 * gor) % m == 0)
    hirz_raw = tuple(range(1, m_max + 1)) if p == 2 else ()
    hirz_stated = tuple(m for m in (1, 2, 4) if m <= m_max) if p == 2 else hirz_raw
    return [(weighted_stated, weighted_raw), (hirz_stated, hirz_raw)]


# ---------------------------------------------------------------------------
# volume bounds


def bound_r(p: int, r: int) -> int:
    if r == 0 or p >= 5:
        return 9
    return max(9, 3**r) if p == 3 else max(9, 2 ** (2 * r + 1))


def bound_epsilon(p: int, eps: int) -> int:
    if p >= 5:
        return 9
    return max(9, 3 ** (eps + 1)) if p == 3 else max(9, 2 ** (eps + 3))


# ---------------------------------------------------------------------------
# golden tables and output parsing


def model_display(model: dict) -> str:
    kind = model["kind"]
    if kind == "plane":
        return "P^2"
    if kind == "quadric":
        return "P^1 x P^1"
    if kind == "hirzebruch":
        return f"P(O+O({model['m']}))"
    if kind == "weighted_plane":
        return f"P(1,1,{model['m']})"
    raise ValueError(f"no display for model kind {kind!r}")


def markdown_rows(text: str) -> list[tuple[str, ...]]:
    """Body cells of every markdown table in ``text`` (headers and rules dropped)."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("|"):
            continue
        cells = tuple(c.strip() for c in line.strip().strip("|").split("|"))
        if cells[0] in ("Z", "X", "branch") or set(cells[0]) <= {"-", " "}:
            continue
        rows.append(cells)
    return rows


def text_rows(lines: list[str]) -> list[tuple[str, ...]]:
    """Body cells of a space-aligned text table starting at ``lines[0]``
    (header, dashed rule, rows up to the first blank line)."""
    rows = []
    for line in lines[2:]:
        if not line.strip():
            break
        rows.append(tuple(re.split(r" {2,}", line.strip())))
    return rows


def unfold(rows: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
    """The table with both quadric orientations: O(0,1) follows O(1,0)."""
    out = []
    for row in rows:
        out.append(row)
        if row[0] == "P^1 x P^1" and row[1] == "O(1,0)":
            out.append((row[0], "O(0,1)") + row[2:])
    return out


class Golden:
    """The golden files, read once."""

    def __init__(self, root: Path):
        d = root / "tests" / "golden"
        self.text = {
            (2, "markdown"): (d / "classify_p2.md").read_text(),
            (3, "markdown"): (d / "classify_p3.md").read_text(),
            (2, "json"): (d / "classify_p2.json").read_text(),
        }
        self.examples_md = (d / "examples.md").read_text()
        self.rows = {p: markdown_rows(self.text[(p, "markdown")]) for p in (2, 3)}
        self.examples = {}
        p = None
        for line in self.examples_md.splitlines():
            if line.startswith("p = "):
                p = int(line[4:].rstrip(":"))
                self.examples[p] = []
            elif line.startswith("|"):
                self.examples[p] += markdown_rows(line)

    def table(self, p: int, fold: bool = True) -> list[tuple[str, ...]]:
        rows = self.rows[p]
        return rows if fold else unfold(rows)


# ---------------------------------------------------------------------------
# corrupted references (self-test)


def corrupt(value):
    """A value that differs from ``value``, for the corrupted-reference self-test."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, str):
        try:
            return fstr(F(value) + 1)
        except ValueError:
            return value + "?"
    if isinstance(value, (list, tuple)):
        if not value:
            return type(value)([1])
        return type(value)([corrupt(value[0]), *value[1:]])
    if isinstance(value, (set, frozenset)):
        return type(value)(set(value) | {("corrupt",)})
    if isinstance(value, dict):
        key = sorted(value)[0]
        return {**value, key: corrupt(value[key])}
    raise TypeError(f"cannot corrupt {type(value).__name__}")
