"""Exact divisor-class arithmetic on rational-surface lattices.

The models are the projective plane, the smooth quadric P^1 x P^1, the ruled
surfaces P(O+O(m)) with a section of square -m, the cones P(1,1,m) whose class
lattice is generated by a divisor F with F^2 = 1/m, and blowup chains over any
of these.  Every number in this module is a ``fractions.Fraction``; floats are
rejected at the door.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction, str]

PLANE = "plane"
QUADRIC = "quadric"
HIRZEBRUCH = "hirzebruch"
WEIGHTED_PLANE = "weighted_plane"
BLOWUP = "blowup"
LATTICE = "lattice"

#: kinds whose effective/nef cones are known to the lattice
BASE_KINDS = (PLANE, QUADRIC, HIRZEBRUCH, WEIGHTED_PLANE)


class ModelMismatchError(ValueError):
    """Classes on two different models were combined."""


class NonIntegralClassError(ValueError):
    """An operation requiring an integral class got fractional coefficients."""


class NotCartierError(ValueError):
    """An operation requiring a Cartier class got a non-Cartier one."""


class UnsupportedModelError(ValueError):
    """The model cannot justify an answer (no cone data, or not a base model)."""


def _rat(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return rational_from_str(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def _rat_row(xs: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(_rat(x) for x in xs)


@dataclass(frozen=True, eq=False)
class SurfaceModel:
    """A surface class lattice: basis, intersection form, canonical class.

    The form is block-diagonal, ``block`` + diag(-d_1, ..., -d_n) over the
    residue degrees in ``centers``; a blowup chain stores only its base's block.

    Instances are immutable and compared structurally; build them through
    :func:`projective_plane`, :func:`quadric`, :func:`hirzebruch`,
    :func:`weighted_plane`, :func:`blowup` or :func:`lattice_model`.
    """

    kind: str
    basis_labels: tuple[str, ...]
    block: tuple[tuple[Fraction, ...], ...]
    canonical_coeffs: tuple[Fraction, ...]
    effective_gen_coeffs: tuple[tuple[Fraction, ...], ...] = ()
    m: int | None = None
    base: "SurfaceModel | None" = None
    centers: tuple[int, ...] = ()

    def _key(self) -> tuple:
        # an ad-hoc lattice is its data; every other model is fixed by these
        if self.kind == LATTICE:
            return (self.kind, self.basis_labels, self.block, self.canonical_coeffs)
        return (self.kind, self.m, self.base, self.centers)

    def __eq__(self, other):
        return self is other or (isinstance(other, SurfaceModel) and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    @property
    def form(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense intersection matrix, assembled on each call."""
        r, pad = len(self.block), (Fraction(0),) * len(self.centers)
        rows = [row + pad for row in self.block]
        for k, d in enumerate(self.centers):
            rows.append((Fraction(0),) * (r + k) + (Fraction(-d),) + pad[k + 1 :])
        return tuple(rows)

    @property
    def canonical(self) -> "DivisorClass":
        return DivisorClass(self, self.canonical_coeffs)

    @property
    def effective_generators(self) -> tuple["DivisorClass", ...]:
        return tuple(DivisorClass(self, c) for c in self.effective_gen_coeffs)

    def divisor(self, *coeffs: RationalLike) -> "DivisorClass":
        return DivisorClass(self, _rat_row(coeffs))

    def zero(self) -> "DivisorClass":
        return self.divisor(*([0] * self.rank))

    def basis_class(self, key: int | str) -> "DivisorClass":
        i = key if isinstance(key, int) else self.basis_labels.index(key)
        coeffs = [Fraction(0)] * self.rank
        coeffs[i] = Fraction(1)
        return DivisorClass(self, tuple(coeffs))

    def __str__(self) -> str:
        return display_model(self)

    def __repr__(self) -> str:
        return f"SurfaceModel({display_model(self)})"


@dataclass(frozen=True)
class DivisorClass:
    """A divisor class: a coefficient vector over its model's basis."""

    model: SurfaceModel
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = _rat_row(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != self.model.rank:
            raise ValueError(
                f"expected {self.model.rank} coefficients on {self.model}, got {len(coeffs)}"
            )

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_same_model(self, other: "DivisorClass") -> None:
        if self.model is not other.model and self.model != other.model:
            raise ModelMismatchError(
                f"classes live on different models: {self.model} vs {other.model}"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_model(other)
        return DivisorClass(self.model, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_model(other)
        return DivisorClass(self.model, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.model, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        # class * class is the intersection number; class * scalar rescales
        if isinstance(other, DivisorClass):
            return intersect(self, other)
        if isinstance(other, (int, Fraction)):
            r = _rat(other)
            return DivisorClass(self.model, tuple(r * a for a in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __str__(self) -> str:
        return display_class(self)


# ---------------------------------------------------------------------------
# model constructors


def projective_plane() -> SurfaceModel:
    """The plane: rank 1, basis H with H^2 = 1, canonical -3H."""
    one = Fraction(1)
    return SurfaceModel(
        kind=PLANE,
        basis_labels=("H",),
        block=((one,),),
        canonical_coeffs=(Fraction(-3),),
        effective_gen_coeffs=((one,),),
    )


def quadric() -> SurfaceModel:
    """P^1 x P^1: basis the two rulings F1, F2 with F1.F2 = 1, canonical (-2,-2)."""
    z, o = Fraction(0), Fraction(1)
    return SurfaceModel(
        kind=QUADRIC,
        basis_labels=("F1", "F2"),
        block=((z, o), (o, z)),
        canonical_coeffs=(Fraction(-2), Fraction(-2)),
        effective_gen_coeffs=((o, z), (z, o)),
    )


def hirzebruch(m: int) -> SurfaceModel:
    """P(O+O(m)): basis (C, F) with C^2 = -m, C.F = 1, F^2 = 0, canonical -2C-(m+2)F."""
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"ruled-surface parameter must be an integer >= 0, got {m!r}")
    z, o = Fraction(0), Fraction(1)
    return SurfaceModel(
        kind=HIRZEBRUCH,
        basis_labels=("C", "F"),
        block=((Fraction(-m), o), (o, z)),
        canonical_coeffs=(Fraction(-2), Fraction(-(m + 2))),
        effective_gen_coeffs=((o, z), (z, o)),
        m=m,
    )


def weighted_plane(m: int) -> SurfaceModel:
    """P(1,1,m): rank 1, basis F with F^2 = 1/m, canonical -(m+2)F.

    m = 1 is permitted and is the plane in different clothes (F = H).
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"cone parameter must be an integer >= 1, got {m!r}")
    one = Fraction(1)
    return SurfaceModel(
        kind=WEIGHTED_PLANE,
        basis_labels=("F",),
        block=((Fraction(1, m),),),
        canonical_coeffs=(Fraction(-(m + 2)),),
        effective_gen_coeffs=((one,),),
        m=m,
    )


def lattice_model(
    labels: Sequence[str],
    form: Sequence[Sequence[RationalLike]],
    canonical: Sequence[RationalLike],
) -> SurfaceModel:
    """An ad-hoc lattice with explicit data and no cone information.

    Used for bases that are none of the four families, e.g. the rank-1
    hyperplane lattice of a degree-8 quadric surface in 3-space.
    """
    labels = tuple(labels)
    rows = tuple(_rat_row(row) for row in form)
    if len(rows) != len(labels) or any(len(row) != len(labels) for row in rows):
        raise ValueError("intersection form must be square of the basis size")
    for i in range(len(rows)):
        for j in range(len(rows)):
            if rows[i][j] != rows[j][i]:
                raise ValueError("intersection form must be symmetric")
    k = _rat_row(canonical)
    if len(k) != len(labels):
        raise ValueError("canonical class has the wrong length")
    return SurfaceModel(kind=LATTICE, basis_labels=labels, block=rows, canonical_coeffs=k)


def _chain(base: SurfaceModel, centers: tuple[int, ...]) -> SurfaceModel:
    """``base`` blown up at points of the given degrees, as one flat chain."""
    for degree in centers:
        if not isinstance(degree, int) or degree < 1:
            raise ValueError(f"center degree must be an integer >= 1, got {degree!r}")
    if not centers:
        return base
    labels = base.basis_labels + tuple(f"E{len(base.centers) + k}" for k in range(1, len(centers) + 1))
    canonical = base.canonical_coeffs + (Fraction(1),) * len(centers)
    if base.kind == BLOWUP:
        base, centers = base.base, base.centers + centers
    return SurfaceModel(
        kind=BLOWUP,
        basis_labels=labels,
        block=base.block,
        canonical_coeffs=canonical,
        base=base,
        centers=centers,
    )


def blowup(base: SurfaceModel, degree: int) -> SurfaceModel:
    """Blow up a closed point whose residue field has the given degree.

    The new exceptional class E satisfies E^2 = -degree and is orthogonal to
    everything pulled back; the canonical class gains +E.  Blowing up a chain
    extends the chain.
    """
    return _chain(base, (degree,))


def blowup_parent(model: SurfaceModel) -> SurfaceModel:
    """The model before the most recent blowup in a chain."""
    if model.kind != BLOWUP:
        raise UnsupportedModelError(f"{model} is not a blowup chain")
    return _chain(model.base, model.centers[:-1])


def exceptional_classes(model: SurfaceModel) -> tuple[DivisorClass, ...]:
    if model.kind != BLOWUP:
        raise UnsupportedModelError(f"{model} is not a blowup chain")
    return tuple(model.basis_class(model.base.rank + i) for i in range(len(model.centers)))


def canonicalize_model(model: SurfaceModel) -> SurfaceModel:
    """Fold arithmetic aliases: the m = 0 ruled surface is the quadric."""
    if model.kind == HIRZEBRUCH and model.m == 0:
        return quadric()
    return model


# ---------------------------------------------------------------------------
# intersection arithmetic


def intersect(a: DivisorClass, b: DivisorClass) -> Fraction:
    """The intersection number a.b through the model's bilinear form: the
    base block densely, plus -d_k a_k b_k for each exceptional class E_k."""
    a._check_same_model(b)
    model, x, y = a.model, a.coeffs, b.coeffs
    r = len(model.block)
    total = Fraction(0)
    for i, row in enumerate(model.block):
        if x[i]:
            for j in range(r):
                if y[j]:
                    total += x[i] * row[j] * y[j]
    for d, s, t in zip(model.centers, x[r:], y[r:]):
        if s and t:
            total -= d * s * t
    return total


def canonical_square(model: SurfaceModel) -> Fraction:
    """K^2 for the model's canonical class."""
    return intersect(model.canonical, model.canonical)


def _require_cone(model: SurfaceModel, op: str) -> None:
    if model.kind not in BASE_KINDS:
        raise UnsupportedModelError(
            f"{op} is not defined on {model}: the lattice carries no cone data "
            "(point positions are invisible to it)"
        )


def is_effective(d: DivisorClass) -> bool:
    """Membership in the effective cone spanned by the model's generators.

    On all four base models the generators are the basis itself, so this is a
    coordinatewise sign test.  Blowup chains carry no effective cone.
    """
    _require_cone(d.model, "effectivity")
    if not d.is_integral:
        raise NonIntegralClassError(f"effectivity needs an integral class, got {d}")
    return all(c >= 0 for c in d.coeffs)


def is_nef(d: DivisorClass) -> bool:
    """Nefness, by the per-model closed-form inequalities."""
    _require_cone(d.model, "nefness")
    kind = d.model.kind
    if kind == PLANE or kind == WEIGHTED_PLANE:
        return d.coeffs[0] >= 0
    if kind == QUADRIC:
        return d.coeffs[0] >= 0 and d.coeffs[1] >= 0
    a, b = d.coeffs
    return a >= 0 and b >= a * d.model.m


def is_ample(d: DivisorClass) -> bool:
    """Ampleness, by the per-model closed-form inequalities.

    Each closed form already forces d^2 > 0; ``nakai_ample`` is the
    independently coded cone-plus-square test the property suite checks
    this against.
    """
    _require_cone(d.model, "ampleness")
    kind = d.model.kind
    if kind == PLANE or kind == WEIGHTED_PLANE:
        return d.coeffs[0] > 0
    if kind == QUADRIC:
        return d.coeffs[0] > 0 and d.coeffs[1] > 0
    a, b = d.coeffs
    return a > 0 and b > a * d.model.m


def nakai_ample(d: DivisorClass) -> bool:
    """Ampleness tested the slow way: d^2 > 0 and d strictly positive on
    every effective generator."""
    _require_cone(d.model, "ampleness")
    if intersect(d, d) <= 0:
        return False
    return all(intersect(d, g) > 0 for g in d.model.effective_generators)


def is_cartier(d: DivisorClass) -> bool:
    """Cartier test: integral everywhere, and m | coefficient on P(1,1,m)."""
    if not d.is_integral:
        raise NonIntegralClassError(f"Cartier test needs an integral class, got {d}")
    if d.model.kind == WEIGHTED_PLANE:
        return int(d.coeffs[0]) % d.model.m == 0
    return True


def riemann_roch_chi(d: DivisorClass) -> Fraction:
    """chi(O(d)) = 1 + d.(d-K)/2 on the four base models (all rational, chi(O) = 1)."""
    if d.model.kind not in BASE_KINDS:
        raise UnsupportedModelError(f"Euler characteristic is only provided on the four base models, not {d.model}")
    if not is_cartier(d):
        raise NotCartierError(f"Euler characteristic needs a Cartier class, got {d} on {d.model}")
    return 1 + intersect(d, d - d.model.canonical) / 2


def resolution_pullback(m: int, d: DivisorClass) -> DivisorClass:
    """Pull a class dF on P(1,1,m) back along the minimal resolution.

    The result d.F + (d/m).C on P(O+O(m)) meets the section C in 0 and has
    the same self-intersection d^2/m; the pullback is an isometry onto the
    orthogonal complement of C.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"cone parameter must be an integer >= 1, got {m!r}")
    if d.model.kind != WEIGHTED_PLANE or d.model.m != m:
        raise ModelMismatchError(f"expected a class on P(1,1,{m}), got one on {d.model}")
    c = d.coeffs[0]
    return hirzebruch(m).divisor(c / m, c)


def discrepancy(m: int) -> Fraction:
    """The coefficient a in K_W = mu*K_Z + a.C for the minimal resolution of
    P(1,1,m); nonnegative exactly when m <= 2."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"cone parameter must be an integer >= 1, got {m!r}")
    return Fraction(2 - m, m)


def total_transform(model: SurfaceModel, d: DivisorClass) -> DivisorClass:
    """Pull a class on the parent model back to the blowup (zero on the new E)."""
    return _transform(model, d, 0, "total")


def proper_transform(model: SurfaceModel, d: DivisorClass, multiplicity: int) -> DivisorClass:
    """Total transform minus multiplicity times the newest exceptional class."""
    if not isinstance(multiplicity, int) or multiplicity < 0:
        raise ValueError(f"multiplicity must be an integer >= 0, got {multiplicity!r}")
    return _transform(model, d, multiplicity, "proper")


def _transform(model: SurfaceModel, d: DivisorClass, multiplicity: int, name: str) -> DivisorClass:
    parent = blowup_parent(model)  # raises UnsupportedModelError off a chain
    if d.model != parent:
        raise ModelMismatchError(f"{name} transform expects a class on {parent}, got one on {d.model}")
    return DivisorClass(model, d.coeffs + (Fraction(-multiplicity),))


# ---------------------------------------------------------------------------
# display


def display_model(model: SurfaceModel) -> str:
    if model.kind == PLANE:
        return "P^2"
    if model.kind == QUADRIC:
        return "P^1 x P^1"
    if model.kind == HIRZEBRUCH:
        return f"P(O+O({model.m}))"
    if model.kind == WEIGHTED_PLANE:
        return f"P(1,1,{model.m})"
    if model.kind == BLOWUP:
        degrees = ",".join(str(c) for c in model.centers)
        return f"Bl({degrees}) {display_model(model.base)}"
    return "lattice[" + ",".join(model.basis_labels) + "]"


def _term(coeff: Fraction, label: str) -> str:
    if coeff == 1:
        return label
    if coeff == -1:
        return "-" + label
    if coeff.denominator == 1:
        return f"{coeff}{label}"
    return f"({coeff}){label}"


def display_class(d: DivisorClass) -> str:
    """Short human form: O(n) on the plane, O(a,b) on the quadric, signed
    sums of basis labels elsewhere."""
    kind = d.model.kind
    if kind == PLANE and d.is_integral:
        return f"O({d.coeffs[0]})"
    if kind == QUADRIC and d.is_integral:
        return f"O({d.coeffs[0]},{d.coeffs[1]})"
    terms = [_term(c, lab) for c, lab in zip(d.coeffs, d.model.basis_labels) if c != 0]
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


# ---------------------------------------------------------------------------
# JSON wire format (shared by the CLI and the golden-file tests)


def rational_to_str(x: Fraction) -> str:
    return str(x)  # "n" or "num/den"


def rational_from_str(s: str) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def int_from_json(value, name: str) -> int:
    """A JSON integer, taken as is.  Any other JSON value, a boolean or a
    number with a fractional part included, is refused, never truncated."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def model_to_json(model: SurfaceModel) -> dict:
    if model.kind in BASE_KINDS:
        return {"kind": model.kind} if model.m is None else {"kind": model.kind, "m": model.m}
    if model.kind == BLOWUP:
        return {
            "kind": "blowup",
            "base": model_to_json(model.base),
            "centers": list(model.centers),
        }
    return {
        "kind": "lattice",
        "labels": list(model.basis_labels),
        "form": [[rational_to_str(x) for x in row] for row in model.form],
        "canonical": [rational_to_str(x) for x in model.canonical_coeffs],
    }


def model_from_json(obj: dict) -> SurfaceModel:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"not a model object: {obj!r}")
    kind = obj["kind"]
    if kind in (PLANE, QUADRIC):
        return projective_plane() if kind == PLANE else quadric()
    if kind in (HIRZEBRUCH, WEIGHTED_PLANE):
        return (hirzebruch if kind == HIRZEBRUCH else weighted_plane)(int_from_json(obj["m"], "m"))
    if kind == "blowup":
        base = model_from_json(obj["base"])
        return _chain(base, tuple(int_from_json(d, "center degree") for d in obj["centers"]))
    if kind == "lattice":
        return lattice_model(obj["labels"], obj["form"], obj["canonical"])
    raise ValueError(f"unknown model kind: {kind!r}")


def class_to_json(d: DivisorClass) -> dict:
    return {
        "model": model_to_json(d.model),
        "coeffs": [rational_to_str(c) for c in d.coeffs],
    }


def class_from_json(obj: dict) -> DivisorClass:
    if not isinstance(obj, dict) or "model" not in obj or "coeffs" not in obj:
        raise ValueError(f"not a divisor-class object: {obj!r}")
    model = model_from_json(obj["model"])
    return DivisorClass(model, tuple(rational_from_str(c) for c in obj["coeffs"]))
