import math
import time
from fractions import Fraction

import pytest

from delpezzo.lattice import (
    DivisorClass,
    ModelMismatchError,
    NonIntegralClassError,
    NotCartierError,
    UnsupportedModelError,
    blowup,
    blowup_parent,
    canonical_square,
    canonicalize_model,
    class_from_json,
    class_to_json,
    discrepancy,
    display_class,
    display_model,
    exceptional_classes,
    hirzebruch,
    intersect,
    is_ample,
    is_cartier,
    is_effective,
    is_nef,
    lattice_model,
    model_from_json,
    model_to_json,
    nakai_ample,
    projective_plane,
    proper_transform,
    quadric,
    rational_from_str,
    rational_to_str,
    resolution_pullback,
    riemann_roch_chi,
    total_transform,
    weighted_plane,
)


def all_base_models(m_max=8):
    models = [projective_plane(), quadric()]
    models += [hirzebruch(m) for m in range(0, m_max + 1)]
    models += [weighted_plane(m) for m in range(1, m_max + 1)]
    return models


# ---------------------------------------------------------------------------
# rationals


def test_rational_invariants():
    x = Fraction(6, -4)
    assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
    assert Fraction(0, 7) == Fraction(0, 1)
    assert rational_to_str(Fraction(-2, 3)) == "-2/3"
    assert rational_to_str(Fraction(5)) == "5"
    assert rational_from_str("-2/3") == Fraction(-2, 3)


def test_floats_rejected():
    with pytest.raises(TypeError):
        projective_plane().divisor(1.5)


def test_values_are_immutable():
    import dataclasses

    model = hirzebruch(2)
    d = model.divisor(1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.coeffs = (Fraction(0), Fraction(0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.m = 3


# ---------------------------------------------------------------------------
# models


def test_model_shapes():
    p2 = projective_plane()
    assert p2.rank == 1 and p2.form == ((Fraction(1),),)
    assert p2.canonical.coeffs == (Fraction(-3),)

    q = quadric()
    assert q.rank == 2
    assert intersect(q.basis_class(0), q.basis_class(0)) == 0
    assert intersect(q.basis_class(0), q.basis_class(1)) == 1
    assert q.canonical.coeffs == (Fraction(-2), Fraction(-2))

    f3 = hirzebruch(3)
    c, f = f3.basis_class("C"), f3.basis_class("F")
    assert intersect(c, c) == -3 and intersect(c, f) == 1 and intersect(f, f) == 0
    assert f3.canonical.coeffs == (Fraction(-2), Fraction(-5))

    w4 = weighted_plane(4)
    assert intersect(w4.basis_class(0), w4.basis_class(0)) == Fraction(1, 4)
    assert w4.canonical.coeffs == (Fraction(-6),)


def test_forms_symmetric():
    models = all_base_models() + [blowup(blowup(quadric(), 2), 3)]
    for model in models:
        for i in range(model.rank):
            for j in range(model.rank):
                assert model.form[i][j] == model.form[j][i]


def test_aliases():
    # P(1,1,1) is the plane and F_0 is the quadric, numerically
    w1 = weighted_plane(1)
    assert intersect(w1.basis_class(0), w1.basis_class(0)) == 1
    assert canonical_square(w1) == 9
    f0 = hirzebruch(0)
    assert f0.form == quadric().form
    assert f0.canonical_coeffs == quadric().canonical_coeffs
    assert canonicalize_model(f0) == quadric()
    assert canonicalize_model(hirzebruch(2)) == hirzebruch(2)


def test_bad_parameters():
    with pytest.raises(ValueError):
        hirzebruch(-1)
    with pytest.raises(ValueError):
        weighted_plane(0)
    with pytest.raises(ValueError):
        blowup(quadric(), 0)
    with pytest.raises(ValueError):
        projective_plane().divisor(1, 2)


# ---------------------------------------------------------------------------
# intersect


def test_intersect_examples():
    f1 = hirzebruch(1)
    d = f1.divisor(1, 3)
    assert intersect(d, d) == 5
    assert intersect(f1.zero(), d) == 0
    w3 = weighted_plane(3)
    assert intersect(w3.divisor(-3), w3.divisor(-3)) == 3


def test_intersect_model_mismatch():
    with pytest.raises(ModelMismatchError):
        intersect(projective_plane().divisor(1), quadric().divisor(1, 0))
    with pytest.raises(ModelMismatchError):
        hirzebruch(1).divisor(1, 0) + hirzebruch(2).divisor(1, 0)


def test_intersect_symmetric_bilinear_spot():
    f2 = hirzebruch(2)
    a, b, c = f2.divisor(2, -1), f2.divisor(-3, 5), f2.divisor(1, 7)
    assert intersect(a, b) == intersect(b, a)
    assert intersect(a + b, c) == intersect(a, c) + intersect(b, c)
    assert intersect(4 * a, b) == 4 * intersect(a, b)


def test_divisor_operators():
    q = quadric()
    d = q.divisor(1, 2)
    assert (d * d) == 4  # class * class is the intersection number
    assert (2 * d).coeffs == (Fraction(2), Fraction(4))
    assert (-d).coeffs == (Fraction(-1), Fraction(-2))
    assert (d - d).is_zero()
    assert not d.is_zero()


# ---------------------------------------------------------------------------
# canonical squares


def test_canonical_square_closed_forms():
    assert canonical_square(projective_plane()) == 9
    assert canonical_square(quadric()) == 8
    for m in range(0, 9):
        assert canonical_square(hirzebruch(m)) == 8
    for m in range(1, 9):
        # expand (-(m+2)F)^2 by the form: (m+2)^2/m
        assert canonical_square(weighted_plane(m)) == Fraction((m + 2) ** 2, m)
    assert canonical_square(weighted_plane(2)) == 8
    assert canonical_square(weighted_plane(4)) == 9


def test_canonical_square_blowup_example():
    # the blowup of a degree-8 base at a degree-2 point has K^2 = 6
    assert canonical_square(blowup(quadric(), 2)) == 6


# ---------------------------------------------------------------------------
# cones


def test_is_effective():
    f2 = hirzebruch(2)
    assert is_effective(f2.divisor(1, 1))
    assert not is_effective(f2.divisor(1, -1))
    assert is_effective(weighted_plane(4).divisor(2))
    assert is_effective(projective_plane().zero())


def test_is_effective_errors():
    with pytest.raises(UnsupportedModelError):
        is_effective(blowup(quadric(), 2).zero())
    with pytest.raises(NonIntegralClassError):
        is_effective(weighted_plane(2).divisor(Fraction(1, 2)))


def test_nef_ample_examples():
    f1 = hirzebruch(1)
    d = f1.divisor(1, 3)
    assert is_ample(d) and is_nef(d)
    assert intersect(d, d) == 5  # Nakai cross-check: positive square
    q = quadric()
    assert is_nef(q.divisor(1, 0)) and not is_ample(q.divisor(1, 0))
    assert not is_nef(weighted_plane(3).divisor(-3))


def test_nef_ample_hirzebruch_boundary():
    f3 = hirzebruch(3)
    assert is_nef(f3.divisor(1, 3)) and not is_ample(f3.divisor(1, 3))  # C+3F on F_3
    assert is_ample(f3.divisor(1, 4))
    assert not is_nef(f3.divisor(1, 2))


def test_cone_predicates_unavailable_on_blowups():
    x = blowup(quadric(), 2)
    for fn in (is_nef, is_ample, nakai_ample):
        with pytest.raises(UnsupportedModelError):
            fn(x.zero())


def test_nakai_matches_closed_form_spot():
    for model in all_base_models(5):
        for coeffs in [(1,), (0,), (-2,), (1, 0), (0, 1), (2, 3), (1, 6), (-1, 4)]:
            if len(coeffs) != model.rank:
                continue
            d = model.divisor(*coeffs)
            assert is_ample(d) == nakai_ample(d), (model, coeffs)


# ---------------------------------------------------------------------------
# Cartier and Riemann-Roch


def test_is_cartier():
    assert is_cartier(weighted_plane(3).divisor(-3))
    assert not is_cartier(weighted_plane(4).divisor(2))
    assert is_cartier(projective_plane().divisor(7))
    assert is_cartier(blowup(quadric(), 2).divisor(1, 1, -1))
    with pytest.raises(NonIntegralClassError):
        is_cartier(weighted_plane(2).divisor(Fraction(1, 2)))


def test_riemann_roch_plane():
    p2 = projective_plane()
    assert riemann_roch_chi(p2.zero()) == 1
    assert riemann_roch_chi(p2.canonical) == 1
    assert riemann_roch_chi(p2.divisor(36)) == 703
    # oracle: chi(nH) counts the degree-n monomials in three variables
    for n in range(0, 41):
        assert riemann_roch_chi(p2.divisor(n)) == math.comb(n + 2, 2)


def weighted_monomial_count(m, d):
    # monomials of weighted degree d in variables of weights (1, 1, m)
    return sum(d - m * c + 1 for c in range(d // m + 1) if d - m * c >= 0)


def test_riemann_roch_weighted_oracle():
    # chi of an ample Cartier class on the cone equals its section count
    for m in range(1, 5):
        w = weighted_plane(m)
        for k in range(0, 4):
            d = w.divisor(k * m)
            assert riemann_roch_chi(d) == weighted_monomial_count(m, k * m)


def test_riemann_roch_errors():
    with pytest.raises(NotCartierError):
        riemann_roch_chi(weighted_plane(4).divisor(2))
    with pytest.raises(UnsupportedModelError):
        riemann_roch_chi(blowup(quadric(), 2).zero())


# ---------------------------------------------------------------------------
# resolution pullback and discrepancy


def test_resolution_pullback_examples():
    w2 = weighted_plane(2)
    pb = resolution_pullback(2, w2.divisor(-4))
    assert pb == hirzebruch(2).divisor(-2, -4)
    assert pb == hirzebruch(2).canonical  # discrepancy 0 at m = 2

    assert resolution_pullback(1, weighted_plane(1).divisor(1)) == hirzebruch(1).divisor(1, 1)

    pb4 = resolution_pullback(4, weighted_plane(4).divisor(2))
    assert pb4 == hirzebruch(4).divisor(Fraction(1, 2), 2)
    assert intersect(pb4, pb4) == 1


def test_resolution_pullback_postconditions():
    for m in range(1, 9):
        w = weighted_plane(m)
        f = hirzebruch(m)
        c = f.basis_class("C")
        for d in range(-20, 21):
            pb = resolution_pullback(m, w.divisor(d))
            assert intersect(pb, c) == 0
            assert intersect(pb, pb) == Fraction(d * d, m)


def test_resolution_pullback_model_check():
    with pytest.raises(ModelMismatchError):
        resolution_pullback(2, weighted_plane(3).divisor(1))
    with pytest.raises(ModelMismatchError):
        resolution_pullback(2, projective_plane().divisor(1))


def test_discrepancy():
    assert discrepancy(2) == 0
    assert discrepancy(1) == 1
    assert discrepancy(4) == Fraction(-1, 2)
    for m in range(1, 50):
        assert (discrepancy(m) >= 0) == (m <= 2)
    # K_W = mu*K_Z + a C, coefficient by coefficient
    for m in range(1, 9):
        pb = resolution_pullback(m, weighted_plane(m).canonical)
        a = hirzebruch(m).canonical - pb
        assert a.coeffs == (discrepancy(m), Fraction(0))


# ---------------------------------------------------------------------------
# blowups


def test_blowup_basics():
    x = blowup(quadric(), 2)
    assert x.rank == 3 and x.centers == (2,)
    (e,) = exceptional_classes(x)
    assert intersect(e, e) == -2
    assert canonical_square(x) == 6
    assert x.canonical == total_transform(x, quadric().canonical) + e


def test_blowup_transforms():
    base = quadric()
    x = blowup(base, 2)
    d = base.divisor(1, 1)  # d^2 = 2
    assert intersect(total_transform(x, d), total_transform(x, d)) == 2
    pt = proper_transform(x, d, 1)
    assert intersect(pt, pt) == 0
    assert proper_transform(x, d, 0) == total_transform(x, d)


def test_blowup_chain_flattens():
    x = blowup(blowup(projective_plane(), 2), 3)
    assert x.base == projective_plane()
    assert x.centers == (2, 3)
    assert x.rank == 3
    assert canonical_square(x) == 9 - 2 - 3
    e1, e2 = exceptional_classes(x)
    assert intersect(e1, e2) == 0
    assert intersect(e1, e1) == -2 and intersect(e2, e2) == -3
    assert blowup_parent(x) == blowup(projective_plane(), 2)


def test_blowup_transform_errors():
    x = blowup(quadric(), 2)
    with pytest.raises(ModelMismatchError):
        total_transform(x, projective_plane().divisor(1))
    with pytest.raises(ValueError):
        proper_transform(x, quadric().divisor(1, 0), -1)
    with pytest.raises(UnsupportedModelError):
        total_transform(quadric(), quadric().divisor(1, 0))


def test_blowup_of_custom_lattice():
    base = lattice_model(("H",), ((2,),), (-2,))
    assert canonical_square(base) == 8
    x = blowup(base, 2)
    assert canonical_square(x) == 6
    h = base.divisor(1)
    ct = proper_transform(x, h, 1)
    assert intersect(ct, ct) == 0
    assert intersect(-x.canonical, ct) == 2


def test_chains_compare_structurally():
    a = blowup(blowup(quadric(), 2), 3)
    b = model_from_json({"kind": "blowup", "base": {"kind": "quadric"}, "centers": [2, 3]})
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != blowup(blowup(quadric(), 2), 4)
    assert a != blowup(blowup(hirzebruch(0), 2), 3)
    with pytest.raises(ModelMismatchError):
        intersect(a.zero(), blowup(blowup(quadric(), 3), 2).zero())


def test_lattice_models_compare_all_their_data():
    base = lattice_model(("H",), ((2,),), (-2,))
    assert base == lattice_model(("H",), ((2,),), (-2,))
    assert hash(base) == hash(lattice_model(("H",), ((2,),), (-2,)))
    for other in (
        lattice_model(("L",), ((2,),), (-2,)),  # labels only
        lattice_model(("H",), ((2,),), (-1,)),  # canonical class only
        lattice_model(("H",), ((4,),), (-2,)),  # form only
    ):
        assert base != other
        assert blowup(base, 1) != blowup(other, 1)


def test_form_is_block_diagonal():
    x = blowup(blowup(hirzebruch(2), 3), 1)
    assert x.form == (
        (-2, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, -3, 0),
        (0, 0, 0, -1),
    )
    assert x.basis_labels == ("C", "F", "E1", "E2")


def test_long_chain_from_json():
    # one flat chain, no dense matrix: 1,000 centers decode and square quickly
    degrees = [1 + (7 * i) % 5 for i in range(1000)]
    start = time.perf_counter()
    x = model_from_json({"kind": "blowup", "base": {"kind": "plane"}, "centers": degrees})
    assert x.rank == 1001
    assert canonical_square(x) == 9 - sum(degrees)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "hirzebruch", "m": 2.9},
        {"kind": "weighted_plane", "m": True},
        {"kind": "hirzebruch", "m": "2"},
        {"kind": "blowup", "base": {"kind": "plane"}, "centers": [1.5]},
        {"kind": "blowup", "base": {"kind": "plane"}, "centers": [True]},
        {"kind": "blowup", "base": {"kind": "plane"}, "centers": [2, 0]},
    ],
)
def test_json_model_integers_are_strict(obj):
    with pytest.raises(ValueError):
        model_from_json(obj)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError):
        class_from_json({"model": {"kind": "plane"}, "coeffs": ["1/0"]})
    with pytest.raises(ValueError):
        lattice_model(("H",), (("1/0",),), (0,))


def test_lattice_model_validation():
    with pytest.raises(ValueError):
        lattice_model(("A", "B"), ((1, 2), (3, 4)), (0, 0))  # not symmetric
    with pytest.raises(ValueError):
        lattice_model(("A",), ((1, 0),), (0,))  # not square


# ---------------------------------------------------------------------------
# display and JSON


def test_display():
    assert display_class(projective_plane().divisor(2)) == "O(2)"
    assert display_class(quadric().divisor(1, 1)) == "O(1,1)"
    assert display_class(hirzebruch(1).divisor(1, 1)) == "C+F"
    assert display_class(hirzebruch(1).divisor(1, 0)) == "C"
    assert display_class(weighted_plane(4).divisor(2)) == "2F"
    assert display_class(hirzebruch(2).zero()) == "0"
    assert display_class(hirzebruch(2).divisor(-1, 3)) == "-C+3F"
    assert display_class(hirzebruch(4).divisor(Fraction(1, 2), 2)) == "(1/2)C+2F"
    assert display_model(projective_plane()) == "P^2"
    assert display_model(hirzebruch(2)) == "P(O+O(2))"
    assert display_model(weighted_plane(3)) == "P(1,1,3)"
    assert display_model(blowup(weighted_plane(2), 2)) == "Bl(2) P(1,1,2)"


@pytest.mark.parametrize(
    "model",
    [
        projective_plane(),
        quadric(),
        hirzebruch(0),
        hirzebruch(2),
        weighted_plane(1),
        weighted_plane(4),
        blowup(quadric(), 2),
        blowup(blowup(projective_plane(), 1), 3),
        lattice_model(("H",), ((2,),), (-2,)),
    ],
)
def test_json_model_round_trip(model):
    assert model_from_json(model_to_json(model)) == model


def test_json_class_round_trip():
    d = hirzebruch(2).divisor(Fraction(-1, 2), 4)
    obj = class_to_json(d)
    assert obj["coeffs"] == ["-1/2", "4"]
    assert class_from_json(obj) == d


def test_json_errors():
    with pytest.raises(ValueError):
        model_from_json({"kind": "mystery"})
    with pytest.raises(ValueError):
        model_from_json({"no": "kind"})
    with pytest.raises(ValueError):
        class_from_json({"model": {"kind": "plane"}})
