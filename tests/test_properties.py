"""Property suites over randomized models and classes."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo.lattice import (
    blowup,
    canonical_square,
    exceptional_classes,
    hirzebruch,
    intersect,
    is_ample,
    is_nef,
    nakai_ample,
    projective_plane,
    quadric,
    resolution_pullback,
    riemann_roch_chi,
    weighted_plane,
)

M_MAX = 8
COEFF = st.integers(-10, 10)


@st.composite
def base_models(draw):
    kind = draw(st.sampled_from(["plane", "quadric", "hirzebruch", "weighted"]))
    if kind == "plane":
        return projective_plane()
    if kind == "quadric":
        return quadric()
    if kind == "hirzebruch":
        return hirzebruch(draw(st.integers(0, M_MAX)))
    return weighted_plane(draw(st.integers(1, M_MAX)))


@st.composite
def chain_models(draw):
    model = draw(base_models())
    for _ in range(draw(st.integers(1, 3))):
        model = blowup(model, draw(st.integers(1, 5)))
    return model


@st.composite
def any_models(draw):
    if draw(st.booleans()):
        return draw(base_models())
    return draw(chain_models())


@st.composite
def model_with_classes(draw, n=1, chains=True):
    model = draw(any_models() if chains else base_models())
    classes = tuple(
        model.divisor(*[draw(COEFF) for _ in range(model.rank)]) for _ in range(n)
    )
    return model, classes


@given(model_with_classes(n=2))
@settings(max_examples=300)
def test_intersect_symmetric(data):
    _, (a, b) = data
    assert intersect(a, b) == intersect(b, a)


@given(model_with_classes(n=3), st.integers(-6, 6))
@settings(max_examples=300)
def test_intersect_bilinear(data, r):
    _, (a, b, c) = data
    assert intersect(a + b, c) == intersect(a, c) + intersect(b, c)
    assert intersect(r * a, b) == r * intersect(a, b)


@given(any_models())
@settings(max_examples=300)
def test_canonical_square_closed_form(model):
    if model.kind == "plane":
        expected = Fraction(9)
    elif model.kind in ("quadric", "hirzebruch"):
        expected = Fraction(8)
    elif model.kind == "weighted_plane":
        expected = Fraction((model.m + 2) ** 2, model.m)
    else:
        expected = canonical_square(model.base) - sum(model.centers)
    assert canonical_square(model) == expected


@given(model_with_classes(chains=False))
@settings(max_examples=400)
def test_cone_coherence(data):
    model, (d,) = data
    if is_ample(d):
        assert is_nef(d)
    if is_nef(d):
        assert all(intersect(d, g) >= 0 for g in model.effective_generators)


@given(model_with_classes(chains=False))
@settings(max_examples=500)
def test_nakai_agreement(data):
    _, (d,) = data
    assert is_ample(d) == nakai_ample(d)


@given(chain_models(), st.data())
@settings(max_examples=200)
def test_blowup_invariants(model, data):
    base = model.base
    a = base.divisor(*[data.draw(COEFF) for _ in range(base.rank)])
    b = base.divisor(*[data.draw(COEFF) for _ in range(base.rank)])
    # total transforms across the whole chain preserve intersections
    ta = model.divisor(*(a.coeffs + (0,) * len(model.centers)))
    tb = model.divisor(*(b.coeffs + (0,) * len(model.centers)))
    assert intersect(ta, tb) == intersect(a, b)
    exc = exceptional_classes(model)
    for i, ei in enumerate(exc):
        assert intersect(ei, ei) == -model.centers[i]
        assert intersect(ei, ta) == 0
        for ej in exc[i + 1 :]:
            assert intersect(ei, ej) == 0
    assert canonical_square(model) == canonical_square(base) - sum(model.centers)


@given(base_models(), st.lists(st.integers(1, 6), min_size=1, max_size=30), st.data())
@settings(max_examples=200)
def test_block_intersect_matches_dense_form(base, degrees, data):
    model = base
    for degree in degrees:
        model = blowup(model, degree)
    a, b = (model.divisor(*[data.draw(COEFF) for _ in range(model.rank)]) for _ in range(2))
    form = model.form
    dense = sum(
        (a.coeffs[i] * form[i][j] * b.coeffs[j] for i in range(model.rank) for j in range(model.rank)),
        Fraction(0),
    )
    assert intersect(a, b) == dense


@given(base_models())
@settings(max_examples=200)
def test_chi_of_zero_is_one(model):
    assert riemann_roch_chi(model.zero()) == 1


def test_chi_of_canonical_is_one_where_cartier():
    models = [projective_plane(), quadric(), weighted_plane(1), weighted_plane(2)]
    models += [hirzebruch(m) for m in range(0, M_MAX + 1)]
    for model in models:
        assert riemann_roch_chi(model.canonical) == 1


@given(st.integers(1, M_MAX), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=400)
def test_pullback_isometry(m, d1, d2):
    w = weighted_plane(m)
    a, b = w.divisor(d1), w.divisor(d2)
    pa, pb = resolution_pullback(m, a), resolution_pullback(m, b)
    assert intersect(pa, pb) == intersect(a, b)
    c = hirzebruch(m).basis_class("C")
    assert intersect(pa, c) == 0
