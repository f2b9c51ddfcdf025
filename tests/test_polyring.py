"""Graded polynomial arithmetic, monomial orders, piece matrices."""

import random
from fractions import Fraction
from math import comb

import pytest

import syzkit.polyring as polyring
from syzkit.errors import (CertificateError, HomogeneityError, ParseError,
                           RingMismatchError)
from syzkit.fields import QQ
from syzkit.groebner import FreeModule, Vec
from syzkit.linalg import primitive_integers
from syzkit.polyring import (GradedPoly, PolyRing, graded_piece_dim,
                             grevlex_key, multiple_rows, piece_multiples,
                             span_dim, values_at, vanish_at)


def test_piece_dimension_binomial():
    for nv in range(2, 6):  # P^1 .. P^4
        ring = PolyRing(nv)
        for d in range(13):
            mons = ring.monomials_of_degree(d)
            assert len(mons) == comb(d + nv - 1, nv - 1)
            assert len(set(mons)) == len(mons)
            keys = [grevlex_key(e) for e in mons] if ring.order == "grevlex" else None
            assert keys == sorted(keys, reverse=True)


def test_order_refines_total_degree():
    ring = PolyRing(3)
    assert grevlex_key((0, 0, 2)) < grevlex_key((3, 0, 0))


def test_multiply_basics():
    ring = PolyRing(3)
    x, y, z = ring.gens()
    xy = x * y
    assert xy.degree == 2
    assert xy.coeffs == {(1, 1, 0): QQ(1)}
    assert (x + y) * (x - y) == x * x - y * y


def test_multiply_against_evaluation_homomorphism():
    rng = random.Random("eval-oracle")
    ring = PolyRing(3)

    def rand_coeff():
        return Fraction(rng.randrange(-32003, 32003), rng.randrange(1, 100))

    def rand_poly(d):
        return ring.from_terms(
            {m: rand_coeff() for m in ring.monomials_of_degree(d)}, d)

    f, g = rand_poly(2), rand_poly(3)
    fg = f * g
    for _ in range(50):
        pt = tuple(rand_coeff() for _ in range(3))
        assert fg.evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def test_graded_piece_matrix_linear_ideal():
    ring = PolyRing(3)
    x, y, _ = ring.gens()
    assert len(piece_multiples(ring, [x, y], 1)) == 2
    assert graded_piece_dim(ring, [x, y], 1) == 2
    # degree 2: everything except z^2
    assert graded_piece_dim(ring, [x, y], 2) == 5


def test_graded_piece_matrix_three_points():
    ring = PolyRing(3)
    gens = [ring.parse("x0*x1"), ring.parse("x0*x2"), ring.parse("x1*x2")]
    assert graded_piece_dim(ring, gens, 2) == 3


def test_graded_piece_rank_monotone_in_generators():
    ring = PolyRing(3)
    x, y, z = ring.gens()
    gens = []
    last = 0
    for g in (x * x, x * y, y * y, z * z):
        gens.append(g)
        cur = graded_piece_dim(ring, gens, 3)
        assert cur >= last
        last = cur


def test_evaluate_examples():
    ring = PolyRing(3)
    x, y, z = ring.gens()
    assert x.evaluate((QQ(1), QQ(0), QQ(0))) == 1
    assert (x * y).evaluate((QQ(1), QQ(1), QQ(1))) == 1
    assert (x * x + y * z).evaluate((QQ(0), QQ(1), QQ(1))) == 1


def test_homogeneity_enforced():
    ring = PolyRing(3)
    x, y, _ = ring.gens()
    with pytest.raises(HomogeneityError):
        x + x * y
    # zero polynomials carry their degree so sums stay graded
    zero2 = x.scale(QQ.zero).mul_monomial((0, 1, 0))
    assert zero2.is_zero()
    assert (zero2 + x * y).degree == 2


def test_no_zero_coefficients_stored():
    ring = PolyRing(3)
    x, y, _ = ring.gens()
    diff = (x + y) - (x + y)
    assert diff.coeffs == {}
    cancel = (x + y) * (x - y) - x * x + y * y
    assert cancel.is_zero()


def test_parser_grammar():
    ring = PolyRing(3)
    f = ring.parse("x0^2*x1 - 3*x2^3")
    assert f.degree == 3
    assert f.coeffs[(2, 1, 0)] == 1
    assert f.coeffs[(0, 0, 3)] == -3
    assert ring.parse("2*x1") == ring.gens()[1].scale(QQ(2))
    with pytest.raises(ParseError):
        ring.parse("x9")
    with pytest.raises(HomogeneityError):
        ring.parse("x0 + x1*x2")


def test_parser_rejects_a_zero_denominator():
    ring = PolyRing(3)
    with pytest.raises(ParseError, match="zero denominator in QQ"):
        ring.parse("x0*x1 - 1/0*x2^2")
    f = ring.parse("3/2*x0 - 14*x1")
    assert f.coeffs == {(1, 0, 0): Fraction(3, 2), (0, 1, 0): -14}
    assert all(type(c) is Fraction for c in f.coeffs.values())


def test_ring_mismatch_rejected():
    r1, r2 = PolyRing(3), PolyRing(4)
    with pytest.raises(RingMismatchError):
        r1.gens()[0] * r2.gens()[0]


def test_span_dim_absorbs_dependence():
    ring = PolyRing(3)
    x, y, _ = ring.gens()
    assert span_dim(ring, [x, y, x + y], 1) == 2


def test_lex_order_available():
    ring = PolyRing(3, order="lex")
    mons = ring.monomials_of_degree(2)
    assert mons[0] == (2, 0, 0)
    with pytest.raises(ParseError):
        PolyRing(3, order="weird")


def test_monomial_count_is_checked_against_the_piece_dimension(monkeypatch):
    short = list(polyring._compositions(2, 3))[1:]
    monkeypatch.setattr(polyring, "_compositions", lambda d, n: short)
    ring = PolyRing(3)
    with pytest.raises(CertificateError, match="monomial count") as exc:
        ring.monomials_of_degree(2)
    assert exc.value.details == {"degree": 2, "count": 5}


def _random_coeff(rng):
    # large rationals: a 100-bit numerator over a 60-bit denominator
    return Fraction(rng.randrange(-2 ** 100, 2 ** 100), rng.randrange(1, 2 ** 60))


def _random_poly(rng, ring, deg):
    mons = ring.monomials_of_degree(deg)
    picked = rng.sample(mons, rng.randint(1, min(4, len(mons))))
    return ring.from_terms({m: _random_coeff(rng) for m in picked}, deg)


def _random_vec(rng, free, deg):
    ring = free.ring
    terms = {}
    for comp, s in enumerate(free.shifts):
        mons = ring.monomials_of_degree(deg - s)
        for m in rng.sample(mons, min(rng.randint(0, 3), len(mons))):
            terms[(comp, m)] = _random_coeff(rng)
    return Vec(free, terms, degree=deg)


@pytest.mark.parametrize("field", [QQ], ids=["QQ"])
def test_multiple_rows_match_the_dense_multiples(field):
    """multiple_rows gives the to_vector/coords rows of piece_multiples up
    to a nonzero scalar: exactly their primitive integer form."""
    rng = random.Random(f"multiple-rows:{field!r}")
    checked = 0
    for trial in range(40):
        ring = PolyRing(rng.choice((2, 3, 4)))
        d = rng.randint(0, 5)
        if trial % 2:
            free = FreeModule(ring, rng.choice(((0,), (0, 2, -1), (1, 1, 3),
                                                (-1, 0))))
            elems = [_random_vec(rng, free, rng.randint(-1, d + 2))
                     for _ in range(rng.randint(1, 4))]
            basis = free.piece_basis(d)
            index = {b: i for i, b in enumerate(basis)}
            dense = [w.coords(index, d) for w in piece_multiples(ring, elems, d)]
        else:
            elems = [_random_poly(rng, ring, rng.randint(0, d + 2))
                     for _ in range(rng.randint(1, 4))]
            elems.append(ring.zero())
            rng.shuffle(elems)
            dense = [ring.to_vector(w, d) for w in piece_multiples(ring, elems, d)]
        rows = multiple_rows(ring, elems, d)
        assert len(rows) == len(dense)
        for row, old in zip(rows, dense):
            assert all(type(c) is int for c in row)
            assert row == primitive_integers(old)
            j = next(i for i, c in enumerate(old) if c)
            scale = Fraction(row[j]) / old[j]
            assert scale and [scale * c for c in old] == row
        checked += len(rows)
    assert checked > 200


def test_product_columns_are_cached_on_the_ring():
    ring = PolyRing(3)
    cols = ring.product_columns((1, 0, 1), 2)
    mons = ring.monomials_of_degree(4)
    assert [mons[c] for c in cols] == [
        tuple(a + b for a, b in zip((1, 0, 1), m))
        for m in ring.monomials_of_degree(2)]
    assert ring.product_columns((1, 0, 1), 2) is cols


# -- integer terms and evaluation at points ------------------------------------


def _draw_form(data, st, ring, point):
    """A form of degree 0..4 with a few small coefficients; about half of
    them are made to vanish at the point (minus a multiple of x_k^deg for a
    nonzero coordinate k)."""
    deg = data.draw(st.integers(0, 4))
    mons = ring.monomials_of_degree(deg)
    picked = data.draw(st.lists(st.sampled_from(mons), max_size=5, unique=True))
    coeff = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 7)))
    f = ring.from_terms({m: data.draw(coeff) for m in picked}, deg)
    if data.draw(st.booleans()):
        k = next(i for i, c in enumerate(point) if c)
        xk = ring.monomial(tuple(deg if i == k else 0 for i in range(len(point))))
        f = f - xk.scale(f.evaluate(point) / xk.evaluate(point))
    return f


def _draw_point(data, st, nv):
    """A point with small coordinates, zero and negative ones among them."""
    coord = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 5)))
    return tuple(data.draw(st.lists(coord, min_size=nv, max_size=nv).filter(any)))


def test_parse_reads_back_to_str_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=80, deadline=None, derandomize=True)
    @hyp.given(st.integers(1, 4), st.data())
    def check(nv, data):
        ring = PolyRing(nv)
        f = _draw_form(data, st, ring, _draw_point(data, st, nv))
        assert ring.parse(f.to_str()) == f

    check()


def test_values_at_zero_test_agrees_with_evaluate_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=80, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from((3, 4)), st.data())
    def check(nv, data):
        ring = PolyRing(nv)
        point = _draw_point(data, st, nv)
        forms = [_draw_form(data, st, ring, point)
                 for _ in range(data.draw(st.integers(1, 4)))]
        zero = [not f.evaluate(point) for f in forms]
        assert [not v for v in values_at(forms, point)] == zero
        assert vanish_at(forms, [point]) == all(zero)
        other = _draw_point(data, st, nv)
        assert vanish_at(forms, [point, other]) == all(
            not f.evaluate(pt) for f in forms for pt in (point, other))

    check()


def test_int_terms_are_the_cached_primitive_integers_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from((3, 4)), st.data())
    def check(nv, data):
        ring = PolyRing(nv)
        f = _draw_form(data, st, ring, _draw_point(data, st, nv))
        ints = f.int_terms
        assert ints is f.int_terms
        assert list(ints) == list(f.coeffs)
        assert list(ints.values()) == primitive_integers(list(f.coeffs.values()))
        assert all(type(c) is int for c in ints.values())

    check()
