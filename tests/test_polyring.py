"""Graded polynomial arithmetic, monomial orders, piece matrices."""

import random
from math import comb

import pytest

import syzkit.polyring as polyring
from syzkit.errors import (CertificateError, HomogeneityError, ParseError,
                           RingMismatchError)
from syzkit.fields import GF, QQ
from syzkit.polyring import (GradedPoly, PolyRing, graded_piece_dim,
                             grevlex_key, piece_multiples, span_dim)


def test_piece_dimension_binomial():
    for nv in range(2, 6):  # P^1 .. P^4
        ring = PolyRing(QQ, nv)
        for d in range(13):
            mons = ring.monomials_of_degree(d)
            assert len(mons) == comb(d + nv - 1, nv - 1)
            assert len(set(mons)) == len(mons)
            keys = [grevlex_key(e) for e in mons] if ring.order == "grevlex" else None
            assert keys == sorted(keys, reverse=True)


def test_order_refines_total_degree():
    ring = PolyRing(QQ, 3)
    assert grevlex_key((0, 0, 2)) < grevlex_key((3, 0, 0))


def test_multiply_basics():
    ring = PolyRing(QQ, 3)
    x, y, z = ring.gens()
    xy = x * y
    assert xy.degree == 2
    assert xy.coeffs == {(1, 1, 0): QQ(1)}
    assert (x + y) * (x - y) == x * x - y * y


def test_multiply_against_evaluation_homomorphism():
    p = 32003
    fp = GF(p)
    ring = PolyRing(fp, 3)
    rng = random.Random("eval-oracle")

    def rand_poly(d):
        return ring.from_terms(
            {m: fp(rng.randrange(p)) for m in ring.monomials_of_degree(d)}, d)

    f, g = rand_poly(2), rand_poly(3)
    fg = f * g
    for _ in range(50):
        pt = tuple(fp(rng.randrange(p)) for _ in range(3))
        assert fg.evaluate(pt) == fp.mul(f.evaluate(pt), g.evaluate(pt))


def test_graded_piece_matrix_linear_ideal():
    ring = PolyRing(QQ, 3)
    x, y, _ = ring.gens()
    assert len(piece_multiples(ring, [x, y], 1)) == 2
    assert graded_piece_dim(ring, [x, y], 1) == 2
    # degree 2: everything except z^2
    assert graded_piece_dim(ring, [x, y], 2) == 5


def test_graded_piece_matrix_three_points():
    ring = PolyRing(QQ, 3)
    gens = [ring.parse("x0*x1"), ring.parse("x0*x2"), ring.parse("x1*x2")]
    assert graded_piece_dim(ring, gens, 2) == 3


def test_graded_piece_rank_monotone_in_generators():
    ring = PolyRing(QQ, 3)
    x, y, z = ring.gens()
    gens = []
    last = 0
    for g in (x * x, x * y, y * y, z * z):
        gens.append(g)
        cur = graded_piece_dim(ring, gens, 3)
        assert cur >= last
        last = cur


def test_evaluate_examples():
    ring = PolyRing(QQ, 3)
    x, y, z = ring.gens()
    assert x.evaluate((QQ(1), QQ(0), QQ(0))) == 1
    assert (x * y).evaluate((QQ(1), QQ(1), QQ(1))) == 1
    assert (x * x + y * z).evaluate((QQ(0), QQ(1), QQ(1))) == 1


def test_homogeneity_enforced():
    ring = PolyRing(QQ, 3)
    x, y, _ = ring.gens()
    with pytest.raises(HomogeneityError):
        x + x * y
    # zero polynomials carry their degree so sums stay graded
    zero2 = x.scale(QQ.zero).mul_monomial((0, 1, 0))
    assert zero2.is_zero()
    assert (zero2 + x * y).degree == 2


def test_no_zero_coefficients_stored():
    ring = PolyRing(QQ, 3)
    x, y, _ = ring.gens()
    diff = (x + y) - (x + y)
    assert diff.coeffs == {}
    cancel = (x + y) * (x - y) - x * x + y * y
    assert cancel.is_zero()


def test_parser_grammar():
    ring = PolyRing(QQ, 3)
    f = ring.parse("x0^2*x1 - 3*x2^3")
    assert f.degree == 3
    assert f.coeffs[(2, 1, 0)] == 1
    assert f.coeffs[(0, 0, 3)] == -3
    assert ring.parse("2*x1") == ring.gens()[1].scale(QQ(2))
    with pytest.raises(ParseError):
        ring.parse("x9")
    with pytest.raises(HomogeneityError):
        ring.parse("x0 + x1*x2")


def test_ring_mismatch_rejected():
    r1, r2 = PolyRing(QQ, 3), PolyRing(QQ, 4)
    with pytest.raises(RingMismatchError):
        r1.gens()[0] * r2.gens()[0]


def test_span_dim_absorbs_dependence():
    ring = PolyRing(QQ, 3)
    x, y, _ = ring.gens()
    assert span_dim(ring, [x, y, x + y], 1) == 2


def test_lex_order_available():
    ring = PolyRing(QQ, 3, order="lex")
    mons = ring.monomials_of_degree(2)
    assert mons[0] == (2, 0, 0)
    with pytest.raises(ParseError):
        PolyRing(QQ, 3, order="weird")


def test_monomial_count_is_checked_against_the_piece_dimension(monkeypatch):
    short = list(polyring._compositions(2, 3))[1:]
    monkeypatch.setattr(polyring, "_compositions", lambda d, n: short)
    ring = PolyRing(QQ, 3)
    with pytest.raises(CertificateError, match="monomial count") as exc:
        ring.monomials_of_degree(2)
    assert exc.value.details == {"degree": 2, "count": 5}
