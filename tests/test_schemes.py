"""Subschemes of P^n, twisted cohomology counts, curve restriction."""

import random
from fractions import Fraction
from itertools import count
from math import comb

import pytest

from syzkit.errors import (CertificateError, CodimensionError, InputError,
                           NotSaturatedError, SpecialityError)
from syzkit.fields import GF, QQ
from syzkit import groebner, linalg
from syzkit.groebner import Ideal, ideal_piece_basis
from syzkit.linalg import Matrix
from syzkit.polyring import PolyRing, multiple_rows, piece_multiples, vanish_at
from syzkit.schemes import (BUILTIN_NAMES, Polarization, SubschemeData,
                            builtin_subscheme, curve_sections, h0_ideal_twist,
                            h1_ideal_twist, parse_subscheme_file, points_ideal,
                            restrict_to_curve, restriction_kernel)


def three_points():
    z, _ = builtin_subscheme("three-points")
    return z


def test_h0_frozen_values():
    z = three_points()
    assert h0_ideal_twist(z, 2) == 3
    assert h0_ideal_twist(z, 3) == 7
    tc, _ = builtin_subscheme("twisted-cubic")
    assert h0_ideal_twist(tc, 2) == 3


def test_h1_frozen_values():
    z = three_points()
    assert h1_ideal_twist(z, 3) == 0
    coll, _ = builtin_subscheme("collinear-points")
    assert h0_ideal_twist(coll, 1) == 1
    assert h1_ideal_twist(coll, 1) == 1


def test_h1_vanishes_at_regularity():
    for name in ("three-points", "collinear-points", "one-point"):
        z, _ = builtin_subscheme(name)
        r = z.regularity()
        for k in range(max(r - 1, 0), r + 3):
            assert h1_ideal_twist(z, k) == 0


def test_chi_consistency_zero_dimensional():
    for name in ("three-points", "collinear-points", "one-point"):
        z, _ = builtin_subscheme(name)
        for k in range(0, 7):
            assert (h0_ideal_twist(z, k) - h1_ideal_twist(z, k)
                    == comb(k + 2, 2) - z.degree)


def test_h0_matches_evaluation_matrix_random_points():
    fp = GF()
    ring = PolyRing(fp, 3)
    rng = random.Random("pts")
    for trial in range(3):
        npts = rng.randrange(2, 11)
        pts = []
        seen = set()
        while len(pts) < npts:
            pt = tuple(fp(rng.randrange(1, fp.p)) for _ in range(3))
            if pt not in seen:
                seen.add(pt)
                pts.append(pt)
        z = SubschemeData(ring, points_ideal(ring, pts).gens, points=pts)
        for k in range(1, 9):
            rows = [[_mono_eval(fp, pt, e) for e in ring.monomials_of_degree(k)]
                    for pt in pts]
            ev_rank = Matrix(fp, rows).rank()
            assert h0_ideal_twist(z, k) == comb(k + 2, 2) - ev_rank


def _mono_eval(fp, pt, exps):
    acc = fp.one
    for c, e in zip(pt, exps):
        for _ in range(e):
            acc = fp.mul(acc, c)
    return acc


def test_curve_sections_frozen():
    assert curve_sections(Polarization(2, 3), 2, 1) == 9
    assert curve_sections(Polarization(2, 3), 2, 2) == 18
    assert curve_sections(Polarization(3, 2), 3, 2) == 16


def test_curve_sections_grows_linearly_with_slope_d_squared():
    pol = Polarization(2, 3)
    vals = [curve_sections(pol, 2, m) for m in range(1, 6)]
    diffs = {b - a for a, b in zip(vals, vals[1:])}
    assert diffs == {9}  # d^2


def test_curve_sections_speciality_guard():
    # P^3, d = 4: g = 33, deg O_C(H) = 64 = 2g - 2 exactly
    with pytest.raises(SpecialityError):
        curve_sections(Polarization(3, 4), 3, 1)
    with pytest.raises(InputError):
        curve_sections(Polarization(2, 3), 2, 0)


def test_polarization_genus_and_warning():
    assert Polarization(2, 1).genus == 0
    assert Polarization(2, 1).genus_warning
    assert Polarization(2, 3).genus == 1
    assert not Polarization(2, 3).genus_warning
    assert Polarization(3, 2).genus == 1
    assert Polarization(3, 2).curve_degree(2) == 16
    with pytest.raises(InputError):
        Polarization(2, 0)
    with pytest.raises(InputError):
        Polarization(4, 2)


def test_restrict_full_section_space_not_injective():
    z = three_points()
    ring = z.ring
    from syzkit.resolver import ideal_piece_basis
    v = ideal_piece_basis(z.ideal, 6)
    assert len(v) == 25
    f = ring.parse("x0^3 + x1^3 + x2^3 + x0*x1*x2")  # avoids all three points
    injective, image = restrict_to_curve(z, v, [f])
    assert image == 18  # = curve_sections(m=2)
    assert not injective  # kernel is f*(I_Z)_3, dimension 7


def test_restrict_detects_planted_kernel():
    z = three_points()
    ring = z.ring
    from syzkit.resolver import ideal_piece_basis
    f = ring.parse("x0^3 + x1^3 + x2^3 + x0*x1*x2")
    s = ideal_piece_basis(z.ideal, 3)[0]
    v = [f * s]
    injective, image = restrict_to_curve(z, v, [f])
    assert not injective and image == 0


def _plane_restriction_reference(z, v, f):
    """(injective, image_dim) of V restricted to {f = 0} on P^2 as
    V ∩ f·(I_Z)_{md-d}: f times ideal_piece_basis(z.ideal, md - d), ranked
    by Matrix over Q."""
    ring, md = z.ring, v[0].degree
    w = [f * g for g in ideal_piece_basis(z.ideal, md - f.degree)]
    rank = Matrix(QQ, [ring.to_vector(p, md) for p in v + w]).rank()
    kernel = len(v) + len(w) - rank
    return kernel == 0, len(v) - kernel


def test_restriction_matches_the_plane_formula():
    """On P^2, with V in I_Z and f off Z, restrict_to_curve's kernel
    V ∩ (f)_md is V ∩ f·(I_Z)_{md-d}.  Seeded sets of 2-12 points, each
    with a random f and a random V, a V with a planted kernel vector f*g,
    or the full space (I_Z)_md."""
    ring = PolyRing(QQ, 3)
    seen = set()
    for seed in range(36):
        rng = random.Random(f"plane-restriction:{seed}")
        z = SubschemeData.from_points(
            ring, _random_reduced_points(rng, 3, 2 + seed % 11, QQ))
        d = rng.randrange(1, 4)
        f = ring.zero(d)
        while f.is_zero() or any(f.evaluate(p) == 0 for p in z.points):
            f = sum((ring.monomial(e, QQ(rng.randrange(-3, 4)))
                     for e in ring.monomials_of_degree(d)), ring.zero(d))
        m = next(k for k in count(1) if z.ideal.piece_dim(k * d) >= 2)
        kind = ("random", "planted", "full")[seed % 3]
        md = (m + (kind == "planted" or rng.randrange(2))) * d
        basis = ideal_piece_basis(z.ideal, md)
        v = list(basis)
        while kind != "full":
            v = [sum((b.scale(QQ(rng.randrange(-5, 6))) for b in basis),
                     ring.zero(md))
                 for _ in range(rng.randrange(1, len(basis) + 1))]
            if kind == "planted":
                lower = ideal_piece_basis(z.ideal, md - d)
                g = sum((b.scale(QQ(rng.randrange(1, 6))) for b in lower),
                        ring.zero(md - d))
                v[0] = f * g
            if Matrix(QQ, [ring.to_vector(p, md) for p in v]).rank() == len(v):
                break
        got = restrict_to_curve(z, v, [f])
        assert got == _plane_restriction_reference(z, v, f), seed
        assert kind != "planted" or not got[0]
        seen.add((kind, got[0]))
    assert {("random", True), ("random", False), ("planted", False),
            ("full", False)} <= seen


def test_subscheme_rejects_codimension_one():
    ring = PolyRing(QQ, 3)
    with pytest.raises(CodimensionError) as exc:
        SubschemeData(ring, [ring.parse("x0^2 + x1*x2")])
    assert "invertible" in str(exc.value)


def test_subscheme_rejects_unsaturated_ideal():
    ring = PolyRing(QQ, 3)
    # the degree >= 2 part of (x0, x1): saturates back to (x0, x1)
    trunc = [ring.parse("x0^2"), ring.parse("x0*x1"), ring.parse("x1^2"),
             ring.parse("x0*x2"), ring.parse("x1*x2")]
    with pytest.raises(NotSaturatedError):
        SubschemeData(ring, trunc)
    # the fat point (x0, x1)^2 is primary at a projective point, hence fine
    fat = SubschemeData(ring, [ring.parse("x0^2"), ring.parse("x0*x1"),
                               ring.parse("x1^2")])
    assert fat.degree == 3


def test_subscheme_point_consistency_checks():
    ring = PolyRing(QQ, 3)
    with pytest.raises(InputError):
        SubschemeData(ring, [ring.parse("x0"), ring.parse("x1")],
                      points=[(1, 0, 0)])  # x0 does not vanish there


def test_point_set_degree_and_stabilized_hilbert_function():
    z = three_points()
    assert z.degree == 3
    assert z.codim == 2
    for k in range(2, 8):
        assert z.quotient_hf(k) == 3


def test_builtins_all_construct():
    for name in BUILTIN_NAMES:
        z, d = builtin_subscheme(name)
        assert d >= 1
        assert z.name == name
    line, d = builtin_subscheme("line-p3")
    assert (line.n, d, line.degree) == (3, 2, 1)
    tc, d = builtin_subscheme("twisted-cubic")
    assert (tc.n, d, tc.degree) == (3, 2, 3)
    empty, _ = builtin_subscheme("empty")
    assert empty.is_empty and empty.degree == 0


def test_unknown_builtin_reports_known_names():
    with pytest.raises(InputError) as exc:
        builtin_subscheme("nope")
    assert "three-points" in str(exc.value.details["known"])


def test_parse_points_file():
    text = """
# three coordinate points
ambient: 2
d: 3
points:
1 0 0
0 1 0
0, 0, 1
"""
    z, pol = parse_subscheme_file(text)
    assert z.degree == 3
    assert (pol.n, pol.d) == (2, 3)


def test_parse_ideal_file():
    text = "ambient: 3\nd: 2\nideal:\nx0\nx1\n"
    z, pol = parse_subscheme_file(text)
    assert z.codim == 2
    assert pol.curve_degree(2) == 16


def test_parse_file_errors():
    with pytest.raises(InputError):
        parse_subscheme_file("d: 3\npoints:\n1 0 0\n")  # missing ambient
    with pytest.raises(InputError):
        parse_subscheme_file("ambient: 2\npoints:\n1 0 0\n")  # missing d
    with pytest.raises(InputError):
        parse_subscheme_file("ambient: 2\nd: 3\n")  # no data
    with pytest.raises(InputError):
        parse_subscheme_file("ambient: 2\nd: 3\nwhat: 1\n")
    with pytest.raises(InputError):
        parse_subscheme_file("ambient: 2\nd: 3\npoints:\n1 0\n")
    with pytest.raises(InputError):
        parse_subscheme_file(
            "ambient: 2\nd: 3\npoints:\n1 0 0\nideal:\nx0\n")


def test_parse_rational_coordinates():
    text = "ambient: 2\nd: 3\npoints:\n1/2 1 0\n"
    z, _ = parse_subscheme_file(text)
    assert z.points == [(Fraction(1, 2), Fraction(1), Fraction(0))]


# -- point ideals against an independent oracle -------------------------------


def _intersection_oracle(ring, points):
    """Reduced Groebner basis of the iterated intersection of the point
    primes, each the 2x2 minors of its coordinate row against the variable
    row."""
    xs = ring.gens()
    n = ring.num_vars
    meet = None
    for p in points:
        cp = [ring.field(c) for c in p]
        prime = Ideal(ring, [xs[i].scale(cp[j]) - xs[j].scale(cp[i])
                             for i in range(n) for j in range(i + 1, n)])
        meet = prime if meet is None else meet.intersect(prime)
    return meet.gb


def _random_reduced_points(rng, n, size, field):
    """size projectively distinct points of P^(n-1) over the field, with
    small rational coordinates: zeros and non-integers occur, and a third
    point on the line through the first two is planted when size >= 3."""
    pts = []
    seen = set()

    def add(p):
        cp = [field(c) for c in p]
        lead = next((c for c in cp if not field.is_zero(c)), None)
        if lead is None:
            return
        key = tuple(field.div(c, lead) for c in cp)
        if key not in seen:
            seen.add(key)
            pts.append(tuple(p))

    while len(pts) < min(size, 2):
        add([Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3)))
             for _ in range(n)])
    if size >= 3:
        lam = Fraction(rng.randrange(1, 4), rng.choice((1, 2)))
        add([a + lam * b for a, b in zip(*pts[:2])])
    while len(pts) < size:
        add([Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3)))
             for _ in range(n)])
    return pts


@pytest.mark.parametrize("n,field,sizes", [
    (3, QQ, (1, 2, 3, 4, 6, 7)),
    (4, QQ, (1, 3, 5, 6)),
    (3, GF(), (1, 3, 5, 7)),
    (4, GF(), (1, 4, 6)),
], ids=["P2-QQ", "P3-QQ", "P2-GF", "P3-GF"])
def test_points_ideal_matches_intersection_oracle(n, field, sizes):
    ring = PolyRing(field, n)
    rng = random.Random(f"points-oracle:{n}:{field!r}")
    coords = set()
    for size in sizes:
        for _ in range(2):
            pts = _random_reduced_points(rng, n, size, field)
            coords.update(c for p in pts for c in p)
            got = [g.to_str() for g in points_ideal(ring, pts).gens]
            assert got == [g.to_str() for g in _intersection_oracle(ring, pts)]
    assert 0 in coords and any(c.denominator > 1 for c in coords)


def test_points_ideal_matches_oracle_on_structured_sets():
    ring = PolyRing(QQ, 3)
    for pts in ([(1, 0, 0), (0, 1, 0), (1, 1, 0)],              # collinear
                [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0),
                 (0, 0, 1)],                                      # 4 on a line
                [(0, 0, 1)],
                [(Fraction(1, 2), 0, 1), (0, Fraction(-2, 3), 1)]):
        got = [g.to_str() for g in points_ideal(ring, pts).gens]
        assert got == [g.to_str() for g in _intersection_oracle(ring, pts)]


def test_point_regularity_is_one_past_the_hilbert_function_plateau():
    cases = []
    for name in ("three-points", "collinear-points", "one-point"):
        z, _ = builtin_subscheme(name)
        cases.append((z.ideal, len(z.points)))
    rng = random.Random("points-regularity")
    # the minimal resolution in P^3 takes seconds from 6 points on
    for n, field, sizes in ((3, QQ, (2, 4, 6, 9)), (3, GF(), (3, 5, 8)),
                            (4, QQ, (2, 4, 5))):
        ring = PolyRing(field, n)
        for size in sizes:
            pts = _random_reduced_points(rng, n, size, field)
            cases.append((points_ideal(ring, pts), size))
    for ideal, npts in cases:
        plateau = next(t for t in range(npts + 1)
                       if ideal.quotient_piece_dim(t) == npts)
        assert ideal.regularity() == 1 + plateau


def test_points_ideal_certificate_rejects_a_missing_kernel_vector(monkeypatch):
    ring = PolyRing(QQ, 3)
    exact = Matrix.rank_and_kernel

    def drop_last(self):
        rank, kernel = exact(self)
        return rank, kernel[:-1]

    monkeypatch.setattr(Matrix, "rank_and_kernel", drop_last)
    with pytest.raises(CertificateError, match="evaluation rank"):
        points_ideal(ring, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.mark.parametrize("n,field", [(3, QQ), (4, QQ), (3, GF(101))],
                         ids=["P2-QQ", "P3-QQ", "P2-GF101"])
def test_points_ideal_runs_no_buchberger(monkeypatch, n, field):
    ring = PolyRing(field, n)
    rng = random.Random(f"no-buchberger:{n}:{field!r}")
    cases = [_random_reduced_points(rng, n, size, field) for size in (1, 4, 7)]
    expected = [[g.to_str() for g in _intersection_oracle(ring, pts)]
                for pts in cases]

    def forbidden(*args, **kwargs):
        raise RuntimeError("buchberger ran")

    monkeypatch.setattr(groebner, "buchberger", forbidden)
    for pts, want in zip(cases, expected):
        ideal = points_ideal(ring, pts)
        assert [g.to_str() for g in ideal.gb] == want
        assert ideal.quotient_piece_dim(len(pts)) == len(pts)
        assert ideal.hilbert_polynomial() == (len(pts),) + (0,) * (n - 1)


def test_ideal_piece_basis_builds_no_span(monkeypatch):
    z = three_points()
    tc, _ = builtin_subscheme("twisted-cubic")
    ideals = [z.ideal, tc.ideal, Ideal(z.ring, [z.ring.parse("x0^2 + x1*x2")])]
    for ideal in ideals:
        ideal.gb  # the basis itself may take a Span
    wanted = {id(ideal): [ideal.piece_dim(k) for k in range(7)]
              for ideal in ideals}

    class NoSpan:
        def __init__(self, *args):
            raise RuntimeError("a Span was built")

    monkeypatch.setattr(groebner, "Span", NoSpan)
    monkeypatch.setattr(linalg, "Span", NoSpan)
    for ideal in ideals:
        for k in range(7):
            basis = ideal_piece_basis(ideal, k)
            assert len(basis) == wanted[id(ideal)][k]
            leads = [b.leading()[0] for b in basis]
            assert len(set(leads)) == len(leads)  # triangular, so independent


def test_subscheme_certifies_point_count():
    z = three_points()
    with pytest.raises(CertificateError, match="point count"):
        SubschemeData(z.ring, z.ideal.gens, points=z.points[:2])


def test_restriction_kernel_rejects_dependent_section_basis():
    ring = PolyRing(QQ, 3)
    f = ring.parse("x0*x1")
    with pytest.raises(CertificateError, match="linearly dependent"):
        restriction_kernel([f, f.scale(Fraction(2))],
                           multiple_rows(ring, [ring.parse("x2^2")], 2))


# -- point schemes answered from their evaluation data ------------------------


@pytest.mark.parametrize("n,gens", [
    (3, ["x0^2", "x1"]),
    (3, ["x0^3", "x1"]),
    (3, ["x0^2", "x0*x1", "x1^2"]),
    (4, ["x0^2", "x0*x1", "x1^2", "x0*x2", "x1*x2", "x2^2"]),
], ids=["P2-double", "P2-triple", "P2-fat", "P3-fat"])
def test_staircase_regularity_matches_the_resolution_on_fat_points(n, gens):
    ring = PolyRing(QQ, n)
    polys = [ring.parse(g) for g in gens]
    z = SubschemeData(ring, polys)
    assert z.proj_dim == 0
    oracle = Ideal(ring, polys)
    assert z.regularity() == oracle.regularity()
    assert z.hilbert_polynomial() == oracle.hilbert_polynomial()
    assert z.hilbert_polynomial() == (z.degree,) + (0,) * (n - 1)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_membership_by_evaluation_matches_the_normal_form(field):
    ring = PolyRing(field, 3)
    rng = random.Random(f"membership:{field!r}")
    z = SubschemeData.from_points(ring, _random_reduced_points(rng, 3, 5, field))
    outside = 0
    for k in range(2, 6):
        multiples = piece_multiples(ring, z.ideal.gb, k)
        mons = ring.monomials_of_degree(k)
        for _ in range(6):
            inside = ring.zero(k)
            for g in multiples:
                inside = inside + g.scale(field(rng.randrange(-5, 6)))
            nudge = ring.monomial(rng.choice(mons), field(rng.randrange(1, 6)))
            assert vanish_at([inside], z.points) and z.ideal.contains(inside)
            for f in (nudge, inside + nudge):
                assert vanish_at([f], z.points) == z.ideal.contains(f)
                outside += not z.ideal.contains(f)
    assert outside >= 24


def test_h1_rejects_a_negative_count():
    z = three_points()
    z._degree = 1  # below the point count, so chi(I_Z(k)) comes out wrong
    with pytest.raises(CertificateError, match="negative"):
        h1_ideal_twist(z, 1)


def test_hilbert_polynomial_rejects_a_fit_below_the_regularity():
    ring = PolyRing(QQ, 3)
    # four collinear points: HF = 1, 2, 3, 4, 4, ... and reg = 4; the
    # polynomial is read off the Hilbert series past its numerator's top
    # exponent, so no fit below the regularity is possible
    ideal = points_ideal(ring, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0)])
    assert ideal.hilbert_polynomial() == (4, 0, 0)

