"""Groebner bases, syzygies, resolutions, saturation, Hilbert data."""

import random
from fractions import Fraction
from math import comb

import pytest

from syzkit import groebner
from syzkit.errors import (BudgetError, CertificateError, HomogeneityError,
                           NonMinimalError, RingMismatchError)
from syzkit.fields import GF, QQ
from syzkit.groebner import (FreeModule, Ideal, PolyMatrix, Resolution,
                             Submodule, Vec, buchberger, hilbert_numerator,
                             minimal_free_resolution, minimal_generators,
                             normal_form, poly_to_vec, reduced_basis,
                             series_coefficient, series_polynomial, syzygies,
                             vecs_from_polys)
from syzkit.linalg import CERT_PRIME
from syzkit.polyring import PolyRing, graded_piece_dim, integer_terms


def ring3():
    return PolyRing(3)


def ring4():
    return PolyRing(4)


def twisted_cubic(ring):
    return [ring.parse("x0*x2 - x1^2"), ring.parse("x0*x3 - x1*x2"),
            ring.parse("x1*x3 - x2^2")]


def test_buchberger_principal_ideal():
    ring = ring3()
    assert Ideal(ring, [ring.parse("x0")]).gb == [ring.parse("x0")]


def test_buchberger_twisted_cubic_already_a_basis():
    ring = ring4()
    gb = Ideal(ring, twisted_cubic(ring)).gb
    assert len(gb) == 3
    assert all(g.degree == 2 for g in gb)


def test_buchberger_linear_elimination():
    ring = ring3()
    x, y, _ = ring.gens()
    gb = Ideal(ring, [x + y, y]).gb
    assert sorted(g.to_str() for g in gb) == ["x0", "x1"]


def test_reduced_basis_unique_on_recomputation():
    ring = ring3()
    gens = [ring.parse("x0^2 - x1*x2"), ring.parse("x0*x1"), ring.parse("x1^2")]
    a = Ideal(ring, gens).gb
    b = Ideal(ring, list(reversed(gens))).gb
    assert [g.to_str() for g in a] == [g.to_str() for g in b]


def s_vector(f, g):
    fc, fe, fv = f.lead()
    gc, ge, gv = g.lead()
    if fc != gc:
        return None
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    uf = tuple(a - b for a, b in zip(lcm, fe))
    ug = tuple(a - b for a, b in zip(lcm, ge))
    return f.mul_monomial(uf, 1 / fv) - g.mul_monomial(ug, 1 / gv)


def spair_postcondition(gb):
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = s_vector(gb[i], gb[j])
            if s is None:
                continue
            assert normal_form(s, gb).is_zero()


def test_spair_postcondition_on_assorted_ideals():
    ring = ring3()
    cases = [
        twisted_cubic(ring4()),
        [ring.parse("x0*x1"), ring.parse("x0*x2"), ring.parse("x1*x2")],
        [ring.parse("x0^2 + x1^2"), ring.parse("x0*x1 + x2^2")],
        [ring.parse("x0^3 - x1^2*x2"), ring.parse("x1^3 - x0*x2^2")],
    ]
    for gens in cases:
        _, vecs = vecs_from_polys(gens[0].ring, gens)
        spair_postcondition(buchberger(vecs))


def test_spair_postcondition_random_monomial_modules():
    rng = random.Random("spairs")
    ring = ring3()
    free = FreeModule(ring, (0, 0))
    for _ in range(10):
        vecs = []
        for _ in range(4):
            comp = rng.randrange(2)
            d = rng.randrange(1, 4)
            mono = rng.choice(ring.monomials_of_degree(d))
            terms = {(comp, mono): QQ(rng.randrange(1, 5))}
            d2 = rng.randrange(1, 4)
            mono2 = rng.choice(ring.monomials_of_degree(d2))
            if d2 == d:
                terms[(comp, mono2)] = QQ(rng.randrange(1, 5))
            vecs.append(Vec(free, {k: v for k, v in terms.items()}, degree=None))
        spair_postcondition(buchberger(vecs))


def test_koszul_syzygy_of_two_variables():
    ring = ring3()
    x, y, _ = ring.gens()
    _, vecs = vecs_from_polys(ring, [x, y])
    syz = syzygies(vecs)
    assert len(syz) == 1
    s = syz[0]
    assert s.degree == 2
    # the Koszul relation (y, -x) up to sign
    comps = {c: s.component(c).to_str() for c, _ in s.terms}
    assert comps in ({0: "x1", 1: "-x0"}, {0: "-x1", 1: "x0"})


def test_twisted_cubic_hilbert_burch():
    ring = ring4()
    gens = twisted_cubic(ring)
    _, vecs = vecs_from_polys(ring, gens)
    syz = minimal_generators(syzygies(vecs))
    assert len(syz) == 2
    assert all(s.degree == 3 for s in syz)
    res = Ideal(ring, gens).resolution()
    assert res.betti() == {(0, 2): 3, (1, 3): 2}
    assert res.length == 1


def test_syzygies_of_free_module_vanish():
    ring = ring3()
    _, vecs = vecs_from_polys(ring, [ring.parse("x0")])
    assert syzygies(vecs) == []


def test_hilbert_function_oracles():
    ring = ring3()
    x, y, _ = ring.gens()
    line = Ideal(ring, [x, y])
    assert line.quotient_piece_dim(5) == 1
    pts = Ideal(ring, [ring.parse("x0*x1"), ring.parse("x0*x2"),
                       ring.parse("x1*x2")])
    for k in range(1, 7):
        assert pts.quotient_piece_dim(k) == 3
    tc = Ideal(ring4(), twisted_cubic(ring4()))
    for k in range(1, 6):
        assert tc.quotient_piece_dim(k) == 3 * k + 1


def test_staircase_count_equals_evaluation_rank():
    cases = [
        (ring3(), [ring3().parse("x0*x1"), ring3().parse("x0*x2"),
                   ring3().parse("x1*x2")]),
        (ring4(), twisted_cubic(ring4())),
        (ring3(), [ring3().parse("x0"), ring3().parse("x1")]),
    ]
    for ring, gens in cases:
        ideal = Ideal(ring, gens)
        n = ring.num_vars - 1
        for k in range(9):
            assert (ideal.quotient_piece_dim(k)
                    == comb(k + n, n) - graded_piece_dim(ring, gens, k))


def test_saturation_corrected_oracle():
    # (x^2, xy) in three variables has its embedded component at a point
    # of P^2, not at the irrelevant ideal, so it is already saturated
    ring = ring3()
    i3 = Ideal(ring, [ring.parse("x0^2"), ring.parse("x0*x1")])
    assert i3.saturate().equals(i3)
    assert i3.is_saturated()
    # in two variables the same generators saturate to (x)
    ring2 = PolyRing(2)
    i2 = Ideal(ring2, [ring2.parse("x0^2"), ring2.parse("x0*x1")])
    assert i2.saturate().equals(Ideal(ring2, [ring2.parse("x0")]))
    assert not i2.is_saturated()


def test_saturation_fixes_saturated_ideals():
    ring = ring3()
    pts = Ideal(ring, [ring.parse("x0*x1"), ring.parse("x0*x2"),
                       ring.parse("x1*x2")])
    assert pts.saturate().equals(pts)


def test_saturation_of_irrelevant_ideal_is_unit():
    ring = ring3()
    irr = Ideal(ring, list(ring.gens()))
    sat = irr.saturate()
    assert sat.is_unit()
    assert irr.is_projectively_empty()


def test_saturation_that_never_stabilizes_raises_budget_error(monkeypatch):
    ring = ring3()
    ideal = Ideal(ring, [ring.parse("x0^2")])
    monkeypatch.setattr(Ideal, "quotient", lambda self, polys: self)
    monkeypatch.setattr(Ideal, "equals", lambda self, other: False)
    with pytest.raises(BudgetError, match="stabilize"):
        ideal.saturate()


def test_saturation_idempotent_and_extensive_20_monomial_ideals():
    rng = random.Random("saturate")
    ring = ring3()
    for _ in range(20):
        gens = []
        for _ in range(rng.randrange(2, 5)):
            d = rng.randrange(1, 4)
            gens.append(ring.monomial(rng.choice(ring.monomials_of_degree(d))))
        ideal = Ideal(ring, gens)
        sat = ideal.saturate()
        # extensive: I subseteq sat(I); idempotent: sat(sat(I)) = sat(I)
        assert all(sat.contains(g) for g in ideal.gens)
        assert sat.saturate().equals(sat)
        assert sat.is_saturated()


def test_regularity_oracles():
    ring = ring3()
    assert Ideal(ring, [ring.parse("x0"), ring.parse("x1")]).regularity() == 1
    assert Ideal(ring4(), twisted_cubic(ring4())).regularity() == 2
    pts = Ideal(ring, [ring.parse("x0*x1"), ring.parse("x0*x2"),
                       ring.parse("x1*x2")])
    assert pts.regularity() == 2


def test_regularity_requires_minimal_resolution():
    ring = ring3()
    one = ring.one()
    from syzkit.groebner import Resolution
    amb = FreeModule(ring, (0,))
    x_vec = Vec(amb, {(0, (1, 0, 0)): QQ(1)}, degree=1)
    # redundant generators x, x with the unit syzygy (1, -1)
    maps = [PolyMatrix.from_columns(amb, [x_vec, x_vec]),
            PolyMatrix(ring, (1, 1), (1,), [[one], [one.scale(QQ(-1))]])]
    res = Resolution(amb, maps)
    assert not res.is_minimal()
    with pytest.raises(NonMinimalError):
        res.regularity()


def test_resolution_complex_and_length_bound():
    for ring, gens in [
        (ring3(), [ring3().parse("x0*x1"), ring3().parse("x0*x2"),
                   ring3().parse("x1*x2")]),
        (ring4(), twisted_cubic(ring4())),
    ]:
        res = Ideal(ring, gens).resolution()
        assert res.length <= ring.num_vars
        for a, b in zip(res.maps, res.maps[1:]):
            assert a.compose(b).is_zero()
        assert res.is_minimal()


def betti_table(res):
    """Macaulay-style text table of a resolution's Betti numbers: columns
    are homological degrees, rows are j - i."""
    b = res.betti()
    imax = max(i for i, _ in b)
    rows = sorted({d - i for (i, d) in b})
    cols = list(range(imax + 1))
    totals = [sum(v for (i, d), v in b.items() if i == c) for c in cols]
    grid = [["total:"] + [str(t) for t in totals]]
    for r in rows:
        line = [f"{r}:"]
        for c in cols:
            v = b.get((c, c + r), 0)
            line.append(str(v) if v else ".")
        grid.append(line)
    head = [""] + [str(c) for c in cols]
    widths = [max(len(row[k]) for row in [head] + grid) for k in range(len(head))]
    fmt = lambda row: " ".join(s.rjust(w) for s, w in zip(row, widths)).rstrip()
    return "\n".join([fmt(head)] + [fmt(row) for row in grid])


def test_betti_table_golden_twisted_cubic():
    res = Ideal(ring4(), twisted_cubic(ring4())).resolution()
    assert betti_table(res) == "       0 1\ntotal: 3 2\n    2: 3 2"


def test_betti_numbers_order_independent():
    for gens_of in [
        lambda r: [r.parse("x0*x1"), r.parse("x0*x2"), r.parse("x1*x2")],
        lambda r: [r.parse("x0^2 - x1*x2"), r.parse("x0*x1")],
    ]:
        grev = PolyRing(3)
        lex = PolyRing(3, order="lex")
        assert (Ideal(grev, gens_of(grev)).resolution().betti()
                == Ideal(lex, gens_of(lex)).resolution().betti())
    grev4, lex4 = ring4(), PolyRing(4, order="lex")
    assert (Ideal(grev4, twisted_cubic(grev4)).resolution().betti()
            == Ideal(lex4, twisted_cubic(lex4)).resolution().betti())


def mul_poly(vec, poly):
    """The module element vec times the polynomial poly."""
    out = Vec(vec.free, {}, vec.degree + poly.degree)
    for e, c in poly.coeffs.items():
        out = out + vec.mul_monomial(e, c)
    return out


def test_submodule_membership_and_piece_dims():
    ring = ring3()
    x, y, z = ring.gens()
    free, vecs = vecs_from_polys(ring, [x * y, x * z])
    sub = Submodule(free, vecs)
    assert sub.contains(mul_poly(vecs[0], z))
    assert not sub.contains(mul_poly(vecs[0], z) + Vec(free, {(0, (0, 3, 0)): QQ(1)}, degree=3))
    # degree-3 piece of (xy, xz): xy*{x,y,z} + xz*{x,y,z}, 5 independent
    assert sub.piece_dim(3) == 5


def test_ideal_quotient_and_intersection():
    ring = ring3()
    x, y, z = ring.gens()
    prod = Ideal(ring, [x * y, x * z])
    # (xy, xz) : x = (y, z)
    q = prod.quotient([x])
    assert q.equals(Ideal(ring, [y, z]))
    a = Ideal(ring, [x])
    b = Ideal(ring, [y])
    meet = a.intersect(b)
    assert meet.equals(Ideal(ring, [x * y]))


def test_hilbert_polynomial_of_twisted_cubic():
    tc = Ideal(ring4(), twisted_cubic(ring4()))
    # binomial basis: chi(k) = -2*C(k,0) + 3*C(k+1,1) = 3k + 1
    hp = tc.hilbert_polynomial()
    assert tuple(hp) == (-2, 3, 0, 0)
    for k in range(3, 8):
        assert sum(c * comb(k + j, j) for j, c in enumerate(hp)) == 3 * k + 1


def test_reduced_basis_is_monic_and_tail_reduced():
    ring = ring3()
    gens = [ring.parse("2*x0^2 + x1^2"), ring.parse("3*x0*x1")]
    _, vecs = vecs_from_polys(ring, gens)
    rb = reduced_basis(buchberger(vecs))
    for v in rb:
        _, _, lc = v.lead()
        assert lc == 1
        for i, g in enumerate(rb):
            if g is v:
                continue
            gc, ge, _ = g.lead()
            for (c, e) in v.terms:
                if c == gc and (c, e) != v.lead()[:2]:
                    assert any(a < b for a, b in zip(e, ge))


def test_minimal_free_resolution_of_module():
    ring = ring3()
    x, y, _ = ring.gens()
    free, vecs = vecs_from_polys(ring, [x, y])
    res = minimal_free_resolution(free, vecs)
    assert res.betti() == {(0, 1): 2, (1, 2): 1}


# -- integer reduction, the sympy oracle and the mod-p certificates ---------


def _random_gens(rng, ring, count, degrees, coeff):
    """count homogeneous polynomials with two to four random terms each
    (fewer where the degree has fewer monomials)."""
    out = []
    while len(out) < count:
        d = rng.choice(degrees)
        pool = ring.monomials_of_degree(d)
        mons = rng.sample(pool, min(len(pool), rng.randrange(2, 5)))
        poly = ring.from_terms({m: ring.field(coeff(rng)) for m in mons},
                               degree=d)
        if not poly.is_zero():
            out.append(poly)
    return out


def _rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10),
                    rng.randrange(1, 10))


def _twelve_digits(rng):
    return rng.choice([-1, 1]) * rng.randrange(10 ** 11, 10 ** 12)


def _sympy_cases(sympy, field):
    """The 32 seeded ideals of the sympy oracles, in 3 and 4 variables,
    half with rational and half with 12-digit coefficients: (ring, sympy
    symbols, generators)."""
    rng = random.Random(f"sympy-groebner:{field!r}")
    for n, degrees in ((3, (1, 2, 3)), (4, (1, 2))):
        ring = PolyRing(n)
        xs = sympy.symbols(f"x0:{n}")
        for k in range(16):
            coeff = _rational if k % 2 else _twelve_digits
            yield ring, xs, _random_gens(rng, ring, rng.randrange(2, 4),
                                         degrees, coeff)


def _sympy_expr(sympy, xs, terms):
    return sum(sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
               * sympy.prod([x ** a for x, a in zip(xs, e)])
               for e, c in terms.items())


@pytest.mark.parametrize("field", [QQ], ids=["QQ"])
def test_reduced_basis_matches_sympy_groebner(field):
    """On 32 seeded ideals the monic reduced grevlex bases agree with
    sympy's."""
    sympy = pytest.importorskip("sympy")
    cases = 0
    for ring, xs, gens in _sympy_cases(sympy, field):
        exprs = [_sympy_expr(sympy, xs, g.coeffs) for g in gens]
        oracle = sympy.groebner(exprs, *xs, order="grevlex")
        theirs = set()
        for g in oracle.exprs:
            terms = {e: Fraction(int(c.p), int(c.q))
                     for e, c in sympy.Poly(g, *xs).terms()}
            lead = terms[max(terms, key=ring.key)]
            theirs.add(frozenset((e, c / lead) for e, c in terms.items()))
        gb = Ideal(ring, gens).gb
        assert all(g.leading()[1] == 1 for g in gb)
        assert {frozenset(g.coeffs.items()) for g in gb} == theirs, cases
        cases += 1
    assert cases == 32


def test_mod_p_leads_match_sympy_groebner():
    """The Groebner engine mod CERT_PRIME (the p branches of _normalize,
    _reduce_full, _interreduce and _groebner): on the 32 seeded ideals of
    the sympy oracle, the minimal leads mod p of the primitive integer
    generators are the leading monomials of sympy's reduced grevlex basis
    of the same integer generators over GF(CERT_PRIME)."""
    sympy = pytest.importorskip("sympy")
    cases = 0
    for ring, xs, gens in _sympy_cases(sympy, QQ):
        exprs = [_sympy_expr(sympy, xs, g.int_terms) for g in gens]
        oracle = sympy.groebner(exprs, *xs, order="grevlex",
                                modulus=CERT_PRIME)
        theirs = {max(sympy.Poly(g, *xs).monoms(), key=ring.key)
                  for g in oracle.exprs}
        leads = Ideal(ring, gens)._mod_p_leads()
        ours = {e for e in leads if not any(
            f != e and all(a <= b for a, b in zip(f, e)) for f in leads)}
        assert ours == theirs, cases
        cases += 1
    assert cases == 32


def _mod_p_terms(vec, p):
    """The primitive integer terms of vec mod p, as the engine mod p reads
    a generator (Ideal._mod_p_leads)."""
    return {t: c % p for t, c in integer_terms(vec.terms).items() if c % p}


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_reduction_by_a_reducer_with_a_non_unit_lead(field):
    """x0^2 + x1^2 modulo 3*x0 + 2*x1: x0 = -2/3*x1 leaves 13/9*x1^2.  Over
    Q the pseudo-division scales the remainder by 3 twice, to 13*x1^2; the
    engine mod p makes the reducer monic and leaves 13/9 mod p."""
    ring = PolyRing(3)
    free, (f, g) = vecs_from_polys(ring, [ring.parse("x0^2 + x1^2"),
                                          ring.parse("3*x0 + 2*x1")])
    if field != QQ:
        p, desc = field.p, ring.descending_key
        reducers = groebner._Reducers(p)
        terms = _mod_p_terms(g, p)
        reducers.add(terms, groebner._normalize(terms, p, desc))
        assert groebner._reduce_full(_mod_p_terms(f, p), reducers, desc) == {
            (0, (0, 2, 0)): field(13, 9)}
        return
    rem = normal_form(f, [g])
    assert set(rem.terms) == {(0, (0, 2, 0))}
    assert rem.terms[(0, (0, 2, 0))] == 13
    ideal = Ideal(ring, [ring.parse("3*x0 + 2*x1")])
    assert ideal.contains(ring.parse("x0^2 + x1^2")
                          - ring.parse("x1^2").scale(field(13, 9)))
    assert not ideal.contains(ring.parse("x0^2 + x1^2"))


P = CERT_PRIME


def _count_q_bases(monkeypatch):
    """Count Groebner bases computed over Q."""
    calls = []
    real = groebner.buchberger

    def counting(vecs, **kwargs):
        calls.append(len(vecs))
        return real(vecs, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    return calls


def test_emptiness_that_only_q_sees_falls_back_once(monkeypatch):
    # x1 and x1 + P*x2 agree mod P: the leads mod P are x0 and x1 only
    ring = ring3()
    ideal = Ideal(ring, [ring.parse("x0"), ring.parse(f"x1 + {P}*x2"),
                         ring.parse("x1")])
    calls = _count_q_bases(monkeypatch)
    assert ideal.is_projectively_empty()
    assert len(calls) == 1


def test_generic_empty_ideal_needs_no_q_basis(monkeypatch):
    ring = ring3()
    rng = random.Random("generic-empty")
    ideal = Ideal(ring, _random_gens(rng, ring, 3, (2,), _twelve_digits))
    calls = _count_q_bases(monkeypatch)
    assert ideal.is_projectively_empty()
    assert calls == []
    assert ideal.saturate().is_unit()


def test_nonempty_ideals_are_not_empty(monkeypatch):
    calls = _count_q_bases(monkeypatch)
    tc = Ideal(ring4(), twisted_cubic(ring4()))
    assert not tc.is_projectively_empty()
    ring = ring3()
    pts = Ideal(ring, [ring.parse("x0*x1"), ring.parse("x0*x2"),
                       ring.parse("x1*x2")])
    assert not pts.is_projectively_empty()
    assert len(calls) == 2


def test_dimension_bound_survives_leads_that_vanish_mod_p(monkeypatch):
    ring = ring4()
    cases = [
        # mod P the forms become x1 twice (dimension 3); over Q (x0, x1)
        (["x1", f"x1 + {P}*x0"], 2),
        # the leads x0^2 and x0*x1 carry the coefficient P
        ([f"{P}*x0^2 + x1^2 + x2*x3", f"{P}*x0*x1 + x2^2 - x3^2"], 2),
        # a common factor: dimension 3, not a complete intersection
        ([f"{P}*x0^2 + x0*x1", f"{P}*x0*x2 + x1*x2"], 3),
    ]
    for gens, dim in cases:
        forms = [ring.parse(g) for g in gens]
        assert Ideal(ring, forms).krull_dim_quotient() == dim
        for bound in range(5):
            assert Ideal(ring, forms).krull_dim_at_most(bound) == (dim <= bound)
    calls = _count_q_bases(monkeypatch)
    generic = Ideal(ring, [ring.parse("x0^2 + x1*x2 - x3^2"),
                           ring.parse("x1^2 - 3*x0*x3 + x2^2")])
    assert generic.krull_dim_at_most(2)
    assert calls == []


def test_typed_errors_replace_the_invariant_checks(monkeypatch):
    ring = ring3()
    x0 = ring.parse("x0")
    a = poly_to_vec(FreeModule(ring, (0,)), 0, x0)
    b = poly_to_vec(FreeModule(ring, (1,)), 0, x0)
    with pytest.raises(RingMismatchError):
        a + b
    m = PolyMatrix(ring, (0,), (1,), [[x0]])
    with pytest.raises(HomogeneityError):
        m.compose(m)
    with pytest.raises(CertificateError, match="compose to zero"):
        Resolution(FreeModule(ring, (0,)),
                   [m, PolyMatrix(ring, (1,), (2,), [[x0]])])
    free, vecs = vecs_from_polys(ring, [x0, ring.parse("x1")])
    with pytest.raises(CertificateError, match="syzygy-theorem"):
        minimal_free_resolution(free, vecs, max_length=0)
    monkeypatch.setattr(Resolution, "length", property(lambda self: 99))
    with pytest.raises(CertificateError, match="longer"):
        minimal_free_resolution(free, vecs)
    monkeypatch.setattr(groebner, "_reduce_full", lambda *args: {})
    with pytest.raises(CertificateError, match="survive"):
        reduced_basis(vecs)


# -- the Hilbert series of monomial ideals and modules --------------------------


def _staircase_count(leads, ring, d):
    """Brute force: the degree-d monomials no lead divides."""
    return sum(not any(all(a <= b for a, b in zip(le, m)) for le in leads)
               for m in ring.monomials_of_degree(d))


def test_series_coefficients_match_staircase_counts_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from((3, 4)), st.data())
    def check(nvars, data):
        ring = PolyRing(nvars)
        leads = data.draw(st.lists(
            st.tuples(*[st.integers(0, 3)] * nvars).filter(any),
            max_size=7))
        num = hilbert_numerator(leads)
        gens = [ring.monomial(e) for e in leads]
        for d in range(9):
            count = _staircase_count(leads, ring, d)
            assert series_coefficient(num, nvars, d) == count
            assert (ring.piece_dim(d) - count
                    == graded_piece_dim(ring, gens, d))
        # past the numerator's top exponent the polynomial is the coefficient
        hp = series_polynomial(num, nvars)
        top = max(num, default=0)
        for k in range(max(top, 0), max(top, 0) + 3):
            assert (sum(a * comb(k + j, j) for j, a in enumerate(hp))
                    == series_coefficient(num, nvars, k))

    check()


def test_shifted_monomial_module_series_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from((3, 4)), st.data())
    def check(nvars, data):
        ring = PolyRing(nvars)
        shifts = data.draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
        free = FreeModule(ring, shifts)
        # each component gets its own monomials, possibly none
        per_comp = [data.draw(st.lists(
            st.tuples(*[st.integers(0, 2)] * nvars), max_size=4))
            for _ in shifts]
        vecs = [Vec(free, {(c, e): QQ(1)})
                for c, leads in enumerate(per_comp) for e in leads]
        sub = Submodule(free, vecs)
        for d in range(-3, 7):
            quot = sum(_staircase_count(leads, ring, d - s)
                       for leads, s in zip(per_comp, shifts))
            assert sub.quotient_piece_dim(d) == quot
            assert sub.piece_dim(d) == sum(
                graded_piece_dim(ring, [ring.monomial(e) for e in leads], d - s)
                for leads, s in zip(per_comp, shifts) if d >= s)
        # a negative shift makes the numerator a Laurent polynomial; past
        # its top exponent the Hilbert polynomial still counts the quotient
        hp = sub.hilbert_polynomial()
        k0 = max(0, max(sub.numerator(), default=0))
        for k in range(k0, k0 + 3):
            assert sum(a * comb(k + j, j) for j, a in enumerate(hp)) == sum(
                _staircase_count(leads, ring, k - s)
                for leads, s in zip(per_comp, shifts))

    check()


def test_series_numerator_of_known_ideals():
    # the unit ideal, no generators, and (x0^2, x0*x1) = x0 * (x0, x1)
    assert hilbert_numerator([(0, 0, 0)]) == {}
    assert hilbert_numerator([]) == {0: 1}
    assert hilbert_numerator([(2, 0, 0), (1, 1, 0)]) == {0: 1, 2: -2, 3: 1}


def _mod_p_basis(vecs, p):
    """The engine's Groebner basis mod p of the vecs, as integer terms."""
    return groebner._groebner(vecs[0].free, [_mod_p_terms(v, p) for v in vecs],
                              p)


def _mod_p_spair_postcondition(basis, p, desc):
    """Every S-pair of a basis mod p (monic integer terms) reduces to 0."""
    leads = [groebner._lead(t, desc) for t in basis]
    reducers = groebner._Reducers(p)
    for terms, lead in zip(basis, leads):
        reducers.add(terms, lead)
    for i, (ci, ei) in enumerate(leads):
        for j, (cj, ej) in enumerate(leads[:i]):
            if ci != cj:
                continue
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            work = {}
            for terms, e0, sign in ((basis[i], ei, 1), (basis[j], ej, -1)):
                u = tuple(a - b for a, b in zip(lcm, e0))
                for (c, e), v in terms.items():
                    t = (c, tuple(a + b for a, b in zip(e, u)))
                    work[t] = (work.get(t, 0) + sign * v) % p
            work = {t: v for t, v in work.items() if v}
            assert not groebner._reduce_full(work, reducers, desc)


def _minimal_leads(basis, desc):
    leads = {groebner._lead(t, desc) for t in basis}
    return {(c, e) for c, e in leads if not any(
        (d, f) != (c, e) and d == c and all(a <= b for a, b in zip(f, e))
        for d, f in leads)}


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_groebner_postconditions_property(field):
    """Every S-pair of a buchberger basis reduces to 0, and the reduced
    basis of an ideal does not change when its generators are permuted or
    scaled by nonzero constants.  Over GF(101) the same for the engine mod
    p on the generators' integer terms: its S-pairs reduce to 0 mod p, and
    its minimal leads do not change."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    nonzero = st.builds(lambda s, a, b: field(s * a, b), st.sampled_from(
        (-1, 1)), st.integers(1, 9), st.integers(1, 9))

    @hyp.settings(max_examples=30, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from(((3, (1, 2, 3)), (4, (1, 2)))), st.data())
    def check(shape, data):
        n, degrees = shape
        ring = PolyRing(n)
        gens = []
        for _ in range(data.draw(st.integers(2, 3))):
            d = data.draw(st.sampled_from(degrees))
            mons = data.draw(st.lists(st.sampled_from(
                ring.monomials_of_degree(d)), min_size=1, max_size=4,
                unique=True))
            gens.append(ring.from_terms(
                {m: data.draw(nonzero) for m in mons}, degree=d))
        _, vecs = vecs_from_polys(ring, gens)
        order = data.draw(st.permutations(range(len(gens))))
        moved = [gens[i].scale(data.draw(nonzero)) for i in order]
        if field != QQ:
            desc = ring.descending_key
            basis = _mod_p_basis(vecs, field.p)
            _mod_p_spair_postcondition(basis, field.p, desc)
            other = _mod_p_basis(vecs_from_polys(ring, moved)[1], field.p)
            assert _minimal_leads(other, desc) == _minimal_leads(basis, desc)
            return
        spair_postcondition(buchberger(vecs))
        assert Ideal(ring, moved).gb == Ideal(ring, gens).gb

    check()
