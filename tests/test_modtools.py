"""Module presentations: torsion, local freeness, stability, filtrations."""

from fractions import Fraction

import pytest

from syzkit.fields import QQ
from syzkit.groebner import FreeModule, Ideal, Vec, vecs_from_polys
from syzkit.modtools import (GradedModulePresentation, certify_locally_free,
                             dual_generators, filtration_report, hoppe_check,
                             kernel_of_matrix, poly_det, torsion_split)
from syzkit.polyring import PolyRing


def ring3():
    return PolyRing(QQ, 3)


def rel(free, terms, degree=None):
    return Vec(free, {k: QQ(v) for k, v in terms.items()}, degree=degree)


def x_exp(i, e=1, n=3):
    return tuple(e if j == i else 0 for j in range(n))


def present_r_mod_x(ring, power=1):
    free = FreeModule(ring, (0,))
    return GradedModulePresentation(
        ring, (0,), [rel(free, {(0, x_exp(0, power)): 1}, degree=power)])


def test_torsion_split_direct_sum():
    ring = ring3()
    # M = R/(x) + R: generators in degrees 0, 0; single relation x*e0
    free = FreeModule(ring, (0, 0))
    m = GradedModulePresentation(ring, (0, 0),
                                 [rel(free, {(0, x_exp(0)): 1}, degree=1)])
    torsion, quotient = torsion_split(m)
    assert torsion.hilbert_polynomial() == present_r_mod_x(ring).hilbert_polynomial()
    assert quotient.generic_rank() == 1
    # re-split of the torsion-free part is torsion-free
    t2, _ = torsion_split(quotient)
    assert t2.is_zero_module()


def test_torsion_split_of_ideal_is_zero():
    ring = ring3()
    free, vecs = vecs_from_polys(ring, [ring.parse("x0*x1"),
                                        ring.parse("x0*x2"),
                                        ring.parse("x1*x2")])
    m = GradedModulePresentation.of_submodule(free, vecs)
    torsion, quotient = torsion_split(m)
    assert torsion.is_zero_module()
    assert quotient.generic_rank() == 1


def test_torsion_split_nonreduced():
    ring = ring3()
    # M = R/(x^2) + R(-1)
    free = FreeModule(ring, (0, 1))
    m = GradedModulePresentation(ring, (0, 1),
                                 [rel(free, {(0, x_exp(0, 2)): 1}, degree=2)])
    torsion, quotient = torsion_split(m)
    assert torsion.hilbert_polynomial() == present_r_mod_x(ring, 2).hilbert_polynomial()
    assert quotient.generic_rank() == 1
    # R/(x^2) in 3 vars: monomials not divisible by x^2, comb(k+2,2)-comb(k,2)
    for k in range(2, 6):
        assert torsion.piece_dim(k) == 2 * k + 1


def test_resplit_zero_on_assorted_modules():
    ring = ring3()
    free2 = FreeModule(ring, (0, 0))
    cases = [
        GradedModulePresentation(ring, (0, 0),
                                 [rel(free2, {(0, x_exp(1)): 1}, degree=1)]),
        GradedModulePresentation.free_module(ring, (0, 2)),
        present_r_mod_x(ring),
    ]
    for m in cases:
        _, quotient = torsion_split(m)
        t2, _ = torsion_split(quotient)
        assert t2.is_zero_module()


def test_certify_free_module():
    ring = ring3()
    m = GradedModulePresentation.free_module(ring, (1, 0))  # O(-1) + O
    verdict = certify_locally_free(m)
    assert verdict == ("locally-free", 2)


def test_certify_ideal_of_points_not_locally_free():
    ring = ring3()
    free, vecs = vecs_from_polys(ring, [ring.parse("x0*x1"),
                                        ring.parse("x0*x2"),
                                        ring.parse("x1*x2")])
    m = GradedModulePresentation.of_submodule(free, vecs)
    verdict, locus_dim = certify_locally_free(m)
    assert verdict == "not-locally-free"
    assert locus_dim == 0  # the minors cut out exactly the three points


def test_certify_koszul_kernel_locally_free():
    ring = ring3()
    # ker(O^2 -> O(1)) for sections x, y: generated by (x1, -x0)
    free = FreeModule(ring, (0, 0))
    g = rel(free, {(0, x_exp(1)): 1, (1, x_exp(0)): -1}, degree=1)
    m = GradedModulePresentation.of_submodule(free, [g])
    assert certify_locally_free(m) == ("locally-free", 1)


def test_certify_respects_minor_budget():
    ring = ring3()
    free, vecs = vecs_from_polys(ring, [ring.parse("x0*x1"),
                                        ring.parse("x0*x2"),
                                        ring.parse("x1*x2")])
    m = GradedModulePresentation.of_submodule(free, vecs)
    verdict, reason = certify_locally_free(m, minor_budget=1)
    assert verdict == "inconclusive"
    assert "budget" in reason


def test_hoppe_line_bundle_trivial():
    ring = ring3()
    free = FreeModule(ring, (0, 0))
    g = rel(free, {(0, x_exp(1)): 1, (1, x_exp(0)): -1}, degree=1)
    verdict, detail = hoppe_check(free, [g], 1, Fraction(-1))
    assert verdict == "stable-certified"
    assert detail["reason"].startswith("rank 1")


def euler_kernel(ring):
    """The rank-2 kernel of (x0, x1, x2): O^3 -> O(1), i.e. Omega(1)."""
    _, vecs = vecs_from_polys(ring, list(ring.gens()))
    from syzkit.groebner import syzygies
    syz = syzygies(vecs)
    free = FreeModule(ring, (0, 0, 0))
    return free, [Vec(free, dict(s.terms)) for s in syz]


def test_hoppe_omega_stable():
    ring = ring3()
    free, gens = euler_kernel(ring)
    assert len(gens) == 3
    verdict, detail = hoppe_check(free, gens, 2, Fraction(-1, 2))
    assert verdict == "stable-certified"
    # t = -ceil(q * mu) = -ceil(-1/2) = 0
    assert detail["checks"] == [{"q": 1, "twist": 0, "h0": 0}]


def test_hoppe_budget_prescan_fires_before_computation():
    ring = ring3()
    free = FreeModule(ring, (0,) * 18)
    gens = [rel(free, {(i, x_exp(0)): 1}, degree=1) for i in range(18)]
    verdict, detail = hoppe_check(free, gens, 17, Fraction(-2, 17))
    assert verdict == "inconclusive"
    assert detail["reason"] == "wedge budget exceeded"
    assert detail["q"] == 2
    assert detail["wedge_count"] == 153


def test_hoppe_never_claims_instability():
    ring = ring3()
    # O + O(-1) embedded in O^2 by (1, x0): destabilized by the O summand.
    # The check reports sections, never an "unstable" verdict.
    free = FreeModule(ring, (0, 0))
    e0 = rel(free, {(0, x_exp(0, 0)): 1}, degree=0)
    xe1 = rel(free, {(1, x_exp(0)): 1}, degree=1)
    verdict, detail = hoppe_check(free, [e0, xe1], 2, Fraction(-1, 2))
    assert verdict == "inconclusive"
    assert detail == {"q": 1, "twist": 0, "h0": 1,
                      "reason": "normalized exterior power has sections"}


def test_filtration_free_module():
    ring = ring3()
    m = GradedModulePresentation.free_module(ring, (0, 0))
    report = filtration_report(m)
    assert len(report) == 1
    assert report[0]["kind"] == "free"
    assert report[0]["rank"] == 2


def test_filtration_ideal_of_points():
    ring = ring3()
    free, vecs = vecs_from_polys(ring, [ring.parse("x0*x1"),
                                        ring.parse("x0*x2"),
                                        ring.parse("x1*x2")])
    m = GradedModulePresentation.of_submodule(free, vecs)
    report = filtration_report(m)
    kinds = [r["kind"] for r in report]
    assert kinds[0] == "free"
    assert report[0]["rank"] == 1
    assert "torsion-quotient" in kinds  # the cycle the free part misses


def test_filtration_structure_sheaf_pure_torsion():
    ring = ring3()
    m = present_r_mod_x(ring)
    report = filtration_report(m)
    assert [r["kind"] for r in report] == ["torsion"]
    assert report[0]["support_dim"] == 1  # a line's Hilbert polynomial is linear


def test_kernel_of_matrix_koszul():
    ring = ring3()
    free, vecs = vecs_from_polys(ring, [ring.gens()[0], ring.gens()[1]])
    from syzkit.groebner import PolyMatrix
    pm = PolyMatrix.from_columns(FreeModule(ring, (0,)),
                                 [Vec(FreeModule(ring, (0,)),
                                      {(0, x_exp(i)): QQ(1)}, degree=1)
                                  for i in (0, 1)])
    ker = kernel_of_matrix(pm)
    assert len(ker) == 1
    assert ker[0].degree == 2


def test_dual_generators_of_free_module():
    ring = ring3()
    m = GradedModulePresentation.free_module(ring, (0, 0))
    duals = dual_generators(m)
    assert len(duals) == 2


def test_poly_det():
    ring = ring3()
    x, y, z = ring.gens()
    assert poly_det([[x]]) == x
    d = poly_det([[x, y], [y, z]])
    assert d == x * z - y * y
    zero = poly_det([[x, y], [x, y]])
    assert zero.is_zero()


def test_presentation_hilbert_data():
    ring = ring3()
    m = present_r_mod_x(ring)
    assert m.hilbert_polynomial() == (0, 1, 0)  # chi(k) = k + 1
    assert m.generic_rank() == 0
    full = GradedModulePresentation.free_module(ring, (0,))
    assert full.hilbert_polynomial() == (0, 0, 1)
    assert full.generic_rank() == 1
    tw = full.twist(-1)  # O(-1)
    assert tw.piece_dim(1) == 1
    assert tw.gen_shifts == (1,)


def test_presentation_hilbert_polynomial_retries_past_irregular_values():
    ring = PolyRing(QQ, 2)
    pres = GradedModulePresentation.free_module(ring, (0,))
    # a Hilbert function that reaches its polynomial k + 1 only from k = 3:
    # the first fit window fails its check points and the next one is used
    pres.piece_dim = lambda k: k + 1 if k >= 3 else 7
    assert pres.hilbert_polynomial() == (0, 1)
