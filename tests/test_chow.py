"""Chow ring of P^n, Chern data, K-classes, the Bezout trick."""

import random
from fractions import Fraction
from math import comb

import pytest

from syzkit import chow
from syzkit.chow import (ChernVector, ChowClass, KClass, bezout_h2, c_from_ch,
                         ch_from_c, ch_ideal_sheaf, chern_of_twist,
                         chi_of_twist, euler_characteristic, exp_class,
                         kclass_chi, todd)
from syzkit.errors import CertificateError, CoprimalityError, InputError


def test_multiplication_truncates_and_is_ring_like():
    rng = random.Random("chow-ring")
    n = 3
    for _ in range(25):
        a, b, c = (ChowClass(n, [Fraction(rng.randrange(-5, 6))
                                 for _ in range(n + 1)]) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert (a * b).n == n
    point = ChowClass.point(n)
    assert (point * point).is_zero()  # truncation above degree n


def test_integral_classes_stay_integral_under_products():
    rng = random.Random("integral")
    for _ in range(25):
        a = ChowClass(2, [Fraction(rng.randrange(-9, 10)) for _ in range(3)])
        b = ChowClass(2, [Fraction(rng.randrange(-9, 10)) for _ in range(3)])
        assert a.is_integral() and b.is_integral()
        assert (a * b).is_integral()


def test_chern_of_twist_trivial_line_bundle():
    triv = ChernVector(1, ChowClass.unit(2))
    tw = chern_of_twist(triv, 5)
    assert tw.total.h_coeffs() == (Fraction(1), Fraction(5), Fraction(0))


def test_chern_of_twist_ideal_sheaf_keeps_c2():
    # rank 1, c1 = 0, c2 = [Z]: twisting by mH moves c1 to mH, fixes c2
    for deg_z in (1, 3, 5):
        for m in (1, 2, 3):
            c = ChernVector(1, ChowClass(2, [Fraction(1), Fraction(0),
                                             Fraction(deg_z)]))
            tw = chern_of_twist(c, m)
            assert tw.total.h_coeffs()[1] == m
            assert tw.total.h_coeffs()[2] == deg_z


def test_chern_of_twist_cotangent_bundle():
    omega = ChernVector(2, ChowClass(2, [Fraction(1), Fraction(-3), Fraction(3)]))
    tw = chern_of_twist(omega, 1)
    assert tw.total.h_coeffs() == (Fraction(1), Fraction(-1), Fraction(1))


def test_ch_of_twisting_line_bundle():
    assert exp_class(2, 1).coeffs == (Fraction(1), Fraction(1), Fraction(1, 2))


def test_ch_of_structure_sheaf_of_three_points():
    # ch(O_Z) = 1 - ch(I_Z) = deg Z * [pt] for a zero-cycle on P^2
    hp = [3, 0, 0]  # chi(O_Z(k)) = 3
    ch_i = ch_ideal_sheaf(2, hp)
    o_z = ChowClass.unit(2) - ch_i
    assert o_z.coeffs == (Fraction(0), Fraction(0), Fraction(3))


def test_ch_ideal_sheaf_of_line_in_p3():
    ch = ch_ideal_sheaf(3, [0, 1, 0, 0])  # chi(O_line(k)) = k + 1
    assert ch.coeffs == (Fraction(1), Fraction(0), Fraction(-1), Fraction(1))
    assert c_from_ch(ch).total.l_ints() == (1, 0, 1, 2)


def test_ch_c_roundtrip_50_random_vectors():
    rng = random.Random("roundtrip")
    for _ in range(50):
        n = rng.choice((2, 3))
        rank = rng.randrange(1, 5)
        total = ChowClass(n, [Fraction(1)] + [Fraction(rng.randrange(-6, 7))
                                              for _ in range(n)],
                          scale=rng.choice((1, 2, 3)))
        c = ChernVector(rank, total)
        back = c_from_ch(ch_from_c(c))
        assert back == c


def test_whitney_through_characters():
    rng = random.Random("whitney-core")
    for _ in range(25):
        n = 3
        ca = ChernVector(rng.randrange(1, 4),
                         ChowClass(n, [Fraction(1)] + [Fraction(rng.randrange(-4, 5))
                                                       for _ in range(n)]))
        cb = ChernVector(rng.randrange(1, 4),
                         ChowClass(n, [Fraction(1)] + [Fraction(rng.randrange(-4, 5))
                                                       for _ in range(n)]))
        whole = c_from_ch(ch_from_c(ca) + ch_from_c(cb))
        assert whole.rank == ca.rank + cb.rank
        assert whole.total == ca.total * cb.total


def test_todd_of_p2_and_chi_crosscheck():
    t = todd(2)
    assert t.coeffs == (Fraction(1), Fraction(3, 2), Fraction(1))
    # chi(O(k)) on P^2 via ch * Todd
    for k in range(-2, 5):
        chi = euler_characteristic(exp_class(2, k))
        assert chi == comb(k + 2, 2) if k >= 0 else chi == 0 or True
        assert chi == (k + 2) * (k + 1) // 2


def test_chi_of_twist_matches_integral():
    ch = ch_ideal_sheaf(2, [3, 0, 0])
    for k in range(2, 6):
        assert chi_of_twist(ch, k) == comb(k + 2, 2) - 3


def binom_poly(j, n):
    # chi(O(j)) on P^n as the degree-n polynomial (j+1)...(j+n)/n!,
    # valid for every integer j
    num = 1
    for i in range(1, n + 1):
        num *= j + i
    den = 1
    for i in range(1, n + 1):
        den *= i
    return Fraction(num, den)


def test_kclass_of_line_bundles_binomial_shift():
    for n in (2, 3):
        for t in range(-12, 13):
            k = KClass.of_line_bundle(n, t)
            for deg in range(0, 4):
                assert k.chi(deg) == binom_poly(deg + t, n)
            if t <= 0:
                assert k.chi(-t) == 1


def test_kclass_additivity_on_ideal_sequence():
    # 0 -> I_Z -> O -> O_Z -> 0 for three points on P^2
    n = 2
    o = KClass.of_line_bundle(n, 0)
    o_z = KClass(n, [3, 0, 0])
    i_z = o - o_z
    assert (i_z + o_z).coeffs == o.coeffs
    for k in range(5):
        assert i_z.chi(k) == comb(k + 2, 2) - 3


def test_kclass_twist_of_a_line_bundle():
    assert KClass.of_line_bundle(3, 0).coeffs == (0, 0, 0, 1)
    tw = KClass.of_line_bundle(3, -1).twist(1)
    assert tw.coeffs == KClass.of_line_bundle(3, 0).coeffs


def test_to_ch_of_the_binomial_basis_classes():
    # C(k+j, j) is [O_{P^j}], with character (1 - e^{-L})^(n-j)
    assert KClass.of_line_bundle(2, 0).to_ch() == ChowClass.unit(2)
    assert KClass(2, [0, 1, 0]).to_ch() == ChowClass(2, [0, 1, Fraction(-1, 2)])
    assert KClass(2, [1, 0, 0]).to_ch(3) == ChowClass.point(2, 3)


def _kclass(data, st, n):
    return KClass(n, data.draw(st.lists(st.integers(-6, 6), min_size=n + 1,
                                        max_size=n + 1)))


def test_to_ch_reproduces_chi_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.integers(1, 3), st.integers(1, 3), st.data())
    def check(n, scale, data):
        k = _kclass(data, st, n)
        ch = k.to_ch(scale)
        assert ch.scale == scale
        for x in range(-3, n + 4):
            assert chi_of_twist(ch, x) == k.chi(x)

    check()


def test_twist_shifts_chi_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.integers(1, 3), st.integers(-5, 5), st.data())
    def check(n, t, data):
        k = _kclass(data, st, n)
        tw = k.twist(t)
        for x in range(-3, n + 4):
            assert tw.chi(x) == k.chi(x + t)
        assert tw.twist(-t) == k
        line = KClass.of_line_bundle(n, t)
        for x in range(-3, n + 4):
            assert line.chi(x) == binom_poly(x + t, n)

    check()


def test_kclass_rejects_non_integer_coefficients():
    for coeffs in ([Fraction(3, 2), 0, 1], [2.7]):
        with pytest.raises(InputError, match="must be integers"):
            KClass(2, coeffs)
    assert KClass(2, [Fraction(4, 2), 2.0]).coeffs == (2, 2, 0)


def test_kclass_chi_binomial_basis():
    assert kclass_chi([1, 3], 4) == 1 + 3 * comb(5, 1)


def test_bezout_frozen_pair():
    a, b = bezout_h2(2, 6)
    assert (a, b) == (12, -1)
    assert a * 3 + b * 35 == 1


def test_bezout_gcd_three_errors():
    with pytest.raises(CoprimalityError) as exc:
        bezout_h2(2, 4)
    assert exc.value.details["gcd"] == 3


def test_bezout_equal_twists_error():
    for m in (2, 3, 5):
        with pytest.raises(CoprimalityError):
            bezout_h2(m, m)


def test_bezout_rejects_small_twists():
    with pytest.raises(InputError):
        bezout_h2(1, 6)


def test_bezout_identity_200_random_pairs():
    rng = random.Random("bezout")
    found = 0
    while found < 200:
        m1 = rng.randrange(2, 40)
        m2 = rng.randrange(2, 40)
        try:
            a, b = bezout_h2(m1, m2)
        except CoprimalityError:
            continue
        assert a * (m1 * m1 - 1) + b * (m2 * m2 - 1) == 1
        found += 1


def test_class_print_format():
    c = ChowClass(2, [Fraction(1), Fraction(-2), Fraction(1)], scale=3)
    assert c.to_str() == "1 - 2/3*H + 1/9*H^2 (H = 3L)"
    assert todd(2).to_str() == "1 + 3/2*H + H^2 (H = L)"


def test_l_ints_requires_integrality():
    c = ChowClass(2, [Fraction(1), Fraction(1, 2), Fraction(0)])
    with pytest.raises(CertificateError):
        c.l_ints()


# -- certificates that raise typed errors ---------------------------------------


def test_c_from_ch_rejects_a_non_integer_rank():
    with pytest.raises(CertificateError, match="non-integer rank"):
        c_from_ch(ChowClass(2, [Fraction(1, 2)]))


def test_c_from_ch_rejects_non_integral_chern_classes():
    with pytest.raises(CertificateError, match="not integral"):
        c_from_ch(ChowClass(1, [1, Fraction(1, 2)]))


def test_to_ch_rejects_a_riemann_roch_mismatch(monkeypatch):
    # a wrong Todd class breaks chi(ch * e^{kL}) = chi(k); the uncached
    # to_ch must notice it
    k = KClass.of_line_bundle(2, 1)
    assert KClass.to_ch.__wrapped__(k) == exp_class(2, 1)
    monkeypatch.setattr(chow, "todd", lambda n, scale=1: ChowClass.unit(n, scale))
    with pytest.raises(CertificateError, match="Riemann-Roch"):
        KClass.to_ch.__wrapped__(k)


def test_kclass_chi_rejects_a_non_integer_value():
    with pytest.raises(CertificateError, match="non-integer chi"):
        KClass(1, [0, 1]).chi(Fraction(1, 2))


def test_kclass_arithmetic_rejects_an_ambient_mismatch():
    a, b = KClass(1, [1]), KClass(2, [1])
    with pytest.raises(InputError, match="ambient mismatch"):
        a + b
    with pytest.raises(InputError, match="ambient mismatch"):
        a - b

