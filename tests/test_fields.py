"""Scalar arithmetic over Q and F_p."""

from fractions import Fraction

import pytest

from syzkit.errors import UnsupportedFieldError, VariantMismatchError
from syzkit.fields import DEFAULT_PRIME, GF, QQ, check_same_field


def test_rationals_lowest_terms_positive_denominator():
    a = QQ(2, 4)
    assert a == Fraction(1, 2)
    assert a.denominator == 2 and a.numerator == 1
    b = QQ(3, -6)
    assert b.denominator > 0
    assert b == Fraction(-1, 2)


def test_rational_field_ops():
    assert QQ.add(QQ(1, 2), QQ(1, 3)) == Fraction(5, 6)
    assert QQ.mul(QQ(2, 3), QQ(3, 2)) == 1
    assert QQ.inv(QQ(-4)) == Fraction(-1, 4)
    assert QQ.is_zero(QQ.sub(QQ(7), QQ(7)))
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_prime_field_residues_in_range():
    f = GF(7)
    assert f(-1) == 6
    assert f(15) == 1
    assert f.one == 1 and f.zero == 0
    for a in range(7):
        for b in range(1, 7):
            assert 0 <= f.div(a, b) < 7
            assert f.mul(f.div(a, b), b) == a % 7


def test_prime_field_inverse():
    f = GF(DEFAULT_PRIME)
    for a in (1, 2, 12345, DEFAULT_PRIME - 1):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_prime_field_fraction_coercion():
    f = GF(5)
    assert f(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        f(Fraction(1, 5))
    # the two-argument form too: 10 = 0 mod 5, so 3/10 has no value
    assert f(3, 2) == 4
    assert f(Fraction(1, 2), 3) == f(1, 6) == 1
    with pytest.raises(ZeroDivisionError):
        f(3, 10)
    with pytest.raises(ZeroDivisionError):
        GF(2)(1, 2)


def test_nonprime_modulus_rejected():
    with pytest.raises(UnsupportedFieldError):
        GF(12)
    with pytest.raises(UnsupportedFieldError):
        GF(1)


def test_default_prime_is_32003():
    assert DEFAULT_PRIME == 32003
    assert GF().p == 32003


def test_field_variants_never_mix():
    check_same_field(GF(7), GF(7))
    with pytest.raises(VariantMismatchError):
        check_same_field(QQ, GF(7))
    with pytest.raises(VariantMismatchError):
        check_same_field(GF(5), GF(7), where="test")


def test_gf_instances_cached_and_comparable():
    assert GF(101) is GF(101)
    assert GF(101) == GF(101)
    assert GF(101) != GF(103)


@pytest.mark.parametrize("field", (QQ, GF(2), GF(101), GF(2 ** 31 - 1)),
                         ids=repr)
def test_field_axioms_property(field):
    """The field axioms on canonical elements, and the two-argument
    coercion num/den, which raises ZeroDivisionError exactly when den is
    zero in the field."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ints = st.integers(-10 ** 12, 10 ** 12)
    if field == QQ:
        elems = st.builds(Fraction, ints, st.integers(1, 10 ** 6))
    else:
        elems = ints.map(field)
    # denominators include 0 and multiples of the characteristic
    dens = st.one_of(ints, st.integers(-3, 3).map(
        lambda k: k * field.characteristic))

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(elems, elems, elems, ints, dens)
    def check(a, b, c, num, den):
        f = field
        add, mul = f.add, f.mul
        for x in (add(a, b), mul(a, b), f.neg(a), f.sub(a, b)):
            assert f(x) == x
            if f != QQ:
                assert 0 <= x < f.p
        assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, f.zero) == a and mul(a, f.one) == a
        assert f.is_zero(add(a, f.neg(a)))
        assert f.sub(a, b) == add(a, f.neg(b))
        if f.is_zero(b):
            with pytest.raises(ZeroDivisionError):
                f.inv(b)
        else:
            assert mul(b, f.inv(b)) == f.one
            assert f.div(a, b) == mul(a, f.inv(b))
        if f.is_zero(f(den)):
            with pytest.raises(ZeroDivisionError):
                f(num, den)
        else:
            assert mul(f(num, den), f(den)) == f(num)
            assert f(num, den) == f(Fraction(num, den))

    check()
