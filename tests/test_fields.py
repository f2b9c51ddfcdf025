"""Scalar validation and coercion into Q and F_p."""

from fractions import Fraction

import pytest

from syzkit.errors import UnsupportedFieldError
from syzkit.fields import DEFAULT_PRIME, GF, QQ


def test_rationals_lowest_terms_positive_denominator():
    a = QQ(2, 4)
    assert a == Fraction(1, 2)
    assert a.denominator == 2 and a.numerator == 1
    b = QQ(3, -6)
    assert b.denominator > 0
    assert b == Fraction(-1, 2)


def test_rational_field_ops():
    # coercion gives Fractions, and arithmetic is theirs
    assert QQ(1, 2) + QQ(1, 3) == Fraction(5, 6)
    assert QQ(2, 3) * QQ(3, 2) == QQ.one
    assert 1 / QQ(-4) == Fraction(-1, 4)
    assert QQ(7) - QQ(7) == QQ.zero
    assert all(type(x) is Fraction for x in (QQ(3), QQ(Fraction(1, 2)),
                                             QQ.zero, QQ.one))
    with pytest.raises(ZeroDivisionError):
        QQ(1, 0)
    with pytest.raises(UnsupportedFieldError):
        QQ(0.5)


def test_prime_field_residues_in_range():
    f = GF(7)
    assert f(-1) == 6
    assert f(15) == 1
    assert f.one == 1 and f.zero == 0
    for a in range(7):
        for b in range(1, 7):
            assert 0 <= f(a, b) < 7
            assert f(a, b) * b % 7 == a % 7


def test_prime_field_inverse():
    f = GF(DEFAULT_PRIME)
    for a in (1, 2, 12345, DEFAULT_PRIME - 1):
        assert a * f(1, a) % f.p == 1
        assert f(Fraction(1, a)) == f(1, a)
    with pytest.raises(ZeroDivisionError):
        f(1, 0)


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


def test_gf_instances_cached_and_comparable():
    assert GF(101) is GF(101)
    assert GF(101) == GF(101)
    assert GF(101) != GF(103)


@pytest.mark.parametrize("field", (QQ, GF(2), GF(101), GF(2 ** 31 - 1)),
                         ids=repr)
def test_field_axioms_property(field):
    """Coercion is a ring homomorphism on the integers: it respects sums,
    products and negation, lands in [0, p) over F_p and is the identity
    into Q.  The two-argument coercion num/den raises ZeroDivisionError
    exactly when den is zero in the field, and is the coercion of the
    Fraction num/den."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ints = st.integers(-10 ** 12, 10 ** 12)
    # denominators include 0 and multiples of the characteristic
    dens = st.one_of(ints, st.integers(-3, 3).map(
        lambda k: k * field.characteristic))
    p = field.characteristic

    def reduce(x):
        return x % p if p else x

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(ints, ints, ints, dens)
    def check(a, b, num, den):
        f = field
        assert f(0) == f.zero and f(1) == f.one
        for x in (a, b, a + b, a * b, -a):
            assert f(f(x)) == f(x)
            assert f(x) == x if f == QQ else 0 <= f(x) < p
        assert f(a + b) == reduce(f(a) + f(b))
        assert f(a * b) == reduce(f(a) * f(b))
        assert f(-a) == reduce(-f(a))
        if not reduce(den):
            with pytest.raises(ZeroDivisionError):
                f(num, den)
        else:
            assert reduce(f(num, den) * f(den)) == f(num)
            assert f(num, den) == f(Fraction(num, den))

    check()
