from fractions import Fraction

import pytest

from mathieuspaces.fields import GF, QQ, Field, FieldMismatchError, field_from_json, same_field


def test_gf_reduces_into_range():
    f = GF(5)
    assert f.from_int(7) == 2
    assert f.from_int(-1) == 4
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.neg(2) == 3


def test_gf_inverse():
    f = GF(7)
    for a in range(1, 7):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_rational_scalars_stay_in_lowest_terms():
    assert QQ.parse_scalar("2/4") == Fraction(1, 2)
    got = QQ.parse_scalar("-6/4")
    assert (got.numerator, got.denominator) == (-3, 2)
    assert QQ.scalar_to_json(Fraction(3, 1)) == "3"
    assert QQ.scalar_to_json(Fraction(-1, 2)) == "-1/2"


def test_a_zero_denominator_is_a_bad_rational_literal():
    for literal in ("1/0", "0/0", "-3/00", "1/", "/2"):
        with pytest.raises(ValueError, match="bad rational literal"):
            QQ.parse_scalar(literal)


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(2 ** 31 + 11)


def test_field_json_round_trip():
    assert field_from_json({"p": 3}) == GF(3)
    assert field_from_json("Q") == QQ
    assert field_from_json(GF(3).to_json()) == GF(3)
    assert field_from_json(QQ.to_json()) == QQ


def test_mixed_fields_rejected():
    with pytest.raises(FieldMismatchError):
        same_field(GF(2), GF(3))
    assert same_field(GF(5), GF(5)) == GF(5)


def test_scalar_validation():
    with pytest.raises(ValueError):
        GF(3).check_scalar(Fraction(1, 2))
    with pytest.raises(ValueError):
        QQ.check_scalar("1/2")  # strings only via parse_scalar
    assert QQ.check_scalar(2) == Fraction(2)
    assert GF(3).check_scalar(-1) == 2
