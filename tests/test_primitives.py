"""The floating-point primitives whose bits the goldens depend on, pinned to
stored values: on another Python, numpy or libm, a change in one of them
fails here by name instead of as a golden byte mismatch."""

import math
from fractions import Fraction

import numpy as np
import pytest


def is_correctly_rounded(r, xs):
    """Whether r is the float nearest to sqrt(sum of x^2), exactly."""
    total = sum(Fraction(x) ** 2 for x in xs)
    lo = Fraction(r) - Fraction(r - math.nextafter(r, 0.0)) / 2
    hi = Fraction(r) + Fraction(math.nextafter(r, math.inf) - r) / 2
    return lo * lo < total < hi * hi


class TestHypot:
    # at these inputs math.sqrt of the sum of squares is one ulp off (and so
    # is np.hypot with 2 arguments on glibc); math.hypot is correctly rounded
    @pytest.mark.parametrize("xs, expected", [
        ((0.63, 1.01), "0x1.30bc9e5b90105p+0"),
        ((0.512, 0.902, 0.155), "0x1.0c77a4e5e08e7p+0"),
    ])
    def test_math_hypot(self, xs, expected):
        assert math.hypot(*xs).hex() == expected
        assert math.sqrt(sum(x * x for x in xs)).hex() != expected
        assert is_correctly_rounded(float.fromhex(expected), xs)


class TestBincount:
    def test_sums_each_bin_left_to_right(self):
        # bin 0 gets 1 and then eight halves of its ulp: one at a time each
        # rounds back to 1, while their sum first (pairwise or exact) would not
        tiny = 2.0 ** -53
        weights = [1.0, 3.0] + [tiny, tiny / 2] * 8
        sums = np.bincount([0, 1] * 9, weights=weights)
        assert [x.hex() for x in sums.tolist()] == ["0x1.0000000000000p+0",
                                                    "0x1.8000000000000p+1"]
        assert math.fsum(weights[::2]) != sums[0]
        assert math.fsum(weights[1::2]) != sums[1]


class TestRepr:
    @pytest.mark.parametrize("bits, text", [
        ("0x1.999999999999ap-4", "0.1"),
        ("0x1.3333333333334p-2", "0.30000000000000004"),
        ("0x1.1c37937e08000p+53", "1e+16"),
        ("0x0.0000000000001p-1022", "5e-324"),
        ("0x1.fffffffffffffp+1023", "1.7976931348623157e+308"),
        ("-0x1.2000000000000p+3", "-9.0"),
    ])
    def test_shortest_round_trip(self, bits, text):
        assert repr(float.fromhex(bits)) == text
