"""Rotor construction, application, and composition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotoreig import rotors
from rotoreig.algebra import CL30, CL31, TOL, Multivector, pseudoscalar
from rotoreig.rotors import (
    Rotor,
    compose,
    is_rotor,
    rotate,
    rotor_exp,
    rotor_from_reflections,
    rotor_from_vectors,
)

E1 = Multivector.basis_vector(CL30, 1)
E2 = Multivector.basis_vector(CL30, 2)
E3 = Multivector.basis_vector(CL30, 3)
E12 = E1 * E2
E23 = E2 * E3
ONE = Multivector.scalar(CL30, 1.0)
E1_31 = Multivector.basis_vector(CL31, 1)

angle = st.floats(-math.pi, math.pi, allow_nan=False)


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    return Multivector.vector(CL30, v / np.linalg.norm(v))


class TestConstruction:
    def test_reflections_identity(self):
        assert rotor_from_reflections(E1, E1).value.approx_eq(ONE)

    def test_reflections_orthogonal(self):
        assert rotor_from_reflections(E1, E2).value.approx_eq(E12)

    def test_reflections_half_angle(self):
        n = (E1 + E2) / math.sqrt(2.0)
        r = rotor_from_reflections(E1, n)
        assert r.value.approx_eq((ONE + E12) / math.sqrt(2.0))
        assert (r.value * ~r.value).approx_eq(ONE)

    def test_reflections_reject_non_unit(self):
        with pytest.raises(ValueError):
            rotor_from_reflections(2.0 * E1, E2)

    def test_exp_zero_angle(self):
        assert rotor_exp(E12, 0.0).value.approx_eq(ONE)

    def test_exp_pi(self):
        assert rotor_exp(E12, math.pi).value.approx_eq(E12)

    def test_exp_quarter_turn_e23(self):
        assert rotor_exp(E23, math.pi / 2).value.approx_eq(
            (ONE + E23) / math.sqrt(2.0)
        )

    def test_exp_rejects_non_unit_bivector(self):
        with pytest.raises(ValueError):
            rotor_exp(E1, 1.0)
        with pytest.raises(ValueError):
            rotor_exp(2.0 * E12, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(angle, angle)
    def test_exp_additivity(self, t, u):
        lhs = rotor_exp(E12, t).value * rotor_exp(E12, u).value
        assert lhs.approx_eq(rotor_exp(E12, t + u).value, tol=1e-10)


class TestRotorFromVectors:
    def test_identity(self):
        assert rotor_from_vectors(E3, E3).value.approx_eq(ONE)

    def test_e3_to_khat(self):
        for phi in (0.0, 0.3, 2.0, -1.1):
            khat = math.cos(phi) * E1 + math.sin(phi) * E2
            r = rotor_from_vectors(E3, khat)
            assert r.value.approx_eq((ONE + khat * E3) / math.sqrt(2.0))
            assert rotate(r, E3).approx_eq(khat)

    def test_e23_plane_half_angle(self):
        omega, gamma = 1.5, 0.7
        root = math.hypot(omega, gamma)
        ahat = (omega * E3 - gamma * E2) / root
        r = rotor_from_vectors(E3, ahat)
        theta = math.acos(omega / root)
        # rotation confined to the e23 plane
        assert r.value.approx_eq(rotor_exp(E23, -theta).value) or r.value.approx_eq(
            rotor_exp(E23, theta).value
        )
        assert rotate(r, E3).approx_eq(ahat)

    def test_takes_a_to_b_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            r = rotor_from_vectors(a, b)
            assert rotate(r, a).approx_eq(b, tol=1e-10)

    def test_matches_exp_form(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            plane = b ^ a
            if plane.norm() < 1e-6:
                continue
            bhat = plane / math.sqrt((plane * ~plane).scalar_part())
            theta = math.acos(np.clip((a | b).scalar_part(), -1.0, 1.0))
            assert rotor_from_vectors(a, b).value.approx_eq(
                rotor_exp(bhat, theta).value, tol=1e-10
            )

    def test_antiparallel_rejected(self):
        with pytest.raises(ValueError):
            rotor_from_vectors(E3, -1.0 * E3)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            rotor_from_vectors(E3, 0.5 * E1)


class TestRotate:
    def test_identity_rotor(self):
        m = Multivector(CL30, np.arange(8.0))
        assert rotate(Rotor(ONE), m).approx_eq(m)

    def test_e1_to_e2(self):
        assert rotate(rotor_from_vectors(E1, E2), E1).approx_eq(E2)

    def test_pseudoscalar_invariant(self):
        rng = np.random.default_rng(5)
        i3 = pseudoscalar(CL30)
        for _ in range(20):
            r = rotor_from_vectors(random_unit_vector(rng), random_unit_vector(rng))
            assert rotate(r, i3).approx_eq(i3, tol=1e-12)

    def test_structure_preservation(self):
        # linearity, product preservation, grade preservation, norm
        rng = np.random.default_rng(6)
        for _ in range(50):
            r = rotor_from_vectors(random_unit_vector(rng), random_unit_vector(rng))
            m = Multivector(CL30, rng.standard_normal(8))
            n = Multivector(CL30, rng.standard_normal(8))
            c = rng.standard_normal()
            assert rotate(r, c * m + n).approx_eq(
                c * rotate(r, m) + rotate(r, n), tol=1e-10
            )
            assert rotate(r, m * n).approx_eq(
                rotate(r, m) * rotate(r, n), tol=1e-10
            )
            assert rotate(r, m ^ n).approx_eq(
                rotate(r, m) ^ rotate(r, n), tol=1e-10
            )
            v = Multivector.vector(CL30, rng.standard_normal(3))
            image = rotate(r, v)
            assert image.grades_present(1e-12) <= {1}
            assert (image * image).scalar_part() == pytest.approx(
                (v * v).scalar_part()
            )


class TestCompose:
    def test_left_identity(self):
        r = rotor_exp(E12, 0.8)
        assert compose(Rotor(ONE), r).approx_eq(r.value)

    def test_same_plane_additivity(self):
        lhs = compose(rotor_exp(E12, 0.4), rotor_exp(E12, 1.1))
        assert lhs.approx_eq(rotor_exp(E12, 1.5).value)

    def test_composite_action(self):
        r1 = rotor_exp(E12, math.pi / 2)
        r2 = rotor_exp(E23, math.pi / 2)
        comp = Rotor(compose(r2, r1))
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = Multivector.vector(CL30, rng.standard_normal(3))
            assert rotate(comp, v).approx_eq(rotate(r2, rotate(r1, v)), tol=1e-12)


class TestIsRotor:
    def test_examples(self):
        assert is_rotor((ONE + E12) / math.sqrt(2.0))
        assert not is_rotor(E1)
        assert not is_rotor(2.0 * (ONE + E12) / math.sqrt(2.0))

    def test_cl31_unit_even(self):
        one31 = Multivector.scalar(CL31, 1.0)
        e23_31 = Multivector.basis_vector(CL31, 2) * Multivector.basis_vector(CL31, 3)
        assert is_rotor((one31 + e23_31) / math.sqrt(2.0))

    def test_rotor_wrapper_validates(self):
        with pytest.raises(ValueError):
            Rotor(E1)
        with pytest.raises(ValueError):
            Rotor(2.0 * ONE)


class TestClosedFormCheck:
    """R ~R - 1 = (a^2 b^2 - 1) / (2 (1 + a.b)) is rotor_from_vectors' only
    output check: it must build (1 + b a)/denom byte for byte where that is
    within TOL * dim and raise "not a rotor" where it is not, with no
    is_rotor product."""

    @staticmethod
    def built(a, b):
        cos_theta = (a | b).scalar_part()
        return (1.0 + b * a) / math.sqrt(2.0 * (1.0 + cos_theta)), cos_theta

    @staticmethod
    def inputs(sig):
        # unit only to within TOL = 1e-12, at gaps 1 + a.b down to the 1e-10
        # antiparallel limit, where |R ~R - 1| reaches 1e-2
        for gap in (2.0, 1.3, 1e-2, 1e-4, 1e-6, 1e-8, 1e-9, 3e-10, 1.2e-10):
            theta = math.acos(gap - 1.0)
            for da, db in ((0.0, 0.0), (9e-13, 0.0), (9e-13, 9e-13), (-9e-13, 9e-13),
                           (-9e-13, -9e-13), (1e-13, -2e-13)):
                a = Multivector.vector(sig, [math.sqrt(1.0 + da), 0.0, 0.0])
                b = Multivector.vector(sig, [math.sqrt(1.0 + db) * math.cos(theta),
                                             math.sqrt(1.0 + db) * math.sin(theta), 0.0])
                yield a, b
        if sig.q:  # a unit vector with an e4 part, whose square is -1
            yield Multivector.vector(sig, [math.sqrt(10.0), 0.0, 0.0, 3.0]), E1_31

    @pytest.fixture(autouse=True)
    def no_product_check(self, monkeypatch):
        def refuse(m):
            raise AssertionError("rotor_from_vectors ran the is_rotor product")
        monkeypatch.setattr(rotors, "is_rotor", refuse)

    @pytest.mark.parametrize("sig", [CL30, CL31])
    def test_agrees_with_closed_form(self, sig):
        outcomes = set()
        for a, b in self.inputs(sig):
            value, cos_theta = self.built(a, b)
            a2, b2 = (a * a).scalar_part(), (b * b).scalar_part()
            ok = abs(a2 * b2 - 1.0) <= TOL * sig.dim * 2.0 * (1.0 + cos_theta)
            if ok:
                assert rotor_from_vectors(a, b).value.coeffs.tobytes() == value.coeffs.tobytes()
            else:
                with pytest.raises(ValueError, match="not a rotor"):
                    rotor_from_vectors(a, b)
            outcomes.add(ok)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("gap", [1e-9, 1.2e-10])
    def test_exactly_unit_near_antiparallel(self, gap):
        # R's own rounding is above TOL * dim here, which the product check
        # used to reject; the inputs are exact, so R is the rotor they define
        theta = math.acos(gap - 1.0)
        b = Multivector.vector(CL30, [math.cos(theta), math.sin(theta), 0.0])
        assert (b * b).scalar_part() == 1.0
        value, _ = self.built(E1, b)
        assert (value * ~value - 1.0).norm() > TOL * CL30.dim
        assert rotor_from_vectors(E1, b).value.coeffs.tobytes() == value.coeffs.tobytes()

    def test_boosted_unit_vectors_are_rotors(self):
        # vectors with an e4 part up to 1e3, where R's rounding exceeds
        # TOL * dim at any angle; at a.b >= 0 the closed form holds for
        # every pair that passes the unit check
        rng = np.random.default_rng(5)
        built = rounding_above_bound = 0
        for _ in range(1000):
            t, s = 10.0 ** rng.uniform(0.0, 3.0, 2)
            u, w = (x / np.linalg.norm(x) for x in rng.standard_normal((2, 3)))
            a = Multivector.vector(CL31, [*(u * math.sqrt(1.0 + t * t)), t])
            b = Multivector.vector(CL31, [*(w * math.sqrt(1.0 + s * s)), -s])
            if (a | b).scalar_part() < 0.0:
                continue
            try:
                got = rotor_from_vectors(a, b).value
            except ValueError as err:
                assert "must be a unit vector" in str(err)
                continue
            value, _ = self.built(a, b)
            assert got.coeffs.tobytes() == value.coeffs.tobytes()
            built += 1
            rounding_above_bound += (value * ~value - 1.0).norm() > TOL * CL31.dim
        assert built > 100 and rounding_above_bound > 0

    @pytest.mark.parametrize("gap", [1.0, 1e-9])
    def test_parts_below_tol_outside_grade_one_are_dropped(self, gap):
        theta = math.acos(gap - 1.0)
        b = Multivector.vector(CL30, [math.cos(theta), math.sin(theta), 0.0])
        got = rotor_from_vectors(E1 + 1e-13 + 1e-13 * E12, b).value
        assert got.coeffs.tobytes() == rotor_from_vectors(E1, b).value.coeffs.tobytes()
        assert not got.coeffs[CL30.tables["odd"]].any()

    def test_non_finite_input_is_not_a_rotor(self):
        a = Multivector.vector(CL30, [math.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="not a rotor"):
            rotor_from_vectors(a, E3)


class TestStackedRotors:
    """rotor_from_vectors(a, stack) gives row i the bytes of the call on row
    i alone, and a stack with one bad row raises that row's own error."""

    @staticmethod
    def targets(sig, seed):
        """Unit targets as rows: random ones, ones below the e1e2 plane and
        ones whose gap 1 + e3.b runs down to 1.2e-10, some unit only to TOL
        and some with parts below TOL outside grade 1."""
        rng = np.random.default_rng(seed)
        rows = [v / np.linalg.norm(v) for v in rng.standard_normal((20, 3))]
        rows += [v * [1.0, 1.0, -1.0] / np.linalg.norm(v)
                 for v in np.abs(rng.standard_normal((10, 3)))]
        for gap in (1e-2, 1e-4, 1e-6, 1e-8, 1e-9, 3e-10, 1.2e-10):
            theta = math.acos(gap - 1.0)
            rows.append(np.array([math.sin(theta), 0.0, math.cos(theta)]))
        out = []
        for i, v in enumerate(rows):
            row = Multivector.vector(sig, v).coeffs
            # near antiparallel the closed-form check fails these
            if v[2] > -0.5 and i % 3 == 1:
                row = row * math.sqrt(1.0 + 9e-13)
            if v[2] > -0.5 and i % 5 == 2:
                row = row + 1e-13 * Multivector.blade(sig, 0b011).coeffs
            out.append(row)
        return np.array(out)

    @pytest.mark.parametrize("sig", [CL30, CL31])
    def test_each_row_is_the_single_call(self, sig):
        e3 = Multivector.basis_vector(sig, 3)
        rows = self.targets(sig, 17)
        got = rotor_from_vectors(e3, Multivector._wrap(sig, rows)).value.coeffs
        assert got.shape == rows.shape
        for row, value in zip(rows, got):
            single = rotor_from_vectors(e3, Multivector(sig, row)).value.coeffs
            assert value.tobytes() == single.tobytes()

    @pytest.mark.parametrize("sig", [CL30, CL31])
    @pytest.mark.parametrize("bad, message", [
        ([0.6, 0.0, 0.8 + 1e-9], "must be a unit vector"),
        ("non-vector", "must be a pure vector"),
        ([math.sqrt(1.0 - (1.0 - 1e-11) ** 2), 0.0, -(1.0 - 1e-11)], "antiparallel"),
        ([math.nan, 0.0, 0.0], "not a rotor"),
    ])
    def test_a_bad_row_raises_its_own_error(self, sig, bad, message):
        e3 = Multivector.basis_vector(sig, 3)
        if bad == "non-vector":
            row = (Multivector.vector(sig, [0.6, 0.0, 0.8])
                   + 1e-9 * Multivector.blade(sig, 0b011)).coeffs
        else:
            row = Multivector.vector(sig, bad).coeffs
        with pytest.raises(ValueError, match=message) as alone:
            rotor_from_vectors(e3, Multivector(sig, row))
        good = self.targets(sig, 3)
        for at in (0, 2, len(good)):
            stack = Multivector._wrap(sig, np.insert(good, at, row, axis=0))
            with pytest.raises(ValueError) as stacked:
                rotor_from_vectors(e3, stack)
            assert str(stacked.value) == str(alone.value)
