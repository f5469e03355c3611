"""Rotor construction, application, and composition."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotoreig import rotors
from rotoreig.algebra import CL30, CL31, TOL, Multivector, pseudoscalar
from rotoreig.rotors import (
    Rotor,
    is_rotor,
    rotate,
    rotor_exp,
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
        assert (ONE * r.value).approx_eq(r.value)

    def test_same_plane_additivity(self):
        lhs = rotor_exp(E12, 0.4).value * rotor_exp(E12, 1.1).value
        assert lhs.approx_eq(rotor_exp(E12, 1.5).value)

    def test_composite_action(self):
        r1 = rotor_exp(E12, math.pi / 2)
        r2 = rotor_exp(E23, math.pi / 2)
        comp = Rotor(r2.value * r1.value)
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


def parent_rotor(a, b):
    """rotor_from_vectors on one b as it was built with a.b from a | b: the
    reference whose bytes, and whose errors, the call must keep."""
    squares = []
    for v, name in ((a, "a"), (b, "b")):
        if v.grades_present(TOL) - {1}:
            raise ValueError(f"{name} must be a pure vector")
        squares.append(float((v.coeffs * v.coeffs) @ v.sig.tables["square_sign"]))
        if abs(squares[-1] - 1.0) > TOL:
            raise ValueError(f"{name} must be a unit vector")
    a, b = (v if v.grades_present() <= {1} else v.grade(1) for v in (a, b))
    cos_theta = (a | b).scalar_part()
    if cos_theta < -1.0 + rotors.ANTIPARALLEL_TOL:
        raise ValueError("rotation plane undefined for antiparallel vectors")
    value = (1.0 + b * a) / math.sqrt(2.0 * (1.0 + cos_theta))
    if not abs(squares[0] * squares[1] - 1.0) <= TOL * a.sig.dim * 2.0 * (1.0 + cos_theta):
        raise ValueError(f"not a rotor: {value}")
    return value


def outcome(build):
    """The bytes that build() returns, or the message of its ValueError."""
    try:
        return build().coeffs.tobytes()
    except ValueError as err:
        return str(err)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


tiny = st.floats(-9e-13, 9e-13, allow_nan=False)
direction = st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3).filter(
    lambda v: np.linalg.norm(v) > 1e-3).map(unit)


@st.composite
def rotor_a(draw, sig):
    """e3 marked as a blade, e3 unmarked, or a general unit vector a."""
    kind = draw(st.sampled_from(["marked", "unmarked", "general", "bad"]))
    if kind == "marked":
        return Multivector.basis_vector(sig, 3)
    if kind == "unmarked":
        return Multivector.vector(sig, [0.0, 0.0, 1.0])
    a = Multivector.vector(sig, draw(direction))
    if kind == "bad":  # non-unit or not a pure vector
        return draw(st.sampled_from([a * (1.0 + 1e-9), a + 1e-9 * Multivector.blade(sig, 3)]))
    return a


@st.composite
def rotor_b(draw, sig, a):
    """A target row for a: random, below the e1e2 plane, at a gap 1 + a.b
    down to 1.2e-10, with signed zeros, NaN, non-unit, non-vector or
    antiparallel; unit only to TOL and with parts below TOL outside grade 1
    at random."""
    kind = draw(st.sampled_from(["random", "below", "gap", "zeros", "nan", "bad"]))
    ahat = unit(a.vector_coords()[:3])
    if kind in ("random", "below"):
        v = draw(direction)
        if kind == "below":
            v[2] = -abs(v[2])
    elif kind == "gap":
        gap = draw(st.sampled_from([1.3, 1e-2, 1e-4, 1e-6, 1e-8, 1e-9, 3e-10, 1.2e-10]))
        theta, phi = math.acos(gap - 1.0), draw(st.floats(-math.pi, math.pi))
        u = unit(np.cross(ahat, [math.cos(phi), math.sin(phi), 0.3]))
        v = math.cos(theta) * ahat + math.sin(theta) * u
    elif kind == "zeros":
        base = draw(st.sampled_from([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                     (0.6, 0.0, 0.8), (0.0, 0.6, 0.8), (0.8, 0.6, 0.0)]))
        v = np.array(base) * draw(st.tuples(*[st.sampled_from([1.0, -1.0])] * 3))
    elif kind == "nan":  # on any blade, in grade 1 or not
        v = np.array([1.0, 0.0, 0.0])
    else:
        v = draw(st.sampled_from([np.array([0.6, 0.0, 0.8 + 1e-9]), -ahat]))
    row = Multivector.vector(sig, v).coeffs
    if kind == "nan":
        row[draw(st.integers(0, sig.dim - 1))] = math.nan
    if draw(st.booleans()):
        row = row * math.sqrt(1.0 + draw(tiny))
    if draw(st.booleans()):
        mask = draw(st.sampled_from([m for m in range(sig.dim) if bin(m).count("1") != 1]))
        row = row + draw(st.one_of(tiny, st.just(1e-9))) * Multivector.blade(sig, mask).coeffs
    return row


@st.composite
def rotor_inputs(draw):
    sig = draw(st.sampled_from([CL30, CL31]))
    a = draw(rotor_a(sig))
    return sig, a, draw(st.lists(rotor_b(sig, a), min_size=1, max_size=5))


class TestOneProductPerCall:
    """rotor_from_vectors reads a.b off the scalar part of b a and checks a
    marked unit blade from its mask: every input keeps the bytes, and every
    bad input the error, of the construction with a | b."""

    @settings(max_examples=500, deadline=None)
    @given(rotor_inputs())
    # a part above TOL beside a NaN outside grade 1: a plain max of their
    # absolute values is NaN, which passes the TOL check
    @example((CL30, Multivector.basis_vector(CL30, 3),
              [np.array([1e-9, 1.0, 0.0, math.nan, 0.0, 0.0, 0.0, 0.0])]))
    def test_single_and_stacked_calls_keep_the_bytes(self, inputs):
        sig, a, rows = inputs
        expected = []
        for row in rows:
            b = Multivector(sig, row)
            expected.append(outcome(lambda: parent_rotor(a, b)))
            assert outcome(lambda: rotor_from_vectors(a, b).value) == expected[-1]
        # a stack gives each row its bytes, or the first bad row's error
        errors = [e for e in expected if isinstance(e, str)]
        stack = Multivector._wrap(sig, np.array(rows))
        stacked = outcome(lambda: rotor_from_vectors(a, stack).value)
        if errors:
            assert stacked == errors[0]
        else:
            assert stacked == b"".join(expected)

    @pytest.mark.parametrize("sig", [CL30, CL31])
    def test_part_above_tol_beside_a_nan_is_impure(self, sig):
        b = Multivector.basis_vector(sig, 2).coeffs.copy()
        b[0], b[3] = 1e-9, math.nan
        a = Multivector.basis_vector(sig, 3)
        for rows in (b, np.array([b])):
            with pytest.raises(ValueError, match="^b must be a pure vector$"):
                rotor_from_vectors(a, Multivector._wrap(sig, rows))

    @pytest.mark.parametrize("sig, index", [(CL30, i) for i in (1, 2, 3)]
                             + [(CL31, i) for i in (1, 2, 3, 4)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_marked_blades_as_b(self, sig, index, sign):
        b = Multivector.basis_vector(sig, index)
        b = b if sign > 0 else -b
        assert b._blade
        for a in (Multivector.basis_vector(sig, 3), Multivector.vector(sig, unit([3, -4, 5]))):
            expected = outcome(lambda: parent_rotor(a, b))
            assert outcome(lambda: rotor_from_vectors(a, b).value) == expected

    @pytest.mark.parametrize("mask, message", [
        (0b1000, "a must be a unit vector"),  # e4 e4 = -1
        (0b0011, "a must be a pure vector"),  # e12
        (0b0000, "a must be a pure vector"),  # the scalar 1
    ])
    def test_marked_a_raises_as_its_unmarked_copy(self, mask, message):
        marked = Multivector.blade(CL31, mask)
        unmarked = Multivector(CL31, marked.coeffs.copy())
        assert marked._blade and not unmarked._blade
        b = Multivector.basis_vector(CL31, 1)
        for a in (marked, unmarked, -marked):
            with pytest.raises(ValueError, match=f"^{message}$"):
                rotor_from_vectors(a, b)
            with pytest.raises(ValueError, match=f"^{message}$"):
                rotor_from_vectors(a, Multivector._wrap(CL31, np.array([b.coeffs])))
