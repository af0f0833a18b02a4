import dataclasses

import numpy as np
import pytest
import scipy.linalg

from chiralwalk import operators as ops
from chiralwalk.exceptions import NormalizationError, PreconditionError
from chiralwalk.operators import CoefficientFunction, circle_grid
from chiralwalk.verification import random_unitary, scalar_profile, split_step_from_angles
from chiralwalk.walks import (
    CHIRAL_TOL,
    ChiralPair,
    SplitStepParams,
    build_gamma0,
    build_gamma1,
    build_generator_walk,
    build_walk,
    build_weighted_shift_walk,
)

import oracles


def scalar(v):
    return np.array([[v]], dtype=complex)


def const_profile(v):
    return CoefficientFunction.constant(scalar(v))


class TestGammaConstructors:
    def test_trivial_gamma1_is_sigma3(self):
        g1 = build_gamma1(const_profile(1.0), const_profile(0.0))
        assert np.array_equal(g1.coefficient(0).left, np.diag([1.0, -1.0]))

    def test_offdiagonal_gamma0_squares_to_one(self):
        g0 = build_gamma0(0.0, 1.0, 1)
        square = g0 @ g0
        assert sorted(square.bands) == [0]
        assert np.array_equal(square.coefficient(0).left, np.eye(2))

    def test_gamma0_symbol_matches_closed_form(self):
        g0 = build_gamma0(3 / 5, 4 / 5, 1)
        zs = circle_grid(32)
        vals = g0.symbol_at(ops.RIGHT)(zs)
        expected = np.empty_like(vals)
        expected[:, 0, 0] = 3 / 5
        expected[:, 0, 1] = (4 / 5) * zs**-1
        expected[:, 1, 0] = (4 / 5) * zs
        expected[:, 1, 1] = -3 / 5
        assert np.abs(vals - expected).max() < 1e-14
        unit = np.conj(np.transpose(vals, (0, 2, 1))) @ vals
        assert np.abs(unit - np.eye(2)).max() < 1e-12

    def test_normalization_rejected_with_site(self):
        a = CoefficientFunction.from_table(scalar(1.0), scalar(1.0), {0: scalar(1.0)})
        b = CoefficientFunction.from_table(scalar(0.0), scalar(0.0), {0: scalar(0.46)})
        with pytest.raises(NormalizationError, match="site x=0"):
            SplitStepParams(a=a, b=b, c=1.0, d_coin=0.0)

    def test_coin_normalization_rejected(self):
        with pytest.raises(NormalizationError):
            build_gamma0(0.9, 0.9, 1)

    @pytest.mark.parametrize("c, d", [(np.nan, 1.0), (0.6, complex(0.8, np.nan)),
                                      (np.inf, 0.0), (0.0, -np.inf)])
    def test_non_finite_coin_fails_the_normalization_check(self, c, d):
        # NaN compares false to every tolerance; the checks refuse it themselves
        with pytest.raises(NormalizationError, match="deviates from 1"):
            build_gamma0(c, d, 1)
        with pytest.raises(NormalizationError, match="deviates from 1"):
            SplitStepParams(a=const_profile(1.0), b=const_profile(0.0), c=c, d_coin=d)

    def test_unvalidated_factors_equal_validated_construction(self):
        # build_gamma0's constants and the coin skip CoefficientFunction's checks
        def fields(op):
            return {n: (f.left.tobytes(), f.right.tobytes(), f.values.tobytes(), f.window_start,
                        f.values.shape) for n, f in op.bands.items()}

        for c, d, n in ((0.6, 0.8j, 1), (-0.0, 1.0, 2), (np.cos(0.3), np.sin(0.3), 3)):
            g0 = build_gamma0(c, d, n)
            d = complex(d)   # as build_gamma0 reads it: conj(1.0) keeps a -0.0 imaginary part
            m = {0: [[c, 0], [0, -c]], -n: [[0, np.conj(d)], [0, 0]], n: [[0, 0], [d, 0]]}
            want = ops.BandedAnisotropicOperator(2, {k: CoefficientFunction.constant(
                np.array(v, dtype=complex)) for k, v in m.items()})
            assert fields(g0) == fields(want)
        pair = split_step_from_angles(0.4, 2.1, 1.0, 1, {-1: 0.3, 2: 1.7})
        lo, a, b = pair.params.profile
        coins = np.moveaxis(np.array([[a, b.conj()], [b, -a]]), -1, 0)
        want = ops.mult_op(CoefficientFunction(coins[0], coins[-1], lo, coins[1:-1]))
        assert fields(pair.gamma1) == fields(want)


class TestBuildWalk:
    def test_trivial_walk_is_identity(self):
        params = SplitStepParams(
            a=const_profile(1.0), b=const_profile(0.0), c=1.0, d_coin=0.0
        )
        pair = build_walk(params)
        assert sorted(pair.u.bands) == [0]
        assert np.array_equal(pair.u.coefficient(0).left, np.eye(2))

    def test_reflection_walk_is_diag_shift(self):
        params = SplitStepParams(
            a=const_profile(0.0), b=const_profile(1.0), c=0.0, d_coin=1.0
        )
        pair = build_walk(params)
        # U = diag(S*, S): determinant symbol is constant
        zs = circle_grid(16)
        dets = np.linalg.det(pair.u.symbol_at(ops.RIGHT)(zs))
        assert np.abs(dets - 1.0).max() < 1e-12
        from chiralwalk.winding import winding_det

        assert winding_det(pair.u.symbol_at(ops.RIGHT)).rounded == 0

    def test_step_profile_walk_validates(self):
        pair = split_step_from_angles(0.0, 1.2, 0.7)
        assert pair.certification.max_deviation < 1e-10

    def test_chiral_relation_on_all_outputs(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            t = rng.uniform(0, np.pi, size=3)
            pair = split_step_from_angles(*t)
            assert pair.certification.chiral_relation < 1e-10
            assert pair.certification.unitary_symbol_deviation < 1e-12

    def test_residual_entry_sup_equals_interior_truncation(self):
        # the coefficient part of the chiral check: entry_sup of each residual
        # against the max entry of the truncation rows no edge effect touches
        rng = np.random.default_rng(9)
        one = ops.identity(2)
        for _ in range(4):
            defects = {x: rng.uniform(0, np.pi) for x in range(-1, 2)}
            pair = split_step_from_angles(*rng.uniform(0, np.pi, size=3), 2, defects)
            g0, g1, u = pair.gamma0, pair.gamma1, pair.u
            for r in (g0 @ g0 - one, g0 @ u @ g0 - u.adjoint(), u.adjoint() @ u - one):
                lo, hi = r.bulk_window()
                L = r.band_radius + max(abs(lo), abs(hi)) + 4
                t = r.truncate(L)
                inner = t.matrix[r.band_radius * 2 : t.size - r.band_radius * 2, :]
                assert r.entry_sup() == (np.abs(inner).max() if inner.size else 0.0)

    def test_symbol_spectrum_conjugation_symmetric(self):
        pair = split_step_from_angles(0.4, 1.9, 1.1)
        zs = circle_grid(16)
        for side in (ops.LEFT, ops.RIGHT):
            vals = pair.u.symbol_at(side)(zs)
            for mat in vals:
                evs = np.linalg.eigvals(mat)
                remaining = list(np.conj(evs))
                for ev in evs:  # multiset equality under conjugation
                    j = int(np.argmin([abs(ev - w) for w in remaining]))
                    assert abs(ev - remaining[j]) < 1e-10
                    remaining.pop(j)


def banded_residual_deviations(g0, g1, u):
    """Oracle: the six residuals in banded algebra, entry_sup and limit symbols."""
    one = ops.identity(g0.fiber_dim)
    residuals = {
        "g0_sa": g0 - g0.adjoint(),
        "g1_sa": g1 - g1.adjoint(),
        "g0_inv": g0 @ g0 - one,
        "g1_inv": g1 @ g1 - one,
        "chiral": g0 @ u @ g0 - u.adjoint(),
        "u_unitary": u.adjoint() @ u - one,
    }
    zs = circle_grid(oracles.SYMBOL_POINTS)
    sym = {
        k: max(float(np.abs(r.symbol_at(side)(zs)).max()) for side in (ops.LEFT, ops.RIGHT))
        for k, r in residuals.items()
    }
    coeff = {k: float(r.entry_sup()) for k, r in residuals.items()}
    deviations = {
        "gamma0_selfadjoint": max(coeff["g0_sa"], sym["g0_sa"]),
        "gamma1_selfadjoint": max(coeff["g1_sa"], sym["g1_sa"]),
        "gamma0_involution": max(coeff["g0_inv"], sym["g0_inv"]),
        "gamma1_involution": max(coeff["g1_inv"], sym["g1_inv"]),
        "chiral_relation": max(coeff["chiral"], sym["chiral"]),
        "symbol_deviation": max(sym.values()),
        "unitary_symbol_deviation": sym["u_unitary"],
    }
    deviations["max_deviation"] = max(deviations.values())
    return deviations


def near_normalized_params(count=300):
    """Split-step parameters whose a^2 + |b|^2 - 1 and c^2 + |d|^2 - 1 reach
    1e-12, so that the residuals sit above rounding noise.  Shift exponents
    1-3; half have defect tables of up to seven sites, the outer one sometimes
    equal to its limit; b and d carry phases, a a small imaginary part on a
    third of them.  A fifth are translation invariant and a fifth have band
    radius 0 (d = 0), half of those with c = 1 exactly."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        left, right, theta2 = rng.uniform(0.05, np.pi - 0.05, size=3)
        start, size = int(rng.integers(-5, 3)), int(rng.integers(0, 8)) * (seed % 2)
        angles = rng.uniform(0.0, np.pi, size=size)
        if size and seed % 4 == 1:
            angles[0] = left if start < 0 else right
        if seed % 5 == 0:
            angles = angles[:0]
        thetas = np.concatenate([[left], angles, [right]])

        def near(values):
            return values * (1.0 + rng.uniform(-4e-13, 4e-13, size=np.shape(values)))

        a = near(np.cos(thetas)) + 1j * rng.uniform(0, 5e-13, size=thetas.size) * (seed % 3 == 0)
        b = near(np.sin(thetas)) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=thetas.size))
        c, d = near(np.cos(theta2)), near(np.sin(theta2)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if seed % 5 == 0:
            a[-1], b[-1] = a[0], b[0]
        elif seed % 5 == 1:
            c, d = (1.0 if seed % 10 == 1 else near(1.0)), 0.0
        a_table = {start + k: v for k, v in enumerate(a[1:-1])}
        b_table = {start + k: v for k, v in enumerate(b[1:-1])}
        yield SplitStepParams(a=scalar_profile(a[0], a[-1], a_table),
                              b=scalar_profile(b[0], b[-1], b_table),
                              c=float(c), d_coin=complex(d), shift_exponent=1 + seed % 3)


def moved(f, site=None, eps=1e-6):
    """Scalar profile f with its value at a bulk site (or its right limit when
    site is None) moved by eps."""
    left, right, values = (np.array(m) for m in (f.left, f.right, f.values))
    if site is None:
        right += eps
    else:
        values[site - f.window_start] += eps
    return CoefficientFunction(left, right, f.window_start, values)


class TestChiralValidation:
    def test_bounds_cover_the_dense_and_banded_oracles(self):
        # near-normalized pairs test the algebra, exactly normalized ones the rounding terms
        kinds = dict.fromkeys(("shift_1", "shift_2", "shift_3", "defects", "above_noise",
                               "rounding_level"), 0)
        pairs = [build_walk(p) for p in near_normalized_params()]
        for pair in pairs + [pair for _, pair in oracles.seeded_split_steps()]:
            params, record = pair.params, pair.certification.to_dict()
            dense = oracles.dense_chiral_residuals(pair.gamma0, pair.gamma1, pair.u)
            banded = banded_residual_deviations(pair.gamma0, pair.gamma1, pair.u)
            assert record.keys() == dense.keys()
            assert record["max_deviation"] <= CHIRAL_TOL
            for key, bound in record.items():
                assert bound >= dense[key], key
                assert bound >= banded[key], key
            kinds[f"shift_{params.shift_exponent}"] += 1
            kinds["defects"] += not pair.gamma1.is_translation_invariant()
            kinds["above_noise"] += dense["max_deviation"] > 1e-13
            kinds["rounding_level"] += dense["max_deviation"] < 1e-14
        assert min(kinds.values()) >= 60, kinds

    def test_perturbed_bulk_coefficient_rejected(self):
        # a 1e-6 change of a or b at a bulk site breaks a^2 + |b|^2 = 1 there
        pair = split_step_from_angles(0.4, 1.9, 1.1, 1, {-1: 0.3, 0: 2.0, 1: 1.4})
        p = pair.params
        for changed in ({"a": moved(p.a, site=0)}, {"b": moved(p.b, site=0)}):
            with pytest.raises(NormalizationError, match="site x=0"):
                dataclasses.replace(p, **changed)
        # a hand-perturbed gamma1 has no way into a pair
        with pytest.raises(PreconditionError):
            ChiralPair(pair.gamma1)

    def test_perturbed_limit_coefficient_rejected(self):
        p = split_step_from_angles(0.4, 1.9, 1.1, 2).params
        a = moved(p.a)
        assert a.values.shape[0] == 0  # only the limit changed
        with pytest.raises(NormalizationError, match="deviates from 1"):
            dataclasses.replace(p, a=a)

    def test_non_involution_gamma0_rejected(self):
        # gamma0 scaled by 1 + 1e-6 stays self-adjoint and squares to (1 + 1e-6)^2
        p = split_step_from_angles(0.4, 1.9, 1.1).params
        c, d = p.c * (1.0 + 1e-6), p.d_coin * (1.0 + 1e-6)
        with pytest.raises(NormalizationError):
            build_gamma0(c, d, 1)
        with pytest.raises(NormalizationError):
            dataclasses.replace(p, c=c, d_coin=d)

    def test_band_radius_zero_pair(self):
        params = SplitStepParams(a=const_profile(1.0), b=const_profile(0.0), c=1.0, d_coin=0.0)
        pair = build_walk(params)
        assert pair.u.band_radius == 0
        record = pair.certification
        assert record.max_deviation == 0.0
        with pytest.raises(NormalizationError):
            dataclasses.replace(params, a=const_profile(1.0 + 1e-6))

    def test_band_radius_zero_bulk_defect_rejected(self):
        a = CoefficientFunction.from_table(scalar(1.0), scalar(1.0), {3: scalar(1.0 + 1e-6)})
        with pytest.raises(NormalizationError, match="site x=3"):
            SplitStepParams(a=a, b=const_profile(0.0), c=1.0, d_coin=0.0)


SYMBOL_FIELDS = {
    "g0_sa": "gamma0_selfadjoint", "g1_sa": "gamma1_selfadjoint",
    "g0_inv": "gamma0_involution", "g1_inv": "gamma1_involution",
    "chiral": "chiral_relation", "u_unitary": "unitary_symbol_deviation",
}


class TestLimitSymbolResiduals:
    def test_symbol_bounds_cover_the_laurent_oracle(self):
        kinds = {"translation_invariant": 0, "radius_zero": 0, "exact_zero": 0, "above_noise": 0}
        for params in near_normalized_params():
            pair = build_walk(params)
            record = pair.certification.to_dict()
            want = oracles.symbol_sups(pair.gamma0, pair.gamma1, pair.u)
            for key, (sup, exact_zero) in want.items():
                assert record[SYMBOL_FIELDS[key]] >= sup, key
                assert record["symbol_deviation"] >= sup, key
                # a difference of exactly equal coefficients has no rounding to differ in
                if exact_zero and key in ("g0_sa", "g1_sa") and not params.profile[1].imag.any():
                    assert record[SYMBOL_FIELDS[key]] == 0.0, key
                    kinds["exact_zero"] += 1
                kinds["above_noise"] += sup > 1e-13
            kinds["translation_invariant"] += pair.u.is_translation_invariant()
            kinds["radius_zero"] += pair.u.band_radius == 0
        assert min(kinds.values()) >= 50, kinds

    @pytest.mark.parametrize("shift", [1, 2, 3])
    def test_exact_coins_read_zero(self, shift):
        # coins with entries 0 and +-1: every product is exact, whatever the summation order
        a = CoefficientFunction.from_table(scalar(0.0), scalar(1.0), {0: scalar(-1.0)})
        b = CoefficientFunction.from_table(scalar(1j), scalar(0.0), {0: scalar(0.0)})
        for c, d in ((0.0, 1.0), (1.0, 0.0), (0.0, -1j)):
            pair = build_walk(SplitStepParams(a=a, b=b, c=c, d_coin=d, shift_exponent=shift))
            record = pair.certification.to_dict()
            assert record == dict(record, **dict.fromkeys(SYMBOL_FIELDS.values(), 0.0))
            assert record["symbol_deviation"] == record["max_deviation"] == 0.0
            dense = oracles.dense_chiral_residuals(pair.gamma0, pair.gamma1, pair.u)
            assert dense["max_deviation"] == 0.0


class TestWeightedShift:
    def test_identity_case(self):
        op = build_weighted_shift_walk(0, 0, np.eye(2))
        assert sorted(op.bands) == [0]
        assert np.array_equal(op.coefficient(0).left, np.eye(2))

    def test_winding_anchor(self):
        from chiralwalk.winding import winding_det

        rng = np.random.default_rng(17)
        op = build_weighted_shift_walk(1, 0, np.eye(2))
        assert winding_det(op.symbol_at(ops.RIGHT)).rounded == 1
        op = build_weighted_shift_walk(2, 3, random_unitary(2, rng))
        assert winding_det(op.symbol_at(ops.RIGHT)).rounded == -1

    def test_nonunitary_coin_rejected(self):
        with pytest.raises(PreconditionError):
            build_weighted_shift_walk(1, 0, np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_generic_coin_walk_is_not_chiral(self):
        rng = np.random.default_rng(23)
        coin = random_unitary(2, rng)
        assert np.abs(coin - coin.conj().T).max() > 1e-3  # generic: not self-adjoint
        op = build_weighted_shift_walk(1, 1, coin)
        # U* differs from G0 U G0 for every constant grading we try
        g0 = ops.mult_op(CoefficientFunction.constant(np.diag([1.0, -1.0])))
        residual = g0 @ op @ g0 - op.adjoint()
        assert residual.entry_sup() > 1e-3


class TestGeneratorWalk:
    def test_zero_hamiltonian(self):
        walk = build_generator_walk(np.zeros((2, 2)), np.diag([1.0, -1.0]))
        assert np.allclose(walk.walk_exp, np.eye(2))
        assert not walk.regularized

    def test_sigma_x_gives_minus_one(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        walk = build_generator_walk(h, np.diag([1.0, -1.0]))
        assert np.abs(walk.walk_exp + np.eye(2)).max() < 1e-12

    def test_chirality_against_expm_oracle(self):
        rng = np.random.default_rng(31)
        from chiralwalk.verification import random_chiral_hamiltonian

        for _ in range(5):
            h, g0, _ = random_chiral_hamiltonian(rng, 4, 4)
            walk = build_generator_walk(h, g0)
            oracle = scipy.linalg.expm(1j * np.pi * h)
            assert np.abs(walk.walk_exp - oracle).max() < 1e-10
            relation = g0 @ walk.walk_exp @ g0 - scipy.linalg.expm(-1j * np.pi * h)
            assert np.abs(relation).max() < 1e-10

    def test_norm_regularization_flagged(self):
        h = np.array([[0.0, 3.0], [3.0, 0.0]])
        walk = build_generator_walk(h, np.diag([1.0, -1.0]))
        assert walk.regularized
        assert scipy.linalg.norm(walk.hamiltonian, 2) <= 1.0 + 1e-12
        assert np.allclose(walk.walk_neg_exp, -walk.walk_exp)

    def test_anticommutation_required(self):
        with pytest.raises(PreconditionError):
            build_generator_walk(np.eye(2), np.diag([1.0, -1.0]))
