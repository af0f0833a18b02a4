import numpy as np
import pytest
import scipy.linalg

from chiralwalk import operators as ops
from chiralwalk.exceptions import NormalizationError, PreconditionError
from chiralwalk.operators import CoefficientFunction, circle_grid
from chiralwalk.verification import random_unitary, split_step_from_angles
from chiralwalk.walks import (
    CHIRAL_TOL,
    SYMBOL_POINTS,
    ChiralPair,
    SplitStepParams,
    build_gamma0,
    build_gamma1,
    build_generator_walk,
    build_walk,
    build_weighted_shift_walk,
    verify_chiral_parts,
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
    zs = circle_grid(SYMBOL_POINTS)
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


def perturbed_gamma1(pair, site=None, entry=(0, 0), eps=1e-6):
    """Gamma1 of pair with one entry of its bulk table at site (or of its
    right limit when site is None) moved by eps."""
    f = pair.gamma1.coefficient(0)
    left, right, values = (np.array(m) for m in (f.left, f.right, f.values))
    if site is None:
        right[entry] += eps
    else:
        values[(site - f.window_start, *entry)] += eps
    return ops.mult_op(CoefficientFunction(left, right, f.window_start, values))


class TestChiralValidation:
    def test_deviations_match_banded_residual_oracle(self):
        rng = np.random.default_rng(41)
        for shift in (1, 2):
            for with_defects in (False, True):
                for _ in range(6):
                    defects = None
                    if with_defects:
                        lo, hi = -int(rng.integers(0, 3)), int(rng.integers(1, 4))
                        defects = {x: rng.uniform(0, np.pi) for x in range(lo, hi)}
                    pair = split_step_from_angles(*rng.uniform(0, np.pi, size=3), shift, defects)
                    record = pair.certification.to_dict()
                    oracle = banded_residual_deviations(pair.gamma0, pair.gamma1, pair.u)
                    for key, value in oracle.items():
                        assert abs(record[key] - value) <= 1e-15, key

    def test_perturbed_bulk_coefficient_rejected(self):
        pair = split_step_from_angles(0.4, 1.9, 1.1, 1, {-1: 0.3, 0: 2.0, 1: 1.4})
        for entry in ((0, 0), (1, 0)):
            g1 = perturbed_gamma1(pair, site=0, entry=entry)
            record = verify_chiral_parts(pair.gamma0, g1)
            assert record.max_deviation > 100 * CHIRAL_TOL
            # a bulk defect leaves every limit symbol intact
            assert record.symbol_deviation < 1e-12
            with pytest.raises(PreconditionError):
                ChiralPair(gamma0=pair.gamma0, gamma1=g1)

    def test_perturbed_limit_coefficient_rejected(self):
        pair = split_step_from_angles(0.4, 1.9, 1.1, 2)
        g1 = perturbed_gamma1(pair, site=None, entry=(1, 1))
        assert g1.coefficient(0).values.shape[0] == 0  # only the limit changed
        record = verify_chiral_parts(pair.gamma0, g1)
        assert record.gamma1_involution > 100 * CHIRAL_TOL
        oracle = banded_residual_deviations(pair.gamma0, g1, pair.gamma0 @ g1)
        assert abs(record.max_deviation - oracle["max_deviation"]) <= 1e-15
        with pytest.raises(PreconditionError):
            ChiralPair(gamma0=pair.gamma0, gamma1=g1)

    def test_non_involution_gamma0_rejected(self):
        pair = split_step_from_angles(0.4, 1.9, 1.1)
        g0 = pair.gamma0.scaled(1.0 + 1e-6)  # self-adjoint, squares to (1 + 1e-6)^2
        record = verify_chiral_parts(g0, pair.gamma1)
        assert record.gamma0_selfadjoint == 0.0
        assert record.gamma0_involution > 100 * CHIRAL_TOL
        with pytest.raises(PreconditionError):
            ChiralPair(gamma0=g0, gamma1=pair.gamma1)

    def test_band_radius_zero_pair(self):
        params = SplitStepParams(a=const_profile(1.0), b=const_profile(0.0), c=1.0, d_coin=0.0)
        pair = build_walk(params)
        assert pair.u.band_radius == 0
        record = pair.certification
        assert record.max_deviation == 0.0
        assert record.window_halfwidth == 4
        # the coefficient rows of a radius-0 window must not be empty
        broken = ops.mult_op(CoefficientFunction.constant(np.diag([1.0, -1.0 - 1e-6])))
        record = verify_chiral_parts(pair.gamma0, broken)
        assert record.gamma1_involution > 100 * CHIRAL_TOL
        with pytest.raises(PreconditionError):
            ChiralPair(gamma0=pair.gamma0, gamma1=broken)

    def test_band_radius_zero_bulk_defect_rejected(self):
        g0 = ops.mult_op(CoefficientFunction.constant(np.diag([1.0, -1.0])))
        g1 = ops.mult_op(
            CoefficientFunction.from_table(np.eye(2), np.eye(2), {3: np.diag([1.0, 1.0 + 1e-6])})
        )
        record = verify_chiral_parts(g0, g1)
        assert record.symbol_deviation == 0.0
        assert record.gamma1_involution > 100 * CHIRAL_TOL
        with pytest.raises(PreconditionError):
            ChiralPair(gamma0=g0, gamma1=g1)


def residual_corpus(count=320):
    """(pair, gamma1) with the split-step pair's gamma1, or with its right limit moved
    by 1e-9 to 1e-3 so that the residuals are far from rounding noise.  The pairs
    have shift exponents 1-3 and defect tables of up to seven sites, the outer one
    sometimes equal to its limit; a fifth are translation invariant and a fifth
    have band radius 0."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        left, right, theta2 = rng.uniform(0.05, np.pi - 0.05, size=3)
        start, size = int(rng.integers(-5, 3)), int(rng.integers(0, 8))
        defects = {x: float(rng.uniform(0.0, np.pi)) for x in range(start, start + size)}
        if defects and seed % 2:
            defects[start] = left if start < 0 else right
        if seed % 5 == 0:
            right, defects = left, {}
        elif seed % 5 == 1:
            theta2 = 0.0
        pair = split_step_from_angles(left, right, theta2, 1 + seed % 3, defects)
        f = pair.gamma1.coefficient(0)
        moved = np.array(f.right) + 10.0 ** rng.uniform(-9, -3) * (
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        yield pair, pair.gamma1
        yield pair, ops.mult_op(CoefficientFunction(f.left, moved, f.window_start, f.values))


class TestLimitSymbolResiduals:
    def test_symbol_sups_match_the_laurent_oracle(self):
        kinds = {"translation_invariant": 0, "radius_zero": 0, "exact_zero": 0, "large": 0}
        for pair, g1 in residual_corpus():
            record = verify_chiral_parts(pair.gamma0, g1)
            want = oracles.symbol_sups(pair.gamma0, g1, pair.gamma0 @ g1)
            assert record.symbol_sups.keys() == want.keys()
            for key, (sup, exact_zero) in want.items():
                assert abs(record.symbol_sups[key] - sup) <= 1e-15, key
                # a difference of exactly equal coefficients has no rounding to differ in
                if exact_zero and key in ("g0_sa", "g1_sa"):
                    assert record.symbol_sups[key] == 0.0, key
                    kinds["exact_zero"] += 1
                kinds["large"] += sup > 1e-10
            assert record.symbol_deviation == max(record.symbol_sups.values())
            assert record.unitary_symbol_deviation == record.symbol_sups["u_unitary"]
            kinds["translation_invariant"] += pair.u.is_translation_invariant()
            kinds["radius_zero"] += pair.u.band_radius == 0
        assert min(kinds.values()) > 100, kinds

    @pytest.mark.parametrize("shift", [1, 2, 3])
    def test_exact_coins_read_zero(self, shift):
        # coins with entries 0 and +-1: every product is exact, whatever the summation order
        g1 = build_gamma1(
            CoefficientFunction.from_table(scalar(0.0), scalar(1.0), {0: scalar(-1.0)}),
            CoefficientFunction.from_table(scalar(1j), scalar(0.0), {0: scalar(0.0)}),
        )
        for c, d in ((0.0, 1.0), (1.0, 0.0), (0.0, -1j)):
            record = verify_chiral_parts(build_gamma0(c, d, shift), g1)
            assert record.symbol_sups == dict.fromkeys(record.symbol_sups, 0.0)
            assert record.max_deviation == 0.0


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
