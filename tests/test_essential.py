import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chiralwalk import essential, operators as ops
from chiralwalk.exceptions import ChiralwalkError, PreconditionError
from chiralwalk.operators import identity, shift_power
from chiralwalk.verification import random_split_step, split_step_from_angles


def reference_sweep(op, grid_n, reduce):
    """Per-certification SVD sweep: singular values of both limit symbols of op.

    ``reduce`` is np.min (a gap, sigma_min) or np.max (a norm); the grid
    doubles until the value moves by less than REFINE_TOL, and the last
    two values merge by the same reduction.  Returns (value, grid reached).
    """
    loops = [op.symbol_at(ops.LEFT), op.symbol_at(ops.RIGHT)]

    def value(n):
        zs = ops.circle_grid(n)
        return float(reduce([np.linalg.svd(loop(zs), compute_uv=False) for loop in loops]))

    n = grid_n
    v = value(n)
    while n < essential.MAX_GRID_N:
        nxt = value(2 * n)
        n *= 2
        if abs(nxt - v) < essential.REFINE_TOL:
            return float(reduce([v, nxt])), n
        v = nxt
    return v, n


def reference_status(slack, margin=essential.DEFAULT_MARGIN):
    if slack > margin:
        return essential.CERTIFIED
    if slack <= margin * 1e-3:
        return essential.REFUTED
    return essential.INCONCLUSIVE


def reference_symbol_eigenvalues(u, grid_n):
    """Per-point eigenvalues, each point sorted by (real, imag)."""
    thetas = 2.0 * np.pi * np.arange(grid_n) / grid_n
    out = []
    for side in (ops.LEFT, ops.RIGHT):
        vals = u.symbol_at(side)(np.exp(1j * thetas))
        for theta, mat in zip(thetas, vals):
            for ev in sorted(np.linalg.eigvals(mat), key=lambda w: (w.real, w.imag)):
                out.append((side, float(theta), complex(ev)))
    return out


class TestFredholmType:
    def test_identity_certified_against_one(self):
        cert = essential.is_fredholm_type(identity(2))
        assert cert.minus.status == "certified" and cert.minus.value == 0.0
        assert cert.plus.status == "refuted" and abs(cert.plus.value - 2.0) < 1e-12

    def test_minus_identity_refuted(self):
        cert = essential.is_fredholm_type(identity(2).scaled(-1.0))
        assert cert.minus.status == "refuted"
        assert cert.plus.status == "certified"

    def test_trivial_walk_both_gaps(self):
        pair = split_step_from_angles(0.2, 0.2, 1.4)
        cert = essential.is_fredholm_type(pair.u)
        assert cert.minus.certified or cert.minus.status == "inconclusive"


class TestGapAt:
    def test_diag_shift_walk_gapless(self):
        pair = split_step_from_angles(np.pi / 2, np.pi / 2, np.pi / 2)
        # U = diag(S*, S): symbol eigenvalues sweep the whole circle
        for target in (+1, -1):
            assert essential.gap_at(pair.u, target).status == "refuted"

    def test_identity_gap_at_minus_one(self):
        cert = essential.gap_at(identity(2), -1)
        assert cert.certified and abs(cert.value - 2.0) < 1e-12

    def test_gap_matches_fine_grid_eigenvalue_oracle(self):
        pair = split_step_from_angles(0.0, 1.0, np.arccos(3 / 5))
        for target in (+1, -1):
            cert = essential.gap_at(pair.u, target, grid_n=512)
            # independent oracle: min |eigenvalue - target| on a 10x finer grid
            oracle = np.inf
            zs = ops.circle_grid(5120)
            for side in (ops.LEFT, ops.RIGHT):
                evs = np.linalg.eigvals(pair.u.symbol_at(side)(zs))
                oracle = min(oracle, np.abs(evs - target).min())
            assert abs(cert.value - oracle) < 1e-3

    def test_invalid_target(self):
        with pytest.raises(ChiralwalkError):
            essential.gap_at(identity(2), 0.5)


class TestDichotomy:
    def test_equal_gammas(self):
        pair = split_step_from_angles(0.3, 0.3, 0.3)
        report = essential.dichotomy_check(pair)
        assert report.holds

    def test_random_pairs_never_violate(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            assert essential.dichotomy_check(random_split_step(rng)).holds


class TestSpectrumDump:
    def test_trivial_walk_all_ones(self):
        pair = split_step_from_angles(0.0, 0.0, 0.0)
        rows = essential.symbol_eigenvalues(pair.u, grid_n=16)
        for _, _, ev in rows:
            assert abs(ev - 1.0) < 1e-10

    def test_gap_consistency_with_certification(self):
        pair = split_step_from_angles(0.0, 1.0, 0.3)
        cert = essential.gap_at(pair.u, -1, grid_n=256)
        assert cert.certified
        rows = essential.symbol_eigenvalues(pair.u, grid_n=256)
        closest = min(abs(ev + 1.0) for _, _, ev in rows)
        assert closest >= cert.value - 1e-9


angles = st.floats(0.0, np.pi, allow_nan=False)


class TestSymbolSpectrum:
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        theta1_left=angles,
        theta1_right=angles,
        theta2=angles,
        shift_exponent=st.sampled_from([1, 2]),
        defects=st.dictionaries(st.integers(-2, 2), angles, max_size=3),
        grid_n=st.sampled_from([64, 256, 1024]),
    )
    def test_certify_unitary_matches_svd_reference(
        self, theta1_left, theta1_right, theta2, shift_exponent, defects, grid_n
    ):
        pair = split_step_from_angles(theta1_left, theta1_right, theta2, shift_exponent, defects)
        certs = essential.certify_unitary(pair.u, grid_n)
        one = identity(2)
        for cert, target in ((certs.gap_plus, 1.0), (certs.gap_minus, -1.0)):
            value, n = reference_sweep(pair.u - one.scaled(target), grid_n, np.min)
            assert abs(cert.value - value) < 1e-12
            assert (cert.status, cert.grid_n) == (reference_status(value), n)
        for cert, sign in ((certs.fredholm.minus, -1.0), (certs.fredholm.plus, 1.0)):
            value, n = reference_sweep(one + pair.u.scaled(sign), grid_n, np.max)
            assert abs(cert.value - value) < 1e-12
            assert (cert.status, cert.grid_n) == (reference_status(2.0 - value), n)
        diff, _ = reference_sweep(pair.gamma0 - pair.gamma1, grid_n, np.max)
        total, _ = reference_sweep(pair.gamma0 + pair.gamma1, grid_n, np.max)
        for report in (certs.dichotomy, essential.dichotomy_check(pair, grid_n)):
            assert abs(report.norm_difference - diff) < 1e-12
            assert abs(report.norm_sum - total) < 1e-12
            assert report.holds == (max(diff, total) >= 1.0 - essential.DEFAULT_MARGIN)

    def test_entry_points_agree_with_certify_unitary(self):
        pair = random_split_step(np.random.default_rng(5))
        certs = essential.certify_unitary(pair.u, 256)
        assert essential.gap_at(pair.u, +1, 256) == certs.gap_plus
        assert essential.gap_at(pair.u, -1, 256) == certs.gap_minus
        assert essential.is_fredholm_type(pair.u, 256) == certs.fredholm
        assert essential.dichotomy_check(pair, 256) == certs.dichotomy

    def test_eigenvalues_cached_per_grid(self):
        spectrum = essential.SymbolSpectrum(random_split_step(np.random.default_rng(6)).u)
        evs = spectrum.eigenvalues(64)
        assert evs.shape == (2, 64, 2)
        assert spectrum.eigenvalues(64) is evs

    def test_symbol_eigenvalues_bitwise_equal_to_per_point_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            u = random_split_step(rng).u
            assert essential.symbol_eigenvalues(u, 128) == reference_symbol_eigenvalues(u, 128)

    @pytest.mark.parametrize(
        "op",
        [identity(2).scaled(1.1), shift_power(1, 2) + identity(2).scaled(1e-3)],
        ids=["scaled_identity", "shift_plus_band"],
    )
    def test_non_unitary_symbol_raises(self, op):
        with pytest.raises(PreconditionError):
            essential.gap_at(op, +1)
        with pytest.raises(PreconditionError):
            essential.is_fredholm_type(op)
        with pytest.raises(PreconditionError):
            essential.certify_unitary(op)
        # the spectrum dump carries no unitarity precondition
        assert len(essential.symbol_eigenvalues(op, 16)) == 2 * 16 * 2

    def test_unitary_within_rounding_accepted(self):
        cert = essential.gap_at(identity(2).scaled(1.0 + 1e-12), -1, 64)
        assert cert.certified

    @pytest.mark.xfail(
        strict=True,
        reason="a grid minimum over-estimates a gap that closes between grid points",
    )
    def test_rotated_shift_gap_not_certified(self):
        # symbol exp(i(theta + phi)) reaches +1, so the gap at +1 is zero
        for phi in (1.0, np.sqrt(2.0), 0.5):
            u = shift_power(1, 1).scaled(np.exp(1j * phi))
            assert essential.gap_at(u, +1, 1024).status != essential.CERTIFIED
