from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from chiralwalk import operators as ops, winding
from chiralwalk.exceptions import FramePropagationError, NotFredholmError, PreconditionError
from chiralwalk.operators import SymbolLoop
from chiralwalk.verification import (
    interpolating_shift_model,
    random_unitary,
    split_step_from_angles,
)
from chiralwalk.walks import build_weighted_shift_walk


def scalar(v):
    return np.array([[v]], dtype=complex)


# --- point-by-point reference for the batched compressed loops ----------------


def _reference_flatten(u_mat, cayley_sign, tol=1e-8):
    t_mat, vecs = scipy.linalg.schur(np.asarray(u_mat, dtype=complex), output="complex")
    evals = np.diag(t_mat) * cayley_sign
    if np.abs(evals - 1.0).min() < tol or np.abs(evals + 1.0).min() < tol:
        raise PreconditionError("symbol eigenvalue at +-1")
    signs = np.where(evals.imag > 0, -1.0, 1.0)
    return (vecs * signs) @ vecs.conj().T


def _reference_frames(g0_mat):
    evals, vecs = np.linalg.eigh(0.5 * (g0_mat + g0_mat.conj().T))
    return vecs[:, evals > 0.5], vecs[:, evals < -0.5]


def _reference_propagate(projector, frame):
    u_mat, svals, vh = np.linalg.svd(projector @ frame, full_matrices=False)
    if svals.min() < 0.1:
        raise FramePropagationError("projected frame nearly singular")
    return u_mat @ vh


def reference_loop(pair, side, grid_n, cayley_sign=None, gauge=None):
    """One Schur and two polar SVDs per grid point, frames propagated in turn.

    cayley_sign None builds the imaginary-part block, +-1 the flat band.
    """
    d = pair.u.fiber_dim
    half = d // 2
    zs = ops.circle_grid(grid_n)
    u_vals = pair.u.symbol_at(side)(zs)
    g0_vals = pair.gamma0.symbol_at(side)(zs)
    frame_plus, frame_minus = _reference_frames(g0_vals[0])
    if gauge is not None:
        frame_plus = frame_plus @ gauge[0]
        frame_minus = frame_minus @ gauge[1]
    start_plus, start_minus = frame_plus, frame_minus
    samples = np.empty((grid_n + 1, half, half), dtype=complex)
    for k in range(grid_n + 1):
        idx = k % grid_n
        if k > 0:
            p0 = 0.5 * (np.eye(d) + g0_vals[idx])
            frame_plus = _reference_propagate(p0, frame_plus)
            frame_minus = _reference_propagate(np.eye(d) - p0, frame_minus)
        if cayley_sign is None:
            middle = (u_vals[idx] - u_vals[idx].conj().T) / 2j
        else:
            middle = _reference_flatten(u_vals[idx], cayley_sign)
        samples[k] = frame_minus.conj().T @ middle @ frame_plus
    return winding.SampledLoop(
        fiber_dim=half,
        samples=samples,
        holonomy_plus=start_plus.conj().T @ frame_plus,
        holonomy_minus=start_minus.conj().T @ frame_minus,
        side=side,
        grid_n=grid_n,
    )


def batched_loop(pair, side, grid_n, cayley_sign=None, gauge=None):
    if cayley_sign is None:
        return winding.chiral_imaginary_block_symbol(pair, side, grid_n)
    return winding.chiral_flat_band_symbol(pair, side, grid_n, cayley_sign, gauge)


def assert_loops_match(loop, ref, tol=1e-12):
    assert loop.samples.shape == ref.samples.shape
    assert np.abs(loop.samples - ref.samples).max() < tol
    for attr in ("holonomy_plus", "holonomy_minus"):
        assert abs(np.linalg.det(getattr(loop, attr)) - np.linalg.det(getattr(ref, attr))) < tol
    got, want = loop.winding(), ref.winding()
    assert got.rounded == want.rounded
    assert abs(got.raw_phase - want.raw_phase) < tol


def block_sum_pair(pair_a, pair_b, v):
    """Symbol-level chiral data of v (pair_a + pair_b) v^* on a doubled fiber."""

    def summed(loop_a, loop_b):
        da, db = loop_a.fiber_dim, loop_b.fiber_dim
        coeffs = {}
        for n in set(loop_a.coefficients) | set(loop_b.coefficients):
            block = scipy.linalg.block_diag(
                loop_a.coefficients.get(n, np.zeros((da, da))),
                loop_b.coefficients.get(n, np.zeros((db, db))),
            )
            coeffs[n] = v @ block @ v.conj().T
        return SymbolLoop(da + db, coeffs)

    def operator(name):
        a, b = getattr(pair_a, name), getattr(pair_b, name)
        return SimpleNamespace(
            fiber_dim=a.fiber_dim + b.fiber_dim,
            symbol_at=lambda side: summed(a.symbol_at(side), b.symbol_at(side)),
        )

    return SimpleNamespace(u=operator("u"), gamma0=operator("gamma0"))


class TestWindingDet:
    def test_monomial(self):
        assert winding.winding_det(SymbolLoop(1, {1: scalar(1.0)})).rounded == 1

    def test_constant_unitary(self):
        rng = np.random.default_rng(1)
        loop = SymbolLoop(3, {0: random_unitary(3, rng)})
        assert winding.winding_det(loop).rounded == 0

    def test_weighted_shift_anchor(self):
        rng = np.random.default_rng(2)
        for m in range(4):
            for n in range(4):
                coin = random_unitary(2, rng)
                op = build_weighted_shift_walk(m, n, coin)
                for side in (ops.LEFT, ops.RIGHT):
                    res = winding.winding_det(op.symbol_at(side))
                    assert res.rounded == m - n
                    assert abs(res.raw_phase - res.rounded) < 0.25

    def test_noninvertible_rejected(self):
        loop = SymbolLoop(1, {1: scalar(1.0), 0: scalar(-1.0)})
        with pytest.raises(NotFredholmError):
            winding.winding_det(loop)

    def test_step_guard_refines(self):
        res = winding.winding_det(SymbolLoop(1, {12: scalar(1.0)}), grid_n=16)
        assert res.rounded == 12
        assert res.grid_n > 16
        assert res.max_step_phase < np.pi / 2

    def test_homotopy_invariance_linear_deformation(self):
        rng = np.random.default_rng(3)
        base = {n: (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * 0.1
                for n in (-1, 0, 2)}
        base[1] = np.eye(2) * 3.0  # dominant z term: winding 2
        loop0 = SymbolLoop(2, base)
        w0 = winding.winding_det(loop0).rounded
        for t in np.linspace(0, 1, 11):
            bumped = {n: m * (1.0 + 0.4 * t) for n, m in base.items()}
            bumped[0] = base.get(0, 0) + t * 0.3 * np.eye(2)
            loop_t = SymbolLoop(2, bumped)
            assert winding.winding_det(loop_t).rounded == w0


class TestNcWinding:
    def test_monomial_identity_fiber(self):
        for d in (1, 2, 3):
            loop = SymbolLoop(d, {1: np.eye(d)})
            assert winding.nc_winding(loop) == Fraction(1)

    def test_opposite_windings_cancel(self):
        loop = SymbolLoop(2, {1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])})
        assert winding.nc_winding(loop) == Fraction(0)

    def test_fractional_value(self):
        # diag(z, 1, 1): det winding 1 over fiber 3
        loop = SymbolLoop(3, {1: np.diag([1.0, 0.0, 0.0]), 0: np.diag([0.0, 1.0, 1.0])})
        assert winding.nc_winding(loop) == Fraction(1, 3)

    def test_matches_det_oracle_random(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            shift = int(rng.integers(-2, 3))
            coeffs = {n + shift: (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) * 0.15
                      for n in (-1, 0, 1)}
            coeffs[shift] = coeffs[shift] + 2.0 * np.eye(3)
            loop = SymbolLoop(3, coeffs)
            det_wind = winding.winding_det(loop)
            value = winding.nc_winding(loop)
            assert value == Fraction(det_wind.rounded, 3)
            assert abs(float(value) * 3 - det_wind.raw_phase) < 1e-8 + 0.25


class TestFlatBandLoop:
    def test_compressed_loop_unitary(self):
        pair = split_step_from_angles(0.0, 1.0, 0.3)
        for side in (ops.LEFT, ops.RIGHT):
            loop = winding.chiral_flat_band_symbol(pair, side, grid_n=128)
            for sample in loop.samples:
                dev = np.abs(sample.conj().T @ sample - np.eye(1)).max()
                assert dev < 1e-10

    def test_trivial_walk_winding_difference_zero(self):
        # translation-invariant walk: both sides carry the same loop, so the
        # only construction-invariant quantity, the difference, vanishes
        pair = split_step_from_angles(0.0, 0.0, 0.3)
        left = winding.chiral_flat_band_symbol(pair, ops.LEFT, grid_n=64).winding()
        right = winding.chiral_flat_band_symbol(pair, ops.RIGHT, grid_n=64).winding()
        assert right.rounded - left.rounded == 0

    def test_gapless_rejected(self):
        pair = split_step_from_angles(0.0, 0.0, 0.0)  # identity walk: no gap at +1
        with pytest.raises(PreconditionError):
            winding.chiral_flat_band_symbol(pair, ops.RIGHT, grid_n=32)

    def test_flattening_sign_independent_winding(self):
        pair = split_step_from_angles(0.0, 1.0, 0.3)
        for side in (ops.LEFT, ops.RIGHT):
            w1 = winding.chiral_flat_band_symbol(pair, side, 128, cayley_sign=1).winding()
            w2 = winding.chiral_flat_band_symbol(pair, side, 128, cayley_sign=-1).winding()
            assert w1.rounded == w2.rounded

    def test_starting_frame_independence(self):
        # random starting gauges: the holonomy-corrected winding is fixed
        pair = split_step_from_angles(1.8, 0.5, 2.0)
        base = winding.chiral_flat_band_symbol(pair, ops.RIGHT, 128).winding().rounded
        rng = np.random.default_rng(5)
        for _ in range(3):
            gauge = (random_unitary(1, rng), random_unitary(1, rng))
            loop = winding.chiral_flat_band_symbol(pair, ops.RIGHT, 128, gauge=gauge)
            assert loop.winding().rounded == base

    def test_holonomy_correction_is_nontrivial(self):
        # split-step grading frames carry a genuine Berry phase; without the
        # holonomy fold-in the raw phase would not sit near an integer
        pair = split_step_from_angles(1.8, 0.5, 2.0)
        loop = winding.chiral_flat_band_symbol(pair, ops.RIGHT, 256)
        correction = np.angle(np.linalg.det(loop.holonomy_minus)) - np.angle(
            np.linalg.det(loop.holonomy_plus)
        )
        assert abs(correction) > 1e-3
        assert abs(loop.winding().raw_phase - loop.winding().rounded) < 0.05

    def test_grid_doubling_stable(self):
        pair = split_step_from_angles(0.2, 2.0, 2.6)
        w1 = winding.chiral_flat_band_symbol(pair, ops.LEFT, 128).winding().rounded
        w2 = winding.chiral_flat_band_symbol(pair, ops.LEFT, 256).winding().rounded
        assert w1 == w2


class TestBatchedLoops:
    def test_random_split_steps_match_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(12):
            angles = rng.uniform(0.0, np.pi, size=3)
            defects = {}
            if trial % 2:
                defects = {x: float(rng.uniform(0.0, np.pi)) for x in range(-1, 2)}
            pair = split_step_from_angles(
                *angles, shift_exponent=1 + trial % 4 // 2, defects=defects
            )
            for side in (ops.LEFT, ops.RIGHT):
                for cayley_sign in (1, -1, None):
                    gauge = None
                    if cayley_sign is not None and trial % 3:
                        gauge = (random_unitary(1, rng), random_unitary(1, rng))
                    assert_loops_match(
                        batched_loop(pair, side, 96, cayley_sign, gauge),
                        reference_loop(pair, side, 96, cayley_sign, gauge),
                    )

    def test_half_two_block_sum_matches_parts(self):
        # a fixed unitary mixes the two parts, so the grading eigenframes
        # are 2-dimensional and the transport steps are genuine 2x2 polars
        parts = (
            split_step_from_angles(2.8, 0.4, 1.2),
            split_step_from_angles(1.28, 0.14, 0.15, shift_exponent=2),
        )
        rng = np.random.default_rng(12)
        pair = block_sum_pair(*parts, random_unitary(4, rng))
        gauge = (random_unitary(2, rng), random_unitary(2, rng))
        for side in (ops.LEFT, ops.RIGHT):
            for cayley_sign in (1, -1, None):
                loop = batched_loop(pair, side, 128, cayley_sign, gauge if cayley_sign else None)
                ref = reference_loop(pair, side, 128, cayley_sign, gauge if cayley_sign else None)
                assert loop.samples.shape == (129, 2, 2)
                assert_loops_match(loop, ref)
                parts_sum = sum(
                    batched_loop(part, side, 128, cayley_sign).winding().rounded
                    for part in parts
                )
                assert loop.winding().rounded == parts_sum

    def test_transport_guard_on_coarse_grid(self):
        # grading [[0, z^4], [z^-4, 0]] on 8 points: the eigenframes of
        # neighbouring points are orthogonal, so no transport step exists
        def loop(sign):
            return SymbolLoop(2, {4: [[0, sign], [0, 0]], -4: [[0, 0], [1, 0]]})

        pair = SimpleNamespace(
            u=SimpleNamespace(fiber_dim=2, symbol_at=lambda side: loop(-1)),
            gamma0=SimpleNamespace(symbol_at=lambda side: loop(1)),
        )
        for cayley_sign in (1, -1, None):
            with pytest.raises(FramePropagationError):
                reference_loop(pair, ops.RIGHT, 8, cayley_sign)
            with pytest.raises(FramePropagationError):
                batched_loop(pair, ops.RIGHT, 8, cayley_sign)
        batched_loop(pair, ops.RIGHT, 64, 1).winding()

    def test_gap_closing_at_one_momentum_rejected(self):
        # theta1 = theta2 on the right closes the gap at +1 only at z = 1
        pair = split_step_from_angles(0.3, 1.1, 1.1)
        zs = ops.circle_grid(64)
        evals = np.linalg.eigvals(pair.u.symbol_at(ops.RIGHT)(zs))
        dist = np.abs(evals - 1.0).min(axis=1)
        assert dist[0] < 1e-12 and dist[1:].min() > 1e-3
        for cayley_sign in (1, -1):
            with pytest.raises(PreconditionError):
                winding.chiral_flat_band_symbol(pair, ops.RIGHT, 64, cayley_sign)
        winding.chiral_flat_band_symbol(pair, ops.LEFT, 64).winding()


class TestIndexTheorem:
    def test_translation_invariant_trivial(self):
        record = winding.verify_index_theorem(ops.shift_power(1, 1))
        branch = record.branches[0]
        assert branch.lhs_index == 0
        assert branch.winding_left == branch.winding_right == 1
        assert record.holds

    def test_half_defect(self):
        rng = np.random.default_rng(6)
        op = interpolating_shift_model(rng, 0, 1, noise_sites=0)
        record = winding.verify_index_theorem(op)
        branch = record.branches[0]
        assert branch.lhs_index == 1
        assert branch.winding_right - branch.winding_left == 1
        assert record.holds

    def test_banded_models_random(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            p_left = int(rng.integers(-2, 3))
            p_right = int(rng.integers(-2, 3))
            op = interpolating_shift_model(rng, p_left, p_right)
            record = winding.verify_index_theorem(op)
            assert record.holds
            assert record.branches[0].lhs_index == p_right - p_left

    def test_chiral_pair_branches_consistent(self):
        pair = split_step_from_angles(2.8, 0.4, 1.2)
        record = winding.verify_index_theorem(pair)
        assert record.holds
        assert record.si_plus == -1 and record.si_minus == 1
        assert {b.name for b in record.branches} == {
            "cayley_flat_band",
            "cayley_flat_band_negated",
            "imaginary_block",
        }
        for branch in record.branches:
            assert branch.lhs_index == -(record.si_plus + record.si_minus)

    def test_double_shift_walk_reaches_higher_indices(self):
        pair = split_step_from_angles(1.28, 0.14, 0.15, shift_exponent=2)
        record = winding.verify_index_theorem(pair, 512)
        assert record.holds
        assert record.si_plus == -2 and record.si_minus == 0
        branch = record.branch("imaginary_block")
        assert (branch.winding_left, branch.winding_right) == (0, 2)

    def test_defect_split_step_signature_matches_windings(self):
        # single-site defect on an anisotropic walk: transfer signatures and
        # the winding difference agree on the total class
        pair = split_step_from_angles(0.0, 1.0, 0.3, defects={0: 2.4})
        record = winding.verify_index_theorem(pair)
        assert record.holds
        branch = record.branch("imaginary_block")
        total = record.si_plus + record.si_minus
        assert total == branch.winding_left - branch.winding_right
        assert record.dim_ker_u_plus_one >= abs(record.si_minus)
        assert record.dim_ker_u_minus_one >= abs(record.si_plus)
