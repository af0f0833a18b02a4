import itertools
from pathlib import Path
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from chiralwalk import analysis, essential, operators as ops, transfer, winding
from chiralwalk.exceptions import ChiralwalkError, NotFredholmError, PreconditionError
from chiralwalk.operators import SymbolLoop
from chiralwalk.scenarios import Scenario
from chiralwalk.verification import (
    interpolating_shift_model,
    random_unitary,
    scalar_profile,
    split_step_from_angles,
)
from chiralwalk.walks import CHIRAL_TOL, SplitStepParams, build_walk, build_weighted_shift_walk

import oracles


def scalar(v):
    return np.array([[v]], dtype=complex)


# --- point-by-point reference loops (test-only oracle) -------------------------


class TransportError(Exception):
    """Continuity propagation of a reference frame broke down."""


def _reference_flatten(u_mat, cayley_sign, tol=1e-8):
    t_mat, vecs = scipy.linalg.schur(np.asarray(u_mat, dtype=complex), output="complex")
    evals = np.diag(t_mat) * cayley_sign
    if np.abs(evals - 1.0).min() < tol or np.abs(evals + 1.0).min() < tol:
        raise PreconditionError("symbol eigenvalue at +-1")
    signs = np.where(evals.imag > 0, -1.0, 1.0)
    return (vecs * signs) @ vecs.conj().T


def _reference_frames(g_mat):
    evals, vecs = np.linalg.eigh(0.5 * (g_mat + g_mat.conj().T))
    return vecs[:, evals > 0.5], vecs[:, evals < -0.5]


def _reference_propagate(projector, frame):
    u_mat, svals, vh = np.linalg.svd(projector @ frame, full_matrices=False)
    if svals.min() < 0.1:
        raise TransportError("projected frame nearly singular")
    return u_mat @ vh


def reference_loop(pair, side, grid_n, cayley_sign=None, gauge=None, grading="gamma0"):
    """One Schur and two polar SVDs per grid point, frames propagated in turn.

    cayley_sign None compresses the imaginary part of u, +-1 the flat band
    -sign(Im(+-u)), between the eigenframes of ``grading``.  Returns the
    samples at z_0..z_N = z_0 and the frame holonomies (plus, minus).
    """
    d = pair.u.fiber_dim
    half = d // 2
    zs = ops.circle_grid(grid_n)
    u_vals = pair.u.symbol_at(side)(zs)
    g_vals = getattr(pair, grading).symbol_at(side)(zs)
    frame_plus, frame_minus = _reference_frames(g_vals[0])
    if gauge is not None:
        frame_plus = frame_plus @ gauge[0]
        frame_minus = frame_minus @ gauge[1]
    start_plus, start_minus = frame_plus, frame_minus
    samples = np.empty((grid_n + 1, half, half), dtype=complex)
    for k in range(grid_n + 1):
        idx = k % grid_n
        if k > 0:
            proj = 0.5 * (np.eye(d) + g_vals[idx])
            frame_plus = _reference_propagate(proj, frame_plus)
            frame_minus = _reference_propagate(np.eye(d) - proj, frame_minus)
        if cayley_sign is None:
            middle = (u_vals[idx] - u_vals[idx].conj().T) / 2j
        else:
            middle = _reference_flatten(u_vals[idx], cayley_sign)
        samples[k] = frame_minus.conj().T @ middle @ frame_plus
    return samples, start_plus.conj().T @ frame_plus, start_minus.conj().T @ frame_minus


def reference_winding(samples, holonomy_plus, holonomy_minus):
    """Unwound phase of det(samples) with the holonomy phases folded in: (rounded, raw)."""
    dets = np.linalg.det(samples)
    assert np.abs(dets).min() > 1e-10
    steps = np.angle(dets[1:] / dets[:-1])
    if np.abs(steps).max() >= np.pi / 2:
        raise TransportError("reference loop too coarse")
    correction = np.angle(np.linalg.det(holonomy_minus)) - np.angle(np.linalg.det(holonomy_plus))
    raw = float(steps.sum() + correction) / (2.0 * np.pi)
    assert abs(raw - round(raw)) < 0.25
    return int(round(raw)), raw


def reference(pair, side, grid_n, cayley_sign=None, gauge=None, grading="gamma0"):
    return reference_winding(*reference_loop(pair, side, grid_n, cayley_sign, gauge, grading))[0]


def root_count(pair, side, grading="gamma0"):
    block = winding.chiral_imaginary_block_symbol(pair, getattr(pair, grading), side)
    return winding.winding_det(block).rounded


def reference_nc_winding(loop, grid_n=4096):
    """(1/2 pi i) * integral of tau(F^-1 F') dz by the trapezoid rule on the circle."""
    zs = ops.circle_grid(grid_n)
    traces = np.trace(np.linalg.solve(loop(zs), loop.derivative()(zs)), axis1=1, axis2=2)
    return complex(np.mean(traces * zs)) / loop.fiber_dim


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
        for power in (1, 12, -3):
            res = winding.winding_det(SymbolLoop(1, {power: scalar(1.0)}))
            assert res.rounded == power and res.root_margin is None

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
                    assert res.root_margin is None or res.root_margin > transfer.CIRCLE_MARGIN

    def test_noninvertible_rejected(self):
        loop = SymbolLoop(1, {1: scalar(1.0), 0: scalar(-1.0)})
        with pytest.raises(NotFredholmError):
            winding.winding_det(loop)

    def test_root_within_circle_margin_rejected(self):
        # the root 1 - 1e-7 lies inside the disk, but within the margin in
        # which exact_kernel refuses; winding_det refuses it as well
        loop = SymbolLoop(1, {1: scalar(1.0), 0: scalar(-(1.0 - 1e-7))})
        with pytest.raises(NotFredholmError, match="margin of the unit circle"):
            winding.winding_det(loop)
        with pytest.raises(NotFredholmError):
            transfer.exact_kernel(ops.shift_power(1, 1) - ops.identity(1).scaled(1.0 - 1e-7))
        res = winding.winding_det(SymbolLoop(1, {1: scalar(1.0), 0: scalar(-(1.0 - 1e-5))}))
        assert res.rounded == 1 and res.root_margin == pytest.approx(1e-5)

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
            assert Fraction(winding.winding_det(loop).rounded, d) == Fraction(1)

    def test_opposite_windings_cancel(self):
        loop = SymbolLoop(2, {1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])})
        assert Fraction(winding.winding_det(loop).rounded, 2) == Fraction(0)

    def test_fractional_value(self):
        # diag(z, 1, 1): det winding 1 over fiber 3
        loop = SymbolLoop(3, {1: np.diag([1.0, 0.0, 0.0]), 0: np.diag([0.0, 1.0, 1.0])})
        assert Fraction(winding.winding_det(loop).rounded, 3) == Fraction(1, 3)

    def test_matches_det_oracle_random(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            shift = int(rng.integers(-2, 3))
            coeffs = {n + shift: (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) * 0.15
                      for n in (-1, 0, 1)}
            coeffs[shift] = coeffs[shift] + 2.0 * np.eye(3)
            loop = SymbolLoop(3, coeffs)
            value = Fraction(winding.winding_det(loop).rounded, 3)
            assert abs(reference_nc_winding(loop) - float(value)) < 1e-8


class TestFlatBandLoop:
    """The sampled Cayley flat-band loop of the reference oracle against the root count.

    The flat band -sign(Im u) and Im(u) itself are homotopic through
    invertible blocks, so both carry the root count's winding; the root
    count's closed frames are those nearest to parallel transport, so the
    per-side values agree as well.
    """

    def test_compressed_loop_unitary(self):
        pair = split_step_from_angles(0.0, 1.0, 0.3)
        for side in (ops.LEFT, ops.RIGHT):
            samples, _, _ = reference_loop(pair, side, 128, cayley_sign=1)
            dev = np.abs(samples.conj().swapaxes(1, 2) @ samples - np.eye(1)).max()
            assert dev < 1e-10

    def test_trivial_walk_winding_difference_zero(self):
        # translation-invariant walk: both sides carry the same loop, so the
        # only frame-independent quantity, the difference, vanishes
        pair = split_step_from_angles(0.0, 0.0, 0.3)
        for grading in ("gamma0", "gamma1"):
            assert root_count(pair, ops.RIGHT, grading) - root_count(pair, ops.LEFT, grading) == 0
        assert reference(pair, ops.RIGHT, 64, 1) - reference(pair, ops.LEFT, 64, 1) == 0

    def test_gapless_rejected(self):
        pair = split_step_from_angles(0.0, 0.0, 0.0)  # identity walk: Im(u) vanishes
        for grading in (pair.gamma0, pair.gamma1):
            with pytest.raises(NotFredholmError):
                winding.winding_det(winding.chiral_imaginary_block_symbol(pair, grading, ops.RIGHT))
        with pytest.raises(NotFredholmError):
            winding.verify_index_theorem_chiral(pair)
        with pytest.raises(PreconditionError):
            reference_loop(pair, ops.RIGHT, 32, cayley_sign=1)

    def test_flattening_sign_independent_winding(self):
        pair = split_step_from_angles(0.0, 1.0, 0.3)
        for side in (ops.LEFT, ops.RIGHT):
            w1 = reference(pair, side, 128, cayley_sign=1)
            w2 = reference(pair, side, 128, cayley_sign=-1)
            assert w1 == w2 == root_count(pair, side)

    def test_starting_frame_independence(self):
        # random starting gauges: the holonomy-corrected winding is fixed,
        # and the root count does not see the phases of its eigenvectors
        pair = split_step_from_angles(1.8, 0.5, 2.0)
        base = root_count(pair, ops.RIGHT)
        rng = np.random.default_rng(5)
        for _ in range(3):
            gauge = (random_unitary(1, rng), random_unitary(1, rng))
            assert reference(pair, ops.RIGHT, 128, 1, gauge) == base

    def test_holonomy_correction_is_nontrivial(self):
        # split-step grading frames carry a genuine Berry phase; without the
        # holonomy fold-in the raw phase would not sit near an integer, and
        # the root count's nearest closed frame is twisted by z^-k, k != 0
        pair = split_step_from_angles(1.8, 0.5, 2.0)
        samples, hol_plus, hol_minus = reference_loop(pair, ops.RIGHT, 256, 1)
        correction = np.angle(np.linalg.det(hol_minus)) - np.angle(np.linalg.det(hol_plus))
        assert abs(correction) > 1e-3
        rounded, raw = reference_winding(samples, hol_plus, hol_minus)
        assert abs(raw - rounded) < 0.05
        assert rounded == root_count(pair, ops.RIGHT)
        _, frames = winding._closed_frames(pair.gamma0, ops.RIGHT)
        assert [k for k, _ in frames] != [0, 0]
        # exact ties n |v_2|^2 = 1/2 (theta2 = pi/2, n = 1) and 1/2, 3/2
        # (c = +-1/2, n = 2): both holonomies are -1, so the per-side value
        # is a choice; the tie breaks downward, the pair still sums to n,
        # and right minus left matches the reference
        for angles, n, expected_k in (
            ((1.8, 0.5, np.pi / 2), 1, [0, 1]),
            ((1.8, 0.5, np.pi / 3), 2, [0, 2]),
            ((1.8, 0.5, 2 * np.pi / 3), 2, [1, 1]),
        ):
            tie = split_step_from_angles(*angles, shift_exponent=n)
            for side in (ops.LEFT, ops.RIGHT):
                _, frames = winding._closed_frames(tie.gamma0, side)
                assert [k for k, _ in frames] == expected_k
            assert (
                root_count(tie, ops.RIGHT) - root_count(tie, ops.LEFT)
                == reference(tie, ops.RIGHT, 256) - reference(tie, ops.LEFT, 256)
            )
            assert winding.verify_index_theorem_chiral(tie).holds

    def test_grid_doubling_stable(self):
        pair = split_step_from_angles(0.2, 2.0, 2.6)
        w1 = reference(pair, ops.LEFT, 128, 1)
        w2 = reference(pair, ops.LEFT, 256, 1)
        assert w1 == w2 == root_count(pair, ops.LEFT)


class TestBatchedLoops:
    """Root counts against the point-by-point reference loops."""

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
                expected = root_count(pair, side)
                for cayley_sign in (1, -1, None):
                    gauge = None
                    if cayley_sign is not None and trial % 3:
                        gauge = (random_unitary(1, rng), random_unitary(1, rng))
                    assert reference(pair, side, 96, cayley_sign, gauge) == expected
                assert reference(pair, side, 96, grading="gamma1") == root_count(
                    pair, side, "gamma1"
                )

    def test_half_two_block_sum_matches_parts(self):
        # a fixed unitary mixes the two parts, so the grading eigenframes
        # are 2-dimensional and the transport steps are genuine 2x2 polars;
        # the root count needs the split-step form and refuses the sum
        parts = (
            split_step_from_angles(2.8, 0.4, 1.2),
            split_step_from_angles(1.28, 0.14, 0.15, shift_exponent=2),
        )
        rng = np.random.default_rng(12)
        pair = block_sum_pair(*parts, random_unitary(4, rng))
        gauge = (random_unitary(2, rng), random_unitary(2, rng))
        for side in (ops.LEFT, ops.RIGHT):
            parts_sum = sum(root_count(part, side) for part in parts)
            for cayley_sign in (1, -1, None):
                samples, hol_plus, hol_minus = reference_loop(
                    pair, side, 128, cayley_sign, gauge if cayley_sign else None
                )
                assert samples.shape == (129, 2, 2)
                assert reference_winding(samples, hol_plus, hol_minus)[0] == parts_sum
            with pytest.raises(PreconditionError):
                winding.winding_det(winding.chiral_imaginary_block_symbol(pair, pair.gamma0, side))

    def test_transport_guard_on_coarse_grid(self):
        # grading [[0, z^4], [z^-4, 0]] on 8 points: the eigenframes of
        # neighbouring points are orthogonal, so no transport step exists;
        # it is D(z^-1) G D(z^-1)^*, not of the split-step form D(z) G D(z)^*
        def loop(sign):
            return SymbolLoop(2, {4: [[0, sign], [0, 0]], -4: [[0, 0], [1, 0]]})

        pair = SimpleNamespace(
            u=SimpleNamespace(fiber_dim=2, symbol_at=lambda side: loop(-1)),
            gamma0=SimpleNamespace(symbol_at=lambda side: loop(1)),
        )
        for cayley_sign in (1, -1, None):
            with pytest.raises(TransportError):
                reference_loop(pair, ops.RIGHT, 8, cayley_sign)
        reference(pair, ops.RIGHT, 64, 1)
        with pytest.raises(PreconditionError):
            winding.winding_det(winding.chiral_imaginary_block_symbol(pair, pair.gamma0, ops.RIGHT))

    def test_gap_closing_at_one_momentum_rejected(self):
        # theta1 = theta2 on the right closes the gap at +1 only at z = 1
        pair = split_step_from_angles(0.3, 1.1, 1.1)
        zs = ops.circle_grid(64)
        evals = np.linalg.eigvals(pair.u.symbol_at(ops.RIGHT)(zs))
        dist = np.abs(evals - 1.0).min(axis=1)
        assert dist[0] < 1e-12 and dist[1:].min() > 1e-3
        for cayley_sign in (1, -1):
            with pytest.raises(PreconditionError):
                reference_loop(pair, ops.RIGHT, 64, cayley_sign)
        for grading in (pair.gamma0, pair.gamma1):
            with pytest.raises(NotFredholmError, match="margin of the unit circle"):
                winding.winding_det(winding.chiral_imaginary_block_symbol(pair, grading, ops.RIGHT))
        assert reference(pair, ops.LEFT, 64, 1) == root_count(pair, ops.LEFT)


class TestIndexTheorem:
    def test_translation_invariant_trivial(self):
        record = winding.verify_index_theorem_banded(ops.shift_power(1, 1))
        branch = record.branches[0]
        assert branch.lhs_index == 0
        assert branch.winding_left == branch.winding_right == 1
        assert record.holds

    def test_half_defect(self):
        rng = np.random.default_rng(6)
        op = interpolating_shift_model(rng, 0, 1, noise_sites=0)
        record = winding.verify_index_theorem_banded(op)
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
            record = winding.verify_index_theorem_banded(op)
            assert record.holds
            assert record.branches[0].lhs_index == p_right - p_left

    def test_stale_positional_grid_rejected(self):
        loop = SymbolLoop(1, {1: scalar(1.0)})
        for call in (
            lambda: winding.verify_index_theorem_banded(ops.shift_power(1, 1), 4096),
            lambda: winding.winding_det(loop, 256),
        ):
            with pytest.raises(TypeError):
                call()

    def test_chiral_pair_branches_consistent(self):
        pair = split_step_from_angles(2.8, 0.4, 1.2)
        record = winding.verify_index_theorem_chiral(pair)
        assert record.holds
        assert record.si_plus == -1 and record.si_minus == 1
        assert [b.name for b in record.branches] == ["gamma1_graded", "imaginary_block"]
        assert record.branch("gamma1_graded").lhs_index == record.si_minus - record.si_plus
        assert record.branch("imaginary_block").lhs_index == -(record.si_plus + record.si_minus)
        for branch in record.branches:
            assert branch.root_margin > transfer.CIRCLE_MARGIN
            assert branch.to_dict()["root_margin"] == branch.root_margin

    def test_double_shift_walk_reaches_higher_indices(self):
        pair = split_step_from_angles(1.28, 0.14, 0.15, shift_exponent=2)
        record = winding.verify_index_theorem_chiral(pair)
        assert record.holds
        assert record.si_plus == -2 and record.si_minus == 0
        branch = record.branch("imaginary_block")
        assert (branch.winding_left, branch.winding_right) == (0, 2)

    def test_defect_split_step_signature_matches_windings(self):
        # single-site defect on an anisotropic walk: transfer signatures and
        # the winding difference agree on the total class
        pair = split_step_from_angles(0.0, 1.0, 0.3, defects={0: 2.4})
        record = winding.verify_index_theorem_chiral(pair)
        assert record.holds
        branch = record.branch("imaginary_block")
        total = record.si_plus + record.si_minus
        assert total == branch.winding_left - branch.winding_right
        assert record.dim_ker_u_plus_one >= abs(record.si_minus)
        assert record.dim_ker_u_minus_one >= abs(record.si_plus)


angles = st.floats(0.05, np.pi - 0.05)


def near_closing_scenario(shift_exponent, grid_n):
    theta_left, theta_right, theta2, defect = 0.2, 0.7 - 1e-4, 0.7, 1.3
    a = {"profile": "table", "left": float(np.cos(theta_left)),
         "right": float(np.cos(theta_right)), "table": [{"x": 0, "value": float(np.cos(defect))}]}
    b = {"profile": "table", "left": float(np.sin(theta_left)),
         "right": float(np.sin(theta_right)), "table": [{"x": 0, "value": float(np.sin(defect))}]}
    return Scenario.from_doc({
        "model": "split_step",
        "params": {"a": a, "b": b, "c": float(np.cos(theta2)), "d_coin": float(np.sin(theta2)),
                   "shift_exponent": shift_exponent},
        "tolerances": {"grid_n": grid_n},
    })


class TestRootCounts:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        theta1_left=angles,
        theta1_right=angles,
        theta2=angles,
        shift_exponent=st.sampled_from([1, 2]),
        defects=st.dictionaries(st.integers(-2, 2), angles, max_size=3),
    )
    def test_both_branches_hold_on_certified_models(
        self, theta1_left, theta1_right, theta2, shift_exponent, defects
    ):
        pair = split_step_from_angles(theta1_left, theta1_right, theta2, shift_exponent, defects)
        certs = essential.certify_unitary(pair.u)
        assume(certs.gap_plus.certified and certs.gap_minus.certified)
        one = ops.identity(2)
        ker_minus = transfer.exact_kernel(pair.u + one, pair.gamma0)
        ker_plus = transfer.exact_kernel(pair.u - one, pair.gamma0)
        si_plus, si_minus = ker_plus.graded_signature, ker_minus.graded_signature
        record = winding.verify_index_theorem_chiral(pair, kernels=(ker_minus, ker_plus))
        gamma1, gamma0 = record.branch("gamma1_graded"), record.branch("imaginary_block")
        assert gamma1.rhs_index == si_minus - si_plus
        assert gamma0.rhs_index == -(si_plus + si_minus)
        assert record.holds

    @pytest.mark.parametrize("shift_exponent", [1, 2])
    def test_certified_near_closing_model_gets_windings(self, shift_exponent):
        # both gaps certify at grid 256; a grid loop at that size is too coarse
        scenario = near_closing_scenario(shift_exponent, 256)
        report, code = analysis.run_index_report(scenario)
        certs = report["certifications"]
        assert certs["gap_plus_one"]["status"] == certs["gap_minus_one"]["status"] == "certified"
        assert code == analysis.EXIT_OK and report["omitted"] == []
        assert report["windings"]["holds"] is True
        assert [b["name"] for b in report["windings"]["branches"]] == [
            "gamma1_graded", "imaginary_block"
        ]

    def test_root_guard_never_refuses_returned_kernels(self):
        # gaps from 1e-1 down to 3e-7: wherever the transfer oracle returns
        # both kernels, the root count stays clear of the circle and holds
        refused = 0
        for eps in np.logspace(-1, -6.5, 12):
            for shift_exponent in (1, 2):
                for theta, sign in ((0.7, 1), (2.5, -1)):
                    pair = split_step_from_angles(
                        0.2, theta - sign * eps, theta, shift_exponent, {0: 1.3}
                    )
                    one = ops.identity(2)
                    try:
                        kernels = (
                            transfer.exact_kernel(pair.u + one, pair.gamma0),
                            transfer.exact_kernel(pair.u - one, pair.gamma0),
                        )
                    except ChiralwalkError:
                        refused += 1
                        continue
                    record = winding.verify_index_theorem_chiral(pair, kernels=kernels)
                    assert record.holds
                    assert min(b.root_margin for b in record.branches) > transfer.CIRCLE_MARGIN
        assert 0 < refused < 24

    def test_grading_without_both_halves_rejected(self):
        # the identity factors trivially (n = 0) but has no -1 eigenframe
        pair = split_step_from_angles(2.8, 0.4, 1.2)
        with pytest.raises(PreconditionError, match="signature 0"):
            winding.chiral_imaginary_block_symbol(pair, ops.identity(2), ops.LEFT)


def outcome(call):
    """A call's value, or the type and message of the ChiralwalkError it raised."""
    try:
        return call()
    except ChiralwalkError as exc:
        return type(exc).__name__, str(exc)


def kernels_with(si_minus, si_plus):
    """Stand-ins for the graded kernels: the windings do not read them."""
    return (SimpleNamespace(graded_signature=si_minus, dimension=abs(si_minus)),
            SimpleNamespace(graded_signature=si_plus, dimension=abs(si_plus)))


class TestStackedWindings:
    def test_theorem_equals_the_sequential_oracle(self):
        refused = 0
        for seed, pair in oracles.seeded_split_steps():
            kernels = kernels_with(seed % 3 - 1, seed % 2)
            record = outcome(lambda: winding.verify_index_theorem_chiral(pair, kernels=kernels))
            got = record if isinstance(record, tuple) else record.to_dict()
            assert got == outcome(lambda: oracles.verify_index_theorem_chiral(pair, kernels))
            refused += isinstance(got, tuple)
        assert 0 < refused < 40

    def test_block_coefficients_keep_the_laurent_product_order(self):
        shifts = set()
        for _, pair in oracles.seeded_split_steps():
            for grading in (pair.gamma0, pair.gamma1):
                for side in (ops.LEFT, ops.RIGHT):
                    n = max(grading.symbol_at(side).offsets())
                    shifts.add(n)
                    im = oracles.imaginary_part(pair, side)
                    for got, want in (
                        (winding._sandwich(im.coefficients, n), oracles.sandwich(im, n)),
                        (winding.chiral_imaginary_block_symbol(pair, grading, side).coefficients,
                         oracles.imaginary_block(pair, grading, side).coefficients),
                    ):
                        assert list(got) == list(want)
                        assert all(np.array_equal(got[m], want[m]) for m in want)
        assert shifts == {0, 1, 2, 3}

    @pytest.mark.parametrize("bad", ["gamma0", "gamma1"])
    def test_first_error_in_sequential_order(self, bad):
        # gamma1's and gamma0's right blocks have a root inside CIRCLE_MARGIN;
        # the identity grading trips _closed_frames on both sides
        model = split_step_from_angles(0.2, 0.7 - 1e-7, 0.7, 2, {0: 1.3})
        pair = SimpleNamespace(u=model.u, gamma0=model.gamma0, gamma1=model.gamma1)
        setattr(pair, bad, ops.identity(2))
        kernels = kernels_with(0, 0)
        got = outcome(lambda: winding.verify_index_theorem_chiral(pair, kernels=kernels))
        want = outcome(lambda: oracles.verify_index_theorem_chiral(pair, kernels))
        assert got == want
        assert got[0] == ("NotFredholmError" if bad == "gamma0" else "PreconditionError")


def one_sided(good, bad, failing):
    """A grading with ``good``'s limit symbol on one side and ``bad``'s on the ``failing`` side."""
    bands = {}
    for n in set(good.bands) | set(bad.bands):
        g, b = good.coefficient(n), bad.coefficient(n)
        left, right = (b.left, g.right) if failing == ops.LEFT else (g.left, b.right)
        bands[n] = ops.CoefficientFunction.step(left, right)
    return ops.BandedAnisotropicOperator(2, bands)


def c_zero_pairs():
    """Split-step pairs with c = 0 exactly, shift exponents 1 and 2."""
    a = scalar_profile(np.cos(0.4), np.cos(2.1), {0: np.cos(1.0)})
    b = scalar_profile(np.sin(0.4), np.sin(2.1), {0: np.sin(1.0)})
    return [build_walk(SplitStepParams(a=a, b=b, c=0.0, d_coin=1.0, shift_exponent=m))
            for m in (1, 2)]


def oracles_outcome(pair):
    return outcome(lambda: oracles.verify_index_theorem_chiral(pair, kernels_with(0, 0)))


class TestTheoremBlocks:
    @staticmethod
    def theorem_blocks(pair, monkeypatch):
        """The four loops (or exceptions) whose roots the theorem solves for ``_windings``."""
        seen = []
        loop_roots = winding._loop_roots
        monkeypatch.setattr(winding, "_loop_roots",
                            lambda loops: seen.append(loops) or loop_roots(loops))
        got = outcome(lambda: winding.verify_index_theorem_chiral(pair, kernels=kernels_with(0, 0)))
        [blocks] = seen
        return got, blocks

    @staticmethod
    def oracle_blocks(pair):
        return [outcome(lambda: oracles.imaginary_block(pair, grading, side))
                for grading in (pair.gamma1, pair.gamma0) for side in (ops.LEFT, ops.RIGHT)]

    def test_blocks_equal_the_oracle_bit_for_bit(self, monkeypatch):
        pairs = [pair for _, pair in oracles.seeded_split_steps()] + c_zero_pairs()
        grids = set()
        for pair in pairs:
            _, blocks = self.theorem_blocks(pair, monkeypatch)
            for got, want in zip(blocks, self.oracle_blocks(pair), strict=True):
                assert got.fiber_dim == 1
                assert list(got.coefficients) == list(want.coefficients)
                assert all(np.array_equal(got.coefficients[m], want.coefficients[m])
                           for m in want.coefficients)
                grids.add(got.offsets()[-1] - got.offsets()[0] + 1)
        assert {3, 5} <= grids   # four loops of one report may need two grid sizes

    @pytest.mark.parametrize("failing", [ops.LEFT, ops.RIGHT])
    @pytest.mark.parametrize("bad", ["gamma0", "gamma1"])
    def test_frames_failing_on_one_side_keep_their_slot(self, bad, failing, monkeypatch):
        for pair in c_zero_pairs():
            pair = SimpleNamespace(u=pair.u, gamma0=pair.gamma0, gamma1=pair.gamma1)
            setattr(pair, bad, one_sided(getattr(pair, bad), ops.identity(2), failing))
            got, blocks = self.theorem_blocks(pair, monkeypatch)
            want = self.oracle_blocks(pair)
            failed = [isinstance(b, Exception) for b in blocks]
            assert failed == [isinstance(w, tuple) for w in want]
            assert sum(failed) == 1
            for block, w in zip(blocks, want):
                if isinstance(block, Exception):
                    assert (type(block).__name__, str(block)) == w
                    assert str(block).startswith(failing)
                else:
                    assert list(block.coefficients) == list(w.coefficients)
            assert got == oracles_outcome(pair)

    def test_blocks_are_built_by_the_public_function(self, monkeypatch):
        # one call per block, in slot order, so that a span around the public function counts each
        calls = []
        build = winding.chiral_imaginary_block_symbol
        monkeypatch.setattr(winding, "chiral_imaginary_block_symbol",
                            lambda *args: calls.append(args) or build(*args))
        pair = c_zero_pairs()[0]
        _, blocks = self.theorem_blocks(pair, monkeypatch)
        assert [(g, s) for _, g, s in calls] == [
            (grading, side) for grading in (pair.gamma1, pair.gamma0)
            for side in (ops.LEFT, ops.RIGHT)]
        assert len(blocks) == 4

    def test_a_failing_translation_invariant_grading_fails_in_both_slots(self, monkeypatch):
        # both Gamma0 slots hold an error; the left one is raised, as the oracle raises it
        pair = c_zero_pairs()[0]
        pair = SimpleNamespace(u=pair.u, gamma0=ops.identity(2), gamma1=pair.gamma1)
        got, blocks = self.theorem_blocks(pair, monkeypatch)
        assert [isinstance(b, Exception) for b in blocks] == [False, False, True, True]
        assert got == oracles_outcome(pair)
        assert got[0] == "PreconditionError" and got[1].startswith("left grading symbol")



def perturbed(loop, offset=None, entry=None, delta=0.0, scale=1.0):
    """A grading whose limit symbols are ``loop`` times ``scale``, plus ``delta`` at one
    entry of one offset."""
    coeffs = {m: scale * c for m, c in loop.coefficients.items()}
    if offset is not None:
        coeffs[offset] = coeffs.get(offset, np.zeros((2, 2), dtype=complex)).copy()
        coeffs[offset][entry] += delta
    changed = SymbolLoop(2, coeffs)
    return SimpleNamespace(symbol_at=lambda side: changed)


def frames_outcome(call):
    """``outcome`` of a ``_closed_frames`` call, its eigenvectors as bytes."""
    got = outcome(call)
    if isinstance(got[1], str):
        return got
    return got[0], [(k, v.tobytes()) for k, v in got[1]]


class TestFrameCheck:
    """The D(z) G D(z)^* check of ``_closed_frames`` on Python lists, and the root
    counts of ``_windings``, against the numpy forms in ``oracles``, bit for bit."""

    def test_frames_equal_the_numpy_form(self):
        shifts = set()
        for _, pair in oracles.seeded_split_steps():
            for grading in (pair.gamma0, pair.gamma1):
                for side in (ops.LEFT, ops.RIGHT):
                    got = frames_outcome(lambda: winding._closed_frames(grading, side))
                    assert got == frames_outcome(lambda: oracles.closed_frames(grading, side))
                    shifts.add(got[0])
        assert shifts == {0, 1, 2, 3}

    @pytest.mark.parametrize("times", [2.0, 0.5])
    def test_a_grading_off_by_a_multiple_of_the_tolerance(self, times):
        # each way to miss, n = 0 to 3: an entry outside the D G D^* pattern, G not
        # self-adjoint, eigenvalues off +-1, an entry on the pattern's offsets that
        # is not in it (n > 0)
        delta = times * CHIRAL_TOL
        refused = 0
        for _, pair in oracles.seeded_split_steps()[:8]:
            for grading in (pair.gamma0, pair.gamma1):
                loop = grading.symbol_at(ops.RIGHT)
                n = max(loop.offsets())
                variants = [perturbed(loop, -n - 1, (1, 1), delta),
                            perturbed(loop, -n, (0, 1), 1j * delta),
                            perturbed(loop, scale=1.0 + delta)]
                variants += [perturbed(loop, n, (0, 0), delta)] if n else []
                for bad in variants:
                    got = frames_outcome(lambda: winding._closed_frames(bad, ops.RIGHT))
                    assert got == frames_outcome(lambda: oracles.closed_frames(bad, ops.RIGHT))
                    if times > 1.0:
                        assert got[0] == "PreconditionError"
                        assert got[1] == (
                            "right grading symbol is not D(z) G D(z)^* with G a self-adjoint "
                            "unitary of signature 0 (deviation 2.000e-10)")
                        refused += 1
        assert times < 1.0 or refused >= 50

    def test_a_deviation_whose_moduli_disagree(self):
        # np.abs puts |z| just above CHIRAL_TOL, Python's abs at it: added to an entry
        # above the diagonal, where eigh does not read it, z alone is the deviation
        z = 9.519527964440392e-11 - 3.0624479316777605e-11j
        assert np.abs(z) > CHIRAL_TOL >= abs(z)
        refused = 0
        for _, pair in oracles.seeded_split_steps()[:8]:
            for grading in (pair.gamma0, pair.gamma1):
                loop = grading.symbol_at(ops.RIGHT)
                bad = perturbed(loop, -max(loop.offsets()) - 1, (0, 1), z)
                got = frames_outcome(lambda: winding._closed_frames(bad, ops.RIGHT))
                assert got == frames_outcome(lambda: oracles.closed_frames(bad, ops.RIGHT))
                refused += got[1].endswith("(deviation 1.000e-10)")
        assert refused == 16

    def test_windings_at_the_margin_equal_the_numpy_form(self):
        # roots with |z| at 1 +- CIRCLE_MARGIN, the inverse edges and their float
        # neighbours, and moduli that np.abs and Python's abs put on either side,
        # handed to _windings as the (roots, order) of one determinant each
        m = transfer.CIRCLE_MARGIN
        edges = (1.0 + m, 1.0 - m, 1.0 / (1.0 - m), 1.0 / (1.0 + m))
        zs = [x * np.exp(1j * a) for e in edges for x in np.nextafter(e, [0.0, e, 2.0])
              for a in (0.0, 1.1)]
        zs += [0.9946138222261309 + 0.1036597541947998j, -0.1284707306752315 - 0.9917122926346996j]
        refused = []
        for z0, order in zip(zs, itertools.cycle((0, 2))):
            roots = np.array([z0, 3.0, 0.2j])
            got = outcome(lambda: next(winding._windings([(roots, order)])))
            assert got == outcome(lambda: oracles.root_winding(roots, order))
            refused.append(isinstance(got, tuple))
        assert refused[-2:] == [True, True] and 0 < sum(refused) < len(refused)


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class TestOneSolve:
    @staticmethod
    def polynomials(path, monkeypatch):
        """Determinant polynomials whose roots one index report of ``path`` solves."""
        real, sizes = transfer._poly_roots, []
        monkeypatch.setattr(transfer, "_poly_roots",
                            lambda polys: sizes.append(len(polys)) or real(polys))
        analysis.run_index_report(Scenario.load(path))
        return sum(sizes)

    @pytest.mark.parametrize("name, want", [("custom_banded_shift", 4), ("weighted_shift", 12)])
    def test_banded_reports_solve_each_limit_once(self, name, want, monkeypatch):
        # the two limits once, for the certifications, the operator's kernel and the
        # windings, and the adjoint's two for its own kernel; the weighted shift also
        # certifies its unitary (eight polynomials of det(F - mu))
        assert self.polynomials(SCENARIOS / f"{name}.json", monkeypatch) == want

    def test_gapless_pair_raises_the_refuted_gap(self, monkeypatch):
        # without kernels the theorem certifies the pair; a refuted gap withholds its
        # kernel, and no kernel is computed without a certification's roots
        calls = []
        for module in (winding, transfer):
            real = module.exact_kernel
            monkeypatch.setattr(module, "exact_kernel", lambda *args, real=real, **kwargs:
                                calls.append(kwargs.get("roots")) or real(*args, **kwargs))
        pair = Scenario.load(SCENARIOS / "split_step_gapless.json").build()
        with pytest.raises(NotFredholmError, match=r"^gap_at\(-1\) refuted$"):
            winding.verify_index_theorem_chiral(pair)
        assert calls == []    # both gaps are refuted
        identity_walk = split_step_from_angles(0.0, 0.0, 0.0)    # gap at -1 open, at +1 closed
        with pytest.raises(NotFredholmError, match=r"^gap_at\(\+1\) refuted$"):
            winding.verify_index_theorem_chiral(identity_walk)
        assert len(calls) == 1 and calls[0] is not None
