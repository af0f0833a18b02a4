import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chiralwalk import analysis, operators as ops, transfer
from chiralwalk.exceptions import ChiralwalkError, NotFredholmError, PreconditionError
from chiralwalk.indices import SIGNATURE_GAP, kernel_basis
from chiralwalk.operators import (
    BandedAnisotropicOperator,
    CoefficientFunction,
    SymbolLoop,
    identity,
    mult_op,
    shift_power,
)
from chiralwalk.verification import (
    interpolating_shift_model,
    random_split_step,
    split_step_from_angles,
)
from chiralwalk.scenarios import Scenario

import oracles


def scalar(v):
    return np.array([[v]], dtype=complex)


def step_op(bands):
    return BandedAnisotropicOperator(1, bands)


def half_defect():
    """1 far left, forward shift far right; kernel-count index +1."""
    return step_op(
        {
            0: CoefficientFunction.step(scalar(1.0), scalar(0.0), split=0),
            1: CoefficientFunction.step(scalar(0.0), scalar(1.0), split=1),
        }
    )


def interior_kernel_count(op, L, tol=1e-8, interior=0.5):
    """Independent oracle: truncation singular vectors supported away from edges."""
    t = op.truncate(L).matrix
    _, svals, vh = np.linalg.svd(t)
    d = op.fiber_dim
    sites = np.repeat(np.arange(-L, L + 1), d)
    count = 0
    for j in range(len(svals)):
        if svals[j] > tol:
            continue
        vec = vh.conj().T[:, j]
        inner_mass = np.sum(np.abs(vec[np.abs(sites) <= L * interior]) ** 2)
        if inner_mass > 0.999:
            count += 1
    return count


def det_root_count(loop, tail):
    """Germ dimension predicted by the roots of the symbol determinant.

    A mode u(x) = lam^x solves the constant recursion when det F(1/lam) = 0,
    F(z) = sum_n A_n z^n, and the companion pencil of a radius-r band has
    2 r d transfer eigenvalues lam: the roots of lam^(r d) det F(1/lam), a
    polynomial of degree at most 2 r d.  A right tail keeps |lam| < 1: the
    roots inside the disk plus the order at lam = 0.  A left tail keeps
    |lam| > 1: the roots outside plus the degree deficiency at infinity.
    """
    d = loop.fiber_dim
    r = max(abs(n) for n in loop.offsets())
    reflected = SymbolLoop(d, {-n: c for n, c in loop.coefficients.items()})  # F(1/lam)
    roots, order_at_zero = oracles.det_roots(reflected)
    if tail == "right":
        return int(np.sum(np.abs(roots) < 1)) + order_at_zero + r * d
    top = order_at_zero + roots.size   # highest power of det F(1/lam)
    return int(np.sum(np.abs(roots) > 1)) + r * d - top


def germ_test_loops():
    loops = [
        SymbolLoop(1, {1: scalar(1.0), 0: scalar(-0.5)}),
        SymbolLoop(1, {1: scalar(1.0)}),
        SymbolLoop(1, {-1: scalar(1.0), 0: scalar(-0.5)}),
        SymbolLoop(1, {-1: scalar(0.3), 0: scalar(-0.5), 1: scalar(1.0)}),
        SymbolLoop(1, {-2: scalar(0.2), 0: scalar(-0.5), 1: scalar(1.0)}),
    ]
    for angles, power, defects in (
        ((0.0, 1.0, np.arccos(3 / 5)), 1, None),
        ((0.0, np.arccos(4 / 5), np.arccos(3 / 5)), 1, None),
        ((0.4, 2.2, 1.1), 2, {0: 0.7}),
        ((2.8, 0.4, 1.2), 2, None),
    ):
        pair = split_step_from_angles(*angles, shift_exponent=power, defects=defects)
        for sign in (1, -1):
            for side in (ops.LEFT, ops.RIGHT):
                loops.append((pair.u + identity(2).scaled(sign)).symbol_at(side))
    return loops


class TestStackedRoots:
    def test_batched_roots_equal_np_roots(self):
        # one call mixing sizes 1-13; ends just above the 1e-11 trim
        # threshold and interior entries below it or exactly zero
        rng = np.random.default_rng(41)
        polys = []
        for size in list(range(1, 14)) * 3:
            poly = rng.normal(size=size) + 1j * rng.normal(size=size)
            if size > 2 and rng.random() < 0.5:
                top = np.abs(poly).max()
                poly[0] *= 1.5e-11 * top / abs(poly[0])
                poly[-1] *= 1.0000001e-11 * top / abs(poly[-1])
                poly[rng.integers(1, size - 1)] = rng.choice([0.0, 0.5e-11 * top])
            polys.append(poly)
        polys = [polys[i] for i in rng.permutation(len(polys))]
        roots = transfer._poly_roots(polys)
        for poly, r in zip(polys, roots):
            want = np.roots(poly) if poly.size > 1 else np.zeros(0, dtype=complex)
            assert r.dtype == want.dtype and np.array_equal(r, want)

    def test_failed_items_pass_through(self):
        failed = NotFredholmError("symbol determinant vanishes identically")
        roots = transfer._poly_roots([np.ones(3, complex), failed, np.ones(1, complex)])
        assert np.array_equal(roots[0], np.roots(np.ones(3, complex)))
        assert roots[1] is failed and roots[2].size == 0

    def test_mu_vector_rows_equal_single_mu_rows(self):
        rng = np.random.default_rng(42)
        loops = list(germ_test_loops()) + [
            identity(2).symbol_at(ops.LEFT),   # det(1 - mu) vanishes identically at mu = 1
            SymbolLoop(1, {0: scalar(1.0), 2: scalar(1e-11)}),   # a coefficient at the trim
        ]
        for loop in loops:
            samples = transfer._det_samples(loop, True)
            mus = [1.0, -1.0] + list(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=4)))
            for mu, (poly, order) in zip(mus, transfer._det_polys(samples, mus)):
                [(single, single_order)] = transfer._det_polys(samples, [mu])
                if isinstance(poly, Exception):
                    assert isinstance(single, NotFredholmError) and str(poly) == str(single)
                    with pytest.raises(NotFredholmError, match="vanishes identically"):
                        oracles.det_roots(loop, mu)
                    continue
                assert order == single_order and np.array_equal(poly, single)
                want, want_order = oracles.det_roots(loop, mu)
                [roots] = transfer._poly_roots([single])
                assert order == want_order and np.array_equal(roots, want)
                assert transfer._clearance(roots) == oracles.circle_clearance(loop, mu)
        samples = transfer._det_samples(identity(2).symbol_at(ops.LEFT), True)
        [(vanishing, _)] = transfer._det_polys(samples, [1.0])   # det(1 - 1) = 0
        assert transfer._clearance(vanishing) == (0.0, False)


    @pytest.mark.parametrize("shifted", [False, True])
    def test_stacked_loops_equal_per_loop_calls(self, shifted):
        # every sample shape stacked as _sample_roots stacks it; the zero loop's det
        # vanishes identically at mu = 0, the identity's at mu = 1
        rng = np.random.default_rng(43)
        loops = list(germ_test_loops()) + [
            identity(2).symbol_at(ops.LEFT), identity(2).scaled(2.0).symbol_at(ops.LEFT),
            SymbolLoop(1, {}), SymbolLoop(1, {0: scalar(2.0)}),
            SymbolLoop(1, {0: scalar(1.0), 2: scalar(1e-11)}),
        ]
        angles = rng.uniform(0.0, 2.0 * np.pi, size=3)
        mus = [1.0, -1.0, *np.exp(1j * angles)] if shifted else [0.0]
        samples = [transfer._det_samples(loop, shifted) for loop in loops]
        got = transfer._sample_roots(samples, mus)
        want = [poly for sample in samples for poly in transfer._det_polys(sample, mus)]
        assert len(got) == len(want) == len(samples) * len(mus)
        failures = 0
        for (roots, order), (single, single_order) in zip(got, want):
            if isinstance(single, Exception):
                assert isinstance(roots, NotFredholmError) and str(roots) == str(single)
                assert order is single_order is None
                failures += 1
            else:
                [want_roots] = transfer._poly_roots([single])
                assert order == single_order and type(order) is int
                assert roots.dtype == want_roots.dtype and roots.tobytes() == want_roots.tobytes()
        shapes = [values.shape for values, _, _ in samples]
        assert sum(shapes.count(shape) > 1 for shape in set(shapes)) >= 2 and failures == 1


def limit_operator(loop):
    """The translation-invariant operator whose limit symbols are both ``loop``."""
    return BandedAnisotropicOperator(loop.fiber_dim, {
        n: CoefficientFunction.constant(c) for n, c in loop.coefficients.items()})


class TestHalfLineGerms:
    @pytest.mark.parametrize("loop", germ_test_loops())
    def test_dimension_matches_det_root_count(self, loop):
        germs = transfer._germ_pair(limit_operator(loop))
        for germ, tail in zip(germs, ("left", "right")):
            assert germ.dimension == det_root_count(loop, tail)

    def test_unit_circle_root_rejected(self):
        op = limit_operator(SymbolLoop(1, {1: scalar(1.0), 0: scalar(-1.0)}))
        with pytest.raises(NotFredholmError, match="unit circle"):
            transfer._germ_pair(op)


class TestGermOracle:
    """The package's germ spaces against the QZ split of ``oracles.germ_pair``:
    the same dimensions and refusals, orthonormal bases whose range projectors
    agree within 1e-8, and step matrices that agree within 1e-8 after the change
    of basis between the two bases."""

    @staticmethod
    def agree(a):
        """Compare both germs of ``a``; True when both routes accept it, False when
        both refuse."""
        try:
            want = oracles.germ_pair(a)
        except NotFredholmError:
            with pytest.raises(NotFredholmError):
                transfer._germ_pair(a)
            return False
        for got, want in zip(transfer._germ_pair(a), want, strict=True):
            assert got.dimension == want.dimension
            basis = got.window_basis
            assert np.abs(basis.conj().T @ basis - np.eye(got.dimension)).max(initial=0.0) < 1e-12
            projector = want.window_basis @ want.window_basis.conj().T
            assert np.abs(basis @ basis.conj().T - projector).max(initial=0.0) < 1e-8
            change = want.window_basis.conj().T @ basis    # got's coordinates in want's
            assert np.abs(got.step - change.conj().T @ want.step @ change).max(initial=0.0) < 1e-8
        return True

    def test_seeded_split_steps(self):
        # both targets of the 160 pairs, gaps down to 1e-7: the closest are refused
        agreed = [self.agree(pair.u + identity(2).scaled(sign))
                  for _, pair in oracles.seeded_split_steps() for sign in (1, -1)]
        assert 300 <= sum(agreed) < len(agreed)

    def test_interpolating_shift_models(self):
        # every transfer eigenvalue at 0 or infinity: singular extreme bands on both ends
        rng = np.random.default_rng(31)
        for _ in range(40):
            p_left, p_right = (int(p) for p in rng.integers(-2, 3, size=2))
            op = interpolating_shift_model(rng, p_left, p_right, int(rng.integers(0, 4)))
            for a in (op, op.adjoint()):
                if a.band_radius:
                    assert self.agree(a)

    def test_singular_extreme_bands(self):
        # rank-one outermost coefficients give eigenvalues at 0 and infinity next to
        # finite ones; random generic operators for contrast
        rng = np.random.default_rng(32)
        checked = 0
        for k in range(40):
            d, r = 1 + k % 2, 1 + (k // 2) % 2
            a = random_banded_operator(rng, d, offsets=range(-r, r + 1))
            if k % 4 < 2:
                bands = dict(a.bands)
                for n in (-r, r):
                    u, v = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
                    bands[n] = CoefficientFunction.from_table(np.outer(u, v.conj()),
                                                              np.outer(v, u.conj()), {})
                a = BandedAnisotropicOperator(d, bands)
            checked += self.agree(a)
        assert checked >= 30

    def test_root_inside_the_margin_is_refused_by_both(self):
        pair = split_step_from_angles(0.2, 0.7 - 1e-6, 0.7, shift_exponent=2, defects={0: 1.3})
        assert not self.agree(pair.u - identity(2))
        assert not self.agree(shift_power(1, 1) - identity(1).scaled(1.0 - 5e-7))


class TestExactKernel:
    def test_not_fredholm_when_symbol_vanishes(self):
        pair = split_step_from_angles(0.0, 0.0, 0.0)  # identity walk
        with pytest.raises(NotFredholmError):
            transfer.exact_kernel(pair.u - identity(2))

    def test_companion_pencil_refuses_a_root_inside_the_margin(self):
        # the right limit's gap at +1 is 1e-6, so one transfer eigenvalue of
        # U - 1 sits within CIRCLE_MARGIN of the circle; the root gate refuses
        pair = split_step_from_angles(0.2, 0.7 - 1e-6, 0.7, shift_exponent=2, defects={0: 1.3})
        message = r"transfer eigenvalue within margin of the unit circle \(\|lambda\| = "
        with pytest.raises(NotFredholmError, match=message):
            transfer.exact_kernel(pair.u - identity(2), pair.gamma0)

    def test_shift_minus_half_has_no_kernel(self):
        op = step_op({1: CoefficientFunction.constant(scalar(1.0)),
                      0: CoefficientFunction.constant(scalar(-0.5))})
        assert transfer.exact_kernel(op).dimension == 0
        # cross-check with the truncation oracle
        assert interior_kernel_count(op, 40) == 0

    def test_half_defect_kernels(self):
        op = half_defect()
        assert transfer.exact_kernel(op).dimension == 0
        assert transfer.exact_kernel(op.adjoint()).dimension == 1
        result = transfer.exact_index(op)
        assert result.index == 1
        assert str(result.tau_normalized) == "1"

    def test_half_defect_against_truncation_oracle(self):
        op = half_defect()
        assert interior_kernel_count(op, 30) == 0
        assert interior_kernel_count(op.adjoint(), 30) == 1

    def test_multiplication_operator_kernel(self):
        f = CoefficientFunction.from_table(
            scalar(1.0), scalar(1.0), {0: scalar(0.0), 3: scalar(0.0)}
        )
        summary = transfer.exact_kernel(mult_op(f))
        assert summary.dimension == 2

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("sigma_min, singular", [(0.5e-12, True), (2e-12, False)])
    def test_multiplication_operator_singular_limit_at_the_floor(self, side, sigma_min, singular):
        # a limit is singular when its smallest singular value is below the 1e-12 rank floor
        near, one = np.diag([1.0, sigma_min]).astype(complex), np.eye(2, dtype=complex)
        f = CoefficientFunction(*((near, one) if side == "left" else (one, near)))
        if singular:
            with pytest.raises(NotFredholmError,
                               match=f"^{side} limit of the multiplication operator is singular$"):
                transfer.exact_kernel(mult_op(f))
        else:
            assert transfer.exact_kernel(mult_op(f)).dimension == 0

    def test_window_padding_independence(self):
        pair = split_step_from_angles(0.0, 1.0, 0.3, defects={0: 2.0})
        op = pair.u + identity(2)
        dims = [
            transfer.exact_kernel(op, extra_padding=pad).dimension for pad in (0, 3, 7)
        ]
        assert len(set(dims)) == 1

    def test_defect_walk_kernel_matches_truncation_oracle(self):
        # the truncation heuristic needs a window several times the decay
        # length; models whose kernels decay too slowly are checked by the
        # residual test below instead
        rng = np.random.default_rng(14)
        seen_nonzero = compared = 0
        for _ in range(8):
            pair = random_split_step(rng)
            one = identity(2)
            try:
                summary = transfer.exact_kernel(pair.u + one, pair.gamma0)
            except NotFredholmError:
                continue
            _, (lo, hi) = oracles.kernel_vectors(pair.u + one)
            if max(abs(lo), abs(hi)) > 60:
                continue
            oracle = interior_kernel_count(pair.u + one, 120, tol=1e-7)
            assert summary.dimension == oracle
            compared += 1
            seen_nonzero += summary.dimension > 0
        assert compared >= 3 and seen_nonzero > 0

    def test_graded_signature_matches_truncation_oracle(self):
        # independent route to si-: interior kernel vectors of a large
        # truncation, compressed against the truncated grading, reproduce the
        # transfer oracle's graded signature
        cases = [(2.8, 0.4, 1.2), (1.8, 0.5, 2.0), (0.2, 2.0, 2.6)]
        for angles in cases:
            pair = split_step_from_angles(*angles)
            op = pair.u + identity(2)
            summary = transfer.exact_kernel(op, pair.gamma0)
            _, (lo, hi) = oracles.kernel_vectors(op)
            if max(abs(lo), abs(hi)) > 60:
                continue
            L = 120
            t = op.truncate(L).matrix
            _, svals, vh = np.linalg.svd(t)
            sites = np.repeat(np.arange(-L, L + 1), 2)
            cols = []
            for j in range(len(svals)):
                if svals[j] > 1e-7:
                    continue
                vec = vh.conj().T[:, j]
                if np.sum(np.abs(vec[np.abs(sites) <= L // 2]) ** 2) > 0.999:
                    cols.append(vec)
            assert len(cols) == summary.dimension
            if not cols:
                continue
            basis = np.linalg.qr(np.stack(cols, axis=1))[0][:, : len(cols)]
            g0_trunc = pair.gamma0.truncate(L).matrix
            from chiralwalk.indices import graded_signature

            assert graded_signature(basis, g0_trunc) == summary.graded_signature

    def test_random_kernel_vectors_are_genuine(self):
        # every reconstructed kernel vector solves the equation with tiny
        # residual and has decayed tails, regardless of decay length
        rng = np.random.default_rng(15)
        checked = 0
        for _ in range(8):
            pair = random_split_step(rng)
            one = identity(2)
            try:
                summary = transfer.exact_kernel(pair.u + one, pair.gamma0)
            except NotFredholmError:
                continue
            if summary.dimension == 0:
                continue
            basis, (lo, hi) = oracles.kernel_vectors(pair.u + one)
            n_sites = hi - lo + 1
            op = pair.u + one
            r = op.band_radius
            for j in range(summary.dimension):
                vec = basis[:, j].reshape(n_sites, 2)
                image, _ = transfer._apply_banded_window(op, vec, lo)
                assert np.abs(image[2 * r : -2 * r]).max() < 1e-8
                assert np.abs(vec[0]).max() < 1e-8 and np.abs(vec[-1]).max() < 1e-8
                checked += 1
        assert checked > 0

    def test_kernel_vectors_satisfy_equation(self):
        pair = split_step_from_angles(2.8, 0.4, 1.2)
        one = identity(2)
        summary = transfer.exact_kernel(pair.u + one, pair.gamma0)
        assert summary.dimension >= 1
        basis, (lo, hi) = oracles.kernel_vectors(pair.u + one)
        n_sites = hi - lo + 1
        vec = basis[:, 0].reshape(n_sites, 2)
        image, out_lo = transfer._apply_banded_window(pair.u + one, vec, lo)
        # interior rows of the image must vanish (tails are below 1e-10)
        r = (pair.u + one).band_radius
        inner = image[2 * r : -2 * r]
        assert np.abs(inner).max() < 1e-8

    def test_graded_signature_orthonormal_basis(self):
        pair = split_step_from_angles(2.8, 0.4, 1.2)
        one = identity(2)
        summary = transfer.exact_kernel(pair.u + one, pair.gamma0)
        basis, _ = oracles.kernel_vectors(pair.u + one)
        gram = basis.conj().T @ basis
        assert np.abs(gram - np.eye(summary.dimension)).max() < 1e-10
        assert summary.graded_signature is not None
        assert abs(summary.graded_signature) <= summary.dimension
        assert (summary.graded_signature - summary.dimension) % 2 == 0


class TestExactIndex:
    def test_identity(self):
        assert transfer.exact_index(identity(3)).index == 0

    def test_bilateral_shift_invertible(self):
        assert transfer.exact_index(shift_power(1, 1)).index == 0

    def test_translation_invariant_kernel_empty(self):
        assert transfer.exact_kernel(shift_power(2, 2) - identity(2).scaled(0.5)).dimension == 0

    def test_translation_invariant_operators_solve_the_matching_system(self):
        # no shortcut for constant coefficients: the root gate admits them and the
        # matching system finds no kernel when the symbol is invertible
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 24:
            d = 1 + checked % 2
            offsets = ((-1, 0, 1), (0, 2), (-2, 1))[checked % 3]
            op = BandedAnisotropicOperator(d, {
                n: CoefficientFunction.constant(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                for n in offsets
            })
            margin, _ = oracles.circle_clearance(op.symbol_at(ops.RIGHT))
            if margin is None or margin < 0.05:
                continue
            for a in (op, op.adjoint()):
                assert transfer.exact_kernel(a).dimension == 0
                assert transfer.exact_kernel(a, extra_padding=3).dimension == 0
            checked += 1

    def test_translation_invariant_symbol_on_the_circle_refused(self):
        with pytest.raises(NotFredholmError, match="transfer eigenvalue within margin"):
            transfer.exact_kernel(shift_power(1, 1) - identity(1))

    def test_compact_perturbation_invariance(self):
        rng = np.random.default_rng(3)
        for p_left, p_right in ((0, 1), (-1, 1), (2, 0)):
            base = interpolating_shift_model(rng, p_left, p_right, noise_sites=0)
            noisy = interpolating_shift_model(rng, p_left, p_right, noise_sites=4)
            expected = p_right - p_left
            assert transfer.exact_index(base).index == expected
            assert transfer.exact_index(noisy).index == expected

    def test_tau_normalization_with_fiber_two(self):
        # diag(S, S) far right, identity far left: index 2, tau value 1
        bands = {
            0: CoefficientFunction.step(np.eye(2), np.zeros((2, 2)), split=0),
            1: CoefficientFunction.step(np.zeros((2, 2)), np.eye(2), split=1),
        }
        op = BandedAnisotropicOperator(2, bands)
        result = transfer.exact_index(op)
        assert result.index == 2
        assert str(result.tau_normalized) == "1"


def random_banded_operator(rng, d, offsets=(-1, 0, 1), bulk_sites=range(-2, 3)):
    """Banded operator with random limits on both sides and random bulk coefficients."""
    def matrix():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    bands = {
        n: CoefficientFunction.from_table(
            matrix(), matrix(), {x: matrix() for x in bulk_sites if rng.random() < 0.5}
        )
        for n in offsets
    }
    return BandedAnisotropicOperator(d, bands)


def det_root_gate(a):
    """Whether the roots of both limit symbol determinants clear the circle margin."""
    return all(oracles.circle_clearance(a.symbol_at(side))[1] for side in (ops.LEFT, ops.RIGHT))


def root_count_index(op):
    """Right-minus-left winding of det F: roots inside the unit disk plus the order at 0."""
    windings = []
    for side in (ops.LEFT, ops.RIGHT):
        roots, order_at_zero = oracles.det_roots(op.symbol_at(side))
        windings.append(int(np.sum(np.abs(roots) < 1.0)) + order_at_zero)
    return windings[1] - windings[0]


class TestIndexAlgebra:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2]),
        k=st.integers(-2, 2),
        extra_padding=st.sampled_from([0, 3, 7]),
    )
    def test_index_identities_on_random_fredholm_operators(self, seed, d, k, extra_padding):
        rng = np.random.default_rng(seed)
        a, b = random_banded_operator(rng, d), random_banded_operator(rng, d)
        assume(det_root_gate(a) and det_root_gate(b))
        assert (
            transfer.exact_kernel(a, extra_padding=extra_padding).dimension
            == transfer.exact_kernel(a).dimension
        )
        ind_a = transfer.exact_index(a).index
        ind_b = transfer.exact_index(b).index
        assert ind_a == root_count_index(a)
        assert ind_b == root_count_index(b)
        assert transfer.exact_index(a @ b).index == ind_a + ind_b
        assert transfer.exact_index(a.adjoint()).index == -ind_a
        conjugated = shift_power(k, d) @ a @ shift_power(-k, d)
        assert transfer.exact_index(conjugated).index == ind_a


# --- explicit-tail reference ---------------------------------------------------
#
# The former reconstruction: every kernel vector is written out site by
# site, each tail walked until its germ power falls below 1e-10, and
# gamma0 is compressed on the QR basis of those vectors.  Its cost grows
# like 1 / gap, so it refuses nearly gapless models.

REFERENCE_TAIL_TOL = 1e-10
REFERENCE_MAX_TAIL_STEPS = 20000


def reference_apply_banded_window(op, values, lo):
    r = op.band_radius
    n, d = values.shape[0], op.fiber_dim
    out_lo = lo - r
    out = np.zeros((n + 2 * r, d), dtype=complex)
    for offset, f in op.bands.items():
        for row in range(out.shape[0]):
            x = out_lo + row
            y = x - offset
            if lo <= y < lo + n:
                out[row] += f.value_at(x) @ values[y - lo]
    return out, out_lo


def reference_tail_powers(germ):
    powers = []
    current = np.eye(germ.dimension, dtype=complex)
    while germ.dimension and len(powers) < REFERENCE_MAX_TAIL_STEPS:
        current = germ.step @ current
        powers.append(current.copy())
        if np.linalg.norm(current, 2) < REFERENCE_TAIL_TOL:
            return powers
    if germ.dimension:
        raise PreconditionError("tail decay too slow for reconstruction")
    return powers


def kernel_fields(summary):
    """A KernelSummary's ``to_dict``, with the dimension and signature that a report
    states as indices."""
    return {**summary.to_dict(), "dimension": summary.dimension,
            "graded_signature": summary.graded_signature}


def reference_multiplication_kernel(a, rank_tol):
    f = a.coefficient(0)
    lo, hi = f.window_start, f.window_end - 1
    columns = []
    for x in range(lo, hi + 1):
        null = kernel_basis(f.value_at(x), rank_tol)
        for j in range(null.dimension):
            column = np.zeros((hi - lo + 1, a.fiber_dim), dtype=complex)
            column[x - lo] = null.basis[:, j]
            columns.append(column)
    fields = {
        "dimension": len(columns),
        "graded_signature": 0,
        "rank_margin": None,   # ranked site by site: no one threshold to move
    }
    if not columns:
        return fields, None, (lo, hi)
    return fields, np.stack(columns, axis=-1), (lo, hi)


def reference_kernel(a, gamma0, rank_tol=1e-8, extra_padding=0):
    """(to_dict fields, compressed gamma0 eigenvalues, basis, site window).

    Gated by ``oracles.circle_clearance`` of the symbol determinants, and built on
    the package's germ spaces, so that its matching system is the package's
    float for float.
    """
    if not det_root_gate(a):
        raise NotFredholmError("symbol determinant has a zero within margin of the unit circle")
    if a.band_radius == 0:
        fields, vectors, window = reference_multiplication_kernel(a, rank_tol)
    else:
        fields, vectors, window = reference_lattice_vectors(a, rank_tol, extra_padding)
    if vectors is None:
        return fields, np.zeros(0), None, window
    lo, hi = window
    n_sites, d = vectors.shape[:2]
    basis = np.linalg.qr(vectors.reshape(n_sites * d, -1))[0]
    cols = basis.reshape(n_sites, d, -1)
    compressed = np.zeros((basis.shape[1],) * 2, dtype=complex)
    for j in range(basis.shape[1]):
        image, out_lo = reference_apply_banded_window(gamma0, cols[:, :, j], lo)
        aligned = image[lo - out_lo : lo - out_lo + n_sites]
        compressed[:, j] = basis.conj().T @ aligned.reshape(-1)
    evals = np.linalg.eigvalsh(0.5 * (compressed + compressed.conj().T))
    fields["graded_signature"] = int(np.sum(evals > SIGNATURE_GAP) - np.sum(evals < -SIGNATURE_GAP))
    return fields, evals, basis, window


def reference_lattice_vectors(a, rank_tol, extra_padding):
    d, r = a.fiber_dim, a.band_radius
    germ_left, germ_right = transfer._germ_pair(a)
    starts = [f.window_start for f in a.bands.values() if not f.is_constant()]
    ends = [f.window_end for f in a.bands.values() if not f.is_constant()]
    eq_lo = min(starts) - extra_padding
    eq_hi = max(max(ends) - 1, eq_lo + 2 * r) + extra_padding
    y0, y1 = eq_lo - r, eq_hi + r
    anchor_right_start = y1 - 2 * r + 1
    mid_sites = list(range(y0 + 2 * r, anchor_right_start))
    k_l, k_r = germ_left.dimension, germ_right.dimension
    right_offset = k_l + len(mid_sites) * d
    matching = np.zeros(((eq_hi - eq_lo + 1) * d, right_offset + k_r), dtype=complex)
    for s in range(eq_lo, eq_hi + 1):
        row = (s - eq_lo) * d
        for offset, f in a.bands.items():
            y, coeff = s - offset, f.value_at(s)
            if y < y0 + 2 * r:
                p = y - y0
                matching[row : row + d, :k_l] += coeff @ germ_left.window_basis[p * d : (p + 1) * d]
            elif y >= anchor_right_start:
                p = y - anchor_right_start
                block = germ_right.window_basis[p * d : (p + 1) * d]
                matching[row : row + d, right_offset:] += coeff @ block
            else:
                j = k_l + mid_sites.index(y) * d
                matching[row : row + d, j : j + d] += coeff
    null = kernel_basis(matching, rank_tol)
    fields = kernel_fields(null)
    del fields["signature_margin"]
    fields["graded_signature"] = 0
    if null.dimension == 0:
        return fields, None, (y0, y1)
    powers_l, powers_r = reference_tail_powers(germ_left), reference_tail_powers(germ_right)
    lo, hi = y0 - len(powers_l), y1 + len(powers_r)
    vectors = np.zeros((hi - lo + 1, d, null.dimension), dtype=complex)
    alpha, beta = null.basis[:k_l], null.basis[right_offset:]
    for p in range(2 * r):
        vectors[y0 + p - lo] = germ_left.window_basis[p * d : (p + 1) * d] @ alpha
        block = germ_right.window_basis[p * d : (p + 1) * d]
        vectors[anchor_right_start + p - lo] = block @ beta
    for i, y in enumerate(mid_sites):
        vectors[y - lo] = null.basis[k_l + i * d : k_l + (i + 1) * d]
    for j, power in enumerate(powers_l, start=1):
        vectors[y0 - j - lo] = germ_left.window_basis[:d] @ power @ alpha
    for j, power in enumerate(powers_r, start=1):
        vectors[y1 + j - lo] = germ_right.window_basis[-d:] @ power @ beta
    return fields, vectors, (lo, hi)


# the open interval keeps the coin mixing, so most straddling examples carry a kernel
angles = st.floats(0.05, np.pi - 0.05)


class TestSteinSolve:
    def test_graded_kernels_equal_the_scipy_path(self):
        # gamma0's action read on the matching window against the Gram and gamma0 forms
        # summed over the lattice, each geometric tail by a scipy Stein solve
        def outcomes(kernel):
            for _, pair in oracles.seeded_split_steps():
                for sign in (1, -1):
                    try:
                        yield kernel(pair.u + identity(2).scaled(sign), pair.gamma0)
                    except ChiralwalkError as exc:
                        yield str(exc)

        got = list(outcomes(transfer.exact_kernel))
        want = list(outcomes(oracles.graded_kernel_by_forms))
        graded = 0
        for g, w in zip(got, want, strict=True):
            if isinstance(w, str):
                assert g == w
                continue
            g, w = kernel_fields(g), kernel_fields(w)
            g_margin, w_margin = g.pop("signature_margin"), w.pop("signature_margin")
            assert g == w
            if w_margin is None:
                assert g_margin is None
            else:
                assert abs(g_margin - w_margin) <= 1e-10
                graded += 1
        assert graded > 40


class TestClosedFormTails:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        theta1_left=angles,
        theta1_right=angles,
        theta2=angles,
        straddle=st.booleans(),
        shift_exponent=st.sampled_from([1, 2]),
        defects=st.dictionaries(st.integers(-2, 2), angles, max_size=3),
        sign=st.sampled_from([1, -1]),
    )
    # a multiplication operator (no coin mixing) with a two-site kernel
    @example(0.3, 1.0, 0.0, False, 1, {0: 0.0}, -1)
    def test_matches_explicit_tail_reference(
        self, theta1_left, theta1_right, theta2, straddle, shift_exponent, defects, sign
    ):
        if straddle:  # theta2 between the two coin angles: a nonzero kernel is likely
            theta1_left, theta2, theta1_right = sorted((theta1_left, theta1_right, theta2))
        pair = split_step_from_angles(theta1_left, theta1_right, theta2, shift_exponent, defects)
        op = pair.u + identity(2).scaled(sign)
        # the oracle's root gate and exact_kernel's refuse the same operators
        try:
            summary = transfer.exact_kernel(op, pair.gamma0)
        except NotFredholmError:
            summary = None
        assert (summary is not None) == det_root_gate(op)
        if summary is None:
            return
        assume(not op.is_translation_invariant())
        try:
            fields, evals, ref_basis, window = reference_kernel(op, pair.gamma0)
        except PreconditionError:
            assume(False)   # the reference refuses slow tails; the regressions below cover them
        got = kernel_fields(summary)
        margin = got.pop("signature_margin")
        assert got == fields
        _, spectrum = transfer._graded_kernel(op, pair.gamma0, 1e-8, 0)
        assert np.abs(np.sort(spectrum) - np.sort(evals)).max(initial=0.0) < 1e-10
        if evals.size:
            assert abs(margin - (np.abs(evals).min() - SIGNATURE_GAP)) < 1e-10
        if evals.size and op.band_radius:
            basis, vector_window = oracles.kernel_vectors(op)
            assert vector_window == window
            projector = basis @ basis.conj().T
            assert np.abs(projector - ref_basis @ ref_basis.conj().T).max() < 1e-8
        if not evals.size:
            assert margin is None
        for pad in (3, 7):
            padded = transfer.exact_kernel(op, pair.gamma0, extra_padding=pad)
            assert (padded.dimension, padded.graded_signature) == (
                summary.dimension,
                summary.graded_signature,
            )

    @pytest.mark.parametrize("eps, shift", [(1e-3, 1), (1e-4, 1), (1e-5, 1), (1e-6, 1),
                                            (1.770849422367275e-06, 2)],
                             ids=["0.001", "0.0001", "1e-05", "1e-06", "shift2"])
    def test_near_closing_kernel_keeps_its_signature(self, eps, shift):
        if shift == 1:
            pair = split_step_from_angles(0.0, 1.0, 1.0 - eps)
            op, want = pair.u - identity(2), (1, 1)
        else:
            # Ker(U + 1) of a shift-2 walk whose right tail decays at 1 - 1.2e-6 per site
            theta2 = 2.3372246963506083
            right = np.pi - theta2 - 2.0 * np.arcsin(eps / 2.0)
            pair = split_step_from_angles(1.9778443493761728, right, theta2, shift)
            op, want = pair.u + identity(2), (2, 2)
        summary = transfer.exact_kernel(op, pair.gamma0)
        assert (summary.dimension, summary.graded_signature) == want
        assert summary.signature_margin > 0.49

    def test_certified_near_closing_model_gets_full_report(self):
        theta1, theta2 = 1.0, 1.0 - 3e-4
        scenario = Scenario.from_doc(
            {
                "model": "split_step",
                "params": {
                    "a": {"profile": "step", "left": 1.0, "right": float(np.cos(theta1))},
                    "b": {"profile": "step", "left": 0.0, "right": float(np.sin(theta1))},
                    "c": float(np.cos(theta2)),
                    "d_coin": float(np.sin(theta2)),
                },
                "tolerances": {"grid_n": 1024},
            }
        )
        report, code = analysis.run_index_report(scenario)
        assert report["certifications"]["gap_plus_one"]["status"] == "certified"
        assert report["omitted"] == [] and code == analysis.EXIT_OK
        assert report["indices"]["si_plus"] == 1 and report["indices"]["si_minus"] == 0
        assert report["diagnostics_plus"]["signature_margin"] > 0.49
        assert report["windings"] is not None


# roots whose moduli from np.abs and from Python's abs differ in the last bit, on
# either side of a decision: np.abs puts both inside CIRCLE_MARGIN, Python's abs outside
NUMPY_MODULI = {
    "outside": 0.9946138222261309 + 0.1036597541947998j,    # |z| = 1/(1 - 1e-6)
    "inside": -0.1284707306752315 - 0.9917122926346996j,    # |z| = 1/(1 + 1e-6)
}


def list_outcome(call):
    """A call's value, or the type and message of the NotFredholmError it raised."""
    try:
        return call()
    except NotFredholmError as exc:
        return type(exc).__name__, str(exc)


def margin_radii():
    """Radii at 1 +- CIRCLE_MARGIN and at the inverse edges 1 / (1 -+ CIRCLE_MARGIN),
    each with its float neighbours."""
    m = transfer.CIRCLE_MARGIN
    edges = (1.0 + m, 1.0 - m, 1.0 / (1.0 - m), 1.0 / (1.0 + m))
    return [x for e in edges for x in (np.nextafter(e, 0.0), e, np.nextafter(e, 2.0))]


class TestListDecisions:
    """Clearances, germ counts, projector trace checks and determinant row trims,
    decided on Python lists, against their numpy forms in ``oracles``, bit for bit."""

    @staticmethod
    def same(got, want):
        assert got == want and [type(x) for x in got] == [type(x) for x in want]

    def test_clearance_on_seeded_pairs(self):
        for _, pair in oracles.seeded_split_steps():
            for sign in (1, -1):
                a = pair.u + identity(2).scaled(sign)
                roots = [z for z, _ in transfer._loop_roots(
                    [a.symbol_at(side) for side in (ops.LEFT, ops.RIGHT)])]
                self.same(transfer._clearance(*roots), oracles.clearance(*roots))
                for z in roots:
                    self.same(transfer._clearance(z), oracles.clearance(z))

    def test_clearance_edges(self):
        failed = NotFredholmError("symbol determinant vanishes identically")
        none = np.zeros(0, dtype=complex)
        cases = [(none,), (none, none), (np.ones(2, complex), failed), (failed, none),
                 (np.zeros(1, dtype=complex),), (np.array([0.0, 2.0 + 1j]),)]
        phase = np.exp(0.7j)
        for r in margin_radii():
            cases += [(np.array([r + 0j]),), (np.array([r * phase]),),
                      (np.array([3.0 + 0j]), np.array([r + 0j]))]
        for z in NUMPY_MODULI.values():
            cases += [(np.array([z]),), (np.array([2.0, z]), none)]
        with np.errstate(divide="ignore"):
            for roots in cases:
                self.same(transfer._clearance(*roots), oracles.clearance(*roots))
        assert transfer._clearance(none) == (None, True)
        assert transfer._clearance(np.ones(2, complex), failed) == (0.0, False)
        assert transfer._clearance(np.zeros(1, dtype=complex)) == (1.0, True)
        for z in NUMPY_MODULI.values():
            # np.abs refuses where Python's abs would clear, and sets the margin's bits
            assert abs(z) != np.abs(z)
            margin, clear = transfer._clearance(np.array([z]))
            assert not clear and margin == abs(float(np.abs(z)) - 1.0) != abs(abs(z) - 1.0)

    @staticmethod
    def gate(a, roots, monkeypatch):
        """(package outcome, numpy-form outcome) of the germ gate of ``a`` on ``roots``:
        the numpy form reads the matrix sign that the package computed."""
        signs, real = [], transfer._matrix_sign

        def spy(w, steps):
            try:
                signs.append(real(w, steps))
            except NotFredholmError as exc:
                signs.append(exc)
            if isinstance(signs[-1], Exception):
                raise signs[-1]
            return signs[-1]

        monkeypatch.setattr(transfer, "_matrix_sign", spy)
        got = list_outcome(lambda: [g.dimension for g in transfer._germ_pair(a, roots)])

        def want():
            counts = oracles.germ_counts(roots, a.band_radius, a.fiber_dim)
            if isinstance(signs[-1], Exception):
                raise signs[-1]
            return oracles.germ_trace_check(signs[-1], counts)

        return got, list_outcome(want)

    def test_germ_gate_on_seeded_pairs(self, monkeypatch):
        outcomes = []
        for _, pair in oracles.seeded_split_steps():
            for sign in (1, -1):
                a = pair.u + identity(2).scaled(sign)
                roots = transfer._loop_roots([a.symbol_at(side) for side in (ops.LEFT, ops.RIGHT)])
                got, want = self.gate(a, roots, monkeypatch)
                assert got == want
                outcomes.append(isinstance(got, tuple))
        assert 0 < sum(outcomes) < 40   # the closest gaps are refused

    def test_germ_gate_edges(self, monkeypatch):
        # doctored roots for the operator: radii at the margin and their neighbours,
        # moduli that np.abs and Python's abs disagree on, a zero root, no roots
        a = oracles.seeded_split_steps()[1][1].u - identity(2)
        none = np.zeros(0, dtype=complex)
        cases = [[(none, 0), (none, 0)], [(np.zeros(1, dtype=complex), 1), (none, 0)]]
        for r in margin_radii():
            cases += [[(np.array([r + 0j]), 0), (none, 0)], [(none, 0), (np.array([r + 0j]), 1)]]
        for z in NUMPY_MODULI.values():
            cases += [[(np.array([z, 3.0]), 0), (none, 0)]]
        refused = []
        with np.errstate(all="ignore"):
            for roots in cases:
                got, want = self.gate(a, roots, monkeypatch)
                assert got == want
                refused.append("within margin" in str(got))
        # the margin splits its neighbours; np.abs puts both disputed moduli inside it
        assert refused[-2:] == [True, True] and 8 < sum(refused) < len(cases) - 8

    def test_trace_check_edges(self):
        # traces exactly half-way between counts (np.rint rounds to even), their float
        # neighbours, and non-finite traces
        n, counts = 6, [2, 3]
        for offset in (0.0, 0.5, -0.5, 1.5, 2.5, 0.5 - 2.0 ** -40, 0.5 + 2.0 ** -40,
                       np.nan, np.inf, -np.inf):
            for side in (0, 1):
                traces = np.array([counts[0], counts[1]], dtype=float)
                traces[side] += offset
                sign = np.zeros((2, n, n), dtype=complex)
                sign[:, 0, 0] = (-1.0, 1.0) * (2.0 * traces - n)    # trace of (1 -+ sign) / 2
                with np.errstate(invalid="ignore"):
                    want = list_outcome(lambda: oracles.germ_trace_check(sign, counts))
                    got = list_outcome(lambda: transfer._trace_check(sign, counts) or counts)
                assert got == want, offset
        assert transfer._trace_check(np.zeros((2, n, n)), [n // 2, n // 2]) is None

    def test_row_trim_on_seeded_pairs(self):
        rng = np.random.default_rng(44)
        for _, pair in oracles.seeded_split_steps()[:60]:
            loops = [pair.u.symbol_at(side) for side in (ops.LEFT, ops.RIGHT)]
            mus = [1.0, -1.0, *np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=4))]
            samples = [transfer._det_samples(loop, True) for loop in loops]
            stacked = [np.stack(parts) for parts in zip(*samples)]
            for sample in samples + [stacked]:
                self.same_polys(transfer._det_polys(sample, mus), oracles.det_polys(sample, mus))

    def test_row_trim_edges(self):
        # an identically vanishing det, no roots, a lone coefficient at either end,
        # ends exactly at and just under the trim threshold
        loops = [
            identity(2).symbol_at(ops.LEFT), SymbolLoop(1, {}), SymbolLoop(1, {0: scalar(2.0)}),
            SymbolLoop(1, {3: scalar(1.0)}), SymbolLoop(1, {-2: scalar(1.0)}),
            SymbolLoop(1, {0: scalar(1.0), 2: scalar(1e-11)}),
            SymbolLoop(1, {0: scalar(1.0), 2: scalar(0.999e-11), 1: scalar(0.5)}),
            SymbolLoop(1, {-1: scalar(1e-11), 0: scalar(0.0 + 1.0j), 1: scalar(1.0)}),
        ]
        for loop in loops:
            for shifted, mus in ((False, [0.0]), (True, [1.0, -1.0, 0.5j])):
                sample = transfer._det_samples(loop, shifted)
                self.same_polys(transfer._det_polys(sample, mus), oracles.det_polys(sample, mus))

    @staticmethod
    def same_polys(got, want):
        assert len(got) == len(want)
        for (poly, order), (ref, ref_order) in zip(got, want):
            if isinstance(ref, Exception):
                assert type(poly) is type(ref) and str(poly) == str(ref) and order is None
            else:
                assert type(order) is int and order == ref_order
                assert poly.dtype == ref.dtype and poly.tobytes() == ref.tobytes()


class TestCountRule:
    """One count rule: each germ dimension is r d + w_left on the left and r d - w_right on
    the right, w the windings of the limit determinants, on the package's germ spaces and
    on the QZ split of ``oracles.germ_pair``, which reads the pencils, not the roots."""

    @staticmethod
    def operators():
        for _, pair in oracles.seeded_split_steps():
            for sign in (-1, 1):
                yield pair.u + identity(2).scaled(sign)    # U -+ 1
        rng = np.random.default_rng(2525)
        for _ in range(60):
            op = interpolating_shift_model(rng, *(int(p) for p in rng.integers(-2, 3, size=2)))
            yield op
            yield op.adjoint()

    def test_germ_dimensions_are_the_windings(self):
        checked = refused = 0
        for a in self.operators():
            if a.band_radius == 0:    # a multiplication operator has no germs
                continue
            r, d = a.band_radius, a.fiber_dim
            try:
                w_left, w_right = (oracles.winding_det(a.symbol_at(side)).rounded
                                   for side in (ops.LEFT, ops.RIGHT))
            except NotFredholmError:
                with pytest.raises(NotFredholmError, match="within margin"):
                    transfer._germ_pair(a)
                refused += 1
                continue
            want = [r * d + w_left, r * d - w_right]
            assert [g.dimension for g in transfer._germ_pair(a)] == want
            assert [g.dimension for g in oracles.germ_pair(a)] == want
            checked += 1
        assert checked > 300 and refused > 0

    def test_count_reads_one_determinant(self):
        failed = NotFredholmError("symbol determinant vanishes identically")
        assert transfer._count(failed) == (None, 0.0, 0.0, None)
        assert not transfer._count(failed).clear
        none = transfer._count(np.zeros(0, dtype=complex), 2)
        assert none == (2, None, np.inf, None) and none.clear
        count = transfer._count(np.array([0.0, 0.5j, 1.0 + 1e-7, 3.0]), -1)
        assert count.winding == 2 - 1 and count.nearest == 1.0 + 1e-7 and not count.clear
        assert count.margin == abs(float(np.abs(1.0 + 1e-7)) - 1.0)

    def test_refusals_name_the_nearest_root_over_all(self):
        near, nearer = np.array([1.0 + 5e-7 + 0j]), np.array([1.0 - 2e-7 + 0j])
        for found in ([(near, 0), (nearer, 0)], [(nearer, 0), (near, 0)]):
            with pytest.raises(NotFredholmError, match=r"\(\|z\| = 0\.99999980\)"):
                transfer._counts(found, lambda z: f"(|z| = {z:.8f})")
        failed = NotFredholmError("symbol determinant vanishes identically")
        with pytest.raises(NotFredholmError, match="vanishes") as caught:
            transfer._counts([(nearer, 0), (failed, None)], str)
        assert caught.value is failed
        clear = transfer._counts([(np.array([3.0 + 0j]), 1), (np.array([0.5j]), 0)], str)
        assert [(c.winding, c.margin) for c in clear] == [(1, 2.0), (1, 0.5)]
