import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from chiralwalk import indices, verification
from chiralwalk.exceptions import PreconditionError
from chiralwalk.verification import (
    generic_chiral_pair,
    random_chiral_hamiltonian,
    random_projection,
    random_unitary,
    structured_chiral_pair,
)
from chiralwalk.walks import build_generator_walk

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA3 = np.diag([1.0, -1.0])


class TestKernelBasis:
    def test_zero_matrix(self):
        assert indices.kernel_basis(np.zeros((3, 3))).dimension == 3

    def test_identity(self):
        assert indices.kernel_basis(np.eye(4)).dimension == 0

    def test_threshold_definition(self):
        m = np.diag([1.0, 1e-14, 2.0])
        summary = indices.kernel_basis(m, rank_tol=1e-8)
        assert summary.dimension == 1
        assert summary.basis.shape == (3, 1)
        assert abs(abs(summary.basis[1, 0]) - 1.0) < 1e-12

    def test_borderline_diagnostics(self):
        m = np.diag([1.0, 5e-8, 1e-12])
        summary = indices.kernel_basis(m, rank_tol=1e-8)
        assert summary.dimension == 1
        assert any(1e-8 <= s < 1e-7 for s in summary.borderline_singular_values)

    def test_rectangular(self):
        m = np.array([[1.0, 0.0, 0.0]])
        assert indices.kernel_basis(m).dimension == 2

    def test_graded_signature_attached(self):
        summary = indices.kernel_basis(np.zeros((2, 2)))
        assert indices.graded_signature(summary.basis, SIGMA3) == 0

    def test_signature_rejects_noninvariant_kernel(self):
        # kernel spanned by (1,1)/sqrt2 is not sigma3-invariant
        m = np.array([[1.0, -1.0], [0.0, 0.0]])
        with pytest.raises(PreconditionError, match="not Gamma0-invariant"):
            indices.graded_signature(indices.kernel_basis(m).basis, SIGMA3)


def planted_matrix(rng, rows, cols, svals):
    """rows x cols matrix with the given singular values, in random unitary frames."""
    def frame(n):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q

    s = np.zeros((rows, cols))
    s[np.arange(len(svals)), np.arange(len(svals))] = svals
    return frame(rows) @ s @ frame(cols).conj().T


@st.composite
def planted_stacks(draw):
    """Stacks of same-shaped matrices whose singular values sit at least 100x from
    the kernel_basis threshold, on either side; shapes tall, wide, square or empty.
    """
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    rank_tol = draw(st.sampled_from([1e-8, 1e-6, 1e-3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack, kept = [], []
    for _ in range(draw(st.integers(1, 4))):
        k = min(rows, cols)
        if draw(st.booleans()):
            # numerically zero: sigma_max is tiny, so the 1e-12 floor decides
            svals = 10.0 ** rng.uniform(-20, -14, size=k)
            kept.append(0)
        else:
            top = rng.uniform(0.5, 2.0)
            big = rng.random(k) < 0.5
            big[:1] = True
            threshold = rank_tol * top
            svals = np.where(
                big,
                10.0 ** rng.uniform(np.log10(100 * threshold), np.log10(top), size=k),
                10.0 ** rng.uniform(-20, np.log10(threshold / 100), size=k),
            )
            svals[:1] = top
            kept.append(int(big.sum()))
        stack.append(planted_matrix(rng, rows, cols, np.sort(svals)[::-1]))
    return np.stack(stack), [cols - r for r in kept], rank_tol


class TestRankOnlyKernels:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(planted_stacks())
    def test_matches_kernel_basis(self, case):
        stack, expected, rank_tol = case
        singles = [indices._kernel_dims(m, rank_tol) for m in stack]
        assert singles == [indices.kernel_basis(m, rank_tol).dimension for m in stack]
        assert singles == expected
        assert indices._kernel_dims(stack, rank_tol) == singles

    def test_wide_matrix_keeps_implicit_zeros(self):
        assert indices._kernel_dims(np.array([[1.0, 0.0, 0.0]]), 1e-8) == 2
        assert indices._kernel_dims(np.zeros((2, 0, 3)), 1e-8) == [3, 3]
        assert indices._kernel_dims(np.zeros((3, 0)), 1e-8) == 0


class TestSymmetryIndex:
    def test_identity_walk(self):
        si_plus, si_minus = indices.symmetry_index_pm(np.eye(2), SIGMA3)
        assert (si_plus, si_minus) == (0, 0)

    def test_minus_identity(self):
        g0 = np.diag([1.0, 1.0, -1.0])
        si_plus, si_minus = indices.symmetry_index_pm(-np.eye(3), g0)
        assert si_plus == 0 and si_minus == 1

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u, g0, _ = generic_chiral_pair(rng, 20)
            si_plus, si_minus = indices.symmetry_index_pm(u, g0)
            assert si_plus + si_minus == int(round(np.trace(g0).real))

    def test_chirality_checked(self):
        rng = np.random.default_rng(8)
        with pytest.raises(PreconditionError):
            indices.symmetry_index_pm(random_unitary(4, rng), np.eye(4))


class TestChiralSelfadjoint:
    def test_graded_zero_block(self):
        g0 = np.diag([1.0, 1.0, 1.0, -1.0])
        assert indices.chiral_selfadjoint_index(np.zeros((4, 4)), g0) == 2

    def test_invertible_gives_zero(self):
        q = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert indices.chiral_selfadjoint_index(q, SIGMA3) == 0

    def test_sigma1_plus_zero_block(self):
        q = np.zeros((3, 3))
        q[:2, :2] = SIGMA1
        g0 = np.diag([1.0, -1.0, 1.0])
        assert indices.chiral_selfadjoint_index(q, g0) == 1

    def test_anticommutation_required(self):
        with pytest.raises(PreconditionError):
            indices.chiral_selfadjoint_index(np.eye(2), SIGMA3)

    def test_gamma0_checked_once(self, monkeypatch):
        # the public graded_signature would convert and check gamma0 a second time
        def second_check(*args):
            raise AssertionError("gamma0 checked twice")

        monkeypatch.setattr(indices, "graded_signature", second_check)
        q = np.zeros((3, 3))
        q[:2, :2] = SIGMA1
        assert indices.chiral_selfadjoint_index(q, np.diag([1.0, -1.0, 1.0])) == 1
        g0 = np.diag([1.0, 1.0, 1.0, -1.0])
        assert indices.chiral_selfadjoint_index(np.zeros((4, 4)), g0) == 2


class TestSusyAndTanaka:
    def test_identity_gives_trace(self):
        g0 = np.diag([1.0, 1.0, -1.0])
        assert indices.susy_index(np.eye(3), g0) == 1
        ind_plus, ind_minus = indices.tanaka_index_pm(np.eye(3), g0)
        assert ind_plus == 1 and ind_minus == 0

    def test_componentwise_equality_random(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            sp = structured_chiral_pair(rng)
            si = indices.symmetry_index_pm(sp.u, sp.gamma0)
            tanaka = indices.tanaka_index_pm(sp.u, sp.gamma0)
            assert si == tanaka == (sp.si_plus, sp.si_minus)
            assert indices.susy_index(sp.u, sp.gamma0) == sp.si_plus + sp.si_minus


class TestPairIndex:
    def test_equal_projections(self):
        p = random_projection(np.random.default_rng(1), 6)
        assert indices.pair_index(p, p) == 0

    def test_rank_one_against_zero(self):
        assert indices.pair_index(np.diag([1.0, 0.0]), np.zeros((2, 2))) == 1

    def test_unitary_conjugate_near_identity(self):
        rng = np.random.default_rng(2)
        p0 = random_projection(rng, 8, 3)
        h = rng.normal(size=(8, 8)) * 0.05
        h = h + h.T
        import scipy.linalg

        r = scipy.linalg.expm(1j * h)
        p1 = r @ p0 @ r.conj().T
        assert indices.pair_index(p0, 0.5 * (p1 + p1.conj().T)) == 0

    def test_non_projection_rejected(self):
        with pytest.raises(PreconditionError):
            indices.pair_index(np.diag([0.5, 0.0]), np.zeros((2, 2)))

    def test_trace_formula_two_by_two(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert abs(indices.pair_index_trace(p0, p1, 0)) < 1e-12
        assert indices.pair_index(p0, p1) == 0

    def test_trace_formula_matches_index(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(2, 10))
            p0 = random_projection(rng, dim)
            p1 = random_projection(rng, dim)
            expected = indices.pair_index(p0, p1)
            for m in (0, 1, 2):
                assert abs(indices.pair_index_trace(p0, p1, m) - expected) < 1e-8

    def test_additivity_antisymmetry(self):
        rng = np.random.default_rng(4)
        p0 = random_projection(rng, 7)
        p1 = random_projection(rng, 7)
        ind_01, ind_10 = indices.pair_index(p0, p1), indices.pair_index(p1, p0)
        assert indices.pair_index(p0, p0) == 0
        assert ind_01 == -ind_10


def frame_dims(p0, p1, rank_tol=1e-8):
    """The four intersection dimensions on the frame of P0, as ``pair_index`` ranks them."""
    return indices._intersection_dims([(indices._grading_frames(p0, 0.5), p1)], rank_tol)[0]


def tilted_pair(delta, rng):
    """P0 onto span(e1, e2) and P1 onto span(e2, f), f = (-sin d, 0, cos d), conjugated
    by one random unitary: Ker P1 meets Ran P0 at angle delta, and Ran P1 meets Ker P0
    at angle delta, so Ind(P0, P1) = rank P0 - rank P1 = 0 at every delta."""
    f = np.array([-np.sin(delta), 0.0, np.cos(delta)])
    p1 = np.diag([0.0, 1.0, 0.0]) + np.outer(f, f)
    v = random_unitary(3, rng)
    return (v * [1.0, 1.0, 0.0]) @ v.conj().T, v @ p1 @ v.conj().T


class TestIntersectionFrames:
    """The frame rule of ``_intersection_dims`` against the constraint stacks of
    ``oracles.intersection_dims``, on 1,200 pairs plus the edge cases."""

    def test_chiral_pairs_on_gamma0_frames(self):
        # 400 structured pairs (exact intersections by construction) and 400
        # generic ones of dimension 2-40, through the Gamma0 frames of the reports
        rng = np.random.default_rng(15)
        for k in range(800):
            if k % 2 == 0:
                sp = structured_chiral_pair(rng)
                u, g0, g1 = sp.u, sp.gamma0, sp.gamma1
            else:
                u, g0, g1 = generic_chiral_pair(rng, int(rng.integers(2, 41)))
            eye = np.eye(u.shape[0])
            deco, _ = indices._kernel_structure(u, g0, g1, 1e-8, indices.RELATION_TOL)
            got = [deco.ranp0_kerp1, deco.kerp0_ranp1, deco.ranp0_ranp1, deco.kerp0_kerp1]
            assert got == oracles.intersection_dims(0.5 * (eye + g0), 0.5 * (eye + g1)), k

    def test_projection_pairs_on_the_frame_of_p0(self):
        # 300 pairs spanned by subsets of one random frame, so each of the four
        # intersections is exact and known, and 100 generic pairs, dimension 2-40
        rng = np.random.default_rng(16)
        for k in range(400):
            dim = int(rng.integers(2, 41))
            if k % 4:
                v = random_unitary(dim, rng)
                s0, s1 = rng.random(dim) < 0.5, rng.random(dim) < 0.5
                p0, p1 = ((v * s) @ v.conj().T for s in (s0, s1))
                known = [int(np.sum(a & b)) for a, b in ((s0, ~s1), (~s0, s1), (s0, s1), (~s0, ~s1))]
                assert frame_dims(p0, p1) == known, f"pair {k}"
            else:
                p0, p1 = random_projection(rng, dim), random_projection(rng, dim)
            assert frame_dims(p0, p1) == oracles.intersection_dims(p0, p1), f"pair {k}"

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_zero_identity_and_equal_projections(self, dim):
        eye, zero = np.eye(dim), np.zeros((dim, dim))
        p = random_projection(np.random.default_rng(dim), dim, rank=dim // 2)
        for p0, p1, known in (
            (zero, zero, [0, 0, 0, dim]),
            (eye, eye, [0, 0, dim, 0]),
            (zero, eye, [0, dim, 0, 0]),
            (eye, zero, [dim, 0, 0, 0]),
            (p, p, [0, 0, dim // 2, dim - dim // 2]),
        ):
            assert frame_dims(p0, p1) == oracles.intersection_dims(p0, p1) == known
            assert indices.pair_index(p0, p1) == known[0] - known[1]

    @pytest.mark.parametrize("delta, frame, stack", [
        (1e-9, 1, 1),
        (0.99e-8, 1, 1),
        # the band [rank_tol, 2 rank_tol]: the frame sees sin(delta) against 1,
        # the stack about delta / sqrt(2) against its sigma_max = sqrt(2)
        (1.01e-8, 0, 1),
        (1.99e-8, 0, 1),
        (2.01e-8, 0, 0),
        (1e-7, 0, 0),
    ])
    def test_tilted_intersections(self, delta, frame, stack):
        p0, p1 = tilted_pair(delta, np.random.default_rng(18))
        assert frame_dims(p0, p1) == [frame, frame, 1, 0]
        assert oracles.intersection_dims(p0, p1) == [stack, stack, 1, 0]
        # both near-intersections flip together, even the one whose frame
        # block is a single column of norm sin(delta)
        assert indices.pair_index(p0, p1) == 0

    def test_batched_pairs_equal_pair_index(self):
        # 200 seeded triples with complements: one batched call against
        # pair_index pair by pair, and both against the constraint stacks
        rng = np.random.default_rng(19)
        pairs = [(0, 1), (1, 0), (3, 4), (0, 4), (1, 3), (1, 2), (0, 2), (2, 2)]
        for k in range(200):
            dim = int(rng.integers(2, 14))
            p = [random_projection(rng, dim) for _ in range(3)]
            p += [np.eye(dim) - p[0], np.eye(dim) - p[1]]
            got = indices.pair_indices(p, pairs)
            assert got == [indices.pair_index(p[a], p[b]) for a, b in pairs], f"triple {k}"
            stacked = [oracles.intersection_dims(p[a], p[b]) for a, b in pairs]
            assert got == [ranker - kerran for ranker, kerran, _, _ in stacked], f"triple {k}"

    def test_batched_pairs_check_each_projection(self):
        p = [np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([0.5, 0.0])]
        with pytest.raises(PreconditionError, match="P2 deviates"):
            indices.pair_indices(p, [(0, 1)])
        assert indices.pair_indices(p[:2], []) == []


class TestKernelStructure:
    def test_identity_and_minus_identity(self):
        deco = indices.kernel_decomposition_check(np.eye(2), SIGMA3, SIGMA3)
        assert deco.holds and deco.dim_ker_u_plus_one == 0
        deco = indices.kernel_decomposition_check(-np.eye(2), SIGMA3, -SIGMA3)
        assert deco.holds and deco.dim_ker_u_minus_one == 0

    def test_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            u, g0, g1 = generic_chiral_pair(rng, 12)
            assert indices.kernel_decomposition_check(u, g0, g1).holds

    def test_bound_two_by_two(self):
        p0 = np.diag([1.0, 0.0])
        g0 = 2 * p0 - np.eye(2)
        g1 = -np.eye(2)
        report = indices.kernel_bound_check(g0 @ g1, g0, g1)
        assert report.holds and report.dim_ker_u_plus_one == 1
        assert abs(report.pair_index_value) == 1

    def test_inconsistent_triple_rejected(self):
        # U = 1 is chiral for Gamma0 = sigma3, but it is not Gamma0 Gamma1 with Gamma1 = 1;
        # a report on this triple would read as a counterexample to the theorems
        u, g0, g1 = np.eye(2), SIGMA3, np.eye(2)
        for check in (
            indices.kernel_decomposition_check,
            indices.kernel_bound_check,
            indices.full_index_report,
            lambda *triple: indices._kernel_structure(*triple, 1e-8, indices.RELATION_TOL),
        ):
            with pytest.raises(PreconditionError, match="U = G0 G1"):
                check(u, g0, g1)

    def test_projection_checked_by_both_checks(self):
        # Gamma1 = e^(i eps) H for a 64 x 64 Hadamard reflection H passes the
        # entrywise self-adjoint-unitary check (max |Gamma1 - Gamma1*| = eps/4),
        # but P1^2 - P1 = (e^(2i eps) - 1)/4 on the diagonal is about eps/2;
        # unrefused, the decomposition would read dim Ker(U - 1) = 0 against
        # Ran P0 ^ Ran P1 + Ker P0 ^ Ker P1 = 64, a false counterexample
        h = np.array([[1.0]])
        for _ in range(6):
            h = np.block([[h, h], [h, -h]])
        h /= 8.0
        eps = 3e-10
        g1 = np.exp(1j * eps) * h
        indices.check_selfadjoint_unitary(g1, name="Gamma1")
        for check in (indices.kernel_decomposition_check, indices.kernel_bound_check):
            with pytest.raises(PreconditionError, match="P1 deviates from an orthogonal projection"):
                check(h @ g1, h, g1)

    def test_core_matches_public_checks_and_reference(self):
        # the suite's one-pass core against the public checks, and both
        # against kernel dimensions and pair indices computed one by one
        rng = np.random.default_rng(12)
        for k in range(120):
            if k % 2 == 0:
                sp = structured_chiral_pair(rng)
                u, g0, g1 = sp.u, sp.gamma0, sp.gamma1
            else:
                u, g0, g1 = generic_chiral_pair(rng, int(rng.integers(1, 25)))
            deco, bound = indices._kernel_structure(u, g0, g1, 1e-8, indices.RELATION_TOL)
            assert deco == indices.kernel_decomposition_check(u, g0, g1), f"pair {k}"
            assert bound == indices.kernel_bound_check(u, g0, g1), f"pair {k}"
            eye = np.eye(u.shape[0])
            p0, p1 = 0.5 * (eye + g0), 0.5 * (eye + g1)
            kernels = [indices.kernel_basis(u + s * eye).dimension for s in (1, -1)]
            stacked = oracles.intersection_dims(p0, p1)
            assert deco == indices.KernelDecompositionReport(*kernels, *stacked), f"pair {k}"
            assert bound == indices.KernelBoundReport(
                *kernels, indices.pair_index(p0, p1), indices.pair_index(p0, eye - p1)
            ), f"pair {k}"


class TestCayley:
    def test_no_real_spectrum_gives_zeros(self):
        theta = 0.9
        u = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        assert indices.cayley_index(u, SIGMA3) == (0, 0)

    def test_matches_pair_index_random(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            sp = structured_chiral_pair(rng)
            minus, plus = indices.cayley_index(sp.u, sp.gamma0)
            assert minus == sp.si_minus
            assert plus == sp.si_plus


class TestGeneratorIndex:
    def test_graded_zero_operator(self):
        g0 = np.diag([1.0, 1.0, -1.0])
        assert indices.generator_index(np.zeros((3, 3)), g0) == 1

    def test_invertible_gives_zero(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert indices.generator_index(h, SIGMA3) == 0

    def test_matches_walk_index_random(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            h, g0, expected = random_chiral_hamiltonian(rng, m, n)
            assert indices.generator_index(h, g0) == expected

    def test_large_norm_flattened_as_the_walk_is(self):
        rng = np.random.default_rng(17)
        flattened = 0
        for _ in range(10):
            m, n = (int(k) for k in rng.integers(1, 5, size=2))
            h, g0, expected = random_chiral_hamiltonian(rng, m, n, norm_cap=4.0)
            walk = build_generator_walk(h, g0)
            assert walk.regularized == (np.linalg.norm(h, 2) > 1.0)
            flattened += walk.regularized
            si_plus, _ = indices.symmetry_index_pm(walk.walk_exp, g0)
            assert indices.generator_index(h, g0) == si_plus == expected
        assert flattened >= 5

    def test_not_anticommuting_names_gamma0(self):
        with pytest.raises(PreconditionError, match="anticommute with gamma0"):
            indices.generator_index(np.eye(2), SIGMA3)


class TestFullReport:
    def test_consistency_and_serialization(self):
        rng = np.random.default_rng(8)
        sp = structured_chiral_pair(rng)
        report = indices.full_index_report(sp.u, sp.gamma0, sp.gamma1)
        assert report.consistent
        assert report.si_total == report.trace_gamma0 == sp.trace_gamma0
        doc = report.to_dict()
        assert doc["si_plus"] == sp.si_plus and doc["si_minus"] == sp.si_minus
        assert doc["consistent"] is True

    def test_matches_per_index_reference(self):
        # 1,000 seeded triples, half structured (exact indices by construction),
        # half generic of dimension 1-32, every fifth without Gamma1: the report
        # against the composition of ``oracles``, which ranks every kernel by SVD
        # and takes the Re U blocks and Q_plus from U itself; the public
        # per-index functions run the report's cores and must agree too
        rng = np.random.default_rng(10)
        for k in range(1000):
            if k % 2 == 0:
                sp = structured_chiral_pair(rng)
                u, g0, g1 = sp.u, sp.gamma0, sp.gamma1
            else:
                u, g0, g1 = generic_chiral_pair(rng, int(rng.integers(1, 33)))
            if k % 5 == 4:
                g1 = None
            report = indices.full_index_report(u, g0, g1).to_dict()
            assert report == oracles.full_index_report(u, g0, g1), f"pair {k}"
            if k % 10 == 0:
                assert indices.tanaka_index_pm(u, g0) == (report["tanaka_plus"],
                                                          report["tanaka_minus"]), f"pair {k}"
                assert indices.susy_index(u, g0) == report["susy_index"], f"pair {k}"
                assert indices.cayley_index(u, g0) == (report["cayley_minus"],
                                                       report["cayley_plus"]), f"pair {k}"

    def test_generator_walks_match_the_svd_oracle(self):
        # the reports of e^(i pi H) and the generator index, flattened or not
        rng = np.random.default_rng(11)
        for k in range(200):
            m, n = (int(c) for c in rng.integers(1, 7, size=2))
            h, g0, expected = random_chiral_hamiltonian(rng, m, n, norm_cap=(1.0, 4.0)[k % 2])
            walk = build_generator_walk(h, g0)
            report = indices.full_index_report(walk.walk_exp, g0).to_dict()
            assert report == oracles.full_index_report(walk.walk_exp, g0), f"walk {k}"
            got = indices.generator_index(h, g0)
            assert (got, got) == oracles.generator_index(h, g0), f"walk {k}"
            assert got == report["si_plus"] == expected, f"walk {k}"


def hermitian_with_spectrum(evals, rng):
    v = random_unitary(len(evals), rng)
    h = (v * np.asarray(evals, dtype=float)) @ v.conj().T
    return 0.5 * (h + h.conj().T)


class TestSpectralRanks:
    """``_hermitian_kernel`` ranks h - s from the eigenvalues of a Hermitian h; the
    SVD of h - s under ``kernel_basis`` is the oracle."""

    @pytest.mark.parametrize("rank_tol", [1e-8, 1e-6, 1e-3])
    def test_planted_eigenvalues(self, rank_tol):
        # eigenvalues planted at s +- c rank_tol sigma_max, sigma_max = max |lambda - s|
        # set by the far eigenvalues: c = 0.5 is kernel, c = 2 is not; the far
        # spread runs from 1e-3 to 10, so max |lambda| ranges from far above
        # sigma_max (a shift of +-1, a spread of 1e-3) to below it
        rng = np.random.default_rng(20)
        for k in range(300):
            shift = rng.choice([1.0, -1.0, 0.0, rng.uniform(-5.0, 5.0)])
            spread = 10.0 ** rng.uniform(-3.0, 1.0)
            far = shift + spread * rng.choice([-1.0, 1.0], size=int(rng.integers(1, 6)))
            far[1:] = shift + (far[1:] - shift) * rng.uniform(0.2, 1.0, size=far.size - 1)
            sigma_max = np.abs(far - shift).max()
            cs = rng.choice([0.5, 2.0], size=int(rng.integers(0, 5)))
            signs = rng.choice([-1.0, 1.0], size=cs.size)
            planted = shift + signs * cs * rank_tol * sigma_max
            h = hermitian_with_spectrum(np.concatenate([far, planted]), rng)
            evals = np.linalg.eigvalsh(h)
            got = sum(indices._hermitian_kernel(evals, shift, rank_tol))
            oracle = indices.kernel_basis(h - shift * np.eye(len(h)), rank_tol).dimension
            assert got == oracle == int(np.sum(cs == 0.5)), f"case {k}"
            # each of Tanaka's two shifts, asked once, ranks as the oracle's row for it
            rows = [indices._hermitian_kernel(evals, s, rank_tol) for s in (shift, -shift)]
            assert rows == oracles.hermitian_kernel(evals, (shift, -shift), rank_tol).tolist()

    def test_exact_zeros_and_the_floor(self):
        # below the 1e-12 floor everything is kernel, whatever rank_tol says
        rng = np.random.default_rng(21)
        for evals, shift, kernel in (
            ([1.0, 1.0, -1.0], 1.0, 2),
            ([1.0 + 1e-13, 1.0 - 5e-13], 1.0, 2),
            ([0.0, 0.0], 0.0, 2),
        ):
            h = hermitian_with_spectrum(evals, rng)
            got = sum(indices._hermitian_kernel(np.linalg.eigvalsh(h), shift, 1e-8))
            oracle = indices.kernel_basis(h - shift * np.eye(len(h)), 1e-8).dimension
            assert got == oracle == kernel

    @pytest.mark.parametrize("value, shift, kernel", [
        (1.0, 1.0, 1), (1.0 + 1e-13, 1.0, 1), (1.0 + 1e-11, 1.0, 0), (0.3, -1.0, 0),
    ])
    def test_one_by_one(self, value, shift, kernel):
        h = np.array([[value]])
        got = sum(indices._hermitian_kernel(np.linalg.eigvalsh(h), shift, 1e-8))
        assert got == indices.kernel_basis(h - shift, 1e-8).dimension == kernel

    def test_empty(self):
        assert indices._hermitian_kernel(np.linalg.eigvalsh(np.zeros((0, 0))), 1.0, 1e-8) == []
        assert indices.kernel_basis(np.zeros((0, 0))).dimension == 0

    def test_empty_grading_halves(self):
        # Gamma0 = +-1: one frame is empty, its Re U block and Q_plus are 0 x 0 or
        # have no rows; U = +-1 puts the whole space in one Tanaka kernel
        for g0, u in ((np.eye(3), np.eye(3)), (-np.eye(2), -np.eye(2)), (np.eye(1), -np.eye(1))):
            report = indices.full_index_report(u, g0).to_dict()
            assert report == oracles.full_index_report(u, g0)
            assert report["tanaka_plus"] + report["tanaka_minus"] == int(np.trace(g0))

    def test_pair_index_trace_matches_matrix_power(self):
        rng = np.random.default_rng(22)
        for k in range(200):
            dim = int(rng.integers(1, 16))
            p0, p1 = random_projection(rng, dim), random_projection(rng, dim)
            ms = (0, 1, 2, 3)
            traces = indices.pair_index_trace(p0, p1, ms)
            for m, trace in zip(ms, traces):
                assert abs(trace - oracles.pair_index_trace(p0, p1, m)) < 1e-10, f"pair {k}"
                assert indices.pair_index_trace(p0, p1, m) == trace, f"pair {k}"

    def test_pair_index_trace_refuses_a_non_hermitian_difference(self):
        p0 = np.diag([1.0, 0.0])
        with pytest.raises(PreconditionError, match="P0 - P1 deviates from self-adjointness"):
            indices.pair_index_trace(p0, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(PreconditionError, match="self-adjointness"):
            indices.pair_index_trace(p0, p0 + 1e-9j * np.eye(2), (0, 1))
        assert indices.pair_index_trace(np.zeros((0, 0)), np.zeros((0, 0)), (0, 2)) == [0.0, 0.0]

    def test_cayley_checks_anticommutation(self):
        # U = diag(e^(i a), e^(i b)) commutes with sigma3, so its Cayley transform
        # cannot anticommute with it; Ran(1 - U) is everything and sigma3 squares
        # to 1 there, so only the anticommutation check can refuse
        u = np.diag(np.exp(1j * np.array([0.7, 2.1])))
        w, svals, _ = np.linalg.svd(np.eye(2) - u)
        with pytest.raises(PreconditionError, match="fails to anticommute"):
            indices._cayley_signature(u, w, svals, SIGMA3, 1e-8)


# rank tolerances with exact products: a value planted at rank_tol * sigma_max is on the threshold
DECISION_TOLS = [2.0 ** -27, 2.0 ** -20, 2.0 ** -10, 1e-8]
# largest singular values: none, one under the 1e-12 floor and ordinary ones
DECISION_TOPS = [0.0, 2.0 ** -45, 0.375, 1.0, 32.0]
# compressed gamma0 eigenvalues: +-1, +-1/2 exactly, their float neighbours, refused ones
SIGNATURE_VALUES = [1.0, -1.0, 0.75, -0.9999, 0.5, -0.5, np.nextafter(0.5, 1.0),
                    -np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0), -np.nextafter(0.5, 0.0),
                    0.0, 0.1234]


@st.composite
def planted_spectrum(draw, rank_tol, size):
    """``size`` descending singular values under rank_tol: the top, zeros, values under the
    floor, exactly at the threshold and at 10 times it, and their float neighbours."""
    top = draw(st.sampled_from(DECISION_TOPS))
    t = max(rank_tol * top, 1e-12)
    pool = [x for x in (0.0, 5e-13, t, np.nextafter(t, 0.0), np.nextafter(t, 1.0), 3 * t,
                        10 * t, np.nextafter(10 * t, 0.0)) if x <= top]
    rest = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    return np.array(sorted([top] + rest, reverse=True)[:size], dtype=float)


class Handed(Exception):
    pass


def cayley_columns(svals, rank_tol):
    """The columns of W that ``_cayley_signature`` keeps as the range of 1 - u: with W = 1
    and u diagonal with distinct phases, the matrix it hands to ``solve`` is 1 - u on them."""
    phases = np.exp(1j * np.linspace(0.5, 2.5, svals.size))
    handed = []

    def stop(a, b):
        handed.extend(np.diag(a).tolist())
        raise Handed

    n = svals.size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", stop)
        try:
            indices._cayley_signature(np.diag(phases), np.eye(n), svals, np.eye(n), rank_tol)
        except Handed:
            pass
    return [1 - p in handed for p in phases.tolist()]


def outcome(decide, evals):
    try:
        return repr(decide(evals))
    except PreconditionError as exc:
        return str(exc)


class TestDecisionOracles:
    """Each rank, kernel-mask and signature decision equals its numpy form in
    ``oracles`` bit for bit: thresholds, masks, dimensions, the near-zero and
    borderline lists, signatures, margins and refusal messages."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(DECISION_TOLS), st.integers(0, 5), st.integers(0, 2), st.data())
    def test_kernel_summary(self, rank_tol, size, wide, data):
        svals = data.draw(planted_spectrum(rank_tol, size))
        rows = size + wide      # a wide matrix: rows right singular vectors, size values
        threshold, mask, near, borderline = oracles.kernel_summary(svals, rows, rank_tol)
        summary = indices._kernel_summary(svals, np.eye(rows, dtype=complex), rank_tol)
        assert indices._rank(svals.tolist() + [0.0] * wide, rank_tol) == (mask.tolist(), threshold)
        assert np.array_equal(summary.basis, np.eye(rows)[:, mask])
        assert summary.dimension == int(mask.sum())
        assert repr(summary.singular_values_near_zero) == repr(near)
        assert repr(summary.borderline_singular_values) == repr(borderline)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(DECISION_TOLS), st.integers(1, 4), st.integers(0, 2), st.booleans(),
           st.integers(1, 3), st.sampled_from([None, 1.0]), st.data())
    def test_kernel_dims(self, rank_tol, size, extra, wide, count, scale, data):
        rows, cols = (size, size + extra) if wide else (size + extra, size)
        stack = np.zeros((count, rows, cols), dtype=complex)
        for m in stack:
            m[range(size), range(size)] = data.draw(planted_spectrum(rank_tol, size))
        expected = oracles.kernel_dims(np.linalg.svd(stack, compute_uv=False), cols, rank_tol, scale)
        assert indices._kernel_dims(stack, rank_tol, scale) == expected
        for m in stack:
            svals = np.linalg.svd(m, compute_uv=False)
            assert indices._kernel_dims(m, rank_tol, scale) == oracles.kernel_dims(
                svals, cols, rank_tol, scale)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(DECISION_TOLS), st.sampled_from([0.0, 1.0, -1.0, 0.25]), st.booleans(),
           st.integers(0, 5), st.data())
    def test_hermitian_kernel(self, rank_tol, shift, both, size, data):
        # eigenvalues at planted distances from the shift, on either side of it
        dist = data.draw(planted_spectrum(rank_tol, size))
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size))
        evals = np.sort(shift + np.array(signs) * dist)
        shifts = (shift, -shift) if both else shift
        got = ([indices._hermitian_kernel(evals, s, rank_tol) for s in shifts] if both
               else indices._hermitian_kernel(evals, shift, rank_tol))
        assert got == oracles.hermitian_kernel(evals, shifts, rank_tol).tolist()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.sampled_from(SIGNATURE_VALUES), max_size=6))
    def test_signature_and_margin(self, values):
        evals = np.array(values, dtype=float)
        assert outcome(indices._signature_and_margin, evals) == (
            outcome(oracles.signature_and_margin, evals))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(DECISION_TOLS), st.integers(1, 5), st.data())
    def test_cayley_range(self, rank_tol, size, data):
        svals = data.draw(planted_spectrum(rank_tol, size))
        assert cayley_columns(svals, rank_tol) == oracles.cayley_range(svals, rank_tol).tolist()


class TestFiniteSuites:
    def test_identity_chain_compares_the_cayley_total(self, monkeypatch):
        # cayley- + cayley+ joins the chain: a report whose Cayley classes are
        # shifted apart fails every trial, though every other member agrees
        report = indices.full_index_report

        def shifted(*args, **kwargs):
            out = report(*args, **kwargs)
            out.cayley_plus += 1
            return out

        assert verification.identity_chain_suite(seed=0, trials=6).passed
        monkeypatch.setattr(indices, "full_index_report", shifted)
        result = verification.identity_chain_suite(seed=0, trials=6)
        assert result.failures == 6 and "cayley_total" in result.messages[0]


class TestTolerancePassThrough:
    def test_caller_tol_reaches_projection_checks(self):
        sp = structured_chiral_pair(np.random.default_rng(9))
        # Hermitian perturbation: P1^2 - P1 = 1.5e-10, above the default tolerance
        g1 = (1 + 3e-10) * sp.gamma1
        eye = np.eye(sp.u.shape[0])
        with pytest.raises(PreconditionError, match="P1 deviates"):
            indices.pair_index(0.5 * (eye + sp.gamma0), 0.5 * (eye + g1))
        report = indices.full_index_report(sp.u, sp.gamma0, g1, tol=1e-8)
        assert (report.pair_index, report.pair_index_complement) == (sp.si_minus, sp.si_plus)
        bound = indices.kernel_bound_check(sp.u, sp.gamma0, g1, tol=1e-8)
        assert (bound.pair_index_value, bound.pair_index_complement) == (sp.si_minus, sp.si_plus)
        _, bound = indices._kernel_structure(sp.u, sp.gamma0, g1, 1e-8, 1e-8)
        assert (bound.pair_index_value, bound.pair_index_complement) == (sp.si_minus, sp.si_plus)
