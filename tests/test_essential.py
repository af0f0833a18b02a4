import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chiralwalk import analysis, essential, operators as ops, transfer, verification
from chiralwalk.exceptions import ChiralwalkError, NotFredholmError, PreconditionError
from chiralwalk.operators import identity, shift_power
from chiralwalk.scenarios import Scenario
from chiralwalk.verification import (interpolating_shift_model, random_split_step,
                                     split_step_from_angles)
from chiralwalk.walks import ChiralPair

import oracles

REFERENCE_REFINE_TOL = 1e-6
REFERENCE_MAX_GRID_N = 2**16


def reference_sweep(op, grid_n, reduce):
    """Per-certification SVD sweep: singular values of both limit symbols of op.

    ``reduce`` is np.min (a gap, sigma_min) or np.max (a norm); the grid
    doubles until the value moves by less than REFERENCE_REFINE_TOL, and
    the last two values merge by the same reduction.  Every sample is
    attained, so a gap reference bounds the gap from above and a norm
    reference bounds the norm from below.  Returns (value, grid reached).
    """
    loops = [op.symbol_at(ops.LEFT), op.symbol_at(ops.RIGHT)]

    def value(n):
        zs = ops.circle_grid(n)
        return float(reduce([np.linalg.svd(loop(zs), compute_uv=False) for loop in loops]))

    n = grid_n
    v = value(n)
    while n < REFERENCE_MAX_GRID_N:
        nxt = value(2 * n)
        n *= 2
        if abs(nxt - v) < REFERENCE_REFINE_TOL:
            return float(reduce([v, nxt])), n
        v = nxt
    return v, n


def grid_gap(u, target, grid_n):
    """min |eigenvalue - target| of both limit symbols on one circle grid."""
    zs = ops.circle_grid(grid_n)
    return min(
        float(np.abs(np.linalg.eigvals(u.symbol_at(side)(zs)) - target).min())
        for side in (ops.LEFT, ops.RIGHT)
    )


def trace_formula_gap(u, target):
    """Gap of a split-step walk from the extremes of tr F / 2.

    det F = 1, so the eigenvalues are exp(+-i w) with tr F = 2 cos w, and
    |lambda - t|^2 = 2 - t tr F.  The extremes of the real trigonometric
    polynomial tr F(e^(i theta)) lie at the unimodular roots of
    z (tr F)'(z) (or anywhere, when tr F is constant).
    """
    gaps = []
    for side in (ops.LEFT, ops.RIGHT):
        tr = {n: np.trace(c) for n, c in u.symbol_at(side).coefficients.items()}
        lo, hi = min(tr), max(tr)
        zs = [1.0 + 0j]
        poly = np.array([n * tr.get(n, 0) for n in range(lo, hi + 1)], dtype=complex)
        if np.count_nonzero(poly) > 1:
            nz = np.nonzero(poly)[0]
            roots = np.roots(poly[nz[0] : nz[-1] + 1][::-1])
            unimodular = roots[np.abs(np.abs(roots) - 1.0) < 1e-6]
            zs.extend(unimodular / np.abs(unimodular))
        zs = np.asarray(zs)
        traces = sum(c * zs**n for n, c in tr.items()).real
        gaps.append(np.sqrt(max(2.0 - target * (traces.max() if target > 0 else traces.min()), 0.0)))
    return float(min(gaps))


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
    """|| 1 -+ U ||_ess < 2 exactly when the gap at -+1 is open: the gap certifications
    state it, and the dichotomy carries the norms sqrt(4 - gap^2)."""

    def test_identity_certified_against_one(self):
        certs = essential.certify_unitary(identity(2))
        # || 1 - U || = 0: the gap at -1 is 2; || 1 + U || = 2: the gap at +1 is closed
        assert certs.gap_minus.status == "certified" and certs.gap_minus.value == 2.0
        assert certs.dichotomy.norm_difference == 0.0
        assert certs.gap_plus.status == "refuted" and certs.gap_plus.value == 0.0
        assert certs.dichotomy.norm_sum == 2.0

    def test_minus_identity_refuted(self):
        certs = essential.certify_unitary(identity(2).scaled(-1.0))
        assert certs.gap_minus.status == "refuted" and certs.dichotomy.norm_difference == 2.0
        assert certs.gap_plus.status == "certified" and certs.dichotomy.norm_sum == 0.0

    def test_trivial_walk_both_gaps(self):
        pair = split_step_from_angles(0.2, 0.2, 1.4)
        certs = essential.certify_unitary(pair.u)
        assert certs.gap_minus.certified and certs.gap_plus.certified
        assert max(certs.dichotomy.norm_difference, certs.dichotomy.norm_sum) < 2.0

    def test_one_status_per_target(self):
        # a second rule on sqrt(4 - gap^2) once gave a verdict of its own, which near a
        # closing disagreed with the certified gap at the same target
        def statuses(obj):
            if isinstance(obj, essential.Certification):
                return [obj.status]
            if dataclasses.is_dataclass(obj):
                return [s for f in dataclasses.fields(obj) for s in statuses(getattr(obj, f.name))]
            return []

        for _, pair in oracles.report_pairs():
            certs = essential.certify_unitary(pair)
            assert statuses(certs) == [certs.gap_plus.status, certs.gap_minus.status]


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
            cert = essential.gap_at(pair.u, target)
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
        report = essential.certify_unitary(pair.u).dichotomy
        assert report.holds

    def test_random_pairs_never_violate(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            assert essential.certify_unitary(random_split_step(rng).u).dichotomy.holds


class TestSpectrumDump:
    def test_trivial_walk_all_ones(self):
        pair = split_step_from_angles(0.0, 0.0, 0.0)
        rows = essential.symbol_eigenvalues(pair.u, grid_n=16)
        for _, _, ev in rows:
            assert abs(ev - 1.0) < 1e-10

    def test_gap_consistency_with_certification(self):
        pair = split_step_from_angles(0.0, 1.0, 0.3)
        cert = essential.gap_at(pair.u, -1)
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
        certs = essential.certify_unitary(pair.u)
        one = identity(2)
        for cert, target in ((certs.gap_plus, 1.0), (certs.gap_minus, -1.0)):
            value, _ = reference_sweep(pair.u - one.scaled(target), grid_n, np.min)
            assert cert.value <= value + 1e-12
            if cert.certified:
                assert reference_status(value) == essential.CERTIFIED
            if reference_status(value) == essential.REFUTED:
                assert cert.status == essential.REFUTED
        # || 1 -+ U ||_ess, bitwise sqrt(4 - gap^2) of the gap at -+1
        for norm, gap, sign in (
            (certs.dichotomy.norm_difference, certs.gap_minus, -1.0),
            (certs.dichotomy.norm_sum, certs.gap_plus, 1.0),
        ):
            value, _ = reference_sweep(one + pair.u.scaled(sign), grid_n, np.max)
            assert norm >= value - 1e-12
            assert norm == float(np.sqrt(max(4.0 - gap.value * gap.value, 0.0)))
        diff, _ = reference_sweep(pair.gamma0 - pair.gamma1, grid_n, np.max)
        total, _ = reference_sweep(pair.gamma0 + pair.gamma1, grid_n, np.max)
        assert certs.dichotomy.norm_difference >= diff - 1e-12
        assert certs.dichotomy.norm_sum >= total - 1e-12
        assert certs.dichotomy.holds

    def test_entry_points_agree_with_certify_unitary(self):
        pair = random_split_step(np.random.default_rng(5))
        certs = essential.certify_unitary(pair.u)
        assert essential.gap_at(pair.u, +1) == certs.gap_plus
        assert essential.gap_at(pair.u, -1) == certs.gap_minus

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
            essential.certify_unitary(op)
        # the spectrum dump carries no unitarity precondition
        assert len(essential.symbol_eigenvalues(op, 16)) == 2 * 16 * 2

    def test_unitary_within_rounding_accepted(self):
        cert = essential.gap_at(identity(2).scaled(1.0 + 1e-12), -1)
        assert cert.certified

    def test_rotated_shift_gap_not_certified(self):
        # symbol exp(i(theta + phi)) reaches +1, so the gap at +1 is zero
        for phi in (1.0, np.sqrt(2.0), 0.5):
            u = shift_power(1, 1).scaled(np.exp(1j * phi))
            assert essential.gap_at(u, +1).status != essential.CERTIFIED


def rotated(u, phi):
    return u.scaled(np.exp(1j * phi))


def unequal_span_unitaries():
    """Shift limits whose bands differ, so the two sides' det grids differ in size."""
    rng = np.random.default_rng(29)
    return tuple(interpolating_shift_model(rng, *powers)
                 for powers in ((1, 0), (2, 0), (0, -1), (-2, 1)))


def near_closing_model(eps, target, shift_exponent, defects, phase, theta2=0.7):
    """Split-step pair whose gap at ``target`` is eps on its right limit only.

    The right coin angle sits 2 asin(eps / 2) off the closing surface
    (theta1 = theta2 for +1, theta1 = pi - theta2 for -1) on the side
    ``phase``; the left limit keeps both gaps open.
    """
    surface = theta2 if target == 1 else np.pi - theta2
    theta_right = surface + phase * 2.0 * np.arcsin(eps / 2.0)
    return split_step_from_angles(0.2, theta_right, theta2, shift_exponent, defects)


class TestLevelSet:
    def test_certified_gaps_match_trace_formula_oracle(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(120):
            pair = random_split_step(rng)
            certs = essential.certify_unitary(pair.u)
            for cert, target in ((certs.gap_plus, 1), (certs.gap_minus, -1)):
                if cert.certified:
                    checked += 1
                    assert abs(cert.value - trace_formula_gap(pair.u, target)) < 1e-10
        assert checked >= 200

    def test_rotated_models_never_exceed_a_grid_minimum(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            u = rotated(random_split_step(rng).u, rng.uniform(0.0, 2.0 * np.pi))
            for target in (1, -1):
                value = essential.gap_at(u, target).value
                for grid_n in (16, 64, 256, 1024, 4096):
                    assert value <= grid_gap(u, target, grid_n) + 1e-12

    def test_stacked_rounds_equal_the_loop_by_loop_oracle(self):
        # float for float, on generic and near-closing models at both targets: the
        # joint pass of certify_unitary and the one-target pass of gap_at
        def certify(u):
            certs = essential.certify_unitary(u)
            return {
                "gap_plus": certs.gap_plus.to_dict(),
                "gap_minus": certs.gap_minus.to_dict(),
                "dichotomy": certs.dichotomy.to_dict(),
            }

        statuses = set()
        for _, pair in oracles.seeded_split_steps():
            want = oracles.certify_unitary(pair.u)
            assert certify(pair.u) == want
            for key, target in (("gap_plus", 1), ("gap_minus", -1)):
                assert essential.gap_at(pair.u, target).to_dict() == want[key]
            statuses.update((want["gap_plus"]["status"], want["gap_minus"]["status"]))
        assert statuses == {essential.CERTIFIED, essential.INCONCLUSIVE}
        # the identity's flat band sits on +1, so that gap leaves the joint pass at
        # round 1 while the one at -1 iterates; the rotated shift's band covers the
        # circle, and both gaps iterate past round 1, each on its own probes
        for u, statuses in ((identity(2), (essential.REFUTED, essential.CERTIFIED)),
                            (rotated(shift_power(1, 1), 0.3), (essential.REFUTED,) * 2)):
            want = oracles.certify_unitary(u)
            assert certify(u) == want
            assert (want["gap_plus"]["status"], want["gap_minus"]["status"]) == statuses
        # a band that vanishes on one side only: the sides' det grids differ in size
        for u in unequal_span_unitaries():
            want = oracles.certify_unitary(u)
            assert certify(u) == want
            for key, target in (("gap_plus", 1), ("gap_minus", -1)):
                assert essential.gap_at(u, target).to_dict() == want[key]

    def test_grouped_sides_equal_per_side_solves(self):
        # bit for bit; a band that vanishes on one side only gives the sides grids of
        # different sizes, and the identity's det(F - 1) vanishes identically
        mus = [1.0, -1.0, *np.exp(1j * np.random.default_rng(47).uniform(0, 2 * np.pi, 3))]
        unitaries = [pair.u for _, pair in oracles.report_pairs()] + list(unequal_span_unitaries())
        unequal = 0
        for u in unitaries + [identity(2), rotated(shift_power(1, 1), 0.3)]:
            _, samples = essential._unitary_symbols(u)
            unequal += samples[0][0].shape != samples[1][0].shape
            got = transfer._sample_roots(samples, mus)
            want = [poly for sample in samples for poly in transfer._det_polys(sample, mus)]
            assert len(got) == len(want) == 2 * len(mus)
            for (roots, order), (single, single_order) in zip(got, want):
                if isinstance(single, Exception):
                    assert str(roots) == str(single) and order is single_order is None
                else:
                    [want_roots] = transfer._poly_roots([single])
                    assert order == single_order
                    assert roots.dtype == want_roots.dtype
                    assert roots.tobytes() == want_roots.tobytes()
        assert unequal == 4

    def test_one_clearance_over_both_sides_equals_the_per_side_combination(self):
        unitaries = [pair.u for _, pair in oracles.report_pairs()] + list(unequal_span_unitaries())
        for u in unitaries + [identity(2), rotated(shift_power(1, 1), 0.3)]:
            for gap in essential._gaps(*essential._unitary_symbols(u), (1.0, -1.0)):
                sides = [transfer._clearance(z) for z, _ in gap.roots]
                want = (min((m for m, _ in sides if m is not None), default=None),
                        all(ok for _, ok in sides))
                assert transfer._clearance(*(z for z, _ in gap.roots)) == want
                assert (gap.root_margin, gap.clear) == want

    def test_a_pair_gives_the_same_certification_as_its_unitary(self):
        for _, pair in oracles.report_pairs():
            assert pair.certification.unitary_symbol_deviation <= essential.UNITARY_TOL
            got, want = essential.certify_unitary(pair), essential.certify_unitary(pair.u)
            assert got == want
            for g, w in ((got.gap_plus, want.gap_plus), (got.gap_minus, want.gap_minus)):
                assert [order for _, order in g.roots] == [order for _, order in w.roots]
                assert all(str(a) == str(b) if isinstance(b, Exception) else
                           a.tobytes() == b.tobytes() for (a, _), (b, _) in zip(g.roots, w.roots))
        assert essential.gap_at(pair, -1) == essential.gap_at(pair.u, -1)

    def test_a_pairs_validation_replaces_the_laurent_proof(self, monkeypatch):
        pair = split_step_from_angles(0.4, 2.1, 1.0, 1, {-1: 0.3, 2: 1.7})
        want = essential.certify_unitary(pair.u)

        def laurent(loop):
            raise AssertionError("the Laurent product ran")

        monkeypatch.setattr(ops.SymbolLoop, "hermitian_conjugate", laurent)
        assert essential.certify_unitary(pair) == want
        with pytest.raises(AssertionError, match="Laurent"):
            essential.certify_unitary(pair.u)

    @pytest.mark.parametrize("bound", [None, 1.0, 2.0 * essential.UNITARY_TOL, float("nan")])
    def test_a_bound_that_proves_nothing_keeps_the_laurent_proof(self, bound):
        # None: a plain operator; otherwise a pair whose own bound is too large or NaN
        u = identity(2).scaled(1.1)
        if bound is not None:
            u = split_step_from_angles(0.4, 2.1, 1.0)
            u.u, u.certification.unitary_symbol_deviation = identity(2).scaled(1.1), bound
        with pytest.raises(PreconditionError) as exc:
            essential.certify_unitary(u)
        assert str(exc.value) == (
            "limit symbols are not unitary: sup |F*F - 1| <= 2.100e-01 exceeds 1e-08")

    def test_reports_and_suites_certify_the_pair(self, monkeypatch):
        calls = []
        certify = essential.certify_unitary
        monkeypatch.setattr(essential, "certify_unitary",
                            lambda u, **kw: calls.append((u, kw)) or certify(u, **kw))
        scenario = Scenario.load(Path(__file__).resolve().parent.parent / "scenarios"
                                 / "split_step_gapped.json")
        analysis.run_index_report(scenario)
        [(u, kw)] = calls
        assert isinstance(u, ChiralPair) and kw == {"margin": scenario.tolerances.margin}
        calls.clear()
        assert verification.dichotomy_suite(models=2).failures == 0
        assert len(calls) == 2 and all(isinstance(u, ChiralPair) for u, _ in calls)
        calls.clear()
        gap_at = essential.gap_at
        monkeypatch.setattr(essential, "gap_at",
                            lambda u, *a, **kw: calls.append((u, kw)) or gap_at(u, *a, **kw))
        assert verification.consistency_suite(trials=2).failures == 0
        assert len(calls) == 2 and all(isinstance(u, ChiralPair) for u, _ in calls)

    def test_closed_gaps_refuted(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            theta1, theta2 = rng.uniform(0.1, np.pi - 0.1, size=2)
            for target, left in ((1, theta2), (-1, np.pi - theta2)):
                for shift_exponent in (1, 2):
                    pair = split_step_from_angles(left, theta1, theta2, shift_exponent)
                    cert = essential.gap_at(pair.u, target)
                    assert cert.status == essential.REFUTED and cert.value < 1e-12
            u = rotated(shift_power(1, 1), rng.uniform(0.0, 2.0 * np.pi))
            assert essential.gap_at(u, +1).status == essential.REFUTED

    def test_flat_band_at_distance_two(self):
        # the identity's spectrum {1} is a flat band at the far end of the circle from -1
        certs = essential.certify_unitary(identity(2))
        assert certs.gap_minus.certified and certs.gap_minus.value == 2.0
        assert certs.gap_minus.root_margin is None   # det(1 + 1) = 4 has no roots
        assert certs.gap_plus.status == essential.REFUTED and certs.gap_plus.root_margin == 0.0

    def test_stale_positional_grid_size_fails(self):
        u = identity(2)
        for call in (
            lambda: essential.certify_unitary(u, 256),
            lambda: essential.gap_at(u, 1, 256),
        ):
            with pytest.raises(TypeError):
                call()


class Recorded:
    """A limit symbol that records the points it is evaluated at."""

    def __init__(self, loop, seen):
        self.loop, self.seen = loop, seen

    def __call__(self, zs):
        self.seen.append(zs.tobytes())
        return self.loop(zs)


# roots whose distance to the circle np.abs and Python's abs put on either side of
# CROSSING_TOL: np.abs counts the first as a crossing, not the second
DISPUTED_CROSSINGS = (0.6247725302436657 - 0.7808055362597833j,
                      0.9179361715655565 - 0.39673062010962695j)


class TestLevelSetBookkeeping:
    """The level-set pass with its owners, minima, crossings and midpoints on Python
    lists against ``oracles.joint_gaps``, which keeps them as numpy arrays: the same
    probe points in every round and the same gaps, bit for bit."""

    @staticmethod
    def run(gaps, u, targets):
        """(gaps as comparable tuples, probe points of every evaluation) of one pass."""
        seen = []
        loops, samples = essential._unitary_symbols(u)
        found = gaps(tuple(Recorded(loop, seen) for loop in loops), samples, targets)
        return [(g.value, type(g.value), g.bound, type(g.bound), g.root_margin,
                 type(g.root_margin), g.clear,
                 [(str(z) if isinstance(z, Exception) else z.tobytes(), order)
                  for z, order in g.roots]) for g in found], seen

    @staticmethod
    def unitaries():
        return ([pair.u for _, pair in oracles.report_pairs()] + list(unequal_span_unitaries())
                + [identity(2), rotated(shift_power(1, 1), 0.3), rotated(identity(2), 0.3)])

    def test_gaps_equal_the_numpy_bookkeeping(self):
        rounds = set()
        for u in self.unitaries():
            for targets in ((1.0, -1.0), (1.0,), (-1.0,)):
                got = self.run(essential._gaps, u, targets)
                assert got == self.run(oracles.joint_gaps, u, targets)
                rounds.add(len(got[1]) // 2)   # both sides per round
        assert min(rounds) == 1 and max(rounds) >= 3

    def test_doctored_roots_take_the_same_steps(self, monkeypatch):
        # every arc end gains roots at 1 +- CROSSING_TOL, their float neighbours and the
        # disputed crossings; every third call loses one arc end to a vanishing det
        tol = essential.CROSSING_TOL
        radii = [x for e in (1.0 + tol, 1.0 - tol)
                 for x in (np.nextafter(e, 0.0), e, np.nextafter(e, 2.0))]
        extra = np.array([r * np.exp(1j * a) for r, a in zip(radii, np.linspace(0.3, 5.9, 6))]
                         + list(DISPUTED_CROSSINGS))
        real, calls = essential._sample_roots, []

        def doctored(samples, mus):
            calls.append(None)
            found = [(np.concatenate([z, extra]) if order is not None else z, order)
                     for z, order in real(samples, mus)]
            if len(calls) % 3 == 0:
                found[0] = (NotFredholmError("symbol determinant vanishes identically"), None)
            return found

        monkeypatch.setattr(essential, "_sample_roots", doctored)
        assert all((abs(np.abs(z) - 1.0) <= tol) != (abs(abs(z) - 1.0) <= tol)
                   for z in DISPUTED_CROSSINGS)
        for u in self.unitaries()[::7]:
            calls.clear()
            got = self.run(essential._gaps, u, (1.0, -1.0))
            calls.clear()
            assert got == self.run(oracles.joint_gaps, u, (1.0, -1.0))


class TestTransferAgreement:
    def test_gap_inside_the_circle_margin_is_inconclusive(self):
        # the gap at +1 is 1e-6, but det(F - 1) has a root 7.8e-7 from the circle,
        # where exact_kernel refuses
        pair = split_step_from_angles(0.2, 0.7 - 1e-6, 0.7, shift_exponent=2, defects={0: 1.3})
        cert = essential.gap_at(pair.u, +1)
        assert cert.value > essential.DEFAULT_MARGIN
        assert cert.root_margin < transfer.CIRCLE_MARGIN
        assert cert.status == essential.INCONCLUSIVE
        doc = {
            "model": "split_step",
            "params": {
                "a": {"profile": "table", "left": float(np.cos(0.2)),
                      "right": float(np.cos(0.7 - 1e-6)), "table": [{"x": 0, "value": float(np.cos(1.3))}]},
                "b": {"profile": "table", "left": float(np.sin(0.2)),
                      "right": float(np.sin(0.7 - 1e-6)), "table": [{"x": 0, "value": float(np.sin(1.3))}]},
                "c": float(np.cos(0.7)),
                "d_coin": float(np.sin(0.7)),
                "shift_exponent": 2,
            },
        }
        report, code = analysis.run_index_report(Scenario.from_doc(doc))
        assert report["certifications"]["gap_plus_one"]["status"] == "inconclusive"
        assert "si_plus: gap_at(+1) inconclusive" in report["omitted"]
        assert code == analysis.EXIT_REFUTED

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        log_eps=st.floats(-7.0, -1.0),
        target=st.sampled_from([1, -1]),
        shift_exponent=st.sampled_from([1, 2]),
        defects=st.dictionaries(st.integers(-2, 2), angles, max_size=2),
        phase=st.sampled_from([1, -1]),
    )
    def test_certified_gap_always_gets_a_kernel(self, log_eps, target, shift_exponent, defects, phase):
        pair = near_closing_model(10.0**log_eps, target, shift_exponent, defects, phase)
        certs = essential.certify_unitary(pair.u)
        one = identity(2)
        for cert, sign in ((certs.gap_plus, 1.0), (certs.gap_minus, -1.0)):
            if cert.certified:
                assert cert.root_margin > transfer.CIRCLE_MARGIN
                transfer.exact_kernel(pair.u - one.scaled(sign), pair.gamma0)
