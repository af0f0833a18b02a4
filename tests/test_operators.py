import json

import numpy as np
import pytest

from chiralwalk import operators as ops
from chiralwalk.exceptions import ChiralwalkError, DimensionMismatchError, ScenarioError
from chiralwalk.operators import (
    BandedAnisotropicOperator,
    CoefficientFunction,
    circle_grid,
    identity,
    mult_op,
    shift_power,
)
from chiralwalk.scenarios import parse_operator
from chiralwalk.verification import interpolating_shift_model

import oracles


def random_operator(d, r, rng, bulk_sites=3):
    bands = {}
    for n in range(-r, r + 1):
        left = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        right = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        vals = rng.normal(size=(bulk_sites, d, d)) + 1j * rng.normal(size=(bulk_sites, d, d))
        bands[n] = CoefficientFunction(left, right, -1, vals)
    return BandedAnisotropicOperator(d, bands)


class TestCoefficientFunction:
    def test_step_lookup(self):
        f = CoefficientFunction.step(np.array([[-1.0]]), np.array([[1.0]]))
        assert f.value_at(-1)[0, 0] == -1
        assert f.value_at(0)[0, 0] == 1

    def test_table_fill_and_limits(self):
        f = CoefficientFunction.from_table(
            np.array([[-1.0]]), np.array([[1.0]]), {0: np.array([[0.0]])}
        )
        assert f.value_at(-5)[0, 0] == -1
        assert f.value_at(0)[0, 0] == 0
        assert f.value_at(7)[0, 0] == 1

    def test_eventual_constancy_is_exact(self):
        f = CoefficientFunction.from_table(
            np.array([[0.3]]), np.array([[0.7]]), {2: np.array([[9.0]])}
        )
        assert f.value_at(100) is f.right
        assert f.value_at(-100) is f.left

    def test_trim_canonicalizes(self):
        left = np.array([[1.0]])
        f = CoefficientFunction(left, left, 0, np.array([[[1.0]], [[2.0]], [[1.0]]]))
        assert f.window_start == 1 and f.window_end == 2

    def test_shift(self):
        f = CoefficientFunction.step(np.array([[0.0]]), np.array([[1.0]]))
        g = f.shifted(3)
        assert g.value_at(2)[0, 0] == 0
        assert g.value_at(3)[0, 0] == 1

    def test_rejects_nan(self):
        with pytest.raises(ChiralwalkError):
            CoefficientFunction.constant(np.array([[np.nan]]))

    def test_derived_results_match_constructor(self):
        # shifted, conj_transposed, +, product and scaled do not validate
        # again; each result equals the constructor's bit for bit, trimmed
        rng = np.random.default_rng(14)

        def matrices(*shape):
            return rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))

        f = CoefficientFunction(matrices(), matrices(), -1, matrices(3))
        g = CoefficientFunction(matrices(), matrices(), 1, matrices(4))
        edge = CoefficientFunction(f.left, f.right, -2, np.stack([f.left, *f.values, f.right]))
        lo, a, b = f._aligned(g)
        c = 0.5 - 2j
        h = f.scaled(-1)
        lo_h, a_h, b_h = edge._aligned(h)
        cases = [
            (f.shifted(3), CoefficientFunction(f.left, f.right, 2, f.values)),
            (f.conj_transposed(), CoefficientFunction(
                f.left.conj().T, f.right.conj().T, -1, np.conj(np.transpose(f.values, (0, 2, 1)))
            )),
            (f + g, CoefficientFunction(f.left + g.left, f.right + g.right, lo, a + b)),
            (f.product(g), CoefficientFunction(f.left @ g.left, f.right @ g.right, lo, a @ b)),
            (f.scaled(c), CoefficientFunction(c * f.left, c * f.right, -1, c * f.values)),
            (edge + h, CoefficientFunction(edge.left + h.left, edge.right + h.right, lo_h,
                                           a_h + b_h)),
        ]
        for derived, built in cases:
            assert derived.dim == built.dim and derived.window_start == built.window_start
            assert derived == built
            for name in ("left", "right", "values"):
                x, y = getattr(derived, name), getattr(built, name)
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()
                assert x.flags.c_contiguous and not x.flags.writeable

    def test_public_inputs_still_validated(self):
        f = CoefficientFunction.constant(np.eye(2))
        for bad in (np.inf, np.nan):
            with pytest.raises(ChiralwalkError):
                CoefficientFunction(np.eye(2), np.full((2, 2), bad))
            with pytest.raises(ChiralwalkError):
                CoefficientFunction.from_table(np.eye(2), np.eye(2), {0: np.full((2, 2), bad)})
            with pytest.raises(ChiralwalkError):
                f.scaled(bad)


class TestWindows:
    """values_on and _trim equal the site-by-site and row-by-row references."""

    LEFT = np.diag([1.0, complex(-0.0, 2.0)])
    RIGHT = np.diag([3.0, 4.0j])

    def tables(self):
        rng = np.random.default_rng(11)
        bulk = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        left, right = self.LEFT, self.RIGHT
        return {
            "empty": np.zeros((0, 2, 2), complex),
            "no_limit_row": bulk,
            "every_row_left": np.stack([left] * 3),
            "every_row_right": np.stack([right] * 3),
            "every_row_a_limit": np.stack([left, left, right]),
            "left_end_row": np.stack([left, *bulk]),
            "right_end_row": np.stack([*bulk, right]),
            "both_end_rows": np.stack([left, left, bulk[0], right, right]),
            "limits_at_the_wrong_ends": np.stack([right, bulk[1], left]),
            "limits_inside": np.stack([bulk[0], left, right, bulk[1]]),
        }

    def test_trim_equals_row_by_row(self):
        for name, table in self.tables().items():
            for start in (-4, 0, 3):
                want, want_start = oracles.trim(table, start, self.LEFT, self.RIGHT)
                for f in (CoefficientFunction(self.LEFT, self.RIGHT, start, table),
                          CoefficientFunction._derived(self.LEFT, self.RIGHT, start, table)):
                    assert f.window_start == want_start, name
                    assert f.values.shape == want.shape and f.values.tobytes() == want.tobytes()
        equal = CoefficientFunction(self.LEFT, self.LEFT, 1, np.stack([self.LEFT] * 2))
        assert equal.is_constant() and equal.window_start == 3

    def test_values_on_equals_site_by_site(self):
        ranges = 0
        for table in self.tables().values():
            f = CoefficientFunction(self.LEFT, self.RIGHT, 2, table)
            lo_f, hi_f = f.window_start, f.window_end
            # left of, right of, across, inside and empty ranges
            for lo in range(lo_f - 3, hi_f + 3):
                for hi in range(lo - 2, hi_f + 4):
                    got, want = f.values_on(lo, hi), oracles.values_on(f, lo, hi)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
                    ranges += 1
        assert ranges > 500


class TestAlgebra:
    def test_shift_times_inverse_is_identity(self):
        prod = shift_power(1, 1) @ shift_power(-1, 1)
        assert sorted(prod.bands) == [0]
        f = prod.coefficient(0)
        assert f.is_constant() and f.left[0, 0] == 1

    def test_adjoint_of_shift(self):
        adj = shift_power(1, 1).adjoint()
        assert sorted(adj.bands) == [-1]
        assert adj.coefficient(-1).left[0, 0] == 1

    def test_identity_case(self):
        op = shift_power(0, 2)
        loop = op.symbol_at(ops.RIGHT)
        assert np.allclose(loop(1.0), np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            shift_power(1, 1) @ shift_power(1, 2)

    def test_symbol_homomorphism_random(self):
        rng = np.random.default_rng(11)
        zs = circle_grid(16)
        for _ in range(5):
            a = random_operator(2, 2, rng)
            b = random_operator(2, 2, rng)
            for side in (ops.LEFT, ops.RIGHT):
                fab = (a @ b).symbol_at(side)(zs)
                fa = a.symbol_at(side)(zs)
                fb = b.symbol_at(side)(zs)
                assert np.abs(fab - fa @ fb).max() < 1e-12

    def test_symbol_additive_and_adjoint(self):
        rng = np.random.default_rng(12)
        zs = circle_grid(16)
        a = random_operator(2, 1, rng)
        b = random_operator(2, 1, rng)
        for side in (ops.LEFT, ops.RIGHT):
            fsum = (a + b).symbol_at(side)(zs)
            assert np.abs(fsum - a.symbol_at(side)(zs) - b.symbol_at(side)(zs)).max() < 1e-12
            fadj = a.adjoint().symbol_at(side)(zs)
            expected = np.conj(np.transpose(a.symbol_at(side)(zs), (0, 2, 1)))
            assert np.abs(fadj - expected).max() < 1e-12

    def test_scale(self):
        op = shift_power(1, 1).scaled(2.5)
        assert op.coefficient(1).left[0, 0] == 2.5


class TestSymbols:
    def test_shift_symbol_is_power(self):
        for k in (-2, 0, 3):
            loop = shift_power(k, 1).symbol_at(ops.RIGHT)
            zs = circle_grid(8)
            assert np.abs(loop(zs)[:, 0, 0] - zs**k).max() < 1e-14

    def test_mult_symbol_is_constant_limit(self):
        f = CoefficientFunction.step(np.array([[-1.0]]), np.array([[1.0]]))
        op = mult_op(f)
        assert op.symbol_at(ops.LEFT)(1.0)[0, 0] == -1
        assert op.symbol_at(ops.RIGHT)(1.0)[0, 0] == 1

    def test_split_step_gamma0_symbol_unitary(self):
        from chiralwalk.walks import build_gamma0

        c, d = 3 / 5, 4 / 5
        g0 = build_gamma0(c, d, 1)
        zs = circle_grid(64)
        vals = g0.symbol_at(ops.RIGHT)(zs)
        assert np.allclose(vals[:, 0, 0], c)
        assert np.abs(vals[:, 0, 1] - d * zs**-1).max() < 1e-14
        assert np.abs(vals[:, 1, 0] - d * zs).max() < 1e-14
        products = np.conj(np.transpose(vals, (0, 2, 1))) @ vals
        assert np.abs(products - np.eye(2)).max() < 1e-12

    def test_loop_derivative(self):
        loop = ops.SymbolLoop(1, {2: [[1.0]], -1: [[3.0]]})
        dz = loop.derivative()
        z = np.exp(0.7j)
        assert abs(dz(z)[0, 0] - (2 * z - 3 * z**-2)) < 1e-14


class TestTruncation:
    def test_identity_truncates_to_identity(self):
        t = identity(2).truncate(3)
        assert np.array_equal(t.matrix, np.eye(14))

    def test_shift_truncation_subdiagonal(self):
        t = shift_power(1, 1).truncate(1)
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = 1
        assert np.array_equal(t.matrix.real, expected)

    def test_mult_bulk_on_diagonal(self):
        f = CoefficientFunction.from_table(
            np.array([[1.0]]), np.array([[1.0]]), {0: np.array([[5.0]])}
        )
        t = mult_op(f).truncate(2)
        assert np.array_equal(np.diag(t.matrix.real), [1, 1, 5, 1, 1])

    def test_product_truncation_differs_only_near_edges(self):
        rng = np.random.default_rng(5)
        a = random_operator(1, 1, rng)
        b = random_operator(1, 1, rng)
        L = 8
        exact = (a @ b).truncate(L).matrix
        approx = a.truncate(L).matrix @ b.truncate(L).matrix
        diff = np.abs(exact - approx)
        r = (a @ b).band_radius
        interior = diff[r : diff.shape[0] - r, r : diff.shape[1] - r]
        assert interior.max() < 1e-13
        assert diff.max() > 1e-3  # edges genuinely differ

    def test_window_too_small_rejected(self):
        with pytest.raises(ChiralwalkError):
            shift_power(2, 1).truncate(1)

    def test_bulk_clipping_warns(self):
        f = CoefficientFunction.from_table(
            np.array([[1.0]]), np.array([[1.0]]), {10: np.array([[5.0]])}
        )
        assert mult_op(f).truncate(4).warn_bulk_clipped
        assert not mult_op(f).truncate(20).warn_bulk_clipped


class TestSerialization:
    """The custom_banded reader, scenarios.parse_operator, against the writer
    tests/oracles.operator_doc."""

    def test_round_trip(self):
        rng = np.random.default_rng(21)
        op = random_operator(2, 2, rng)
        back = parse_operator(oracles.operator_doc(op), "operator")
        assert sorted(back.bands) == sorted(op.bands)
        for n in op.bands:
            assert back.coefficient(n) == op.coefficient(n)

    def test_malformed_document(self):
        with pytest.raises(ScenarioError, match="^operator.bands: missing$"):
            parse_operator({"fiber_dim": 1}, "operator")

    def test_complex_entries_as_pairs(self):
        op = shift_power(1, 1)
        doc = oracles.operator_doc(op)
        assert doc["bands"][0]["left_limit"] == [[[1.0, 0.0]]]
        assert parse_operator(doc, "operator").coefficient(1) == op.coefficient(1)

    @pytest.mark.parametrize("seed", range(8))
    def test_interpolating_shift_documents_round_trip(self, seed):
        # reader after writer gives the operator back, writer after reader the document
        rng = np.random.default_rng(seed)
        powers = [int(p) for p in rng.integers(-2, 3, size=2)]
        op = interpolating_shift_model(rng, *powers)
        doc = json.loads(json.dumps(oracles.operator_doc(op)))
        back = parse_operator(doc, "params.operator")
        assert sorted(back.bands) == sorted(op.bands)
        assert all(back.coefficient(n) == op.coefficient(n) for n in op.bands)
        assert oracles.operator_doc(back) == doc
