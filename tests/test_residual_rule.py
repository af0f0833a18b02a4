"""One residual rule for every relation check: ``exceptions.check_residual``.

A relation's residual is the largest |entry| of its defect, NaN when any
entry is NaN, and it is accepted only when residual <= tol.  A finite input
whose defect overflows has a NaN residual; a check written ``dev > tol``, or
a Python ``max`` that drops a NaN, let it through.  Each case below is
refused with the package's error, named for its relation.  Where no finite
input reaches a check with a NaN, the NaN is injected.
"""

import dataclasses
import json

import numpy as np
import pytest

from chiralwalk import essential, indices, operators as ops, walks, winding
from chiralwalk.cli import main
from chiralwalk.exceptions import ChiralwalkError, NormalizationError, check_residual
from chiralwalk.operators import CoefficientFunction
from chiralwalk.verification import split_step_from_angles

import oracles

NAN = float("nan")
HUGE = 1e200 * (1 + 1j)    # finite; its square overflows
EYE = np.eye(2, dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def const(v):
    return CoefficientFunction.constant(np.array([[v]], dtype=complex))


pytestmark = pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                        "ignore:invalid value:RuntimeWarning")


class TestRule:
    @pytest.mark.parametrize("defect, residual", [
        (np.zeros((0, 0)), 0.0), ([], 0.0), (-3e-11, 3e-11), ([1e-11, -2e-11j], 2e-11),
        ([[0.0, NAN], [5.0, 0.0]], NAN), ([NAN, 5.0], NAN), ([5.0, NAN], NAN),
        (complex(np.inf, NAN), np.inf)])
    def test_residual_is_the_nan_propagating_largest_entry(self, defect, residual):
        assert check_residual(defect, np.inf) is (residual <= np.inf)
        with pytest.raises(ChiralwalkError) as exc:
            check_residual(defect, -1.0, "refused at %.3e")
        assert str(exc.value) == "refused at %.3e" % residual

    def test_accepted_only_at_or_below_tol(self):
        assert check_residual(1e-10, 1e-10) and check_residual(-1e-10, 1e-10)
        assert not check_residual(np.nextafter(1e-10, 1.0), 1e-10)
        assert not check_residual(NAN, np.inf)
        with pytest.raises(NormalizationError, match="^off by 2.000e-10$"):
            check_residual([0.0, 2e-10], 1e-10, "off by %.3e", NormalizationError)


class TestFiniteInputsWithNanResiduals:
    """Each input is finite; its defect overflows to NaN."""

    def test_unitary(self):
        with pytest.raises(ChiralwalkError, match="U deviates from unitarity by nan"):
            indices.check_unitary(HUGE * EYE)

    def test_selfadjoint_unitary(self):
        with pytest.raises(ChiralwalkError, match="Gamma0 deviates from unitarity by nan"):
            indices.check_selfadjoint_unitary(HUGE * EYE)

    def test_chiral_relation(self):
        with pytest.raises(ChiralwalkError, match=r"chiral relation G0 U G0 = U\* fails by nan"):
            indices.check_chiral_relation(EYE, HUGE * EYE)

    def test_factorization(self):
        with pytest.raises(ChiralwalkError, match="factorization U = G0 G1 fails by nan"):
            indices.check_factorization(EYE, HUGE * EYE, HUGE * EYE)

    def test_projection(self):
        # self-adjoint exactly, so the Python max of the two residuals dropped P^2 - P's NaN
        p = np.array([[0.0, HUGE], [np.conj(HUGE), 0.0]])
        with pytest.raises(ChiralwalkError, match="P deviates from an orthogonal projection by nan"):
            indices.check_projection(p)

    def test_chiral_selfadjoint_index(self):
        # Q is self-adjoint; G Q and Q G overflow to +inf and -inf in one entry
        q = 1.7e308 * np.array([[-1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(ChiralwalkError, match=r"Q must anticommute with Gamma0 \(deviation nan"):
            indices.chiral_selfadjoint_index(q, HADAMARD)

    def test_pair_index_trace(self):
        with pytest.raises(ChiralwalkError, match="P0 - P1 deviates from self-adjointness by nan"):
            indices.pair_index_trace([[1.7e308]], [[-1.7e308]])

    def test_weighted_shift_coin(self):
        with pytest.raises(ChiralwalkError, match="coin deviates from unitarity by nan"):
            walks.build_weighted_shift_walk(1, 0, HUGE * EYE)

    def test_certify_unitary_on_an_operator_that_is_no_pair(self):
        # F*F - 1 overflows: the bound has no 2-norm to take, and is refused as NaN
        u = ops.mult_op(CoefficientFunction.constant(HUGE * EYE))
        with pytest.raises(ChiralwalkError, match=r"limit symbols are not unitary: "
                                                  r"sup \|F\*F - 1\| <= nan exceeds 1e-08"):
            essential.certify_unitary(u)

    def test_cayley_restriction(self):
        u = np.diag([1j, -1j])
        with pytest.raises(ChiralwalkError, match="not Gamma0-invariant within tolerance"):
            indices._cayley_signature(u, EYE, np.ones(2), HUGE * EYE, indices.DEFAULT_RANK_TOL)

    def test_coin_normalization(self):
        # Python's float ** raised OverflowError on the square of a finite c
        with pytest.raises(NormalizationError, match=r"c\^2 \+ \|d\|\^2 deviates from 1 by inf"):
            walks.SplitStepParams(a=const(1.0), b=const(0.0), c=1e200, d_coin=0.0)
        with pytest.raises(NormalizationError, match=r"c\^2 \+ \|d\|\^2 deviates from 1 by inf"):
            walks.build_gamma0(1.0, 1e200)


class TestInjectedNanResiduals:
    """No finite input is known to reach these checks with a NaN; one is planted."""

    def test_cayley_anticommutation(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, NAN))
        with pytest.raises(ChiralwalkError, match="Cayley transform fails to anticommute"):
            indices._cayley_signature(np.diag([1j, -1j]), EYE, np.ones(2), np.diag([1.0, -1.0]),
                                      indices.DEFAULT_RANK_TOL)

    def test_closed_frames(self, monkeypatch):
        pair = split_step_from_angles(0.4, 2.1, 1.0)
        winding._closed_frames(pair.gamma0, ops.LEFT)
        # the NaN sits after finite residuals, where a Python max dropped it
        monkeypatch.setattr(np.linalg, "eigh", lambda g: (np.array([-1.0, NAN]), np.eye(2)))
        with pytest.raises(ChiralwalkError, match="left grading symbol is not D"):
            winding._closed_frames(pair.gamma0, ops.LEFT)

    def test_chiral_pair_gate(self, monkeypatch):
        params = split_step_from_angles(0.4, 2.1, 1.0).params
        real = walks.verify_chiral_parts
        monkeypatch.setattr(walks, "verify_chiral_parts", lambda *a: dataclasses.replace(
            real(*a), chiral_relation=NAN))
        with pytest.raises(ChiralwalkError, match="chiral pair validation failed: max deviation nan"):
            walks.ChiralPair(params)


@pytest.mark.parametrize("command", ["index", "winding"])
def test_cli_refuses_a_huge_coin(command, tmp_path, capsys):
    # the coin passed its check; index then raised LinAlgError from the unitarity
    # bound's norm, winding from the determinant's roots
    path = tmp_path / "huge_coin.json"
    path.write_text(json.dumps(oracles.huge_coin()))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: coin deviates from unitarity by ") and err.count("\n") == 1, err
