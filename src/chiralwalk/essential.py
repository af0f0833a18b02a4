"""Symbol-level certification of essential-spectrum conditions.

For operators in this class the image in the Calkin quotient is exactly
the pair of limit symbols, so the essential norm is the larger of the
two symbol sup-norms over the circle.  Certifications are tri-state
(certified / refuted / inconclusive) to avoid silently miscertifying at
a phase transition.

The certifications of a unitary U all read one symbol spectrum.  Each
limit symbol F(z) of U is unitary, hence normal, and for a normal
matrix with eigenvalues lambda

    sigma_min(F(z) - t) = min |lambda - t|,    || 1 -+ F(z) || = max |1 -+ lambda|,

so the gaps at +-1 and the Fredholm-type norms || 1 -+ U ||_ess come
from one batched eigendecomposition per limit symbol and grid size
(``SymbolSpectrum``).  Normality is certified without a grid:
F(z)^* F(z) - 1 = sum_n C_n z^n is a Laurent polynomial whose limit
band coefficients C_n are known exactly, and

    sup_{|z|=1} || F(z)^* F(z) - 1 || <= sum_n || C_n ||_2,

which must stay below UNITARY_TOL on both sides.  For a chiral pair
U = G0 G1 with G0 a self-adjoint unitary, G0 -+ G1 = G0 (1 -+ U), so
|| G0 -+ G1 ||_ess = || 1 -+ U ||_ess: the dichotomy is read off the
Fredholm-type norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .exceptions import ChiralwalkError, PreconditionError
from .operators import circle_grid

DEFAULT_GRID_N = 4096
MAX_GRID_N = 2**16
DEFAULT_MARGIN = 1e-6
REFINE_TOL = 1e-6
UNITARY_TOL = 1e-8

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


def _checked_grid(grid_n):
    grid_n = int(grid_n)
    if grid_n < 16:
        raise ChiralwalkError("grid_n must be at least 16")
    return grid_n


def _refine(measure, grid_n, keep):
    """Double the grid from grid_n until ``measure`` moves by less than REFINE_TOL.

    On convergence the last two values merge by ``keep`` (min for a gap,
    max for a norm); at the MAX_GRID_N cap the last value stands.
    Returns (value, grid reached).
    """
    n = grid_n
    value = measure(n)
    while n < MAX_GRID_N:
        nxt = measure(2 * n)
        n *= 2
        if abs(nxt - value) < REFINE_TOL:
            return keep(value, nxt), n
        value = nxt
    return value, n


class SymbolSpectrum:
    """Eigenvalues of both limit symbols of a banded operator, cached by grid size.

    Reading gaps and norms off eigenvalue moduli needs normal symbols;
    certifications call require_unitary() first.  The eigenvalues
    themselves (the spectrum dump) carry no such precondition.
    """

    def __init__(self, op):
        self.loops = (op.symbol_at(ops.LEFT), op.symbol_at(ops.RIGHT))
        self._eigenvalues = {}

    def eigenvalues(self, n):
        """(2, n, d) eigenvalues: left then right symbol at circle_grid(n)."""
        if n not in self._eigenvalues:
            zs = circle_grid(n)
            self._eigenvalues[n] = np.stack([np.linalg.eigvals(loop(zs)) for loop in self.loops])
        return self._eigenvalues[n]

    def require_unitary(self):
        """Bound sup_z || F(z)^* F(z) - 1 || on both sides from the band coefficients.

        Guards the eigenvalue-modulus readings, which hold for normal
        symbols only.
        """
        bound = 0.0
        for loop in self.loops:
            coeffs = dict((loop.hermitian_conjugate() * loop).coefficients)
            coeffs[0] = coeffs.get(0, 0) - np.eye(loop.fiber_dim)
            stack = np.stack(list(coeffs.values()))
            bound = max(bound, float(np.linalg.norm(stack, 2, axis=(1, 2)).sum()))
        if bound > UNITARY_TOL:
            raise PreconditionError(
                f"limit symbols are not unitary: sup |F*F - 1| <= {bound:.3e} "
                f"exceeds {UNITARY_TOL:.0e}"
            )
        return self


@dataclass
class Certification:
    status: str           # certified / refuted / inconclusive
    value: float          # the measured norm or gap
    threshold: float
    margin: float
    grid_n: int

    @property
    def certified(self):
        return self.status == CERTIFIED

    def to_dict(self):
        return {
            "status": self.status,
            "value": self.value,
            "threshold": self.threshold,
            "margin": self.margin,
            "grid_n": self.grid_n,
        }


def _certification(slack, value, threshold, margin, grid_n):
    if slack > margin:
        status = CERTIFIED
    elif slack <= margin * 1e-3:
        status = REFUTED
    else:
        status = INCONCLUSIVE
    return Certification(
        status=status, value=value, threshold=threshold, margin=margin, grid_n=grid_n
    )


@dataclass
class FredholmTypeCertification:
    minus: Certification   # || 1 - U || < 2, gates the Cayley transform of U
    plus: Certification    # || 1 + U || < 2, gates the Cayley transform of -U

    def to_dict(self):
        return {"one_minus_u": self.minus.to_dict(), "one_plus_u": self.plus.to_dict()}


@dataclass
class DichotomyReport:
    norm_difference: float    # || Gamma0 - Gamma1 ||_ess
    norm_sum: float           # || Gamma0 + Gamma1 ||_ess
    margin: float

    @property
    def holds(self):
        return max(self.norm_difference, self.norm_sum) >= 1.0 - self.margin

    def to_dict(self):
        return {
            "norm_difference": self.norm_difference,
            "norm_sum": self.norm_sum,
            "margin": self.margin,
            "holds": self.holds,
        }


@dataclass
class UnitaryCertification:
    gap_plus: Certification
    gap_minus: Certification
    fredholm: FredholmTypeCertification
    dichotomy: DichotomyReport   # meaningful when U = G0 G1 is a chiral pair


def _gap(spectrum, target, grid_n, margin):
    value, n = _refine(
        lambda m: float(np.abs(spectrum.eigenvalues(m) - target).min()), grid_n, min
    )
    return _certification(value, value, 0.0, margin, n)


def _norm(spectrum, sign, grid_n, margin):
    """|| 1 + sign U ||_ess < 2."""
    value, n = _refine(
        lambda m: float(np.abs(1.0 + sign * spectrum.eigenvalues(m)).max()), grid_n, max
    )
    return _certification(2.0 - value, value, 2.0, margin, n)


def _fredholm(spectrum, grid_n, margin):
    return FredholmTypeCertification(
        minus=_norm(spectrum, -1.0, grid_n, margin), plus=_norm(spectrum, +1.0, grid_n, margin)
    )


def _dichotomy(fred, margin):
    return DichotomyReport(
        norm_difference=fred.minus.value, norm_sum=fred.plus.value, margin=margin
    )


def certify_unitary(u, grid_n=DEFAULT_GRID_N, margin=DEFAULT_MARGIN):
    """Gaps at +-1, Fredholm type and dichotomy of a unitary from one symbol spectrum.

    Each quantity keeps its own grid doubling, stopping rule and
    reported grid_n; every grid size is evaluated and eigendecomposed once.
    """
    grid_n = _checked_grid(grid_n)
    spectrum = SymbolSpectrum(u).require_unitary()
    fred = _fredholm(spectrum, grid_n, margin)
    return UnitaryCertification(
        gap_plus=_gap(spectrum, 1.0, grid_n, margin),
        gap_minus=_gap(spectrum, -1.0, grid_n, margin),
        fredholm=fred,
        dichotomy=_dichotomy(fred, margin),
    )


def is_fredholm_type(u, grid_n=DEFAULT_GRID_N, margin=DEFAULT_MARGIN):
    """Certify || 1 -+ U ||_ess < 2 for a unitary lattice operator."""
    return _fredholm(SymbolSpectrum(u).require_unitary(), _checked_grid(grid_n), margin)


def gap_at(u, target, grid_n=DEFAULT_GRID_N, margin=DEFAULT_MARGIN):
    """Distance of the essential spectrum of U from target (+1 or -1).

    Measured as min |eigenvalue - target| of both limit symbols over the
    grid.  A gap above the margin certifies; one below margin/1000
    refutes; in between is inconclusive.
    """
    if target not in (1, -1, 1.0, -1.0):
        raise ChiralwalkError("target must be +1 or -1")
    return _gap(SymbolSpectrum(u).require_unitary(), float(target), _checked_grid(grid_n), margin)


def dichotomy_check(pair, grid_n=DEFAULT_GRID_N, margin=DEFAULT_MARGIN):
    """On the infinite lattice one of || G0 -+ G1 ||_ess must reach 1."""
    spectrum = SymbolSpectrum(pair.u).require_unitary()
    return _dichotomy(_fredholm(spectrum, _checked_grid(grid_n), margin), margin)


def symbol_eigenvalues(u, grid_n=DEFAULT_GRID_N):
    """Sampled eigenvalues of both limit symbols.

    Yields (side, theta, eigenvalue) tuples in deterministic order:
    side, then grid point, then eigenvalue by (real, imag).
    """
    n = int(grid_n)
    thetas = (2.0 * np.pi * np.arange(n) / n).tolist()
    evs = SymbolSpectrum(u).eigenvalues(n)
    evs = np.take_along_axis(evs, np.lexsort((evs.imag, evs.real)), axis=-1)
    out = []
    for side, side_evs in zip((ops.LEFT, ops.RIGHT), evs.tolist()):
        for theta, point_evs in zip(thetas, side_evs):
            out.extend((side, theta, ev) for ev in point_evs)
    return out
