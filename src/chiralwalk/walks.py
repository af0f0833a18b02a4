"""Model constructors: split-step walks, weighted-shift walks, generator walks.

A chiral unitary is a product U = G0 G1 of two self-adjoint unitaries;
equivalently G0 U G0 = U*.  The split-step walk on l2(Z, C^2) uses

    G0 = [[c, conj(d) S^-n], [d S^n, -c]],    G1 = [[a, conj(b)], [b, -a]],

with constant coin scalars (c, d), site-dependent multiplication
operators a (real) and b (complex), and a(x)^2 + |b(x)|^2 = c^2 + |d|^2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import operators as ops
from .exceptions import NormalizationError, PreconditionError
from .operators import BandedAnisotropicOperator, CoefficientFunction, circle_grid

NORMALIZATION_TOL = 1e-12
CHIRAL_TOL = 1e-10


@dataclass(frozen=True)
class SplitStepParams:
    """Validated split-step data; a and b are scalar coefficient functions."""

    a: CoefficientFunction
    b: CoefficientFunction
    c: float
    d_coin: complex
    shift_exponent: int = 1

    def __post_init__(self):
        if self.a.dim != 1 or self.b.dim != 1:
            raise NormalizationError("a and b must be scalar (1x1) coefficient functions")
        if self.shift_exponent < 1:
            raise NormalizationError("shift exponent must be a positive integer")
        dev = abs(self.c**2 + abs(self.d_coin) ** 2 - 1.0)
        if dev > NORMALIZATION_TOL:
            raise NormalizationError(f"c^2 + |d|^2 deviates from 1 by {dev:.3e}")
        imag_parts = [np.abs(self.a.left.imag).max(), np.abs(self.a.right.imag).max()]
        if self.a.values.size:
            imag_parts.append(np.abs(self.a.values.imag).max())
        if max(imag_parts) > NORMALIZATION_TOL:
            raise NormalizationError("a must be real-valued")
        for x in self._probe_sites():
            dev = abs(
                self._a_at(x) ** 2 + abs(self._b_at(x)) ** 2 - 1.0
            )
            if dev > NORMALIZATION_TOL:
                raise NormalizationError(
                    f"a(x)^2 + |b(x)|^2 deviates from 1 by {dev:.3e} at site x={x}"
                )

    def _a_at(self, x):
        return float(self.a.value_at(x)[0, 0].real)

    def _b_at(self, x):
        return complex(self.b.value_at(x)[0, 0])

    def _probe_sites(self):
        lo = min(self.a.window_start, self.b.window_start) - 1
        hi = max(self.a.window_end, self.b.window_end)
        return range(lo, hi + 1)


@dataclass
class ChiralPair:
    """A factorized chiral unitary with its spectral projections.

    p0 and p1 are (1 + Gamma_i)/2; u = gamma0 @ gamma1.
    """

    gamma0: BandedAnisotropicOperator
    gamma1: BandedAnisotropicOperator
    u: BandedAnisotropicOperator = field(init=False)
    p0: BandedAnisotropicOperator = field(init=False)
    p1: BandedAnisotropicOperator = field(init=False)

    def __post_init__(self):
        d = self.gamma0.fiber_dim
        one = ops.identity(d)
        self.u = self.gamma0 @ self.gamma1
        self.p0 = (one + self.gamma0).scaled(0.5)
        self.p1 = (one + self.gamma1).scaled(0.5)
        record = verify_chiral_parts(self.gamma0, self.gamma1, self.u)
        if record.max_deviation > CHIRAL_TOL:
            raise PreconditionError(
                f"chiral pair validation failed: max deviation {record.max_deviation:.3e}"
            )
        self.certification = record


@dataclass
class ChiralCertification:
    gamma0_selfadjoint: float
    gamma1_selfadjoint: float
    gamma0_involution: float
    gamma1_involution: float
    chiral_relation: float
    symbol_deviation: float
    unitary_symbol_deviation: float
    window_halfwidth: int

    @property
    def max_deviation(self):
        return max(
            self.gamma0_selfadjoint,
            self.gamma1_selfadjoint,
            self.gamma0_involution,
            self.gamma1_involution,
            self.chiral_relation,
            self.symbol_deviation,
            self.unitary_symbol_deviation,
        )

    def to_dict(self):
        return {
            "gamma0_selfadjoint": self.gamma0_selfadjoint,
            "gamma1_selfadjoint": self.gamma1_selfadjoint,
            "gamma0_involution": self.gamma0_involution,
            "gamma1_involution": self.gamma1_involution,
            "chiral_relation": self.chiral_relation,
            "symbol_deviation": self.symbol_deviation,
            "unitary_symbol_deviation": self.unitary_symbol_deviation,
            "window_halfwidth": self.window_halfwidth,
            "max_deviation": self.max_deviation,
        }


def _symbol_sup(op, zs):
    dev = 0.0
    for side in (ops.LEFT, ops.RIGHT):
        vals = op.symbol_at(side)(zs)
        dev = max(dev, float(np.abs(vals).max()) if vals.size else 0.0)
    return dev


def verify_chiral_parts(gamma0, gamma1, u=None, n_symbol_points=64):
    """Deviations of the defining relations, on band coefficients and on symbols.

    The coefficient part is the largest entry of each residual, limits
    included.  window_halfwidth is the largest band radius plus the
    largest bulk extent of the residuals plus four sites.
    """
    if u is None:
        u = gamma0 @ gamma1
    d = gamma0.fiber_dim
    one = ops.identity(d)
    residuals = {
        "g0_sa": gamma0 - gamma0.adjoint(),
        "g1_sa": gamma1 - gamma1.adjoint(),
        "g0_inv": gamma0 @ gamma0 - one,
        "g1_inv": gamma1 @ gamma1 - one,
        "chiral": gamma0 @ u @ gamma0 - u.adjoint(),
        "u_unitary": u.adjoint() @ u - one,
    }
    radius = max(r.band_radius for r in residuals.values())
    bulk = 0
    for r in residuals.values():
        lo, hi = r.bulk_window()
        bulk = max(bulk, abs(lo), abs(hi))
    L = radius + bulk + 4
    zs = circle_grid(n_symbol_points)
    sym = {k: _symbol_sup(r, zs) for k, r in residuals.items()}
    coeff = {k: float(r.entry_sup()) for k, r in residuals.items()}
    return ChiralCertification(
        gamma0_selfadjoint=max(coeff["g0_sa"], sym["g0_sa"]),
        gamma1_selfadjoint=max(coeff["g1_sa"], sym["g1_sa"]),
        gamma0_involution=max(coeff["g0_inv"], sym["g0_inv"]),
        gamma1_involution=max(coeff["g1_inv"], sym["g1_inv"]),
        chiral_relation=max(coeff["chiral"], sym["chiral"]),
        symbol_deviation=max(sym.values()),
        unitary_symbol_deviation=sym["u_unitary"],
        window_halfwidth=L,
    )


def verify_chiral(pair, n_symbol_points=64):
    return verify_chiral_parts(pair.gamma0, pair.gamma1, pair.u, n_symbol_points)


def build_gamma0(c, d_coin, n=1):
    """Coin-and-shift factor [[c, conj(d) S^-n], [d S^n, -c]] on l2(Z, C^2)."""
    c = float(c)
    d_coin = complex(d_coin)
    n = int(n)
    dev = abs(c**2 + abs(d_coin) ** 2 - 1.0)
    if dev > NORMALIZATION_TOL:
        raise NormalizationError(f"c^2 + |d|^2 deviates from 1 by {dev:.3e}")
    if n < 1:
        raise NormalizationError("shift exponent must be a positive integer")
    diag = CoefficientFunction.constant(np.array([[c, 0.0], [0.0, -c]]))
    upper = CoefficientFunction.constant(np.array([[0, np.conj(d_coin)], [0, 0]]))
    lower = CoefficientFunction.constant(np.array([[0, 0], [d_coin, 0]]))
    bands = {0: diag, -n: upper, n: lower}
    return BandedAnisotropicOperator(2, bands)


def build_gamma1(a, b):
    """Sitewise coin [[a, conj(b)], [b, -a]] from scalar profiles a, b."""
    lo = min(a.window_start, b.window_start)
    hi = max(a.window_end, b.window_end)

    def coin(av, bv):
        av = complex(av)
        bv = complex(bv)
        return np.array([[av, np.conj(bv)], [bv, -av]])

    left = coin(a.left[0, 0], b.left[0, 0])
    right = coin(a.right[0, 0], b.right[0, 0])
    vals = [
        coin(a.value_at(x)[0, 0], b.value_at(x)[0, 0]) for x in range(lo, hi)
    ]
    f = CoefficientFunction(left, right, lo, np.array(vals).reshape(-1, 2, 2))
    return ops.mult_op(f)


def build_walk(params):
    """Assemble the split-step ChiralPair U = G0 G1."""
    gamma0 = build_gamma0(params.c, params.d_coin, params.shift_exponent)
    gamma1 = build_gamma1(params.a, params.b)
    return ChiralPair(gamma0=gamma0, gamma1=gamma1)


def build_weighted_shift_walk(m, n, coin):
    """U = diag(S^m, S*^n) C with a constant 2x2 unitary coin C.

    Not chiral for generic C; its determinant symbol winds m - n times.
    """
    coin = np.asarray(coin, dtype=complex)
    if coin.shape != (2, 2):
        raise PreconditionError("coin must be a 2x2 matrix")
    dev = float(np.abs(coin.conj().T @ coin - np.eye(2)).max())
    if dev > 1e-12:
        raise PreconditionError(f"coin deviates from unitarity by {dev:.3e}")
    upper = BandedAnisotropicOperator(
        2, {int(m): CoefficientFunction.constant(np.diag([1.0, 0.0]))}
    )
    lower = BandedAnisotropicOperator(
        2, {-int(n): CoefficientFunction.constant(np.diag([0.0, 1.0]))}
    )
    return (upper + lower) @ ops.mult_op(CoefficientFunction.constant(coin))


@dataclass
class GeneratorWalk:
    """Finite-dimensional walk built from a chiral-symmetric Hamiltonian."""

    hamiltonian: np.ndarray        # the (possibly regularized) generator used
    gamma0: np.ndarray
    walk_exp: np.ndarray           # e^{i pi H}
    walk_neg_exp: np.ndarray       # -e^{i pi eta(H)} with eta = identity
    regularized: bool
    eta: str = "identity"
    convention_exp: str = "exp(i*pi*H)"
    convention_neg_exp: str = "-exp(i*pi*eta(H))"


def build_generator_walk(hamiltonian, gamma0, tol=CHIRAL_TOL):
    """Discrete time step of a finite chiral-symmetric generator.

    Requires gamma0 H + H gamma0 = 0.  If ||H|| > 1 the generator is
    first flattened to H (1 + H^2)^(-1/2); the record says so.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    g0 = np.asarray(gamma0, dtype=complex)
    if np.abs(h - h.conj().T).max() > tol:
        raise PreconditionError("generator must be self-adjoint")
    if np.abs(g0 @ h + h @ g0).max() > tol:
        raise PreconditionError("generator must anticommute with gamma0")
    norm = scipy.linalg.norm(h, 2) if h.size else 0.0
    regularized = bool(norm > 1.0 + 1e-12)
    evals, vecs = np.linalg.eigh(h)
    if regularized:
        evals = evals / np.sqrt(1.0 + evals**2)
        h = (vecs * evals) @ vecs.conj().T
    phases = np.exp(1j * np.pi * evals)
    walk = (vecs * phases) @ vecs.conj().T
    return GeneratorWalk(
        hamiltonian=h,
        gamma0=g0,
        walk_exp=walk,
        walk_neg_exp=-walk,
        regularized=regularized,
    )
