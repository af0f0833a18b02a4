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

from . import operators as ops
from .exceptions import NormalizationError, PreconditionError
from .operators import BandedAnisotropicOperator, CoefficientFunction, circle_grid

NORMALIZATION_TOL = 1e-12
CHIRAL_TOL = 1e-10
SYMBOL_POINTS = 64         # circle points on which the limit residuals are evaluated


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
        lo, a, b = _profile_values(self.a, self.b)
        devs = np.abs(a.real**2 + np.abs(b) ** 2 - 1.0)
        bad = np.flatnonzero(devs > NORMALIZATION_TOL)
        if bad.size:
            x, dev = lo - 1 + int(bad[0]), devs[bad[0]]
            raise NormalizationError(
                f"a(x)^2 + |b(x)|^2 deviates from 1 by {dev:.3e} at site x={x}"
            )


def _profile_values(a, b):
    """Scalar profiles a and b on the sites lo - 1 .. hi, as (lo, a values, b values).

    [lo, hi) is the union of their bulk windows, so the first and last
    entries are the left and right limits.
    """
    lo = min(a.window_start, b.window_start)
    hi = max(a.window_end, b.window_end)
    return lo, a.values_on(lo - 1, hi)[:, 0, 0], b.values_on(lo - 1, hi)[:, 0, 0]


@dataclass
class ChiralPair:
    """A factorized chiral unitary u = gamma0 @ gamma1, validated on construction."""

    gamma0: BandedAnisotropicOperator
    gamma1: BandedAnisotropicOperator
    u: BandedAnisotropicOperator = field(init=False)

    def __post_init__(self):
        self.u = self.gamma0 @ self.gamma1
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
    symbol_sups: dict = field(default_factory=dict)   # per residual, sup over both limits

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


def verify_chiral_parts(gamma0, gamma1, u=None):
    """Deviations of the defining relations, on band coefficients and on symbols.

    The coefficient part is the largest entry of each residual, limits
    included.  It is read off dense blocks on the sites [lo - pad, hi + pad),
    [lo, hi) the union of the inputs' bulk windows: with R the bound
    max(2 r0 + ru, 2 ru, 2 r1) on every residual's band radius and
    pad = 2 R + 1, the rows at least R sites from the edges are exact rows
    of the residuals and include a pure-limit row on each side.  The
    symbol part reads the limit Laurent coefficients off those two
    pure-limit rows (row block s, column block s - k holds the coefficient
    of z^k) and evaluates all twelve limit residuals on SYMBOL_POINTS
    circle points at once, so a residual whose limit coefficients vanish
    exactly reads 0.0.
    window_halfwidth is R plus the largest |lo|, |hi| of the inputs' bulk
    windows plus four sites: a symmetric window [-L, L] that holds those
    bulk windows with R + 4 sites to spare.
    """
    if u is None:
        u = gamma0 @ gamma1
    d = gamma0.fiber_dim
    inputs = (gamma0, gamma1, u)
    radius = max(2 * gamma0.band_radius + u.band_radius, 2 * u.band_radius,
                 2 * gamma1.band_radius)
    windows = [op.bulk_window() for op in inputs if not op.is_translation_invariant()]
    lo = min((w[0] for w in windows), default=0)
    hi = max((w[1] for w in windows), default=0)
    pad = 2 * radius + 1
    g0, g1, uu = (op.dense_block(lo - pad, hi + pad) for op in inputs)
    eye = np.eye(g0.shape[0])
    u_star = uu.conj().T
    residuals = {
        "g0_sa": g0 - g0.conj().T,
        "g1_sa": g1 - g1.conj().T,
        "g0_inv": g0 @ g0 - eye,
        "g1_inv": g1 @ g1 - eye,
        "chiral": g0 @ uu @ g0 - u_star,
        "u_unitary": u_star @ uu - eye,
    }
    rows = slice(radius * d, g0.shape[0] - radius * d)
    coeff = {k: float(np.abs(r[rows]).max()) for k, r in residuals.items()}
    n_sites, ks = g0.shape[0] // d, np.arange(-radius, radius + 1)
    limit_rows = np.array([[radius], [n_sites - 1 - radius]])
    limits = np.stack([r.reshape(n_sites, d, n_sites, d)[limit_rows, :, limit_rows - ks]
                       for r in residuals.values()])   # (residual, side, k, d, d)
    values = np.einsum("jk,eskab->esjab", circle_grid(SYMBOL_POINTS)[:, None] ** ks, limits)
    sym = dict(zip(residuals, np.abs(values).max(axis=(1, 2, 3, 4)).tolist()))
    return ChiralCertification(
        gamma0_selfadjoint=max(coeff["g0_sa"], sym["g0_sa"]),
        gamma1_selfadjoint=max(coeff["g1_sa"], sym["g1_sa"]),
        gamma0_involution=max(coeff["g0_inv"], sym["g0_inv"]),
        gamma1_involution=max(coeff["g1_inv"], sym["g1_inv"]),
        chiral_relation=max(coeff["chiral"], sym["chiral"]),
        symbol_deviation=max(sym.values()),
        unitary_symbol_deviation=sym["u_unitary"],
        window_halfwidth=radius + max(abs(lo), abs(hi)) + 4,
        symbol_sups=sym,
    )


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
    lo, av, bv = _profile_values(a, b)
    coins = np.moveaxis(np.array([[av, bv.conj()], [bv, -av]]), -1, 0)
    return ops.mult_op(CoefficientFunction(coins[0], coins[-1], lo, coins[1:-1]))


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
    evals, vecs = np.linalg.eigh(h)
    # h is self-adjoint, so its operator norm is its largest |eigenvalue|
    regularized = bool(evals.size and np.abs(evals).max() > 1.0 + 1e-12)
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
