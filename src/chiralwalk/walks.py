"""Model constructors: split-step walks, weighted-shift walks, generator walks.

A chiral unitary is a product U = G0 G1 of two self-adjoint unitaries;
equivalently G0 U G0 = U*.  The split-step walk on l2(Z, C^2) uses

    G0 = [[c, conj(d) S^-n], [d S^n, -c]],    G1 = [[a, conj(b)], [b, -a]],

with constant coin scalars (c, d), site-dependent multiplication
operators a (real) and b (complex), and a(x)^2 + |b(x)|^2 = c^2 + |d|^2 = 1.
These make G0 and G1 self-adjoint involutions by algebra and U chiral and
unitary (Cedzich et al., AHP 19:325, 2018), so ``SplitStepParams`` checks
them site by site and ``verify_chiral_parts`` bounds the residuals from
its deviations, in time linear in the bulk width.  Each check that is one
residual decides by the package's one residual rule, ``exceptions.check_residual``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .exceptions import NormalizationError, PreconditionError, check_residual, overflow_as_nan
from .operators import BandedAnisotropicOperator, CoefficientFunction

NORMALIZATION_TOL = 1e-12
CHIRAL_TOL = 1e-10
UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class SplitStepParams:
    """Validated split-step data; a and b are scalar coefficient functions.

    Validation keeps ``profile``, the ``_profile_values`` of a and b, and
    ``deviations``: |c^2 + |d|^2 - 1| and |a(x)^2 + |b(x)|^2 - 1| per site.
    """

    a: CoefficientFunction
    b: CoefficientFunction
    c: float
    d_coin: complex
    shift_exponent: int = 1
    profile: tuple = field(init=False, repr=False, compare=False)
    deviations: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.a.dim != 1 or self.b.dim != 1:
            raise NormalizationError("a and b must be scalar (1x1) coefficient functions")
        if self.shift_exponent < 1:
            raise NormalizationError("shift exponent must be a positive integer")
        dev = _coin_deviation(self.c, self.d_coin)
        lo, a, b = _profile_values(self.a, self.b)
        check_residual(a.imag, NORMALIZATION_TOL, "a must be real-valued (deviation %.3e)",
                       NormalizationError)
        with overflow_as_nan():
            devs = np.abs(a.real**2 + np.abs(b) ** 2 - 1.0)
        bad = np.flatnonzero(~(devs <= NORMALIZATION_TOL))   # per site, so that NaN fails too
        if bad.size:
            x, site_dev = lo - 1 + int(bad[0]), devs[bad[0]]
            raise NormalizationError(
                f"a(x)^2 + |b(x)|^2 deviates from 1 by {site_dev:.3e} at site x={x}"
            )
        object.__setattr__(self, "profile", (lo, a, b))
        object.__setattr__(self, "deviations", (dev, devs))


def _coin_deviation(c, d_coin):
    """|c^2 + |d|^2 - 1|, checked; inf where Python's float ** overflows on a finite c or d."""
    try:
        dev = abs(c**2 + abs(d_coin) ** 2 - 1.0)
    except OverflowError:
        dev = math.inf
    check_residual(dev, NORMALIZATION_TOL, "c^2 + |d|^2 deviates from 1 by %.3e",
                   NormalizationError)
    return dev


def _profile_values(a, b):
    """Scalar profiles a and b on the sites lo - 1 .. hi, as (lo, a values, b values).

    [lo, hi) is the union of their bulk windows, so the first and last
    entries are the left and right limits.
    """
    lo = min(a.window_start, b.window_start)
    hi = max(a.window_end, b.window_end)
    return lo, a.values_on(lo - 1, hi)[:, 0, 0], b.values_on(lo - 1, hi)[:, 0, 0]


class ChiralPair:
    """The split-step chiral unitary u = gamma0 @ gamma1 of validated parameters."""

    def __init__(self, params):
        if not isinstance(params, SplitStepParams):
            raise PreconditionError("a chiral pair is built from validated SplitStepParams")
        self.params = params
        self.gamma0 = build_gamma0(params.c, params.d_coin, params.shift_exponent)
        self.gamma1 = _coin_operator(*params.profile)
        self.u = self.gamma0 @ self.gamma1
        record = verify_chiral_parts(params)
        check_residual(record.max_deviation, CHIRAL_TOL,
                       "chiral pair validation failed: max deviation %.3e")
        self.certification = record


@dataclass
class ChiralCertification:
    """Upper bounds on the six chiral residuals of a pair (``verify_chiral_parts``);
    ``essential.certify_unitary(pair)`` takes ``unitary_symbol_deviation`` as its unitarity proof."""

    gamma0_selfadjoint: float
    gamma1_selfadjoint: float
    gamma0_involution: float
    gamma1_involution: float
    chiral_relation: float
    symbol_deviation: float
    unitary_symbol_deviation: float

    @property
    def max_deviation(self):
        return float(np.max(list(vars(self).values())))

    def to_dict(self):
        return {**vars(self), "max_deviation": self.max_deviation}


def _gaussian_units(values):
    """Whether every value is 0, +-1 or +-i: products and sums of those are exact."""
    return bool(np.all((values.real * values.imag == 0) & ((values == 0) | (np.abs(values) == 1))))


def verify_chiral_parts(params):
    """Proven upper bounds on the six chiral residuals of the split-step pair of ``params``.

    G0 - G0^* vanishes exactly: c is real and G0 stores conj(d) as computed.
    With G0^2 = (1 + eps0) 1, H = G1 - G1^* and E = U - G0 G1 the rounding
    of the stored product, whose entries are single complex products,

        G0 U G0 - U^* = eps0 G1 G0 + H G0 + G0 E G0 - E^*,
        U^* U - 1     = (1 + eps0)(G1^* G1 - 1) + eps0 + G1^* G0 E + E^* G0 G1 + E^* E.

    The coefficient part of a field bounds these by operator norms over
    every site; the symbol part bounds sup over |z| = 1 of ||R(z)||_2 for
    both limit symbols R by the 2-norms of their Laurent coefficients.
    Each field adds the rounding of a double-precision dense evaluation
    (Higham 2002, ch. 3), so it is at least what one measures; rounding
    terms vanish where every entry involved is 0, +-1 or +-i.
    """
    dev0, devs = params.deviations
    _, a, b = params.profile
    c, d = abs(params.c), abs(params.d_coin)
    r0 = 0.0 if _gaussian_units(np.array([params.c, params.d_coin])) else UNIT_ROUNDOFF
    r1 = 0.0 if _gaussian_units(np.concatenate([a, b])) else UNIT_ROUNDOFF
    ru = max(r0, r1)
    s0, s1 = c + d, float((np.abs(a) + np.abs(b)).max())   # row and column sums of |G0|, |G1|
    su = s0 * s1 * (1.0 + 3.0 * UNIT_ROUNDOFF)              # ... of |U|
    # a computed deviation is off by at most 5u; Im a adds to ||G1^2 - 1|| and
    # ||G1^* G1 - 1||; E sums to 3u s0 s1 over a row, 6u s0 s1 over a limit symbol
    im = np.abs(a.imag)
    e1 = devs + 8.0 * r1 + im * (im + 2.0 * s1)
    # column 0: every site, by operator norms; columns 1 and 2: the two limits
    e1, im = (np.array([v.max(), v[0], v[-1]]) for v in (e1, im))
    e0 = np.full(3, dev0 + 8.0 * r0)
    n0, n1 = np.array([np.sqrt(1.0 + e0[0]), c + 2.0 * d, c + 2.0 * d]), np.sqrt(1.0 + e1)
    eta = 8.0 * min(r0, r1) * s0 * s1
    # a dense product with at most k nonzero terms per entry is off by at most
    # sqrt(2) gamma_2k |A| |B|, whose row sums bound an entry and a symbol sum
    bounds = np.array([
        2.0 * im,
        e0 + 8.0 * r0 * s0**2,
        e1 + 8.0 * r1 * s1**2,
        e0 * n0 * n1 + 2.0 * im * n0 + (n0**2 + 1.0) * eta + 16.0 * ru * s0**2 * su,
        (1.0 + e0) * e1 + e0 + 2.0 * n0 * n1 * eta + eta**2 + 16.0 * ru * su**2,
    ])
    bounds[:, 1:] *= 1.0 + 64.0 * UNIT_ROUNDOFF    # a symbol sum at a circle point
    g1_sa, g0_inv, g1_inv, chiral = bounds[:4].max(axis=1).tolist()
    return ChiralCertification(
        gamma0_selfadjoint=0.0, gamma1_selfadjoint=g1_sa, gamma0_involution=g0_inv,
        gamma1_involution=g1_inv, chiral_relation=chiral,
        symbol_deviation=float(bounds[:, 1:].max()),
        unitary_symbol_deviation=float(bounds[4, 1:].max()),
    )


def build_gamma0(c, d_coin, n=1):
    """Coin-and-shift factor [[c, conj(d) S^-n], [d S^n, -c]] on l2(Z, C^2)."""
    c = float(c)
    d_coin = complex(d_coin)
    n = int(n)
    _coin_deviation(c, d_coin)
    if n < 1:
        raise NormalizationError("shift exponent must be a positive integer")
    diag, upper, lower = (CoefficientFunction._derived(m, m, 0, np.zeros((0, 2, 2), complex))
                          for m in np.array([[[c, 0], [0, -c]], [[0, np.conj(d_coin)], [0, 0]],
                                             [[0, 0], [d_coin, 0]]], dtype=complex))
    return BandedAnisotropicOperator(2, {0: diag, -n: upper, n: lower})


def build_gamma1(a, b):
    """Sitewise coin [[a, conj(b)], [b, -a]] from scalar profiles a, b."""
    return _coin_operator(*_profile_values(a, b))


def _coin_operator(lo, av, bv):
    coins = np.moveaxis(np.array([[av, bv.conj()], [bv, -av]]), -1, 0)
    return ops.mult_op(CoefficientFunction._derived(coins[0], coins[-1], lo, coins[1:-1]))


def build_walk(params):
    """Assemble the split-step ChiralPair U = G0 G1."""
    return ChiralPair(params)


def build_weighted_shift_walk(m, n, coin):
    """U = diag(S^m, S*^n) C with a constant 2x2 unitary coin C.

    Not chiral for generic C; its determinant symbol winds m - n times.
    """
    coin = np.asarray(coin, dtype=complex)
    if coin.shape != (2, 2):
        raise PreconditionError("coin must be a 2x2 matrix")
    coin_op = ops.mult_op(CoefficientFunction.constant(coin))   # refuses non-finite entries
    with overflow_as_nan():
        defect = coin.conj().T @ coin - np.eye(2)
    check_residual(defect, 1e-12, "coin deviates from unitarity by %.3e")
    upper = BandedAnisotropicOperator(
        2, {int(m): CoefficientFunction.constant(np.diag([1.0, 0.0]))}
    )
    lower = BandedAnisotropicOperator(
        2, {-int(n): CoefficientFunction.constant(np.diag([0.0, 1.0]))}
    )
    return (upper + lower) @ coin_op


@dataclass
class GeneratorWalk:
    """Finite-dimensional walk built from a chiral-symmetric Hamiltonian."""

    hamiltonian: np.ndarray        # the (possibly regularized) generator used
    gamma0: np.ndarray
    walk_exp: np.ndarray           # e^{i pi H}
    walk_neg_exp: np.ndarray       # -e^{i pi eta(H)} with eta = identity
    regularized: bool
    spectrum: tuple                # (evals, vecs): hamiltonian = (vecs * evals) @ vecs^H


# the conventions of every GeneratorWalk, as its report names them
GENERATOR_CONVENTIONS = {"eta": "identity", "walk_exp": "exp(i*pi*H)",
                         "walk_neg_exp": "-exp(i*pi*eta(H))"}


def build_generator_walk(hamiltonian, gamma0, tol=CHIRAL_TOL):
    """Discrete time step of a finite chiral-symmetric generator.

    Requires gamma0 H + H gamma0 = 0.  If ||H|| > 1 the generator is first flattened
    to H (1 + H^2)^(-1/2), each eigenvalue to lambda / hypot(1, lambda); the record says so.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    g0 = np.asarray(gamma0, dtype=complex)
    if not (np.isfinite(h).all() and np.isfinite(g0).all()):
        raise PreconditionError("generator and gamma0 entries must be finite")
    with overflow_as_nan():
        adjoint, anticommutator = h - h.conj().T, g0 @ h + h @ g0
    check_residual(adjoint, tol, "generator must be self-adjoint (deviation %.3e)")
    check_residual(anticommutator, tol, "generator must anticommute with gamma0 (deviation %.3e)")
    evals, vecs = np.linalg.eigh(h)
    # h is self-adjoint, so its operator norm is its largest |eigenvalue|
    regularized = bool(evals.size and np.abs(evals).max() > 1.0 + 1e-12)
    if regularized:
        evals = evals / np.hypot(1.0, evals)   # no overflow where evals^2 would
        h = (vecs * evals) @ vecs.conj().T
    phases = np.exp(1j * np.pi * evals)
    walk = (vecs * phases) @ vecs.conj().T
    return GeneratorWalk(
        hamiltonian=h,
        gamma0=g0,
        walk_exp=walk,
        walk_neg_exp=-walk,
        regularized=regularized,
        spectrum=(evals, vecs),
    )
