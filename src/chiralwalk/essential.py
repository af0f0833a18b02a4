"""Symbol-level certification of essential-spectrum conditions.

For operators in this class the image in the Calkin quotient is exactly
the pair of limit symbols, so the essential spectrum of a unitary U is
the set of eigenvalues lambda(z) of its limit symbols F(z), |z| = 1.
Certifications are tri-state (certified / refuted / inconclusive) to
avoid silently miscertifying at a phase transition.

F(z) is unitary on the circle (``_unitary_symbols``; a ChiralPair's validation
proves it), so mu on the circle is an eigenvalue of some F(z) exactly when
det(F(z) - mu) has a unimodular root.  The gap at t = +-1, min |lambda(z) - t|,
comes from the level-set iteration (Boyd & Balakrishnan, Syst. Control Lett.
15:1, 1990): eigenvalues enter or leave the arc |mu - t| < gamma only where they
cross its endpoints t e^(+-i phi), 2 sin(phi/2) = gamma.  Between consecutive
crossings the number of eigenvalues inside the arc is constant, so one
evaluation per interval decides it: an eigenvalue inside lowers gamma; when no
interval has one, the gap is at least gamma.  Each level sits LEVEL_RTOL below
the smallest distance found, so the search stops with the gap bracketed between
the two.  Both gaps come from one joint pass: each round takes one eigvals call
over the probes of every open target, one det and FFT per grid (both sides
share one unless a band vanishes on one side only) and one stacked root solve
(bitwise equal to np.roots) of the arc-endpoint polynomials; round 1 shares its
probes between the targets and also solves the clearance polynomials det(F(z) - t).
The bookkeeping of a round (each target's smallest distance over its probes, the
crossings near the circle, their order and midpoints) is done on Python lists; the
distances, moduli and angles come from numpy, as Python's abs of a complex can
differ from numpy's in the last bit.

A gap is certified when that lower bound exceeds the margin and the
roots of det(F(z) - t) clear ``transfer.CIRCLE_MARGIN``.  Each
certification keeps those roots, and the exact kernel of U - t gates
its germ spaces by them (``transfer._germ_pair``): the same roots
against the same margin, so it does not refuse a certified gap for
them.  On the circle
|1 - lambda|^2 + |1 + lambda|^2 = 4, hence

    || 1 -+ U ||_ess = sqrt(4 - gap_(-+1)^2),

and for a chiral pair U = G0 G1, G0 -+ G1 = G0 (1 -+ U) gives
|| G0 -+ G1 ||_ess = || 1 -+ U ||_ess: the Fredholm-type norms and the
dichotomy follow from the two gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .exceptions import ChiralwalkError, check_residual
from .transfer import _clearance, _det_samples, _sample_roots
from .walks import ChiralPair

DEFAULT_GRID_N = 4096      # sampling of the spectrum dump only
DEFAULT_MARGIN = 1e-6
UNITARY_TOL = 1e-8
LEVEL_RTOL = 1e-12         # each level sits this far (relative) below the best distance
CROSSING_TOL = 1e-6        # roots this close to the circle count as crossings
MAX_LEVELS = 64
INITIAL_PROBES = 2.0 * np.pi * np.arange(8) / 8   # first angles: a close start saves levels

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


def _unitary_symbols(u):
    """Both limit symbols of u and their det samples, once sup_z || F(z)^* F(z) - 1 || is proven
    below UNITARY_TOL without a grid: by a ChiralPair's closed-form ``unitary_symbol_deviation``
    (its validation) or else by sum_n || C_n ||_2 over the Laurent coefficients of F^* F - 1."""
    bound, u = ((u.certification.unitary_symbol_deviation, u.u) if isinstance(u, ChiralPair)
                else (None, u))
    loops = (u.symbol_at(ops.LEFT), u.symbol_at(ops.RIGHT))
    if bound is None or not check_residual(bound, UNITARY_TOL):
        stacks = []
        for loop in loops:
            coeffs = dict((loop.hermitian_conjugate() * loop).coefficients)
            coeffs[0] = coeffs.get(0, 0) - np.eye(loop.fiber_dim)
            stacks.append(np.stack(list(coeffs.values())))
        stack = np.concatenate(stacks)
        # one SVD, both sides; a product that overflowed has no norm, and its NaN is refused
        norms = (np.linalg.norm(stack, 2, axis=(1, 2)) if np.isfinite(stack).all()
                 else np.full(len(stack), np.nan))
        check_residual([side.sum() for side in np.split(norms, [len(stacks[0])])], UNITARY_TOL,
                       f"limit symbols are not unitary: sup |F*F - 1| <= %.3e "
                       f"exceeds {UNITARY_TOL:.0e}")
    return loops, [_det_samples(loop, True) for loop in loops]


@dataclass
class _Gap:
    value: float                # smallest |lambda - t| found: an upper bound on the gap
    bound: float                # proven lower bound on the gap (0 when not proven)
    root_margin: float | None   # min ||z| - 1| over the roots of det(F - t), both sides
    clear: bool                 # those roots clear transfer.CIRCLE_MARGIN
    roots: list = None          # (roots, order at 0) of det(F - t), left and right


def _gaps(loops, samples, targets):
    """Level-set minima of |lambda(z) - t| over both limit symbols (``samples``: their
    ``transfer._det_samples``), one _Gap per t in ``targets``, in one joint pass.
    Roots within CROSSING_TOL of the circle count as crossings (a spurious one only
    adds a probe); a flat band on an arc endpoint leaves the level open."""
    n = len(targets)
    value, level, bound, transfer_roots = [np.inf] * n, [np.inf] * n, [0.0] * n, None
    groups = [(range(n), [INITIAL_PROBES.tolist()] * len(loops))]   # (targets, angles per loop)
    for _ in range(MAX_LEVELS):
        evs = np.linalg.eigvals(np.concatenate([
            loop(np.exp(1j * np.array([t for _, points in groups for t in points[i]])))
            for i, loop in enumerate(loops)]))
        # |lambda - t| per target and probe, smallest over the probe's eigenvalues
        distances = np.abs(evs - np.reshape(targets, (n, 1, 1))).min(axis=-1).tolist()
        owner = [g for i in range(len(loops)) for g, (_, points) in enumerate(groups)
                 for _ in points[i]]
        live, mus = [], []
        for g, (members, _) in enumerate(groups):
            for k in members:
                lowest = min(d for d, o in zip(distances[k], owner) if o == g)
                if lowest >= level[k]:
                    bound[k] = level[k]
                    continue
                value[k] = lowest
                if lowest != 0.0:
                    level[k] = lowest * (1.0 - LEVEL_RTOL)
                    phi = 2.0 * np.arcsin(min(level[k] / 2.0, 1.0))
                    live.append(k)
                    mus += [targets[k] * np.exp(1j * s * phi) for s in (1, -1)]
        mus += list(targets) if transfer_roots is None else []   # round 1 adds det(F - t)
        if not mus:
            break
        found = _sample_roots(samples, mus)
        found = [found[i : i + len(mus)] for i in range(0, len(found), len(mus))]   # per loop
        # round 1: det(F - t) per target and loop, with its order at 0
        transfer_roots = transfer_roots or [[r[2 * len(live) + k] for r in found] for k in range(n)]
        groups = []
        for j, k in enumerate(live):
            ends = [z for r in found for z, _ in r[2 * j : 2 * j + 2]]   # per loop, both arc ends
            if any(isinstance(e, Exception) for e in ends):   # det vanishes
                continue
            roots = np.concatenate(ends)
            radii, angles = np.abs(roots).tolist(), np.angle(roots).tolist()
            points, stop, turn = [], 0, 2.0 * np.pi
            for plus, minus in zip(ends[::2], ends[1::2]):   # loop by loop
                start, stop = stop, stop + plus.size + minus.size
                cross = sorted(a % turn for a, r in zip(angles[start:stop], radii[start:stop])
                               if abs(r - 1.0) <= CROSSING_TOL)
                points.append([0.5 * (a + b) for a, b in zip(cross, cross[1:] + [cross[0] + turn])]
                              if cross else [0.0])
            groups.append(([k], points))
        if not groups:
            break
    clearances = [_clearance(*(z for z, _ in roots)) for roots in transfer_roots]   # both sides
    return [_Gap(value[k], bound[k], *c, transfer_roots[k]) for k, c in enumerate(clearances)]


@dataclass
class Certification:
    status: str                 # certified / refuted / inconclusive
    value: float                # the gap or norm at the smallest distance found
    threshold: float
    margin: float
    root_margin: float | None   # min ||z| - 1| over the roots of det(F - t), both sides
    # (roots, order at 0) of det(F - t), left and right: exact_kernel's gate for U - t
    roots: list = field(default=None, compare=False, repr=False)

    @property
    def certified(self):
        return self.status == CERTIFIED

    def to_dict(self):
        return {
            "status": self.status,
            "value": self.value,
            "threshold": self.threshold,
            "margin": self.margin,
            "root_margin": self.root_margin,
        }


def _status(lower, upper, margin):
    """Certified when the proven slack exceeds margin; refuted when even
    the slack found is at most margin / 1000."""
    if lower > margin:
        return CERTIFIED
    if upper <= margin * 1e-3:
        return REFUTED
    return INCONCLUSIVE


def _gap_certification(gap, margin):
    lower = gap.bound if gap.clear else 0.0
    return Certification(_status(lower, gap.value, margin), gap.value, 0.0, margin, gap.root_margin,
                         gap.roots)


def _norm_certification(gap, margin):
    """|| 1 -+ U ||_ess < 2 from the gap at -+1."""
    value, bound = (float(np.sqrt(max(4.0 - g * g, 0.0))) for g in (gap.value, gap.bound))
    return Certification(_status(2.0 - bound, 2.0 - value, margin), value, 2.0, margin,
                         gap.root_margin)


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
    def holds(self):   # on the infinite lattice one of || G0 -+ G1 ||_ess must reach 1
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


def _fredholm(gap_plus, gap_minus, margin):
    return FredholmTypeCertification(
        minus=_norm_certification(gap_minus, margin), plus=_norm_certification(gap_plus, margin)
    )


def _dichotomy(fred, margin):
    return DichotomyReport(fred.minus.value, fred.plus.value, margin)


def certify_unitary(u, *, margin=DEFAULT_MARGIN):
    """Gaps at +-1, Fredholm type and dichotomy of a unitary (or a ChiralPair) from its two gaps."""
    loops, samples = _unitary_symbols(u)
    gap_plus, gap_minus = _gaps(loops, samples, (1.0, -1.0))
    fred = _fredholm(gap_plus, gap_minus, margin)
    return UnitaryCertification(
        gap_plus=_gap_certification(gap_plus, margin),
        gap_minus=_gap_certification(gap_minus, margin),
        fredholm=fred,
        dichotomy=_dichotomy(fred, margin),
    )


def gap_at(u, target, *, margin=DEFAULT_MARGIN):
    """Distance of the essential spectrum of U (or of a ChiralPair's u) from target (+1 or -1).

    A proven gap above the margin, with the roots of det(F - target)
    clear of the transfer circle margin, certifies; a gap found at most
    margin/1000 refutes; anything else is inconclusive.
    """
    if target not in (1, -1, 1.0, -1.0):
        raise ChiralwalkError("target must be +1 or -1")
    return _gap_certification(_gaps(*_unitary_symbols(u), (float(target),))[0], margin)


def symbol_eigenvalues(u, grid_n=DEFAULT_GRID_N):
    """Sampled eigenvalues of both limit symbols.

    Yields (side, theta, eigenvalue) tuples in deterministic order:
    side, then grid point, then eigenvalue by (real, imag).
    """
    n = int(grid_n)
    thetas = (2.0 * np.pi * np.arange(n) / n).tolist()
    zs = ops.circle_grid(n)
    evs = np.stack([np.linalg.eigvals(u.symbol_at(side)(zs)) for side in (ops.LEFT, ops.RIGHT)])
    evs = np.take_along_axis(evs, np.lexsort((evs.imag, evs.real)), axis=-1)
    out = []
    for side, side_evs in zip((ops.LEFT, ops.RIGHT), evs.tolist()):
        for theta, point_evs in zip(thetas, side_evs):
            out.extend((side, theta, ev) for ev in point_evs)
    return out
