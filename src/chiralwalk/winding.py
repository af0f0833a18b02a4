"""Winding numbers of symbol loops and the double-sided index check.

winding_det unwinds the phase of det F(z) around the circle with a
step-size guard; nc_winding integrates the normalized logarithmic
derivative and returns an exact rational with denominator equal to the
fiber dimension.  compressed_winding compresses the imaginary part of a
chiral symbol between the graded halves of one grading and counts the
roots of the resulting scalar Laurent polynomial, with no grid.

Orientation: throughout the package, kernel-count indices are oriented
so that an operator equal to 1 far to the left and to the forward shift
far to the right has index +1, which matches winding(right symbol)
minus winding(left symbol).  A per-side winding of a compressed block
depends on the choice of closed frames; only right minus left is
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import operators as ops
from .exceptions import NotFredholmError, PreconditionError, WindingUnresolvedError
from .operators import circle_grid
from .transfer import CIRCLE_MARGIN, _clearance, _det_roots, exact_index, exact_kernel
from .walks import CHIRAL_TOL

MAX_GRID_N = 2**16
DET_FLOOR = 1e-10


@dataclass
class WindingResult:
    raw_phase: float        # accumulated argument of det / 2 pi
    rounded: int
    max_step_phase: float
    grid_n: int

    def to_dict(self):
        return {
            "raw_phase": self.raw_phase,
            "rounded": self.rounded,
            "max_step_phase": self.max_step_phase,
            "grid_n": self.grid_n,
        }


def _phase_unwind(dets):
    """Total unwound argument along a closed sample sequence (last = first)."""
    ratios = dets[1:] / dets[:-1]
    steps = np.angle(ratios)
    return float(np.sum(steps)), float(np.abs(steps).max()) if steps.size else 0.0


def winding_det(loop, grid_n=256):
    """Winding number of det(loop) by phase unwinding with automatic refinement."""
    n = int(grid_n)
    while True:
        zs = circle_grid(n)
        dets = np.linalg.det(loop(zs))
        if np.abs(dets).min() <= DET_FLOOR:
            raise NotFredholmError("loop not invertible: |det| dips below 1e-10 on the grid")
        closed = np.concatenate([dets, dets[:1]])
        total, max_step = _phase_unwind(closed)
        if max_step < np.pi / 2:
            break
        if n >= MAX_GRID_N:
            raise WindingUnresolvedError("winding unresolved: refinement cap reached")
        n *= 2
    raw = total / (2.0 * np.pi)
    rounded = int(round(raw))
    if abs(raw - rounded) >= 0.25:
        raise WindingUnresolvedError(
            f"winding unresolved: raw phase {raw:.6f} is not near an integer"
        )
    return WindingResult(raw_phase=raw, rounded=rounded, max_step_phase=max_step, grid_n=n)


def nc_winding(loop, grid_n=4096):
    """Normalized-trace winding (1/2 pi i) * integral of tau(F^-1 F') dz.

    tau is the matrix trace divided by the fiber dimension d; the exact
    Laurent derivative is used.  Returns a Fraction with denominator d
    after checking agreement with the determinant winding.
    """
    d = loop.fiber_dim
    det_result = winding_det(loop, min(grid_n, 4096))
    deriv = loop.derivative()
    n = int(grid_n)
    while True:
        zs = circle_grid(n)
        values = loop(zs)
        dvalues = deriv(zs)
        traces = np.trace(np.linalg.solve(values, dvalues), axis1=1, axis2=2) / d
        raw = complex(np.mean(traces * zs))
        target = det_result.rounded / d
        if abs(raw.real - target) < 1e-8 and abs(raw.imag) < 1e-8:
            break
        if n >= MAX_GRID_N:
            raise WindingUnresolvedError(
                f"nc winding {raw:.3e} did not converge to det winding / d = {target}"
            )
        n *= 2
    return Fraction(det_result.rounded, d)


# --- compressed chiral blocks ------------------------------------------------


def _closed_frames(grading, side):
    """Closed +1 and -1 eigenframes of one limit symbol of a chiral grading.

    The symbol must factor as D(z) G D(z)^* with G its value at z = 1,
    D(z) = diag(1, z^n) and n its largest band offset; this covers both
    split-step gradings (Gamma1 with n = 0).  The frames are then
    z^(-k) D(z) v for the eigenvectors v of G.  Any integer k gives a
    closed frame and shifts that side's winding; k = round(n |v_2|^2)
    takes the frame nearest to parallel transport (smallest Berry phase).
    As |v_2|^2 of the two eigenvectors sum to 1, k_- = n - k_+; only k_+
    is rounded, half down within CHIRAL_TOL, so that an exact tie such as
    n |v_2|^2 = 1/2 does not leave the choice to rounding noise.
    Returns (D as a loop, [(k, v) for +1, then -1]).
    """
    loop = grading.symbol_at(side)
    if loop.fiber_dim != 2 or not loop.offsets():
        raise PreconditionError("root-count windings need a nonzero grading on C^2")
    n = max(loop.offsets())
    g = sum(loop.coefficients.values())
    d_loop = ops.SymbolLoop(2, {0: np.diag([1.0, 0.0])}) + ops.SymbolLoop(
        2, {n: np.diag([0.0, 1.0])}
    )
    factored = (d_loop * ops.SymbolLoop(2, {0: g}) * d_loop.hermitian_conjugate()).coefficients
    evals, vecs = np.linalg.eigh(g)
    dev = max(
        np.abs(g - g.conj().T).max(),
        np.abs(evals - (-1.0, 1.0)).max(),
        *(np.abs(factored.get(m, 0) - loop.coefficients.get(m, 0)).max()
          for m in set(factored) | set(loop.coefficients)),
    )
    if dev > CHIRAL_TOL:
        raise PreconditionError(
            f"{side} grading symbol is not D(z) G D(z)^* with G a self-adjoint unitary "
            f"of signature 0 (deviation {dev:.3e})"
        )
    k_plus = int(np.ceil(n * abs(vecs[1, 1]) ** 2 - 0.5 - CHIRAL_TOL))
    return d_loop, [(k_plus, vecs[:, 1]), (n - k_plus, vecs[:, 0])]


def chiral_imaginary_block_symbol(pair, grading, side):
    """Im(u) between the -1 and +1 frames of ``grading``: a scalar Laurent loop.

    With e_+- = z^(-k_+-) D v_+- this is z^(k_- - k_+) v_-^* D^* Im(u) D v_+,
    Im(u)(z) = (u(z) - u(z)^*) / 2i; it vanishes on the circle exactly
    where u(z) has an eigenvalue +-1.
    """
    d_loop, ((k_plus, v_plus), (k_minus, v_minus)) = _closed_frames(grading, side)
    u_loop = pair.u.symbol_at(side)
    u, adj = u_loop.coefficients, u_loop.hermitian_conjugate().coefficients
    im = ops.SymbolLoop(2, {m: (u.get(m, 0) - adj.get(m, 0)) / 2j for m in set(u) | set(adj)})
    block = d_loop.hermitian_conjugate() * im * d_loop
    return ops.SymbolLoop(
        1,
        {m + k_minus - k_plus: v_minus.conj() @ c @ v_plus for m, c in block.coefficients.items()},
    )


def compressed_winding(pair, grading, side):
    """Winding of the compressed Im(u) block of one side, by counting roots.

    The winding of a scalar Laurent loop is the number of its roots
    inside the unit disk plus its order at 0.  Returns (winding, root
    margin min ||z| - 1|, or None without roots).  A root whose transfer
    eigenvalue 1/z lies within CIRCLE_MARGIN of the circle, the band in
    which the transfer oracle refuses, raises NotFredholmError.
    """
    roots, order_at_zero = _det_roots(chiral_imaginary_block_symbol(pair, grading, side))
    radii = np.abs(roots)
    margin, clear = _clearance(roots, CIRCLE_MARGIN)
    if not clear:
        raise NotFredholmError(
            f"compressed block has a root within margin of the unit circle "
            f"(|z| = {radii[np.abs(1.0 / radii - 1.0).argmin()]:.8f})"
        )
    return int(np.sum(radii < 1.0)) + order_at_zero, margin


# --- the double-sided comparison ---------------------------------------------


@dataclass
class IndexTheoremBranch:
    name: str
    lhs_index: int               # kernel-count index, right-minus-left orientation
    winding_left: int
    winding_right: int
    fiber_dim: int

    @property
    def rhs_index(self):
        return self.winding_right - self.winding_left

    @property
    def holds(self):
        return self.lhs_index == self.rhs_index

    @property
    def lhs_tau_normalized(self):
        return Fraction(self.lhs_index, self.fiber_dim)

    @property
    def rhs_tau_normalized(self):
        return Fraction(self.rhs_index, self.fiber_dim)

    def to_dict(self):
        return {
            "name": self.name,
            "lhs_index": self.lhs_index,
            "winding_left": self.winding_left,
            "winding_right": self.winding_right,
            "rhs_index": self.rhs_index,
            "lhs_tau_normalized": str(self.lhs_tau_normalized),
            "rhs_tau_normalized": str(self.rhs_tau_normalized),
            "holds": self.holds,
        }


@dataclass
class RootCountBranch(IndexTheoremBranch):
    """A chiral branch: windings from root counts, with their decision margin."""

    root_margin: float | None = None   # min ||z| - 1| over the roots of both sides

    def to_dict(self):
        return {**super().to_dict(), "root_margin": self.root_margin}


@dataclass
class IndexTheoremRecord:
    branches: list

    @property
    def holds(self):
        return all(b.holds for b in self.branches)

    def branch(self, name):
        for b in self.branches:
            if b.name == name:
                return b
        raise KeyError(name)

    def to_dict(self):
        return {"holds": self.holds, "branches": [b.to_dict() for b in self.branches]}


def verify_index_theorem_banded(f_op, grid_n=4096, rank_tol=1e-8):
    """Kernel-count index of a banded operator against its winding difference."""
    result = exact_index(f_op, rank_tol=rank_tol)
    wl = nc_winding(f_op.symbol_at(ops.LEFT), grid_n)
    wr = nc_winding(f_op.symbol_at(ops.RIGHT), grid_n)
    d = f_op.fiber_dim
    branch = IndexTheoremBranch(
        name="banded",
        lhs_index=result.index,
        winding_left=int(wl * d),
        winding_right=int(wr * d),
        fiber_dim=d,
    )
    record = IndexTheoremRecord(branches=[branch])
    record.index_result = result
    return record


def verify_index_theorem_chiral(pair, rank_tol=1e-8, kernels=None):
    """Compare the graded signatures of a chiral pair with root-count windings.

    The kernel side comes from the transfer oracle: the Gamma0-graded
    signatures si_plus of Ker(U - 1) and si_minus of Ker(U + 1).  Both
    gradings satisfy G U G = U*, and Gamma1 equals Gamma0 on Ker(U - 1)
    and -Gamma0 on Ker(U + 1), so each grading has its own symbol
    formula and together they fix both summands:

        gamma1_graded:    si_minus - si_plus    = W1,
        imaginary_block:  -(si_plus + si_minus) = W0,

    with W the right-minus-left winding of Im(u) compressed between the
    grading's -1 and +1 frames (``compressed_winding``).  Only gradings
    of the split-step form are accepted; see ``_closed_frames``.
    ``kernels`` optionally passes the graded kernels of U + 1 and U - 1,
    already computed with the same ``rank_tol``, so that they are not
    computed again.
    """
    d = pair.u.fiber_dim
    if kernels is None:
        one = ops.identity(d)
        kernels = (
            exact_kernel(pair.u + one, gamma0=pair.gamma0, rank_tol=rank_tol),
            exact_kernel(pair.u - one, gamma0=pair.gamma0, rank_tol=rank_tol),
        )
    ker_minus, ker_plus = kernels
    si_minus = ker_minus.graded_signature
    si_plus = ker_plus.graded_signature

    branches = []
    for name, grading, lhs in (
        ("gamma1_graded", pair.gamma1, si_minus - si_plus),
        ("imaginary_block", pair.gamma0, -(si_plus + si_minus)),
    ):
        (w_left, m_left), (w_right, m_right) = (
            compressed_winding(pair, grading, side) for side in (ops.LEFT, ops.RIGHT)
        )
        margins = [m for m in (m_left, m_right) if m is not None]
        branches.append(
            RootCountBranch(
                name=name,
                lhs_index=lhs,
                winding_left=w_left,
                winding_right=w_right,
                fiber_dim=d,
                root_margin=min(margins) if margins else None,
            )
        )
    record = IndexTheoremRecord(branches=branches)
    record.si_plus = si_plus
    record.si_minus = si_minus
    record.si_total = si_plus + si_minus
    record.dim_ker_u_plus_one = ker_minus.dimension
    record.dim_ker_u_minus_one = ker_plus.dimension
    return record


def verify_index_theorem(target, grid_n=None, rank_tol=1e-8):
    """Dispatch on ChiralPair vs plain banded operator; ``grid_n`` is for the banded path."""
    if hasattr(target, "gamma0") and hasattr(target, "u"):
        return verify_index_theorem_chiral(target, rank_tol)
    return verify_index_theorem_banded(target, grid_n or 4096, rank_tol)
