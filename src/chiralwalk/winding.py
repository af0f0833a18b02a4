"""Winding numbers of symbol loops and the double-sided index check.

winding_det unwinds the phase of det F(z) around the circle with a
step-size guard; nc_winding integrates the normalized logarithmic
derivative and returns an exact rational with denominator equal to the
fiber dimension.  chiral_flat_band_symbol and
chiral_imaginary_block_symbol compress the flattened Cayley transform
and the imaginary part of a chiral symbol between its graded halves,
batched over the grid: the frames are the grading eigenframes times
cumulative polar factors of neighbouring overlaps (continuity
propagation), and the closing holonomy, W_N relative to the gauge, is
folded into the winding.

Orientation: throughout the package, kernel-count indices are oriented
so that an operator equal to 1 far to the left and to the forward shift
far to the right has index +1, which matches winding(right symbol)
minus winding(left symbol).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import operators as ops
from .exceptions import (
    FramePropagationError,
    NotFredholmError,
    PreconditionError,
    WindingUnresolvedError,
)
from .operators import circle_grid
from .transfer import exact_index, exact_kernel

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


# --- compressed chiral loops --------------------------------------------------


@dataclass
class SampledLoop:
    """Closed sampled loop of compressed blocks with frame holonomy data.

    samples[k] is the block at z_k for k = 0..N with z_N = z_0 in the
    frames obtained by continuity propagation; holonomy_plus/minus are
    the frame mismatches after one full cycle.
    """

    fiber_dim: int
    samples: np.ndarray
    holonomy_plus: np.ndarray
    holonomy_minus: np.ndarray
    side: str
    grid_n: int

    def winding(self):
        """Winding of det(samples) with the holonomy phases folded in."""
        dets = np.linalg.det(self.samples)
        if np.abs(dets).min() <= DET_FLOOR:
            raise NotFredholmError("compressed loop not invertible on the grid")
        total, max_step = _phase_unwind(dets)
        if max_step >= np.pi / 2:
            raise WindingUnresolvedError(
                "compressed loop too coarse: increase grid_n"
            )
        correction = float(
            np.angle(np.linalg.det(self.holonomy_minus))
            - np.angle(np.linalg.det(self.holonomy_plus))
        )
        raw = (total + correction) / (2.0 * np.pi)
        rounded = int(round(raw))
        if abs(raw - rounded) >= 0.25:
            raise WindingUnresolvedError(
                f"compressed winding {raw:.6f} is not near an integer"
            )
        return WindingResult(
            raw_phase=raw, rounded=rounded, max_step_phase=max_step, grid_n=self.grid_n
        )


FRAME_DEGENERACY = "frame propagation degeneracy: projected frame nearly singular"


def _adjoint(stack):
    return stack.conj().swapaxes(-1, -2)


def _prefix_products(mats):
    """out[k] = mats[k] @ ... @ mats[0], by doubling: log2 N stacked matmuls."""
    out = mats.copy()
    shift = 1
    while shift < len(out):
        out[shift:] = out[shift:] @ out[:-shift]
        shift *= 2
    return out


def _raise_first(checks):
    """Raise the error a sweep k = 0..N meets first; ``checks`` are
    (mask over k, error) in the order the guards apply at one point."""
    hits = [(mask.argmax(), order) for order, (mask, _) in enumerate(checks) if mask.any()]
    if hits:
        raise checks[min(hits)[1]][1]


def _compression_frames(pair, side, grid_n, gauge=None):
    """u and the transported grading frames on the closed grid z_0..z_N = z_0.

    E_k, the +1 and -1 eigenframes of the grading symbol (a half-rank
    self-adjoint unitary), come from one batched eigh.  Propagation
    frame_k = polar(P_k frame_{k-1}) equals E_k W_k with
    W_k = polar(E_k^* E_{k-1}) W_{k-1}, W_0 = gauge: one batched SVD of
    the overlaps and a cumulative product.  Returns u, the frames and the
    holonomies frame_0^* frame_N (ordered +1, -1), and the mask of steps
    whose overlap has a singular value below 0.1.
    """
    d = pair.u.fiber_dim
    if d % 2 != 0:
        raise PreconditionError("chiral loop compression needs an even fiber dimension")
    half = d // 2
    zs = circle_grid(grid_n)
    ring = np.arange(zs.size + 1) % zs.size
    u_vals = pair.u.symbol_at(side)(zs)[ring]
    g0_vals = pair.gamma0.symbol_at(side)(zs)[ring]
    evals, vecs = np.linalg.eigh(0.5 * (g0_vals + _adjoint(g0_vals)))
    if np.any(np.abs(np.abs(evals) - 1.0) > 1e-6):
        raise PreconditionError("grading symbol is not a self-adjoint unitary on the grid")
    rank = (evals > 0.5).sum(axis=-1)
    if np.any(rank != half):
        raise PreconditionError(
            f"grading symbol rank {rank[rank != half][0]} differs from half the fiber {half}"
        )
    frames = np.stack([vecs[..., half:], vecs[..., :half]], axis=1)
    left, svals, right = np.linalg.svd(_adjoint(frames[1:]) @ frames[:-1])
    eye = np.eye(half)
    start = np.asarray((eye, eye) if gauge is None else gauge, dtype=complex)[None]
    frames = frames @ _prefix_products(np.concatenate([start, left @ right]))
    weak = np.concatenate([[False], (svals[..., -1] < 0.1).any(axis=-1)])
    return u_vals, frames, _adjoint(frames[0]) @ frames[-1], weak


def chiral_flat_band_symbol(pair, side, grid_n=512, cayley_sign=1, gauge=None):
    """Compressed flat-band loop of one limit symbol of a chiral pair.

    The flattening of the Cayley transform of cayley_sign * u is
    -sign(cayley_sign * Im u), from one batched eigh; an eigenvalue of u
    within 1e-8 of +-1 aborts.  It is compressed between the grading
    frames, which are the eigenframes times cumulative polar factors of
    the overlaps (see ``_compression_frames``).  cayley_sign -1 gives
    the pointwise negative of the +1 loop.  ``gauge`` optionally
    right-multiplies the two starting frames by fixed unitaries; the
    holonomy-corrected winding must not depend on it.
    """
    u_vals, frames, holonomies, weak = _compression_frames(pair, side, grid_n, gauge)
    evals = np.linalg.eigvals(u_vals)
    at_pm_one = (np.minimum(np.abs(evals - 1.0), np.abs(evals + 1.0)) < 1e-8).any(axis=-1)
    im_evals, im_vecs = np.linalg.eigh((u_vals - _adjoint(u_vals)) / 2j)
    signs = np.where(cayley_sign * im_evals > 0, -1.0, 1.0)
    flat = (im_vecs * signs[:, None, :]) @ _adjoint(im_vecs)
    samples = _adjoint(frames[:, 1]) @ flat @ frames[:, 0]
    dev = np.abs(_adjoint(samples) @ samples - np.eye(samples.shape[-1])).max(axis=(1, 2))
    not_unitary = dev > 1e-8
    _raise_first([
        (weak, FramePropagationError(FRAME_DEGENERACY)),
        (at_pm_one, PreconditionError(
            "symbol eigenvalue at +-1: spectral flattening undefined (gap violated)"
        )),
        (not_unitary, PreconditionError(
            f"compressed block deviates from unitarity by {dev[not_unitary.argmax()]:.3e} "
            "(is the dual gap certified?)"
        )),
    ])
    return SampledLoop(
        fiber_dim=samples.shape[-1],
        samples=samples,
        holonomy_plus=holonomies[0],
        holonomy_minus=holonomies[1],
        side=side,
        grid_n=int(grid_n),
    )


def chiral_imaginary_block_symbol(pair, side, grid_n=512):
    """Compressed loop of Im(u) between the graded halves of one limit symbol.

    Invertible exactly when both essential gaps hold; its winding feeds
    the total-index comparison.  Frames as in ``chiral_flat_band_symbol``.
    """
    u_vals, frames, holonomies, weak = _compression_frames(pair, side, grid_n)
    if weak.any():
        raise FramePropagationError(FRAME_DEGENERACY)
    samples = _adjoint(frames[:, 1]) @ ((u_vals - _adjoint(u_vals)) / 2j) @ frames[:, 0]
    return SampledLoop(
        fiber_dim=samples.shape[-1],
        samples=samples,
        holonomy_plus=holonomies[0],
        holonomy_minus=holonomies[1],
        side=side,
        grid_n=int(grid_n),
    )


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


def verify_index_theorem_chiral(pair, grid_n=512, rank_tol=1e-8, kernels=None):
    """Compare the total symmetry index of a chiral pair with symbol windings.

    The kernel side comes from the transfer oracle: the graded
    signatures of Ker(U -+ 1) sum to the total index.  The winding side
    is evaluated on three realizations of the same class: the spectral
    flattenings of the Cayley transforms of u and of -u, and the
    unflattened imaginary-part block.  The first two are pointwise
    negatives of one another and all three carry identical windings, so
    each branch compares against minus the total signature (the
    right-minus-left orientation).  The split of the total into si_plus
    and si_minus is carried by finite-dimensional +-1 eigenspaces that
    limit symbols cannot see, so only the sum admits a winding formula;
    both summands are still computed and attached to the record.
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
    lhs = -(si_plus + si_minus)

    branches = []
    for name, builder in (
        ("cayley_flat_band", lambda side: chiral_flat_band_symbol(pair, side, grid_n, 1)),
        ("cayley_flat_band_negated", lambda side: chiral_flat_band_symbol(pair, side, grid_n, -1)),
        ("imaginary_block", lambda side: chiral_imaginary_block_symbol(pair, side, grid_n)),
    ):
        branches.append(
            IndexTheoremBranch(
                name=name,
                lhs_index=lhs,
                winding_left=builder(ops.LEFT).winding().rounded,
                winding_right=builder(ops.RIGHT).winding().rounded,
                fiber_dim=d,
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
    """Dispatch on ChiralPair vs plain banded operator."""
    if hasattr(target, "gamma0") and hasattr(target, "u"):
        return verify_index_theorem_chiral(target, grid_n or 512, rank_tol)
    return verify_index_theorem_banded(target, grid_n or 4096, rank_tol)
