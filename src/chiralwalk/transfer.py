"""Exact kernels and indices of banded eventually-constant lattice operators.

Square-summable solutions of A u = 0 are parameterized by decaying
germs of the two constant-coefficient recursions at the ends, glued by
the finitely many equations that see the bulk.  Germ spaces are
deflating subspaces of a block companion pencil, found as ranges of
spectral projectors by a Newton sign iteration, both ends in one stacked
iteration; this handles singular extreme bands (eigenvalues at 0 and
infinity encode tails of finite support).  The pencil's eigenvalues are
the transfer eigenvalues 1/z at the roots z of the symbol determinant,
so the roots decide which operators are Fredholm and how large each germ
space is, and the projector must agree.  Truncation is never used:
open boundaries would pollute the kernel with edge modes.  Graded
signatures are read off gamma0's action on the kernel: gamma0 maps the
kernel into itself, and the kernel vectors are orthonormal on the
matching window, so gamma0's matrix on the kernel is read there and no
tail is summed.

Each level-set round, each winding set and the two ends of an exact
kernel are one stacked solve of their symbol determinants, bitwise equal
to per-polynomial np.roots.  One count rule
(``_count``) reads a determinant's winding w = #(|z| < 1) + order at 0,
its margin min ||z| - 1| and whether every 1/z clears CIRCLE_MARGIN: the
windings, gap clearances, symbol certifications and germ dimensions
(r d + w_left on the left, r d - w_right on the right) all read it.  The
counts, the projector trace check and the trim of each determinant row
are decided on Python lists; moduli, the Moebius pole and the Newton
step count come from numpy, whose complex modulus can differ from
Python's abs in the last bit.  Every kernel dimension, a multiplication
operator's singular-limit gate included (at rank_tol 0), is ``indices._rank``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import operators as ops
from .exceptions import NotFredholmError
from .indices import (DEFAULT_RANK_TOL, KernelSummary, _kernel_dims, _rank,
                      _signature_and_margin, kernel_basis)
from .operators import circle_grid

CIRCLE_MARGIN = 1e-6
COEFF_TOL = 1e-11          # relative size below which a determinant coefficient is dropped
GERM_MAX_STEPS = 64        # sign-iteration steps before a germ split refuses
GERM_RTOL = 1e-10          # relative step of the sign iteration at which it stops
# largest companion pencil 2 r d of a chiral pair in an index report, reached at
# split-step shift exponent 31: `index` there takes about 0.3 s and 42 MB resident
# (x86-64, OpenBLAS on one thread), and its germ split grows as (2 r d)^3
MAX_PENCIL = 124
SIGMA_CANDIDATES = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)   # Moebius poles on the circle


# --- scalar determinant of a symbol loop ------------------------------------


def _det_samples(loop, shifted):
    """(loop(z), z^(-low)) on the circle grid that interpolates det(loop(z) - mu), and
    low, the lowest power of z in the determinant: for every mu if ``shifted``, else mu = 0."""
    offsets = sorted(set(loop.offsets()) | {0}) if shifted else loop.offsets()
    low = loop.fiber_dim * min(offsets, default=0)
    zs = circle_grid(loop.fiber_dim * max(offsets, default=0) - low + 1)
    return loop(zs), zs ** (-low), low


def _det_polys(samples, mus):
    """(polynomial, highest power first, order at z = 0) of det(loop(z) - mu)
    per mu, from one stacked det and one row-wise FFT; coefficients below
    COEFF_TOL times a row's largest are dropped.  A determinant that
    vanishes identically gives a NotFredholmError for its polynomial.  Samples
    of L loops on one grid stack on a leading axis (values (L, N, d, d), twists
    (L, N), lows (L,)), and their polynomials come loop by loop, mu by mu."""
    values, twist, low = samples
    dets = np.linalg.det(values[..., None, :, :, :]
                         - np.asarray(mus)[:, None, None, None] * np.eye(values.shape[-1]))
    coeffs = np.fft.fft(dets * twist[..., None, :]) / values.shape[-3]
    moduli = np.abs(coeffs)
    coeffs[moduli < COEFF_TOL * moduli.max(axis=-1, keepdims=True)] = 0.0
    rows = coeffs.reshape(-1, coeffs.shape[-1])
    polys = []   # each row's first and last nonzero coefficient from one pass over a list
    for row, kept, low in zip(rows, (rows != 0).tolist(), np.repeat(low, len(mus)).tolist()):
        if True in kept:
            first, stop = kept.index(True), len(kept) - kept[::-1].index(True)
            polys.append((row[first:stop][::-1], low + first))
        else:
            polys.append((NotFredholmError("symbol determinant vanishes identically"), None))
    return polys


def _poly_roots(polys):
    """np.roots of each polynomial (an exception stays as it is), bitwise: the
    companions are built as np.roots builds them, one eigvals call per size."""
    roots = [p if isinstance(p, Exception) else np.zeros(0, dtype=complex) for p in polys]
    sizes = [0 if isinstance(p, Exception) else p.size for p in polys]
    for size in set(sizes) - {0, 1}:
        items = [i for i, s in enumerate(sizes) if s == size]
        companions = np.zeros((len(items), size - 1, size - 1), dtype=complex)
        companions[:, 1:, :-1] = np.eye(size - 2)
        stacked = np.array([polys[i] for i in items])
        companions[:, 0] = -stacked[:, 1:] / stacked[:, :1]
        for i, r in zip(items, np.linalg.eigvals(companions)):
            roots[i] = r
    return roots


def _sample_roots(samples, mus):
    """(roots, order at z = 0) of det(loop(z) - mu), loop by loop and mu by mu, from the loops'
    ``_det_samples``: one stacked det and FFT per grid (the sides of an operator whose band
    vanishes on one side only have grids of different sizes) and one stacked root solve."""
    polys, m = [None] * (len(samples) * len(mus)), len(mus)
    for shape in {values.shape for values, _, _ in samples}:
        items = [i for i, (values, _, _) in enumerate(samples) if values.shape == shape]
        found = _det_polys([np.stack(parts) for parts in zip(*(samples[i] for i in items))], mus)
        for j, i in enumerate(items):
            polys[i * m : (i + 1) * m] = found[j * m : (j + 1) * m]
    return list(zip(_poly_roots([p for p, _ in polys]), (order for _, order in polys)))


def _loop_roots(loops):
    """``_sample_roots`` of det(loop(z)) per loop; an exception in place of a loop, or a
    determinant that vanishes identically, stays as (exception, None)."""
    live = [i for i, loop in enumerate(loops) if not isinstance(loop, Exception)]
    found = dict(zip(live, _sample_roots([_det_samples(loops[i], False) for i in live], [0.0])))
    return [found.get(i, (loop, None)) for i, loop in enumerate(loops)]


class _Count(NamedTuple):
    """One determinant's roots read by the count rule (``_count``)."""
    winding: int | None     # #(|z| < 1) + order at 0; None when the determinant vanishes
    margin: float | None    # min ||z| - 1|: None without roots, 0.0 when the determinant vanishes
    clearance: float        # min ||1/z| - 1| over the transfer eigenvalues (infinite at z = 0)
    nearest: float | None   # |z| of the first root at that clearance; None without roots

    @property
    def clear(self):   # every 1/z outside CIRCLE_MARGIN of the circle, where exact_kernel refuses
        return self.clearance > CIRCLE_MARGIN


def _count(roots, order=0):
    """The count rule on the (roots, order at 0) of one determinant (``_Count``); a determinant
    that vanishes identically (an exception in place of roots) counts and clears nothing.
    The moduli come from one np.abs, the rest is decided on them as a Python list."""
    if isinstance(roots, Exception):
        return _Count(None, 0.0, 0.0, None)
    radii = np.abs(roots).tolist()
    if not radii:
        return _Count(order, None, math.inf, None)
    gaps = [abs(1.0 / r - 1.0) if r else math.inf for r in radii]   # 1/0 infinite, as numpy divides
    clearance = min(gaps)
    return _Count(sum([r < 1.0 for r in radii]) + order, min([abs(r - 1.0) for r in radii]),
                  clearance, radii[gaps.index(clearance)])


def _counts(found, refusal):
    """``_count`` of each (roots, order at 0) in ``found``, or the refusal: a determinant that
    vanishes identically raises its error, in order, and a transfer eigenvalue within
    CIRCLE_MARGIN of the circle raises NotFredholmError(refusal(|z|)), z the nearest root."""
    for roots, _ in found:
        if isinstance(roots, Exception):
            raise roots
    counts = [_count(*item) for item in found]
    worst = min(counts, key=lambda c: c.clearance)
    if not worst.clear:
        raise NotFredholmError(refusal(worst.nearest))
    return counts


def _clearance(*roots):
    """(margin, clear) of ``_count`` over the roots of one or more determinants together:
    (0.0, False) when one vanishes identically, (None, True) without roots."""
    if any(isinstance(z, Exception) for z in roots):
        return 0.0, False
    count = _count(np.concatenate(roots))
    return count.margin, count.clear


# --- half-line germ spaces: spectral projectors of the companion pencils ------


@dataclass
class _GermSpace:
    """Deflating-subspace description of decaying half-line solutions."""

    dimension: int
    window_basis: np.ndarray    # (2 r d, k), orthonormal columns
    step: np.ndarray            # (k, k) coordinate map one site deeper into the tail
    radius: int


def _companion_pencils(a):
    """(E, B), shape (2, 2, 2 r d, 2 r d): the pencils with E U_{x+1} = B U_x on
    windows of 2r sites, of the left and the right limits of ``a``."""
    d, r = a.fiber_dim, a.band_radius
    size = 2 * r * d
    rows = np.zeros((2, d, size + d), dtype=complex)   # the equation at x + r, both ends
    for n, f in a.bands.items():    # the coefficient of u(x + r - n) there
        rows[0, :, (r - n) * d : (r - n + 1) * d] = f.left
        rows[1, :, (r - n) * d : (r - n + 1) * d] = f.right
    pencils = np.zeros((2, 2, size, size), dtype=complex)
    pencils[0, :, : size - d, : size - d] = pencils[1, :, : size - d, d:] = np.eye(size - d)
    pencils[0, :, size - d :, size - d :] = rows[:, :, size:]
    pencils[1, :, size - d :] = -rows[:, :, :size]
    return pencils


def _matrix_sign(w, steps):
    """sign of each matrix of the stack by Newton's iteration x <- (x + x^-1) / 2 (Higham,
    Functions of Matrices, ch. 5), the first step on mu x, mu = sqrt(|x^-1| / |x|) entrywise,
    which keeps the rounding at the scale of the limit: ``steps`` steps, then until a step
    moves x by at most GERM_RTOL; NotFredholmError after GERM_MAX_STEPS steps."""
    inv = np.linalg.inv(w)
    mu = np.sqrt(np.abs(inv).sum(axis=(1, 2)) / np.abs(w).sum(axis=(1, 2)))[:, None, None]
    x = (0.5 * mu) * w + (0.5 / mu) * inv
    for step in range(2, GERM_MAX_STEPS + 1):
        x, last = 0.5 * (x + np.linalg.inv(x)), x
        if step >= steps and np.all(np.abs(x - last).sum(axis=(1, 2))
                                    <= GERM_RTOL * np.abs(x).sum(axis=(1, 2))):
            return x
    raise NotFredholmError("germ space iteration did not converge")


def _trace_check(sign, counts):
    """NotFredholmError unless the traces of the projectors (1 - sign) / 2 on the left
    and (1 + sign) / 2 on the right (``sign`` stacked, left first) round to the root
    counts; decided on a Python list (round is np.rint on a finite float)."""
    size = sign.shape[-1]
    trace = np.trace(sign, axis1=1, axis2=2).real.tolist()
    traces = [0.5 * (size - trace[0]), 0.5 * (size + trace[1])]
    if [round(t) if math.isfinite(t) else t for t in traces] != counts:
        raise NotFredholmError(f"germ space dimensions {np.round(traces, 6).tolist()} differ "
                               f"from the root counts {counts}")


def _germ_pair(a, roots=None):
    """(left, right) germ spaces of the decaying solutions of the two constant
    recursions of ``a`` (band radius >= 1), and exact_kernel's Fredholm gate.

    ``roots``: (roots, order at 0) of det of the left and the right limit symbol
    (``_loop_roots``, solved here when not given).  Their transfer eigenvalues
    lambda = 1/z, with 0 and infinity filling up 2 r d, must clear CIRCLE_MARGIN,
    and the count rule (``_counts``) fixes each germ dimension: r d + w_left on the
    left and r d - w_right on the right, w the determinant's winding.  With sigma on
    the circle far from every lambda, W = -(B - sigma E)^-1 (B + sigma E) has the
    eigenvalues w = (sigma + lambda) / (sigma - lambda), Re w > 0 exactly inside,
    and (1 -+ sign W) / 2 projects on the germ space.  Newton's iteration squares
    (w - 1) / (w + 1) = lambda / sigma, so the roots also give its step count.  A
    vanishing determinant, a root in the margin or a projector whose trace is not
    the root count raises NotFredholmError.  The step matrix is the inverse
    Moebius map of W restricted to an orthonormal basis of the range.
    """
    d, r = a.fiber_dim, a.band_radius
    size = 2 * r * d
    if roots is None:
        roots = _loop_roots([a.symbol_at(side) for side in (ops.LEFT, ops.RIGHT)])
    left, right = _counts(roots, lambda z: "transfer eigenvalue within margin of the unit "
                                           f"circle (|lambda| = {1.0 / z:.8f})")
    counts = [r * d + left.winding, r * d - right.winding]
    z = np.concatenate([z for z, _ in roots])
    moduli = np.abs(z)
    distance = np.abs(SIGMA_CANDIDATES[:, None] - 1.0 / z).min(axis=1, initial=np.inf)
    sigma = SIGMA_CANDIDATES[np.argmax(distance)]
    e_mat, b_mat = _companion_pencils(a)
    w = -np.linalg.solve(b_mat - sigma * e_mat, b_mat + sigma * e_mat)
    # |lambda|^(2^j) below GERM_RTOL after j steps for every finite lambda, then one more
    slowest = np.abs(np.log(moduli)).min(initial=np.inf)
    sign = _matrix_sign(w, 2 + int(np.log2(-np.log(GERM_RTOL) / slowest)) if slowest < np.inf else 1)
    _trace_check(sign, counts)
    tail = np.array([-1.0, 1.0])[:, None, None]
    shift = tail * np.eye(size)
    bases = np.linalg.svd(0.5 * (np.abs(shift) + tail * sign))[0]   # ranges first
    bases *= np.arange(size) < np.array(counts)[:, None, None]
    m = bases.conj().transpose(0, 2, 1) @ w @ bases
    # c_{x+1} = sigma (M + 1)^-1 (M - 1) c_x on the right, c_{x-1} its inverse on the left
    step = np.linalg.solve(m + shift, m - shift) * np.array([1.0 / sigma, sigma])[:, None, None]
    return [_GermSpace(k, basis[:, :k], s[:k, :k], r) for k, basis, s in zip(counts, bases, step)]


# --- exact kernel on the doubly infinite lattice ------------------------------


def _apply_banded_window(op, values, lo):
    """Apply a banded operator to compactly supported window values.

    values has one row per site starting at ``lo`` (shape (n, d) or
    (n, d, columns)); the result window extends by the band radius on
    both sides.
    """
    r = op.band_radius
    n, d = values.shape[0], op.fiber_dim
    out_lo = lo - r
    padded = np.zeros((n + 4 * r,) + values.shape[1:], dtype=complex)
    padded[2 * r : 2 * r + n] = values
    out = np.zeros((n + 2 * r,) + values.shape[1:], dtype=complex)
    for offset, f in op.bands.items():
        coeffs = f.values_on(out_lo, out_lo + n + 2 * r - 1)
        # row t is site out_lo + t and reads u at padded row t + r - offset
        shifted = padded[r - offset : 3 * r - offset + n]
        out += (coeffs @ shifted.reshape(n + 2 * r, d, -1)).reshape(shifted.shape)
    return out, out_lo


def _powers(step, n):
    """Stacked powers step^0 .. step^n, shape (n + 1, k, k), built by doubling."""
    out = np.eye(step.shape[0], dtype=complex)[None]
    while out.shape[0] <= n:
        out = np.concatenate([out, (out[-1] @ step) @ out])
    return out[: n + 1]


@dataclass
class _MatchingSystem:
    """Null space of the matching system and the germs that continue it.

    The unknowns are (alpha, mids, beta): left germ coordinates of the
    anchor window [y0, y0 + 2r - 1], explicit values on the sites
    between the anchors, and right germ coordinates of the anchor
    window [y1 - 2r + 1, y1].
    """

    null: KernelSummary
    germ_left: _GermSpace
    germ_right: _GermSpace
    y0: int
    y1: int

    def values(self, lo, hi):
        """Kernel vectors on the sites lo..hi, shape (sites, d, dim)."""
        site_map = _site_map(self.germ_left, self.germ_right, self.y0, self.y1, lo, hi)
        return site_map @ self.null.basis


def _site_map(germ_left, germ_right, y0, y1, lo, hi):
    """Values on the sites lo..hi (lo <= y0, y1 <= hi) as linear maps of the unknowns.

    Shape (sites, d, unknowns).  Beyond the anchor windows the germs
    continue geometrically: u(y0 - j) = W_0 S^j alpha on the left and
    u(y1 + j) = W_last S^j beta on the right, with W_0 and W_last the
    outer site blocks of the germ window bases and S the germ steps.
    """
    r = germ_left.radius
    d = germ_left.window_basis.shape[0] // (2 * r)
    k_l, k_r = germ_left.dimension, germ_right.dimension
    n_mid = y1 - y0 + 1 - 4 * r
    n_cols = k_l + n_mid * d + k_r
    left = germ_left.window_basis.reshape(2 * r, d, k_l)
    right = germ_right.window_basis.reshape(2 * r, d, k_r)
    a, b = y0 - lo, y1 - lo
    out = np.zeros((hi - lo + 1, d, n_cols), dtype=complex)
    out[:a, :, :k_l] = left[0] @ _powers(germ_left.step, a)[:0:-1]
    out[a : a + 2 * r, :, :k_l] = left
    out[a + 2 * r : b - 2 * r + 1, :, k_l : n_cols - k_r] = np.eye(n_mid * d).reshape(
        n_mid, d, n_mid * d
    )
    out[b - 2 * r + 1 : b + 1, :, n_cols - k_r :] = right
    out[b + 1 :, :, n_cols - k_r :] = right[-1] @ _powers(germ_right.step, hi - y1)[1:]
    return out


def _matching_system(a, rank_tol, extra_padding, roots=None):
    """Glue the decaying germs of both ends across the non-constant equations.

    A translation-invariant operator has no non-constant equation; its
    equations start at site -extra_padding, and since every null vector
    continues to a square-summable solution, an invertible operator
    gives dimension 0.
    """
    r = a.band_radius
    germ_left, germ_right = _germ_pair(a, roots)

    starts = [f.window_start for f in a.bands.values() if not f.is_constant()]
    ends = [f.window_end for f in a.bands.values() if not f.is_constant()]
    first_mixed = min(starts) if starts else 0
    last_mixed = (max(ends) - 1) if ends else -1
    eq_lo = first_mixed - int(extra_padding)
    eq_hi = max(last_mixed, eq_lo + 2 * r) + int(extra_padding)
    y0, y1 = eq_lo - r, eq_hi + r     # outermost sites entering an imposed equation

    unknowns = _site_map(germ_left, germ_right, y0, y1, y0, y1)
    image, _ = _apply_banded_window(a, unknowns, y0)
    equations = image[2 * r : image.shape[0] - 2 * r]    # sites eq_lo .. eq_hi
    null = kernel_basis(equations.reshape(-1, unknowns.shape[-1]), rank_tol)
    return _MatchingSystem(null, germ_left, germ_right, y0, y1)


def _gamma0_action(gamma0, values, lo):
    """Real parts of the eigenvalues of gamma0 on a kernel whose vectors have the values
    ``values`` (sites, d, dim) on the sites from ``lo``, gamma0's band radius r_g beyond a
    window on which they are orthonormal: T = V^* (gamma0 V) over that window.  gamma0
    maps the kernel into itself, so gamma0 V = V T there, and T is gamma0's matrix on the
    kernel in the basis of its vectors; gamma0 is a self-adjoint unitary, so T has the
    eigenvalues +-1."""
    r_g = gamma0.band_radius
    n = values.shape[0] - 2 * r_g
    image = _apply_banded_window(gamma0, values, lo)[0][2 * r_g : 2 * r_g + n]
    inner = values[r_g : r_g + n].reshape(n * values.shape[1], -1)
    return np.linalg.eigvals(inner.conj().T @ image.reshape(inner.shape)).real


def _multiplication_vectors(a, rank_tol):
    """Sitewise null vectors of a multiplication operator: (values (sites, d, dim), first site)."""
    f = a.coefficient(0)
    # a limit is singular when it has a kernel under the rank rule's floor alone
    for side, dim in zip((ops.LEFT, ops.RIGHT), _kernel_dims(np.stack([f.left, f.right]), 0.0)):
        if dim:
            raise NotFredholmError(f"{side} limit of the multiplication operator is singular")
    lo, hi = f.window_start, f.window_end
    if hi == lo:
        return np.zeros((0, a.fiber_dim, 0), dtype=complex), lo
    _, svals, vh = np.linalg.svd(f.values_on(lo, hi - 1))
    sites, cols = np.nonzero([_rank(s, rank_tol)[0] for s in svals.tolist()])   # per site
    values = np.zeros((hi - lo, a.fiber_dim, sites.size), dtype=complex)
    values[sites, :, np.arange(sites.size)] = vh[sites, cols].conj()
    return values, lo


def _graded_kernel(a, gamma0, rank_tol, extra_padding, roots=None):
    """Kernel summary and the real parts of gamma0's eigenvalues on the kernel.

    The eigenvalues are none without gamma0 or without kernel.  Band radius
    0 is gated by its singular limits, every other operator by the roots
    and germ spaces of its two ends (``_germ_pair``).  The kernel vectors are
    orthonormal on a window: a multiplication operator's are orthonormal
    single-site vectors, and a banded operator's are orthonormal on the
    matching window [y0, y1], onto which ``_site_map`` maps the unknowns
    isometrically (the germ window bases are orthonormal on disjoint anchor
    blocks, and the mids map by the identity).
    """
    empty = np.zeros(0)
    if a.band_radius == 0:
        values, lo = _multiplication_vectors(a, rank_tol)
        summary = KernelSummary(values.shape[-1], None)
        if gamma0 is None or not summary.dimension:
            return summary, empty
        r_g = gamma0.band_radius
        padded = np.pad(values, ((r_g, r_g), (0, 0), (0, 0)))
        return summary, _gamma0_action(gamma0, padded, lo - r_g)

    system = _matching_system(a, rank_tol, extra_padding, roots)
    null = system.null
    spectrum = empty
    if gamma0 is not None and null.dimension:
        lo, hi = system.y0 - gamma0.band_radius, system.y1 + gamma0.band_radius
        spectrum = _gamma0_action(gamma0, system.values(lo, hi), lo)
    null.basis = None    # no explicit basis is returned
    return null, spectrum


def exact_kernel(a, gamma0=None, rank_tol=DEFAULT_RANK_TOL, extra_padding=0, *, roots=None):
    """Kernel of a banded anisotropic operator on the doubly infinite lattice.

    Candidate solutions combine a left-decaying germ, explicit bulk
    values and a right-decaying germ; the returned dimension is the
    null-space dimension of the finite matching system.  With ``gamma0``
    given, the graded signature is that of gamma0's action on the kernel,
    read on the matching window (``_graded_kernel``): its eigenvalues are
    +-1, and ``signature_margin`` is how far the real part nearest 0
    stays outside (-1/2, 1/2).  No explicit basis is returned.
    ``extra_padding`` widens the matching window; the result must not
    depend on it.  A transfer eigenvalue of either end within
    CIRCLE_MARGIN of the unit circle raises NotFredholmError.  ``roots``
    passes the roots of both limit symbol determinants when the caller
    has them (``_germ_pair``).
    """
    summary, spectrum = _graded_kernel(a, gamma0, rank_tol, extra_padding, roots)
    if gamma0 is not None:
        summary.graded_signature, summary.signature_margin = _signature_and_margin(spectrum)
    return summary


@dataclass
class ExactIndexResult:
    dim_ker: int
    dim_ker_adjoint: int
    fiber_dim: int

    @property
    def index(self):
        """Signed kernel imbalance, oriented so that an operator equal to 1
        far to the left and to the forward shift far to the right has
        index +1 (the orientation matched by right-minus-left windings)."""
        return self.dim_ker_adjoint - self.dim_ker

    @property
    def tau_normalized(self):
        return Fraction(self.index, self.fiber_dim)

    def to_dict(self):
        return {
            "dim_ker": self.dim_ker,
            "dim_ker_adjoint": self.dim_ker_adjoint,
            "index": self.index,
            "tau_normalized": str(self.tau_normalized),
        }


def exact_index(a, rank_tol=DEFAULT_RANK_TOL, *, roots=None):
    """Kernel-counting index of a Fredholm banded operator, tau-normalized by d; ``roots``
    gates the kernel of ``a`` as in exact_kernel (the adjoint's kernel solves its own)."""
    ker = exact_kernel(a, rank_tol=rank_tol, roots=roots)
    coker = exact_kernel(a.adjoint(), rank_tol=rank_tol)
    return ExactIndexResult(ker.dimension, coker.dimension, a.fiber_dim)
