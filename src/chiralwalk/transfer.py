"""Exact kernels and indices of banded eventually-constant lattice operators.

Square-summable solutions of A u = 0 are parameterized by decaying
germs of the two constant-coefficient recursions at the ends, glued by
the finitely many equations that see the bulk.  Germ spaces are
deflating subspaces of a block companion pencil (QZ with eigenvalue
reordering), which handles singular extreme bands (eigenvalues at 0 and
infinity encode tails of finite support).  Truncation is never used:
open boundaries would pollute the kernel with edge modes.  Graded
signatures come from the Gram and gamma0 forms of the kernel vectors;
beyond a finite window their tails are geometric, and the tail sums
solve Stein equations, so nothing is walked site by site.

Each tail's Gram and gamma0 forms share one Stein operator and come
from one Kronecker solve in numpy.  scipy.linalg is imported only where
it is called: by _half_line_germs (ordqz), _graded_spectrum (eigh of the
pencil) and kernel_vectors (solve_triangular), so that importing the
package and the finite-dimensional commands do not load scipy.

Each level-set round and each winding set is one stacked solve of its
symbol determinants, bitwise equal to per-polynomial np.roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import operators as ops
from .exceptions import NotFredholmError
from .indices import (DEFAULT_RANK_TOL, KernelSummary, _rank_threshold, _signature_and_margin,
                      kernel_basis)
from .operators import circle_grid

CIRCLE_MARGIN = 1e-6
COEFF_TOL = 1e-11          # relative size below which a determinant coefficient is dropped


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
    coeffs[np.abs(coeffs) < COEFF_TOL * np.abs(coeffs).max(axis=-1, keepdims=True)] = 0.0
    polys = []
    for row, low in zip(coeffs.reshape(-1, coeffs.shape[-1]), np.repeat(low, len(mus))):
        nz = np.nonzero(row)[0]
        polys.append((row[nz[0] : nz[-1] + 1][::-1], int(low + nz[0])) if nz.size else
                     (NotFredholmError("symbol determinant vanishes identically"), None))
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
        companions[:, 0] = [-polys[i][1:] / polys[i][0] for i in items]
        for i, r in zip(items, np.linalg.eigvals(companions)):
            roots[i] = r
    return roots


def _det_roots(loop, mu=0.0):
    """Roots of det(loop(z) - mu) in C* with multiplicity, and the order at z = 0:
    mu = 0 asks where the symbol is singular, mu on the circle where it is an eigenvalue."""
    [(poly, order)] = _det_polys(_det_samples(loop, bool(mu)), [mu])
    if isinstance(poly, Exception):
        raise poly
    return _poly_roots([poly])[0], order


def _clearance(roots):
    """(min ||z| - 1| over the roots or None without roots, whether every
    transfer eigenvalue 1/z lies outside CIRCLE_MARGIN of the unit circle);
    (0.0, False) for a determinant that vanishes identically (``_det_polys``)."""
    if isinstance(roots, Exception):
        return 0.0, False
    radii = np.abs(roots)
    margin = float(np.abs(radii - 1.0).min()) if radii.size else None
    return margin, bool(np.all(np.abs(1.0 / radii - 1.0) > CIRCLE_MARGIN))


def circle_clearance(loop, mu=0.0):
    """Where the roots of det(loop(z) - mu) lie relative to the unit circle.

    Returns (root_margin, clear): root_margin = min ||z| - 1| over the
    roots (None when the determinant is a monomial, 0 when it vanishes
    identically), and clear says whether every root clears the band in
    which exact_kernel refuses: the same CIRCLE_MARGIN on the same
    transfer eigenvalues 1/z that the companion pencil of
    ``_half_line_germs`` tests, computed by a different route.
    """
    [(poly, _)] = _det_polys(_det_samples(loop, bool(mu)), [mu])
    return _clearance(_poly_roots([poly])[0])


# --- half-line germ spaces via the companion pencil --------------------------


@dataclass
class _GermSpace:
    """Deflating-subspace description of decaying half-line solutions."""

    dimension: int
    window_basis: np.ndarray    # (2 r d, k), orthonormal columns
    step: np.ndarray            # (k, k) coordinate map one site deeper into the tail
    radius: int


def _companion_pencil(coeffs, d, r):
    """Pencil (E, B) with E U_{x+1} = B U_x for windows of half-width 2r."""
    size = 2 * r * d
    e_mat = np.eye(size, dtype=complex)
    b_mat = np.zeros((size, size), dtype=complex)
    b_mat[: size - d, d:] = np.eye(size - d)
    e_mat[size - d :, size - d :] = coeffs.get(-r, np.zeros((d, d)))
    for j in range(2 * r):
        n = r - j  # coefficient of u(x + j) in the equation at x + r
        b_mat[size - d :, j * d : (j + 1) * d] = -coeffs.get(n, np.zeros((d, d)))
    return e_mat, b_mat


def _half_line_germs(coeffs, d, r, tail):
    """Germ space of decaying solutions of the constant recursion.

    tail = 'right': solutions on [x, +inf) (cluster |lambda| < 1, 0 included);
    tail = 'left': solutions on (-inf, x] (cluster |lambda| > 1 and infinity).
    This is exact_kernel's Fredholm gate: a transfer eigenvalue within
    CIRCLE_MARGIN of the unit circle, or a singular pencil, raises
    NotFredholmError, so no germ dimension is read off a split that the
    margin does not separate.
    """
    import scipy.linalg

    def inside(alpha, beta):
        return np.abs(alpha) < (1.0 - CIRCLE_MARGIN) * np.abs(beta)

    def outside(alpha, beta):
        return np.abs(alpha) > (1.0 + CIRCLE_MARGIN) * np.abs(beta)

    select = inside if tail == "right" else outside
    e_mat, b_mat = _companion_pencil(coeffs, d, r)
    aa, bb, alpha, beta, _, z = scipy.linalg.ordqz(b_mat, e_mat, sort=select, output="complex")
    degenerate = (np.abs(alpha) < 1e-12) & (np.abs(beta) < 1e-12)
    if np.any(degenerate):
        raise NotFredholmError("companion pencil is singular; symbol determinant degenerates")
    near = ~inside(alpha, beta) & ~outside(alpha, beta)
    if np.any(near):
        lam = alpha[near] / beta[near]
        raise NotFredholmError(
            f"transfer eigenvalue within margin of the unit circle (|lambda| = {np.abs(lam[0]):.8f})"
        )
    k = int(np.sum(select(alpha, beta)))
    z1 = z[:, :k]
    s11 = aa[:k, :k]
    t11 = bb[:k, :k]
    if k == 0:
        step = np.zeros((0, 0), dtype=complex)
    elif tail == "right":
        step = np.linalg.solve(t11, s11)   # forward: c_{x+1} = step c_x
    else:
        step = np.linalg.solve(s11, t11)   # backward: c_{x-1} = step c_x
    return _GermSpace(dimension=k, window_basis=z1, step=step, radius=r)


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


def _decay_length(step, cutoff):
    """First j with ||step^j||_2 < cutoff (0 for an empty germ)."""
    if step.shape[0] == 0:
        return 0
    n = 1
    while np.linalg.norm(np.linalg.matrix_power(step, n), 2) >= cutoff:
        n *= 2
    norms = np.linalg.norm(_powers(step, n), 2, axis=(1, 2))
    return int(np.argmax(norms < cutoff))


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


def _matching_system(a, rank_tol, extra_padding):
    """Glue the decaying germs of both ends across the non-constant equations.

    A translation-invariant operator has no non-constant equation; its
    equations start at site -extra_padding, and since every null vector
    continues to a square-summable solution, an invertible operator
    gives dimension 0.
    """
    d, r = a.fiber_dim, a.band_radius
    left_coeffs = {n: f.left for n, f in a.bands.items()}
    right_coeffs = {n: f.right for n, f in a.bands.items()}
    germ_left = _half_line_germs(left_coeffs, d, r, "left")
    germ_right = _half_line_germs(right_coeffs, d, r, "right")

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


def _stein(step, ms):
    """Sum over j >= 0 of (step^j)^* m step^j for each m of the stack ms: the X with
    X - step^* X step = m, from one solve of I - kron(step^*, step^T) on row-major X."""
    k = step.shape[0]
    lhs = np.eye(k * k) - np.kron(step.conj().T, step.T)
    return np.linalg.solve(lhs, ms.reshape(-1, k * k).T).T.reshape(ms.shape)


def _tail_forms(germ, edge, coeffs, depth, orient):
    """Gram and gamma0 forms, in germ coordinates, of one tail beyond ``depth``.

    The site at depth j holds edge @ S^j c; gamma0 acts with the constant
    coefficients ``coeffs`` there, and band m reads depth j - orient * m
    (orient -1 on the left, +1 on the right).  depth must exceed the
    band radius of gamma0.
    """
    if germ.dimension == 0:
        return np.zeros((0, 0), complex), np.zeros((0, 0), complex)
    powers = _powers(germ.step, depth + max(map(abs, coeffs), default=0))
    head = edge @ powers[depth]
    gram = head.conj().T @ head
    form = sum(head.conj().T @ g @ edge @ powers[depth - orient * m] for m, g in coeffs.items())
    return _stein(germ.step, np.stack([gram, form]))


def _window_forms(gamma0, values, start):
    """Gram and gamma0 forms of site values (rows from site ``start``),
    summed over the sites whose whole gamma0 band lies in the window."""
    r_g = gamma0.band_radius
    n = values.shape[0] - 2 * r_g
    image = _apply_banded_window(gamma0, values, start)[0][2 * r_g : 2 * r_g + n]
    inner = values[r_g : r_g + n].conj()
    return np.einsum("xia,xib->ab", inner, values[r_g : r_g + n]), np.einsum(
        "xia,xib->ab", inner, image
    )


def _kernel_forms(system, gamma0):
    """Lattice Gram matrix and gamma0 form of the kernel vectors.

    Sites within gamma0's reach of the matching window or of gamma0's
    own bulk are summed explicitly.  Beyond them every term is a germ
    power sandwich with constant coefficients, summed in closed form, so
    the cost does not depend on how slowly the tails decay.
    """
    r_g = gamma0.band_radius
    g_lo, g_hi = gamma0.bulk_window()
    lo = min(system.y0, g_lo) - r_g
    hi = max(system.y1, g_hi) + r_g
    gram, form = _window_forms(gamma0, system.values(lo - r_g, hi + r_g), lo - r_g)
    basis, d = system.null.basis, gamma0.fiber_dim
    left, right = system.germ_left, system.germ_right
    tails = (
        (left, basis[: left.dimension], left.window_basis[:d], ops.LEFT, system.y0 - lo + 1, -1),
        (right, basis[basis.shape[0] - right.dimension :], right.window_basis[-d:], ops.RIGHT,
         hi + 1 - system.y1, 1),
    )
    for germ, coords, edge, side, depth, orient in tails:
        limits = gamma0.symbol_at(side).coefficients
        tail_gram, tail_form = _tail_forms(germ, edge, limits, depth, orient)
        gram = gram + coords.conj().T @ tail_gram @ coords
        form = form + coords.conj().T @ tail_form @ coords
    return gram, form


def _graded_spectrum(gram, form):
    """Eigenvalues of gamma0 compressed to the kernel: the pencil (form, gram)."""
    import scipy.linalg
    return scipy.linalg.eigh(_hermitian(form), _hermitian(gram), eigvals_only=True)


def _hermitian(m):
    return 0.5 * (m + m.conj().T)


def _multiplication_vectors(a, rank_tol):
    """Sitewise null vectors of a multiplication operator: (values (sites, d, dim), first site)."""
    f = a.coefficient(0)
    for side, mat in ((ops.LEFT, f.left), (ops.RIGHT, f.right)):
        if np.linalg.svd(mat, compute_uv=False)[-1] < 1e-12:
            raise NotFredholmError(f"{side} limit of the multiplication operator is singular")
    lo, hi = f.window_start, f.window_end
    if hi == lo:
        return np.zeros((0, a.fiber_dim, 0), dtype=complex), lo
    _, svals, vh = np.linalg.svd(f.values_on(lo, hi - 1))
    sites, cols = np.nonzero(svals < _rank_threshold(svals, rank_tol))
    values = np.zeros((hi - lo, a.fiber_dim, sites.size), dtype=complex)
    values[sites, :, np.arange(sites.size)] = vh[sites, cols].conj()
    return values, lo


def _graded_kernel(a, gamma0, rank_tol, extra_padding):
    """Kernel summary and gamma0's spectrum compressed to the kernel.

    The spectrum is empty without gamma0 or without kernel.  Band radius
    0 is gated by its singular limits, every other operator by the
    companion pencils of its two ends.
    """
    empty = np.zeros(0)
    if a.band_radius == 0:
        values, lo = _multiplication_vectors(a, rank_tol)
        summary = KernelSummary(values.shape[-1], None, float(rank_tol))
        if gamma0 is None or not summary.dimension:
            return summary, empty
        r_g = gamma0.band_radius
        padded = np.pad(values, ((r_g, r_g), (0, 0), (0, 0)))
        return summary, _graded_spectrum(*_window_forms(gamma0, padded, lo - r_g))

    system = _matching_system(a, rank_tol, extra_padding)
    null = system.null
    summary = KernelSummary(
        null.dimension,
        None,
        float(rank_tol),
        singular_values_near_zero=null.singular_values_near_zero,
        borderline_singular_values=null.borderline_singular_values,
    )
    if gamma0 is None or not null.dimension:
        return summary, empty
    return summary, _graded_spectrum(*_kernel_forms(system, gamma0))


def exact_kernel(a, gamma0=None, rank_tol=DEFAULT_RANK_TOL, extra_padding=0):
    """Kernel of a banded anisotropic operator on the doubly infinite lattice.

    Candidate solutions combine a left-decaying germ, explicit bulk
    values and a right-decaying germ; the returned dimension is the
    null-space dimension of the finite matching system.  With ``gamma0``
    given, the graded signature is the inertia of gamma0's form against
    the Gram matrix of the kernel vectors, their geometric tails summed
    in closed form, and ``signature_margin`` says how close it came to
    flipping.  No explicit basis is returned (see ``kernel_vectors``).
    ``extra_padding`` widens the matching window; the result must not
    depend on it.  A transfer eigenvalue of either end within
    CIRCLE_MARGIN of the unit circle raises NotFredholmError.
    """
    summary, spectrum = _graded_kernel(a, gamma0, rank_tol, extra_padding)
    if gamma0 is not None:
        summary.graded_signature, summary.signature_margin = _signature_and_margin(spectrum)
    return summary


def kernel_vectors(a):
    """Explicit kernel vectors on a finite site window, for diagnostics.

    Needs band radius >= 1.  Each tail runs until the norm of its germ
    step power falls below 1e-10, so the cost grows as the gap closes.
    The columns are orthonormalised with the Cholesky factor of the
    closed-form lattice Gram matrix, so they are orthonormal up to the
    cut tails.  Returns (basis of shape (sites * d, dim), (lo, hi)); an
    empty kernel keeps the matching window.
    """
    import scipy.linalg

    system = _matching_system(a, DEFAULT_RANK_TOL, 0)
    dim, d = system.null.dimension, a.fiber_dim
    lo, hi = system.y0, system.y1
    if dim == 0:
        return np.zeros(((hi - lo + 1) * d, 0), complex), (lo, hi)
    lo -= _decay_length(system.germ_left.step, 1e-10)
    hi += _decay_length(system.germ_right.step, 1e-10)
    gram, _ = _kernel_forms(system, ops.identity(d))
    chol = np.linalg.cholesky(_hermitian(gram))
    vectors = system.values(lo, hi).reshape(-1, dim)
    basis = scipy.linalg.solve_triangular(chol, vectors.conj().T, lower=True).conj().T
    return basis, (lo, hi)


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


def exact_index(a, rank_tol=DEFAULT_RANK_TOL):
    """Kernel-counting index of a Fredholm banded operator, tau-normalized by d."""
    ker = exact_kernel(a, rank_tol=rank_tol)
    coker = exact_kernel(a.adjoint(), rank_tol=rank_tol)
    return ExactIndexResult(
        dim_ker=ker.dimension, dim_ker_adjoint=coker.dimension, fiber_dim=a.fiber_dim
    )
