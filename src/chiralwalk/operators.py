"""Banded lattice operators with two-sided limits and their circle symbols.

An operator acts on square-summable sequences psi: Z -> C^d by

    (A psi)(x) = sum_n  A_n(x) psi(x - n),

where the band offset n runs over a finite set and each coefficient
A_n is a d x d matrix-valued function of the site that is exactly equal
to a fixed left matrix far to the left and a fixed right matrix far to
the right.  The forward shift S, (S psi)(x) = psi(x - 1), is the band
n = 1 with coefficient 1; its symbol is z.  Evaluating every band at
its left (right) limit yields the matrix Laurent loop

    F(z) = sum_n A_n(+-inf) z^n,   |z| = 1,

which is multiplicative under operator composition.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ChiralwalkError, DimensionMismatchError

LEFT = "left"
RIGHT = "right"

_SIDES = (LEFT, RIGHT)


def _check_side(side):
    if side not in _SIDES:
        raise ChiralwalkError(f"side must be 'left' or 'right', got {side!r}")


def _as_matrix(value, d):
    m = np.asarray(value, dtype=complex)
    if m.shape != (d, d):
        raise DimensionMismatchError(f"expected a {d}x{d} matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ChiralwalkError("matrix entries must be finite")
    m = m.copy()
    m.setflags(write=False)
    return m


class CoefficientFunction:
    """Site-dependent d x d coefficient, exactly constant outside a finite window.

    Values: ``left`` for x < window_start, ``right`` for
    x >= window_start + len(values), the stored table in between.
    Instances are immutable.
    """

    def __init__(self, left, right, window_start=0, values=None):
        left = np.asarray(left, dtype=complex)
        if left.ndim == 0:
            left = left.reshape(1, 1)
        d = left.shape[0]
        self.dim = d
        self.left = _as_matrix(left, d)
        self.right = _as_matrix(right if right is not None else left, d)
        self.window_start = int(window_start)
        if values is None:
            vals = np.zeros((0, d, d), dtype=complex)
        else:
            vals = np.asarray(values, dtype=complex).reshape(-1, d, d)
        if not np.all(np.isfinite(vals)):
            raise ChiralwalkError("bulk values must be finite")
        self.values = vals.copy()
        self.values.setflags(write=False)
        self._trim()

    @classmethod
    def _derived(cls, left, right, window_start, values):
        """A coefficient from complex arrays (left, right (d, d); values
        (n, d, d)) that are validated or computed from validated ones, so
        not validated again."""
        f = cls.__new__(cls)
        f.dim = left.shape[0]
        f.left, f.right, f.values = (np.ascontiguousarray(m) for m in (left, right, values))
        f.window_start = int(window_start)
        for m in (f.left, f.right, f.values):
            m.setflags(write=False)
        f._trim()
        return f

    def _trim(self):
        # canonical form: drop window rows equal to the adjacent limit, found by one comparison
        vals, limits = self.values, (self.left, self.right)
        same = (vals[:, None] == limits).all(axis=(2, 3)).tolist() if vals.size else []
        lo, hi = 0, len(same)
        while lo < hi and same[lo][0]:
            lo += 1
        while hi > lo and same[hi - 1][1]:
            hi -= 1
        if lo > 0 or hi < vals.shape[0]:
            self.values = vals[lo:hi].copy()
            self.values.setflags(write=False)
            self.window_start += lo

    @classmethod
    def constant(cls, matrix):
        return cls(matrix, matrix)

    @classmethod
    def step(cls, left, right, split=0):
        """left for x < split, right for x >= split."""
        return cls(left, right, window_start=split)

    @classmethod
    def from_table(cls, left, right, table):
        """Build from a sparse {site: matrix} table.

        Untabulated sites take the left limit for x < 0 and the right
        limit for x >= 0.
        """
        left = np.atleast_2d(np.asarray(left, dtype=complex))
        right = np.atleast_2d(np.asarray(right, dtype=complex))
        d = left.shape[0]
        entries = {int(x): np.atleast_2d(np.asarray(v, dtype=complex)) for x, v in table.items()}
        if len(entries) != len(table):
            raise ChiralwalkError("bulk sites must be strictly increasing")
        if not entries:
            return cls(left, right)
        lo, hi = min(entries), max(entries)
        vals = np.empty((hi - lo + 1, d, d), dtype=complex)
        for x in range(lo, hi + 1):
            if x in entries:
                vals[x - lo] = entries[x]
            else:
                vals[x - lo] = left if x < 0 else right
        return cls(left, right, window_start=lo, values=vals)

    @property
    def window_end(self):
        """First site at which the right limit holds."""
        return self.window_start + self.values.shape[0]

    def value_at(self, x):
        x = int(x)
        if x < self.window_start:
            return self.left
        if x >= self.window_end:
            return self.right
        return self.values[x - self.window_start]

    def values_on(self, lo, hi):
        """Stacked values on the inclusive site range [lo, hi]."""
        n = max(hi - lo + 1, 0)
        a = min(max(self.window_start - lo, 0), n)   # rows [0, a) at the left limit
        b = min(max(self.window_end - lo, a), n)     # rows [b, n) at the right limit
        out = np.empty((n, self.dim, self.dim), dtype=complex)
        out[:a], out[b:] = self.left, self.right
        out[a:b] = self.values[lo + a - self.window_start : lo + b - self.window_start]
        return out

    def is_constant(self):
        return self.values.shape[0] == 0 and np.array_equal(self.left, self.right)

    def is_zero(self):
        return (
            not self.left.any()
            and not self.right.any()
            and not self.values.any()
        )

    def shifted(self, n):
        """The function x -> f(x - n)."""
        return self._derived(self.left, self.right, self.window_start + n, self.values)

    def conj_transposed(self):
        return self._derived(
            self.left.conj().T,
            self.right.conj().T,
            self.window_start,
            np.conj(np.transpose(self.values, (0, 2, 1))),
        )

    def _aligned(self, other):
        lo = min(self.window_start, other.window_start)
        hi = max(self.window_end, other.window_end)
        a = self.values_on(lo, hi - 1) if hi > lo else np.zeros((0, self.dim, self.dim), complex)
        b = other.values_on(lo, hi - 1) if hi > lo else np.zeros((0, self.dim, self.dim), complex)
        return lo, a, b

    def __add__(self, other):
        if not isinstance(other, CoefficientFunction):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatchError("coefficient dimensions differ")
        lo, a, b = self._aligned(other)
        return self._derived(self.left + other.left, self.right + other.right, lo, a + b)

    def product(self, other):
        """Pointwise matrix product x -> f(x) g(x)."""
        if self.dim != other.dim:
            raise DimensionMismatchError("coefficient dimensions differ")
        lo, a, b = self._aligned(other)
        return self._derived(self.left @ other.left, self.right @ other.right, lo, a @ b)

    def scaled(self, c):
        c = complex(c)
        if not np.isfinite(c):
            raise ChiralwalkError("scale factor must be finite")
        return self._derived(c * self.left, c * self.right, self.window_start, c * self.values)

    def sup_abs(self):
        s = max(np.abs(self.left).max(), np.abs(self.right).max())
        if self.values.size:
            s = max(s, np.abs(self.values).max())
        return s

    def __eq__(self, other):
        if not isinstance(other, CoefficientFunction):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.left, other.left)
            and np.array_equal(self.right, other.right)
            and self.window_start == other.window_start
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return (
            f"CoefficientFunction(d={self.dim}, window=[{self.window_start},"
            f"{self.window_end}), table={self.values.shape[0]})"
        )


class SymbolLoop:
    """Matrix Laurent polynomial F(z) = sum_n A_n z^n on the unit circle."""

    def __init__(self, fiber_dim, coefficients):
        self.fiber_dim = int(fiber_dim)
        self.coefficients = {}
        for n, mat in coefficients.items():
            m = _as_matrix(np.atleast_2d(np.asarray(mat, dtype=complex)), self.fiber_dim)
            if m.any():
                self.coefficients[int(n)] = m

    @classmethod
    def _derived(cls, fiber_dim, coefficients):
        """A loop from (d, d) complex arrays that are validated or computed
        from validated ones, so not validated again; zeros are dropped."""
        loop = cls.__new__(cls)
        loop.fiber_dim = fiber_dim
        loop.coefficients = {n: m for n, m in coefficients.items() if np.count_nonzero(m)}
        for m in loop.coefficients.values():
            m.setflags(write=False)
        return loop

    def offsets(self):
        return sorted(self.coefficients)

    def __call__(self, z):
        """Evaluate at a point or an array of points on the circle.

        Returns (d, d) for scalar z, (N, d, d) for a length-N array.
        """
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        zs = z.reshape(-1)
        d = self.fiber_dim
        out = np.zeros((zs.size, d, d), dtype=complex)
        for n, mat in self.coefficients.items():
            out += (zs**n)[:, None, None] * mat
        return out[0] if scalar else out

    def derivative(self):
        """Exact Laurent derivative sum_n n A_n z^(n-1)."""
        return SymbolLoop._derived(
            self.fiber_dim,
            {n - 1: n * mat for n, mat in self.coefficients.items() if n != 0},
        )

    def hermitian_conjugate(self):
        """The loop z -> F(z)^* (adjoint symbol on the circle)."""
        return SymbolLoop._derived(
            self.fiber_dim,
            {-n: mat.conj().T for n, mat in self.coefficients.items()},
        )

    def __mul__(self, other):
        if not isinstance(other, SymbolLoop):
            return NotImplemented
        if self.fiber_dim != other.fiber_dim:
            raise DimensionMismatchError("fiber dimensions differ")
        out = {}
        for n, a in self.coefficients.items():
            for m, b in other.coefficients.items():
                k = n + m
                out[k] = out[k] + a @ b if k in out else a @ b
        return SymbolLoop._derived(self.fiber_dim, out)

    def __repr__(self):
        return f"SymbolLoop(d={self.fiber_dim}, offsets={self.offsets()})"


def circle_grid(grid_n):
    """z_k = exp(2 pi i k / N), k = 0..N-1."""
    theta = 2.0 * np.pi * np.arange(int(grid_n)) / int(grid_n)
    return np.exp(1j * theta)


class BandedAnisotropicOperator:
    """Finite-band operator whose coefficients have exact limits at both ends."""

    def __init__(self, fiber_dim, bands):
        self.fiber_dim = int(fiber_dim)
        self.bands = {}
        for n, f in bands.items():
            if not isinstance(f, CoefficientFunction):
                f = CoefficientFunction.constant(np.atleast_2d(np.asarray(f, dtype=complex)))
            if f.dim != self.fiber_dim:
                raise DimensionMismatchError(
                    f"band {n} has fiber dimension {f.dim}, expected {self.fiber_dim}"
                )
            if not f.is_zero():
                self.bands[int(n)] = f

    @property
    def band_radius(self):
        return max((abs(n) for n in self.bands), default=0)

    def coefficient(self, n):
        f = self.bands.get(int(n))
        if f is None:
            z = np.zeros((self.fiber_dim, self.fiber_dim))
            return CoefficientFunction.constant(z)
        return f

    def bulk_window(self):
        """Smallest site interval [lo, hi) outside which every band is at its limits.

        Returns (0, 0) when all bands are constant.
        """
        starts = [f.window_start for f in self.bands.values() if not f.is_constant()]
        ends = [f.window_end for f in self.bands.values() if not f.is_constant()]
        if not starts:
            return (0, 0)
        return (min(starts), max(ends))

    def is_translation_invariant(self):
        return all(f.is_constant() for f in self.bands.values())

    def entry_sup(self):
        """Largest absolute coefficient entry over all bands, limits included."""
        return max((f.sup_abs() for f in self.bands.values()), default=0.0)

    def symbol_at(self, side):
        _check_side(side)
        pick = (lambda f: f.left) if side == LEFT else (lambda f: f.right)
        return SymbolLoop._derived(self.fiber_dim, {n: pick(f) for n, f in self.bands.items()})

    def truncate(self, L):
        """Compression to the window [-L, L]; see TruncatedOperator."""
        return TruncatedOperator(self, L)

    def dense_block(self, lo, hi):
        """Dense compression to the sites lo..hi-1, fiber index fastest.

        Row x holds A_n(x) in column x - n; entries whose column falls
        outside the window are dropped.
        """
        d, n_sites = self.fiber_dim, hi - lo
        out = np.zeros((n_sites, d, n_sites, d), dtype=complex)
        for n, f in self.bands.items():
            rows = np.arange(max(0, n), min(n_sites, n_sites + n))
            if rows.size:
                out[rows, :, rows - n, :] = f.values_on(lo + rows[0], lo + rows[-1])
        return out.reshape(n_sites * d, n_sites * d)

    # --- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BandedAnisotropicOperator):
            return NotImplemented
        if self.fiber_dim != other.fiber_dim:
            raise DimensionMismatchError("fiber dimensions differ")
        out = dict(self.bands)
        for n, f in other.bands.items():
            out[n] = out[n] + f if n in out else f
        return BandedAnisotropicOperator(self.fiber_dim, out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        return BandedAnisotropicOperator(
            self.fiber_dim, {n: f.scaled(c) for n, f in self.bands.items()}
        )

    def __matmul__(self, other):
        if not isinstance(other, BandedAnisotropicOperator):
            return NotImplemented
        if self.fiber_dim != other.fiber_dim:
            raise DimensionMismatchError("fiber dimensions differ")
        out = {}
        for n, fa in self.bands.items():
            for m, fb in other.bands.items():
                k = n + m
                term = fa.product(fb.shifted(n))
                out[k] = out[k] + term if k in out else term
        return BandedAnisotropicOperator(self.fiber_dim, out)

    def adjoint(self):
        out = {}
        for n, f in self.bands.items():
            out[-n] = f.shifted(-n).conj_transposed()
        return BandedAnisotropicOperator(self.fiber_dim, out)

    def __repr__(self):
        return (
            f"BandedAnisotropicOperator(d={self.fiber_dim}, "
            f"offsets={sorted(self.bands)}, bulk={self.bulk_window()})"
        )


class TruncatedOperator:
    """Dense compression P_L A P_L on sites -L..L, fiber index fastest."""

    def __init__(self, op, L):
        L = int(L)
        if L < op.band_radius:
            raise ChiralwalkError(
                f"window half-width {L} is smaller than the band radius {op.band_radius}"
            )
        self.window_halfwidth = L
        self.fiber_dim = op.fiber_dim
        self.matrix = op.dense_block(-L, L + 1)
        lo, hi = op.bulk_window()
        r = op.band_radius
        # bulk structure should sit clear of the compressed edges
        self.warn_bulk_clipped = not (lo == hi == 0) and (lo < -L + r or hi > L - r + 1)

    @property
    def size(self):
        return self.matrix.shape[0]


# --- constructors ------------------------------------------------------------


def identity(d):
    return BandedAnisotropicOperator(d, {0: CoefficientFunction.constant(np.eye(d))})


def shift_power(k, d):
    """S^k tensor 1_d; symbol z^k at both ends."""
    return BandedAnisotropicOperator(d, {int(k): CoefficientFunction.constant(np.eye(d))})


def mult_op(f):
    """Multiplication operator by the matrix-valued function f."""
    return BandedAnisotropicOperator(f.dim, {0: f})
