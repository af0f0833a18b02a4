"""Winding numbers of symbol loops and the double-sided index check.

Every winding is a root count: the winding of det F(z) around the unit
circle is the number of roots of det F inside the unit disk plus its
order at z = 0, from the Laurent coefficients of the determinant, with
no phase grid.  It is the one count rule of ``transfer._count``, which
also fixes the germ dimensions of the exact kernels, so a banded report
solves its limit determinants once.  A winding set interpolates its
determinants by one stacked det and FFT per interpolation size and finds
their roots in one stacked solve, bitwise equal to per-loop work and
np.roots.  A root whose transfer eigenvalue 1/z lies within
CIRCLE_MARGIN of the circle, the band in which the transfer oracle
refuses, raises NotFredholmError; otherwise the smallest ||z| - 1| over
the roots is the winding's decision margin.  A chiral branch counts the
roots of the imaginary part of a chiral symbol compressed between the
graded halves of one grading (``chiral_imaginary_block_symbol``), a
scalar loop whose determinant is itself, against kernels gated by the
pair's certified gaps (``certified_kernels``).

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
from .essential import certify_unitary
from .exceptions import ChiralwalkError, NotFredholmError, PreconditionError, check_residual
from .indices import DEFAULT_RANK_TOL
from .transfer import _count, _counts, _loop_roots, exact_index, exact_kernel
from .walks import CHIRAL_TOL


@dataclass
class WindingResult:
    rounded: int
    root_margin: float | None   # min ||z| - 1| over the roots of det; None without roots

    def to_dict(self):
        return {"rounded": self.rounded, "root_margin": self.root_margin}


def _windings(found):
    """``winding_det`` of each determinant's (roots, order at 0) in turn (``_loop_roots``);
    a failed item (an exception, a vanishing det, a root in the margin) raises in its turn."""
    for item in found:
        (count,) = _counts([item], lambda z: "symbol determinant has a root within margin of "
                                             f"the unit circle (|z| = {z:.8f})")
        yield WindingResult(count.winding, count.margin)


def winding_det(loop):
    """Winding number of det(loop): roots inside the unit disk plus the order at 0."""
    return next(_windings(_loop_roots([loop])))


# --- compressed chiral blocks ------------------------------------------------


def _sandwich(coeffs, n):
    """D(z)^* A(z) D(z), D(z) = diag(1, z^n), for 2 x 2 A: entry (i, j) at offset m
    moves to m + n (j - i).  Offsets come in the order of the Laurent product
    (D^* A) D, zeros dropped at each factor, so the loop sums in that order.
    Entries move as Python complex numbers, in and out as nested lists (or
    arrays in): each is copied, never summed."""
    rows, out = {}, {}
    for i, shift in enumerate((0, -n)):
        for m, c in coeffs.items():
            rows.setdefault(m + shift, [[0j, 0j], [0j, 0j]])[i] = list(c[i])
    for m, c in ((m, c) for m, c in rows.items() if any(c[0]) or any(c[1])):
        for j, shift in enumerate((0, n)):
            mat = out.setdefault(m + shift, [[0j, 0j], [0j, 0j]])
            mat[0][j], mat[1][j] = c[0][j], c[1][j]
    return {m: c for m, c in out.items() if any(c[0]) or any(c[1])}


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
    Returns (n, [(k, v) for +1, then -1]).
    """
    loop = grading.symbol_at(side)
    if loop.fiber_dim != 2 or not loop.coefficients:
        raise PreconditionError("root-count windings need a nonzero grading on C^2")
    n = max(loop.coefficients)
    g = sum(loop.coefficients.values())
    evals, vecs = np.linalg.eigh(g)
    (g00, g01), (g10, g11) = rows = g.tolist()
    zero = [[0j, 0j], [0j, 0j]]
    factored = {0: [[g00, 0j], [0j, g11]]}   # D G D^*: g01 moves to z^-n, g10 to z^n
    factored.setdefault(-n, [[0j, 0j], [0j, 0j]])[0][1] = g01
    factored.setdefault(n, [[0j, 0j], [0j, 0j]])[1][0] = g10
    residuals = [rows[i][j] - rows[j][i].conjugate() for i in (0, 1) for j in (0, 1)]
    for m in set(factored) | set(loop.coefficients):
        coeff = loop.coefficients[m].tolist() if m in loop.coefficients else zero
        residuals += [x - y for got, want in zip(factored.get(m, zero), coeff)
                      for x, y in zip(got, want)]
    residuals += [e - s for e, s in zip(evals.tolist(), (-1.0, 1.0))]
    check_residual(residuals, CHIRAL_TOL,
                   f"{side} grading symbol is not D(z) G D(z)^* with G a self-adjoint unitary "
                   "of signature 0 (deviation %.3e)")
    k_plus = int(np.ceil(n * abs(vecs[1, 1]) ** 2 - 0.5 - CHIRAL_TOL))
    return n, [(k_plus, vecs[:, 1]), (n - k_plus, vecs[:, 0])]


def chiral_imaginary_block_symbol(pair, grading, side):
    """Im(u) between the -1 and +1 frames of ``grading``: a scalar Laurent loop.

    With e_+- = z^(-k_+-) D v_+- this is z^(k_- - k_+) v_-^* D^* Im(u) D v_+,
    Im(u)(z) = (u(z) - u(z)^*) / 2i; it vanishes on the circle exactly
    where u(z) has an eigenvalue +-1.
    """
    n, ((k_plus, v_plus), (k_minus, v_minus)) = _closed_frames(grading, side)
    u = {m: c.tolist() for m, c in pair.u.symbol_at(side).coefficients.items()}
    im = {}   # u^*'s coefficient at m is the conjugate transpose of u's at -m
    for m in set(u) | {-k for k in u}:
        a, b = u.get(m), u.get(-m)
        c = [[((a[i][j] if a else 0) - (b[j][i].conjugate() if b else 0)) / 2j for j in (0, 1)]
             for i in (0, 1)]
        if any(c[0]) or any(c[1]):
            im[m] = c
    row = v_minus.conj()
    return ops.SymbolLoop._derived(
        1, {m + k_minus - k_plus: (row @ np.array(c) @ v_plus).reshape(1, 1)
            for m, c in (_sandwich(im, n) if n else im).items()})


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

    def to_dict(self):
        return {
            "name": self.name,
            "lhs_index": self.lhs_index,
            "winding_left": self.winding_left,
            "winding_right": self.winding_right,
            "rhs_index": self.rhs_index,
            "lhs_tau_normalized": str(Fraction(self.lhs_index, self.fiber_dim)),
            "rhs_tau_normalized": str(Fraction(self.rhs_index, self.fiber_dim)),
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


def _banded_theorem(f_op, rank_tol):
    """({side: transfer._Count} of the limit determinants, then the theorem's record or
    the ChiralwalkError that withheld it).  One root solve of the two limits serves the
    counts, the kernel of ``f_op`` and both windings; the adjoint's kernel solves its own."""
    roots = _loop_roots([f_op.symbol_at(side) for side in (ops.LEFT, ops.RIGHT)])
    counts = dict(zip((ops.LEFT, ops.RIGHT), (_count(*item) for item in roots)))
    try:
        result = exact_index(f_op, rank_tol=rank_tol, roots=roots)
        left, right = (w.rounded for w in _windings(roots))
    except ChiralwalkError as exc:
        return counts, exc
    record = IndexTheoremRecord([IndexTheoremBranch("banded", result.index, left, right,
                                                    f_op.fiber_dim)])
    record.index_result = result
    return counts, record


def verify_index_theorem_banded(f_op, *, rank_tol=DEFAULT_RANK_TOL):
    """Kernel-count index of a banded operator against its winding difference.

    The record keeps the index as ``index_result``; its one branch holds
    the two determinant windings.
    """
    _, record = _banded_theorem(f_op, rank_tol)
    if isinstance(record, Exception):
        raise record
    return record


def certified_kernels(pair, certs, rank_tol=DEFAULT_RANK_TOL):
    """[kernel of U + 1, kernel of U - 1] of a chiral pair, each graded by Gamma0 and gated
    by the roots of its certified gap in ``certs`` (``certify_unitary`` of the pair), or in
    its place the ChiralwalkError that withholds it: an uncertified gap, or a refusal of the
    kernel itself."""
    one = ops.identity(pair.u.fiber_dim)
    kernels = []
    for target, gap in ((-1, certs.gap_minus), (1, certs.gap_plus)):
        try:
            if not gap.certified:
                raise NotFredholmError(f"gap_at({target:+d}) {gap.status}")
            kernels.append(exact_kernel(pair.u + one.scaled(-target), pair.gamma0, rank_tol,
                                        roots=gap.roots))
        except ChiralwalkError as exc:  # or e.g. a kernel that Gamma0 does not preserve
            kernels.append(exc)
    return kernels


def verify_index_theorem_chiral(pair, rank_tol=DEFAULT_RANK_TOL, kernels=None):
    """Compare the graded signatures of a chiral pair with root-count windings.

    The kernel side comes from the transfer oracle: the Gamma0-graded
    signatures si_plus of Ker(U - 1) and si_minus of Ker(U + 1).  Both
    gradings satisfy G U G = U*, and Gamma1 equals Gamma0 on Ker(U - 1)
    and -Gamma0 on Ker(U + 1), so each grading has its own symbol
    formula and together they fix both summands:

        gamma1_graded:    si_minus - si_plus    = W1,
        imaginary_block:  -(si_plus + si_minus) = W0,

    with W the right-minus-left winding of Im(u) compressed between the
    grading's -1 and +1 frames (``chiral_imaginary_block_symbol``), each
    side counted by ``winding_det``.  Only gradings
    of the split-step form are accepted; see ``_closed_frames``.
    ``kernels`` optionally passes the ``certified_kernels`` of the pair,
    already computed with the same ``rank_tol``, so that they are not
    computed again; without them the pair is certified here.  The first
    kernel withheld is raised.
    """
    if kernels is None:
        kernels = certified_kernels(pair, certify_unitary(pair), rank_tol)
    for ker in kernels:
        if isinstance(ker, Exception):
            raise ker
    ker_minus, ker_plus = kernels
    si_minus = ker_minus.graded_signature
    si_plus = ker_plus.graded_signature

    gradings = (("gamma1_graded", pair.gamma1, si_minus - si_plus),
                ("imaginary_block", pair.gamma0, -(si_plus + si_minus)))
    blocks = []
    for _, grading, _ in gradings:
        for side in (ops.LEFT, ops.RIGHT):
            try:
                blocks.append(chiral_imaginary_block_symbol(pair, grading, side))
            except ChiralwalkError as exc:   # raised in its turn by _windings
                blocks.append(exc)
    windings = _windings(_loop_roots(blocks))
    branches = []
    for name, _, lhs in gradings:
        left, right = next(windings), next(windings)
        margins = [w.root_margin for w in (left, right) if w.root_margin is not None]
        branches.append(RootCountBranch(
            name=name, lhs_index=lhs, winding_left=left.rounded, winding_right=right.rounded,
            fiber_dim=pair.u.fiber_dim, root_margin=min(margins, default=None)))
    record = IndexTheoremRecord(branches=branches)
    record.si_plus = si_plus
    record.si_minus = si_minus
    record.si_total = si_plus + si_minus
    record.dim_ker_u_plus_one = ker_minus.dimension
    record.dim_ker_u_minus_one = ker_plus.dimension
    return record
