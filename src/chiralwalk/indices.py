"""Finite-dimensional index computations for chiral unitaries.

Every operation works on dense complex matrices.  Every kernel
dimension, here and in ``transfer``, is decided by one rank rule
(``_rank``): on the spectrum of an SVD (the full SVD where the basis is
needed, singular values alone, batched, where only the dimension is),
or, for a matrix Hermitian by construction, on |lambda(h) - s|, the
singular values of h - s (``_hermitian_kernel``): Tanaka's Re U blocks
at +-1, the symmetrised Cayley matrices, Ker H and the traces of P0 - P1.
Graded quantities are signatures of the chiral symmetry compressed to a
kernel, with eigenvalues required to sit near +-1 (an eigenvalue inside
(-1/2, 1/2) signals a rank misclassification and raises instead of
silently averaging).  Each rank, mask and signature is decided on one
finite spectrum of 2-40 entries as a Python list: a numpy reduction on
it would cost more than the decision.

U - 1 and U + 1 are factored once per call, by one stacked full SVD
(``_unit_svd``): its right singular vectors give the kernels behind
si+-, its left singular vectors the ranges on which the Cayley
transforms of U and -U are taken.  Gamma0 is checked and factored once
too, by one ``eigh``: U is rotated once into its frame [V_plus,
V_minus], whose blocks give Tanaka's Re U blocks and SUSY's Q_plus, and
the pair index's projection intersections are ranked on the frames of
Ran P0 and Ker P0 (``_intersection_dims``).  Every relation check decides by
the package's one residual rule, ``exceptions.check_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import PreconditionError, check_residual, overflow_as_nan
from .walks import build_generator_walk

DEFAULT_RANK_TOL = 1e-8
_RANK_FLOOR = 1e-12        # absolute floor: a numerically-zero matrix stays all kernel
RELATION_TOL = 1e-10
SIGNATURE_GAP = 0.5


def _as_complex(m):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise PreconditionError("expected a 2d matrix")
    if not np.all(np.isfinite(a)):
        raise PreconditionError("matrix entries must be finite")
    return a


def check_unitary(u, tol=RELATION_TOL, name="U"):
    u = _as_complex(u)
    with overflow_as_nan():
        defect = u.conj().T @ u - np.eye(u.shape[0])
    check_residual(defect, tol, f"{name} deviates from unitarity by %.3e")
    return u


def check_selfadjoint_unitary(g, tol=RELATION_TOL, name="Gamma0"):
    g = check_unitary(g, tol, name)
    check_residual(g - g.conj().T, tol, f"{name} deviates from self-adjointness by %.3e")
    return g


def check_chiral_relation(u, gamma0, tol=RELATION_TOL):
    with overflow_as_nan():
        defect = gamma0 @ u @ gamma0 - u.conj().T
    check_residual(defect, tol, "chiral relation G0 U G0 = U* fails by %.3e")


def _checked_chiral(u, gamma0, tol):
    """(U, Gamma0), checked as a unitary, a self-adjoint unitary and a chiral pair."""
    u, g = check_unitary(u, tol), check_selfadjoint_unitary(gamma0, tol)
    check_chiral_relation(u, g, tol)
    return u, g


def check_factorization(u, gamma0, gamma1, tol=RELATION_TOL):
    with overflow_as_nan():
        defect = gamma0 @ gamma1 - u
    check_residual(defect, tol, "factorization U = G0 G1 fails by %.3e")


def check_projection(p, tol=RELATION_TOL, name="P"):
    p = _as_complex(p)
    with overflow_as_nan():
        defects = [p - p.conj().T, p @ p - p]
    check_residual(defects, tol,
                   f"{name} deviates from an orthogonal projection by %.3e")
    return p


@dataclass
class KernelSummary:
    """Orthonormal kernel basis with its decision margins and optional graded signature;
    ``to_dict`` holds the margins alone, as a report states the dimension and signature
    as indices."""

    dimension: int
    basis: np.ndarray | None             # columns orthonormal; None from the lattice oracle
    rank_margin: float | None = None     # factor the threshold must move by to flip dimension
    graded_signature: int | None = None
    signature_margin: float | None = None  # min |compressed eigenvalue| - SIGNATURE_GAP

    def to_dict(self):
        return {"rank_margin": self.rank_margin, "signature_margin": self.signature_margin}


def _rank(values, rank_tol, scale=None):
    """(zero mask, threshold) of one spectrum's nonnegative values, a list: singular
    values, or the |lambda - s| of a Hermitian h.  Values below rank_tol * scale (scale
    the largest value, 0.0 without any, unless given), and below _RANK_FLOOR always,
    count as zero.  The package's one rank rule."""
    threshold = max(rank_tol * (max(values, default=0.0) if scale is None else scale), _RANK_FLOOR)
    return [x < threshold for x in values], threshold


def _kernel_summary(svals, vh, rank_tol):
    """KernelSummary from a full SVD (singular values, V^H) under ``_rank``;
    a wide matrix keeps its implicit zero singular values, a 0 x 0 one has none.
    The rank margin is the least of x / t over the values x kept and t / x over
    the nonzero values counted as zero, t the threshold: an exact zero cannot flip."""
    padded = svals.tolist() + [0.0] * (vh.shape[0] - svals.size)
    mask, threshold = _rank(padded, rank_tol)
    basis = vh.conj().T[:, mask]
    ratios = [threshold / x if zero else x / threshold for x, zero in zip(padded, mask) if x]
    return KernelSummary(int(basis.shape[1]), basis, min(ratios, default=None))


def kernel_basis(matrix, rank_tol=DEFAULT_RANK_TOL):
    """Orthonormal basis of the numerical null space of ``matrix``: the right singular
    vectors whose singular values ``_rank`` counts as zero."""
    m = _as_complex(matrix)
    rows, cols = m.shape
    if cols == 0 or rows == 0:
        return KernelSummary(cols, np.eye(cols, dtype=complex))
    _, svals, vh = np.linalg.svd(m, full_matrices=True)
    return _kernel_summary(svals, vh, rank_tol)


def _kernel_dims(matrices, rank_tol, scale=None):
    """``kernel_basis(m, rank_tol).dimension`` for one matrix or each of a same-shaped stack.

    Singular values alone, in one call, each matrix's ranked by ``_rank`` (relative
    to ``scale`` if given): a wide matrix keeps its implicit zero singular values.
    Python ints out.
    """
    m = np.asarray(matrices, dtype=complex)
    rows, cols = m.shape[-2:]
    if rows == 0 or cols == 0:
        return np.full(m.shape[:-2], cols).tolist()
    stack = np.linalg.svd(m, compute_uv=False).reshape(-1, min(rows, cols)).tolist()
    dims = [sum(_rank(s + [0.0] * (cols - len(s)), rank_tol, scale)[0]) for s in stack]
    return dims if m.ndim > 2 else dims[0]


def _hermitian_kernel(evals, shift, rank_tol):
    """Kernel mask of h - s, a list of bools, from the eigenvalues of a Hermitian h:
    its singular values are |evals - s|, ranked by ``_rank`` as ``kernel_basis`` ranks h - s."""
    return _rank([abs(x - shift) for x in evals.tolist()], rank_tol)[0]


def _signature_and_margin(evals):
    """Signature of compressed gamma0 eigenvalues and its decision margin.

    Both are read off the finite eigenvalues as one list: #(> SIGNATURE_GAP)
    - #(< -SIGNATURE_GAP), and min |eigenvalue| - SIGNATURE_GAP (None
    without eigenvalues).  The compression of a self-adjoint unitary to
    an invariant subspace has eigenvalues at +-1; one inside
    (-SIGNATURE_GAP, SIGNATURE_GAP) means the subspace is not
    gamma0-invariant at this tolerance.
    """
    values = evals.tolist()
    nearest = min(values, key=abs, default=None)
    if nearest is not None and abs(nearest) < SIGNATURE_GAP:
        raise PreconditionError(
            f"kernel not Gamma0-invariant within tolerance: compressed eigenvalue {nearest:.3f} "
            "inside (-1/2, 1/2); rank tolerance likely misclassified a singular value")
    signature = sum((x > SIGNATURE_GAP) - (x < -SIGNATURE_GAP) for x in values)
    return signature, None if nearest is None else abs(nearest) - SIGNATURE_GAP


def _graded_signature(basis, g):
    """``graded_signature`` with g a checked gamma0."""
    if basis.shape[1] == 0:
        return 0
    compressed = basis.conj().T @ g @ basis
    evals = np.linalg.eigvalsh(0.5 * (compressed + compressed.conj().T))
    return _signature_and_margin(evals)[0]


def graded_signature(basis, gamma0):
    """Signature of gamma0 compressed to the span of the given orthonormal columns."""
    return _graded_signature(basis, _as_complex(gamma0))


def _grading_frames(g, split=0.0):
    """Orthonormal bases (V_plus, V_minus) of the eigenspaces of a checked gamma0
    above and below 0, or of a checked projection above and below 1/2 (Ran, Ker)."""
    evals, vecs = np.linalg.eigh(g)
    return vecs[:, evals > split], vecs[:, evals < split]


def _in_frame(u, frames):
    """(V^H U V, p) in the gamma0 frame V = [V_plus, V_minus]: the leading p =
    V_plus.shape[1] rows and columns belong to Ran V_plus."""
    v = np.hstack(frames)
    return v.conj().T @ u @ v, frames[0].shape[1]


def _unit_svd(u):
    """Full SVD (W, singular values, V^H) of the stack [U - 1, U + 1]: V^H gives
    the kernels of U -+ 1 (si+-), W their ranges (the Cayley indices)."""
    eye = np.eye(u.shape[0])
    return np.linalg.svd(np.stack([u - eye, u + eye]))


def _unit_kernels(svd, g, rank_tol):
    """Graded KernelSummaries of U - 1 and U + 1 from ``_unit_svd``; g is a checked gamma0."""
    kernels = [_kernel_summary(svals, vh, rank_tol) for svals, vh in zip(svd[1], svd[2])]
    for ker in kernels:
        ker.graded_signature = _graded_signature(ker.basis, g)
    return kernels


def symmetry_index_pm(u, gamma0, rank_tol=DEFAULT_RANK_TOL, tol=RELATION_TOL):
    """(si_plus, si_minus): graded signatures of Ker(U -+ 1)."""
    u, g = _checked_chiral(u, gamma0, tol)
    ker_plus, ker_minus = _unit_kernels(_unit_svd(u), g, rank_tol)
    return ker_plus.graded_signature, ker_minus.graded_signature


def chiral_selfadjoint_index(q, gamma0, rank_tol=DEFAULT_RANK_TOL, tol=RELATION_TOL):
    """Graded signature of Ker(Q) for self-adjoint Q anticommuting with gamma0."""
    q = _as_complex(q)
    g = check_selfadjoint_unitary(gamma0, tol)
    with overflow_as_nan():
        adjoint, anticommutator = q - q.conj().T, g @ q + q @ g
    check_residual(adjoint, tol, "Q must be self-adjoint (deviation %.3e)")
    check_residual(anticommutator, tol, "Q must anticommute with Gamma0 (deviation %.3e)")
    return _graded_signature(kernel_basis(q, rank_tol).basis, g)


def _susy_core(b, p, rank_tol):
    """Index of Q_plus = V_minus^H Im(U) V_plus, read off ``b, p = _in_frame(u, frames)``."""
    # Q+ and Q+* differ in shape unless the grading is balanced; one rank for
    # both would make the index cols - rows by construction
    q_plus = (b[p:, :p] - b[:p, p:].conj().T) / 2j
    return _kernel_dims(q_plus, rank_tol) - _kernel_dims(q_plus.conj().T, rank_tol)


def susy_index(u, gamma0, rank_tol=DEFAULT_RANK_TOL, tol=RELATION_TOL):
    """Fredholm index of the off-diagonal block of Im(U) = (U - U*)/2i."""
    u, g = _checked_chiral(u, gamma0, tol)
    return _susy_core(*_in_frame(u, _grading_frames(g)), rank_tol)


def _tanaka_core(b, p, rank_tol):
    """(ind_plus, ind_minus) from the Re U blocks on Ran V_plus and Ran V_minus, read
    off ``b, p = _in_frame(u, frames)``: one ``eigvalsh`` ranks both r - 1 and r + 1."""
    re_b = 0.5 * (b + b.conj().T)
    (plus1, minus1), (plus2, minus2) = (
        [sum(_hermitian_kernel(evals, s, rank_tol)) for s in (1.0, -1.0)]
        for evals in map(np.linalg.eigvalsh, (re_b[:p, :p], re_b[p:, p:])))
    return plus1 - plus2, minus1 - minus2


def tanaka_index_pm(u, gamma0, rank_tol=DEFAULT_RANK_TOL, tol=RELATION_TOL):
    """(ind_plus, ind_minus) from Re(U) restricted to the graded halves."""
    u, g = _checked_chiral(u, gamma0, tol)
    return _tanaka_core(*_in_frame(u, _grading_frames(g)), rank_tol)


def _intersection_dims(pairs, rank_tol, count=4):
    """The first ``count`` of dim(Ran P0 ^ Ker P1), dim(Ker P0 ^ Ran P1), dim(Ran P0 ^ Ran P1)
    and dim(Ker P0 ^ Ker P1) for each ((V_plus, V_minus), P1) in pairs, V_plus and V_minus
    orthonormal frames of Ran P0 and Ker P0: the kernel dimensions of P1 V_plus,
    (1 - P1) V_minus, (1 - P1) V_plus and P1 V_minus, blocks of one shape in one call.
    The threshold is relative to 1, the norm of a projection: relative to a block's own
    largest singular value, a block near the intersection in every column would count none.
    """
    blocks = []
    for (v_plus, v_minus), p1 in pairs:
        p1_plus, p1_minus = p1 @ v_plus, p1 @ v_minus
        blocks += (p1_plus, v_minus - p1_minus, v_plus - p1_plus, p1_minus)[:count]
    dims = {}
    for shape in {b.shape for b in blocks}:
        ks = [k for k, b in enumerate(blocks) if b.shape == shape]
        dims.update(zip(ks, _kernel_dims(np.stack([blocks[k] for k in ks]), rank_tol, 1.0)))
    return [[dims[k + j] for j in range(count)] for k in range(0, len(blocks), count)]


def pair_indices(projections, pairs, rank_tol=DEFAULT_RANK_TOL, tol=RELATION_TOL):
    """Ind(P_a, P_b) for each index pair (a, b), in one batched rank count; each
    projection is checked once (as "P<k>"), each first of a pair factored once."""
    ps = [check_projection(p, tol, f"P{k}") for k, p in enumerate(projections)]
    frames = {a: _grading_frames(ps[a], 0.5) for a in {a for a, _ in pairs}}
    dims = _intersection_dims([(frames[a], ps[b]) for a, b in pairs], rank_tol, count=2)
    return [ranker - kerran for ranker, kerran in dims]


def pair_index(p0, p1, rank_tol=DEFAULT_RANK_TOL, tol=RELATION_TOL):
    """dim(Ran P0 ^ Ker P1) - dim(Ker P0 ^ Ran P1)."""
    return pair_indices([p0, p1], [(0, 1)], rank_tol, tol)[0]


def _graded_intersection_dims(g0, g1, frames, rank_tol, tol):
    """``_intersection_dims`` of P0 = (1 + G0)/2 and P1 = (1 + G1)/2, checked at ``tol``."""
    check_projection(0.5 * (np.eye(len(g0)) + g0), tol, "P0")
    p1 = check_projection(0.5 * (np.eye(len(g1)) + g1), tol, "P1")
    return _intersection_dims([(frames, p1)], rank_tol)[0]


def pair_index_trace(p0, p1, m=0):
    """Tr((P0 - P1)^(2m+1)), the pair index when both are projections, from the
    ``eigvalsh`` spectrum of P0 - P1 (Hermitian within RELATION_TOL); a sequence m
    gives a list, one trace per entry."""
    with overflow_as_nan():
        diff = _as_complex(p0) - _as_complex(p1)
        defect = diff - diff.conj().T
    check_residual(defect, RELATION_TOL,
                   "P0 - P1 deviates from self-adjointness by %.3e")
    evals = np.linalg.eigvalsh(diff)
    traces = [float(np.sum(evals ** (2 * int(k) + 1))) for k in np.atleast_1d(m)]
    return traces if np.ndim(m) else traces[0]


@dataclass
class KernelDecompositionReport:
    dim_ker_u_plus_one: int
    dim_ker_u_minus_one: int
    ranp0_kerp1: int
    kerp0_ranp1: int
    ranp0_ranp1: int
    kerp0_kerp1: int

    @property
    def holds(self):
        return (
            self.dim_ker_u_plus_one == self.ranp0_kerp1 + self.kerp0_ranp1
            and self.dim_ker_u_minus_one == self.ranp0_ranp1 + self.kerp0_kerp1
        )


def kernel_decomposition_check(u, gamma0, gamma1, rank_tol=DEFAULT_RANK_TOL, tol=RELATION_TOL):
    """Kernel dimensions of U -+ 1 against the four projection intersections.

    P0 = (1 + Gamma0)/2 and P1 = (1 + Gamma1)/2 are checked as orthogonal
    projections at ``tol``, as in ``kernel_bound_check``.
    """
    return _kernel_structure(u, gamma0, gamma1, rank_tol, tol)[0]


@dataclass
class KernelBoundReport:
    dim_ker_u_plus_one: int
    dim_ker_u_minus_one: int
    pair_index_value: int
    pair_index_complement: int

    @property
    def holds(self):
        return (
            self.dim_ker_u_plus_one >= abs(self.pair_index_value)
            and self.dim_ker_u_minus_one >= abs(self.pair_index_complement)
        )


def kernel_bound_check(u, gamma0, gamma1, rank_tol=DEFAULT_RANK_TOL, tol=RELATION_TOL):
    """dim Ker(U + 1) >= |Ind(P0, P1)| and dim Ker(U - 1) >= |Ind(P0, 1 - P1)|."""
    return _kernel_structure(u, gamma0, gamma1, rank_tol, tol)[1]


def _kernel_structure(u, gamma0, gamma1, rank_tol, tol):
    """(KernelDecompositionReport, KernelBoundReport) of one triple, validated
    once (P0 and P1 included), from one rank count of U -+ 1 and one of the
    four projection intersections."""
    u = check_unitary(u, tol)
    g0 = check_selfadjoint_unitary(gamma0, tol, "Gamma0")
    g1 = check_selfadjoint_unitary(gamma1, tol, "Gamma1")
    check_factorization(u, g0, g1, tol)
    dims = _graded_intersection_dims(g0, g1, _grading_frames(g0), rank_tol, tol)
    ranker, kerran, ranran, kerker = dims
    eye = np.eye(u.shape[0])
    kernels = _kernel_dims(np.stack([u + eye, u - eye]), rank_tol)
    return (
        KernelDecompositionReport(*kernels, *dims),
        KernelBoundReport(*kernels, ranker - kerran, ranran - kerker),
    )


def _cayley_signature(u, w_full, svals, gamma0, rank_tol):
    """Graded signature of the Cayley kernel of u on Ran(1 - u), from the
    SVD of 1 - u or of u - 1: the two have the same singular values and
    the same ranges, and only the ranges enter the compressions below.
    The symmetrised Cayley matrix is Hermitian, so one ``eigh`` ranks it."""
    w = w_full[:, [not zero for zero in _rank(svals.tolist(), rank_tol)[0]]]
    if w.shape[1] == 0:
        return 0
    w_adj = w.conj().T
    u_w = w_adj @ u @ w
    eye = np.eye(w.shape[1])
    cayley = np.linalg.solve(eye - u_w, 1j * (eye + u_w))
    cayley = 0.5 * (cayley + cayley.conj().T)
    with overflow_as_nan():
        g = w_adj @ gamma0 @ w
        involution, anticommutator = g @ g - eye, g @ cayley + cayley @ g
    check_residual(involution, 1e-8,
                   "restriction not Gamma0-invariant within tolerance (deviation %.3e)")
    check_residual(anticommutator, 1e-6 * max(1.0, np.abs(cayley).max()),
                   "Cayley transform fails to anticommute with Gamma0 (deviation %.3e)")
    evals, vecs = np.linalg.eigh(cayley)
    return _graded_signature(vecs[:, _hermitian_kernel(evals, 0.0, rank_tol)], g)


def _cayley_core(u, svd, g, rank_tol):
    """(minus-class, plus-class) Cayley indices from ``_unit_svd(u)``: the ranges
    of U - 1 and U + 1 are those of 1 - U and 1 - (-U)."""
    w, svals, _ = svd
    return (
        _cayley_signature(u, w[0], svals[0], g, rank_tol),
        _cayley_signature(-u, w[1], svals[1], g, rank_tol),
    )


def cayley_index(u, gamma0, rank_tol=DEFAULT_RANK_TOL, tol=RELATION_TOL):
    """(minus-class, plus-class) indices from the Cayley transforms of U and -U.

    The first entry is the graded signature of Ker C(U) (eigenvalue -1
    data of U), the second that of Ker C(-U) (eigenvalue +1 data).
    """
    u, g = _checked_chiral(u, gamma0, tol)
    return _cayley_core(u, _unit_svd(u), g, rank_tol)


def _generator_core(walk, g, si_plus, rank_tol):
    """Graded signature of Ker(H) for a built generator walk, ranked on the walk's
    spectrum (g its checked gamma0), cross-checked against ``si_plus()``, the
    graded signature of Ker(U - 1), U = walk_exp, taken after Ker(H) is ranked."""
    evals, vecs = walk.spectrum
    index = _graded_signature(vecs[:, _hermitian_kernel(evals, 0.0, rank_tol)], g)
    si_plus = si_plus()
    if si_plus != index:
        raise PreconditionError(
            f"generator index {index} disagrees with si_plus(e^(i pi H)) = {si_plus}; "
            "rank tolerance likely misclassified an eigenvalue"
        )
    return index


def generator_index(hamiltonian, gamma0, rank_tol=DEFAULT_RANK_TOL, tol=RELATION_TOL):
    """Graded signature of Ker(H), cross-checked against si_plus(e^{i pi H}).

    H must be self-adjoint and anticommute with gamma0; ||H|| > 1 is
    flattened to H(1 + H^2)^(-1/2) first (same kernel), by ``build_generator_walk``.
    Ker H is ranked on the walk's spectrum; the cross-check factors U - 1 alone.
    """
    g = check_selfadjoint_unitary(gamma0, tol)
    walk = build_generator_walk(_as_complex(hamiltonian), g, tol)

    def si_plus():
        u = check_unitary(walk.walk_exp, tol)
        check_chiral_relation(u, g, tol)
        return _graded_signature(kernel_basis(u - np.eye(u.shape[0]), rank_tol).basis, g)

    return _generator_core(walk, g, si_plus, rank_tol)


@dataclass
class IndexReport:
    """All finite-dimensional indices of one chiral unitary, plus diagnostics."""

    si_plus: int
    si_minus: int
    si_total: int
    susy_index: int
    tanaka_plus: int
    tanaka_minus: int
    pair_index: int
    pair_index_complement: int
    cayley_minus: int
    cayley_plus: int
    trace_gamma0: int
    diagnostics: dict

    def identity_chain_values(self):
        return {
            "si_total": self.si_total,
            "susy_index": self.susy_index,
            "tanaka_total": self.tanaka_plus + self.tanaka_minus,
            "pair_total": self.pair_index + self.pair_index_complement,
            "trace_gamma0": self.trace_gamma0,
        }

    @property
    def consistent(self):
        chain = set(self.identity_chain_values().values())
        comp_minus = {self.si_minus, self.tanaka_minus, self.pair_index, self.cayley_minus}
        comp_plus = {self.si_plus, self.tanaka_plus, self.pair_index_complement, self.cayley_plus}
        return len(chain) == len(comp_minus) == len(comp_plus) == 1

    def to_dict(self):
        return {**vars(self), "consistent": self.consistent}


def full_index_report(u, gamma0, gamma1=None, rank_tol=DEFAULT_RANK_TOL, tol=RELATION_TOL):
    """Evaluate every index of the summary table for one finite chiral unitary."""
    u, g0 = _checked_chiral(u, gamma0, tol)
    g1 = check_selfadjoint_unitary(g0 @ u if gamma1 is None else gamma1, tol, "Gamma1")
    if gamma1 is not None:
        check_factorization(u, g0, g1, tol)
    svd = _unit_svd(u)
    ker_plus, ker_minus = _unit_kernels(svd, g0, rank_tol)
    frames = _grading_frames(g0)
    u_frame = _in_frame(u, frames)
    tanaka_plus, tanaka_minus = _tanaka_core(*u_frame, rank_tol)
    cayley_minus, cayley_plus = _cayley_core(u, svd, g0, rank_tol)
    trace = float(np.trace(g0).real)
    check_residual(trace - round(trace), 1e-6,
                   f"Tr(Gamma0) = {trace} is not near an integer (deviation %.3e)")
    susy = _susy_core(*u_frame, rank_tol)
    ranker, kerran, ranran, kerker = _graded_intersection_dims(g0, g1, frames, rank_tol, tol)
    return IndexReport(
        si_plus=ker_plus.graded_signature,
        si_minus=ker_minus.graded_signature,
        si_total=ker_plus.graded_signature + ker_minus.graded_signature,
        susy_index=susy,
        tanaka_plus=tanaka_plus,
        tanaka_minus=tanaka_minus,
        pair_index=ranker - kerran,
        pair_index_complement=ranran - kerker,
        cayley_minus=cayley_minus,
        cayley_plus=cayley_plus,
        trace_gamma0=int(round(trace)),
        diagnostics={
            "rank_margin": min((k.rank_margin for k in (ker_plus, ker_minus)
                                if k.rank_margin is not None), default=None),
            "dim_ker_u_minus_one": ker_plus.dimension,
            "dim_ker_u_plus_one": ker_minus.dimension,
        },
    )
