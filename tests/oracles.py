"""Loop-by-loop reference implementations of the stacked and dense solves.

The package solves the determinant polynomials of a level-set round, and
those of a set of windings, in one stacked call.  These oracles solve
one polynomial at a time with np.roots, evaluate each loop's distances
with its own eigvals call and build the compressed Im(u) blocks from
Laurent products of SymbolLoops; the tests require the package to agree
with them float for float.  The package bounds the chiral residuals of
a split-step pair in closed form; ``dense_chiral_residuals`` measures
them on dense blocks and ``symbol_sups`` as Laurent products, and the
tests require every bound to be at least what they measure.  The package
reads gamma0's action on a lattice kernel off the matching window;
``graded_kernel_by_forms`` sums the Gram and gamma0 forms of the kernel
vectors over the whole lattice instead, each geometric tail by a Stein
equation that ``stein`` solves with scipy.  The package
ranks the intersections of two projections on orthonormal frames of
Ran P0 and Ker P0; ``intersection_dims`` ranks the 2n x n constraint
stacks instead.  The package ranks Hermitian matrices (Tanaka's Re U
blocks, the Cayley matrices, Ker H) by their eigenvalues and reads the
odd-power traces of P0 - P1 off its spectrum; ``full_index_report``,
``generator_index`` and ``pair_index_trace`` rank them by SVD and take
matrix powers instead.  ``split_step_indices`` gives si_plus and
si_minus of a split-step walk in closed form, from the theory, not from
the package.  ``operator_doc`` writes the custom_banded operator document
that ``scenarios.parse_operator`` reads, for round trips through the reader;
``near_closing_model``, ``scaled_generator`` and ``huge_coin`` write the
scenarios that the tests and the decisions corpus share.
The package copies a coefficient window by slicing and finds the rows
that repeat a limit with one comparison; ``values_on`` masks the window
site by site and ``trim`` compares it row by row instead.  The package
finds the germ spaces of a banded operator as ranges of spectral
projectors, gated by the roots of its limit symbol determinants;
``germ_pair`` takes them from scipy's QZ split of each companion pencil,
gated by the pencil's own eigenvalues, and ``kernel_vectors`` writes the
kernel vectors out site by site on the package's germs.  The package
decides each rank, kernel mask and signature on a spectrum as a Python
list, every rank by its one rule ``indices._rank``; ``rank_threshold``,
``kernel_summary`` (with its rank margin), ``kernel_dims``,
``hermitian_kernel`` (one row per shift), ``signature_and_margin`` and
``cayley_range`` decide them by numpy reductions, and the tests require
the same decisions bit for bit.  The
package decides each lattice clearance, germ count, projector trace
check, level-set step and determinant row trim on Python lists, with
moduli and angles from numpy; ``clearance``, ``germ_counts``,
``germ_trace_check``, ``joint_gaps`` and ``det_polys`` decide them by
numpy reductions, and the tests require the same outputs bit for bit.
"""

import functools
import itertools
from pathlib import Path

import numpy as np

from chiralwalk import essential, indices, operators as ops, transfer, winding
from chiralwalk.exceptions import NotFredholmError, PreconditionError
from chiralwalk.verification import split_step_from_angles
from chiralwalk.walks import CHIRAL_TOL, build_generator_walk

SYMBOL_POINTS = 64         # circle points on which the limit residuals are evaluated


@functools.cache
def seeded_split_steps(count=160):
    """(seed, pair) tuples: split-step pairs with shift exponents 1-3, half
    with coin defects on up to three sites; every other one has a gap eps
    in [1e-7, 1e-1] at +1 or -1 on its right limit, the rest generic angles.
    Built once per test session."""
    pairs = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        left, right, theta2 = rng.uniform(0.05, np.pi - 0.05, size=3)
        sites = rng.integers(-2, 3, size=rng.integers(1, 4)) if seed % 4 < 2 else []
        defects = {int(x): float(rng.uniform(0.05, np.pi - 0.05)) for x in sites}
        if seed % 2 == 0:
            eps = 10.0 ** rng.uniform(-7.0, -1.0)
            surface = theta2 if seed % 8 < 4 else np.pi - theta2
            right = surface + rng.choice([-1.0, 1.0]) * 2.0 * np.arcsin(eps / 2.0)
        pairs.append((seed, split_step_from_angles(left, right, theta2, 1 + seed % 3, defects)))
    return tuple(pairs)


@functools.cache
def report_pairs():
    """(name, pair) tuples: ``seeded_split_steps()``; 112 pairs whose gap at +1 or -1
    is eps = 1e-1 .. 1e-7 on the right limit only, from either side of the closing,
    with shift exponents 1-2, with and without a coin defect; and the shipped
    split-step scenarios.  Built once per test session."""
    from chiralwalk.scenarios import Scenario

    pairs = [(f"seed{seed}", pair) for seed, pair in seeded_split_steps()]
    theta2 = 0.7
    for k, target, m, phase, defects in itertools.product(
            range(1, 8), (1, -1), (1, 2), (1, -1), ({}, {0: 1.3})):
        surface = theta2 if target == 1 else np.pi - theta2
        right = surface + phase * 2.0 * np.arcsin(10.0 ** -k / 2.0)
        pairs.append((f"near{k}{target:+d}m{m}{phase:+d}{len(defects)}",
                      split_step_from_angles(0.2, right, theta2, m, defects)))
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    for path in sorted(scenarios.glob("split_step_*.json")):
        pairs.append((path.stem, Scenario.load(path).build()))
    return tuple(pairs)


def det_roots(loop, mu=0.0, coeff_tol=1e-11):
    """Roots of det(loop(z) - mu) and the order at z = 0, one np.roots call."""
    offsets = sorted(set(loop.offsets()) | {0}) if mu else loop.offsets()
    d = loop.fiber_dim
    low = d * min(offsets, default=0)
    m = d * max(offsets, default=0) - low + 1
    zs = ops.circle_grid(m)
    values = loop(zs)
    if mu:
        values -= mu * np.eye(d)
    coeffs = np.fft.fft(np.linalg.det(values) * zs ** (-low)) / m
    coeffs[np.abs(coeffs) < coeff_tol * np.abs(coeffs).max()] = 0.0
    nz = np.nonzero(coeffs)[0]
    if nz.size == 0:
        raise NotFredholmError("symbol determinant vanishes identically")
    poly = coeffs[nz[0] : nz[-1] + 1][::-1]
    roots = np.roots(poly) if poly.size > 1 else np.zeros(0, dtype=complex)
    return roots, int(low + nz[0])


def _clearance(roots):
    radii = np.abs(roots)
    margin = float(np.abs(radii - 1.0).min()) if radii.size else None
    return margin, bool(np.all(np.abs(1.0 / radii - 1.0) > transfer.CIRCLE_MARGIN))


def circle_clearance(loop, mu=0.0):
    try:
        return _clearance(det_roots(loop, mu)[0])
    except NotFredholmError:
        return 0.0, False


# --- the level set, one loop and one polynomial at a time ---------------------


def _distance(loop, thetas, target):
    return float(np.abs(np.linalg.eigvals(loop(np.exp(1j * thetas))) - target).min())


def _probes(loop, target, level):
    phi = 2.0 * np.arcsin(min(level / 2.0, 1.0))
    roots = np.concatenate([det_roots(loop, target * np.exp(1j * s * phi))[0] for s in (1, -1)])
    close = np.abs(np.abs(roots) - 1.0) <= essential.CROSSING_TOL
    angles = np.sort(np.angle(roots[close]) % (2.0 * np.pi))
    if not angles.size:
        return np.zeros(1)
    return 0.5 * (angles + np.append(angles[1:], angles[0] + 2.0 * np.pi))


def gap(loops, target):
    value, level, bound = np.inf, np.inf, 0.0
    points = [essential.INITIAL_PROBES] * len(loops)
    for _ in range(essential.MAX_LEVELS):
        lowest = min(_distance(loop, p, target) for loop, p in zip(loops, points))
        if lowest >= level:
            bound = level
            break
        value = lowest
        if value == 0.0:
            break
        level = value * (1.0 - essential.LEVEL_RTOL)
        try:
            points = [_probes(loop, target, level) for loop in loops]
        except NotFredholmError:
            break
    clearances = [circle_clearance(loop, target) for loop in loops]
    margins = [m for m, _ in clearances if m is not None]
    return essential._Gap(value, bound, min(margins, default=None), all(c for _, c in clearances))


def certify_unitary(u, margin=essential.DEFAULT_MARGIN):
    """``essential.certify_unitary(u).to_dict()``-like dict from the oracle gaps."""
    loops = (u.symbol_at(ops.LEFT), u.symbol_at(ops.RIGHT))
    gap_plus, gap_minus = gap(loops, 1.0), gap(loops, -1.0)
    return {
        "gap_plus": essential._gap_certification(gap_plus, margin).to_dict(),
        "gap_minus": essential._gap_certification(gap_minus, margin).to_dict(),
        "dichotomy": essential._dichotomy(gap_plus, gap_minus, margin).to_dict(),
    }


# --- compressed blocks from Laurent products, windings one at a time ----------


def sandwich(loop, n):
    """Coefficients of D^* loop D, D(z) = diag(1, z^n), as the Laurent product
    (D^* loop) D of SymbolLoops."""
    d_loop = ops.SymbolLoop(2, {0: np.diag([1.0, 0.0]), n: np.diag([0.0, 1.0])}
                            if n else {0: np.eye(2)})
    return (d_loop.hermitian_conjugate() * loop * d_loop).coefficients


def imaginary_part(pair, side):
    """Im(u) = (u - u^*) / 2i of one limit symbol, keyed as the package keys it."""
    u_loop = pair.u.symbol_at(side)
    u, adj = u_loop.coefficients, u_loop.hermitian_conjugate().coefficients
    return ops.SymbolLoop(2, {m: (u.get(m, 0) - adj.get(m, 0)) / 2j for m in set(u) | set(adj)})


def closed_frames(grading, side):
    loop = grading.symbol_at(side)
    if loop.fiber_dim != 2 or not loop.offsets():
        raise PreconditionError("root-count windings need a nonzero grading on C^2")
    n = max(loop.offsets())
    g = sum(loop.coefficients.values())
    factored = sandwich(ops.SymbolLoop(2, {0: g}), -n)   # D G D^* with D(z) = diag(1, z^n)
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
    return n, [(k_plus, vecs[:, 1]), (n - k_plus, vecs[:, 0])]


def imaginary_block(pair, grading, side):
    n, ((k_plus, v_plus), (k_minus, v_minus)) = closed_frames(grading, side)
    block = sandwich(imaginary_part(pair, side), n)
    return ops.SymbolLoop(
        1, {m + k_minus - k_plus: v_minus.conj() @ c @ v_plus for m, c in block.items()}
    )


def winding_det(loop):
    return root_winding(*det_roots(loop))


def root_winding(roots, order_at_zero):
    """``winding._windings``' count and refusal on the roots of one determinant."""
    radii = np.abs(roots)
    margin, clear = _clearance(roots)
    if not clear:
        raise NotFredholmError(
            "symbol determinant has a root within margin of the unit circle "
            f"(|z| = {radii[np.abs(1.0 / radii - 1.0).argmin()]:.8f})"
        )
    return winding.WindingResult(int(np.sum(radii < 1.0)) + order_at_zero, margin)


def verify_index_theorem_chiral(pair, kernels):
    """``winding.verify_index_theorem_chiral(pair, kernels=kernels).to_dict()``,
    each block built and counted in turn."""
    ker_minus, ker_plus = kernels
    si_minus, si_plus = ker_minus.graded_signature, ker_plus.graded_signature
    branches = []
    for name, grading, lhs in (
        ("gamma1_graded", pair.gamma1, si_minus - si_plus),
        ("imaginary_block", pair.gamma0, -(si_plus + si_minus)),
    ):
        left, right = (winding_det(imaginary_block(pair, grading, side))
                       for side in (ops.LEFT, ops.RIGHT))
        margins = [w.root_margin for w in (left, right) if w.root_margin is not None]
        branches.append(winding.RootCountBranch(
            name=name, lhs_index=lhs, winding_left=left.rounded, winding_right=right.rounded,
            fiber_dim=pair.u.fiber_dim, root_margin=min(margins) if margins else None))
    return winding.IndexTheoremRecord(branches=branches).to_dict()


# --- chiral residuals on dense blocks and as Laurent products, lattice forms from scipy


def _difference(a, b):
    out = dict(a.coefficients)
    for n, m in b.coefficients.items():
        out[n] = out[n] - m if n in out else -m
    return ops.SymbolLoop(a.fiber_dim, out)


def symbol_residuals(gamma0, gamma1, u, side):
    """Limit symbols of the six chiral residuals, as exact Laurent coefficients."""
    f0, f1, fu = (op.symbol_at(side) for op in (gamma0, gamma1, u))
    one = ops.SymbolLoop(f0.fiber_dim, {0: np.eye(f0.fiber_dim)})
    fu_star = fu.hermitian_conjugate()
    return {
        "g0_sa": _difference(f0, f0.hermitian_conjugate()),
        "g1_sa": _difference(f1, f1.hermitian_conjugate()),
        "g0_inv": _difference(f0 * f0, one),
        "g1_inv": _difference(f1 * f1, one),
        "chiral": _difference(f0 * fu * f0, fu_star),
        "u_unitary": _difference(fu_star * fu, one),
    }


def dense_chiral_residuals(gamma0, gamma1, u):
    """The chiral residuals of a pair, measured on one dense window.

    The coefficient part is the largest entry of each residual, limits
    included.  It is read off dense blocks on the sites [lo - pad, hi + pad),
    [lo, hi) the union of the inputs' bulk windows: with R the bound
    max(2 r0 + ru, 2 ru, 2 r1) on every residual's band radius and
    pad = 2 R + 1, the rows at least R sites from the edges are exact rows
    of the residuals and include a pure-limit row on each side.  The
    symbol part reads the limit Laurent coefficients off those two
    pure-limit rows (row block s, column block s - k holds the coefficient
    of z^k) and evaluates all twelve limit residuals on SYMBOL_POINTS
    circle points at once.  Returns a dict with the keys of
    ``ChiralCertification.to_dict()`` and ``gamma0_selfadjoint``, which the
    certification does not state: it vanishes by construction.  Time is cubic in the bulk width,
    memory quadratic.
    """
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
    values = np.einsum("jk,eskab->esjab", ops.circle_grid(SYMBOL_POINTS)[:, None] ** ks, limits)
    sym = dict(zip(residuals, np.abs(values).max(axis=(1, 2, 3, 4)).tolist()))
    record = {
        "gamma0_selfadjoint": max(coeff["g0_sa"], sym["g0_sa"]),
        "gamma1_selfadjoint": max(coeff["g1_sa"], sym["g1_sa"]),
        "gamma0_involution": max(coeff["g0_inv"], sym["g0_inv"]),
        "gamma1_involution": max(coeff["g1_inv"], sym["g1_inv"]),
        "chiral_relation": max(coeff["chiral"], sym["chiral"]),
        "symbol_deviation": max(sym.values()),
        "unitary_symbol_deviation": sym["u_unitary"],
    }
    record["max_deviation"] = max(record.values())
    return record


def symbol_sups(gamma0, gamma1, u):
    """{residual: (sup over both limit symbols on SYMBOL_POINTS circle points,
    whether both limit symbols vanish exactly)}."""
    zs = ops.circle_grid(SYMBOL_POINTS)
    sides = [symbol_residuals(gamma0, gamma1, u, side) for side in (ops.LEFT, ops.RIGHT)]
    return {k: (max(float(np.abs(s[k](zs)).max()) for s in sides),
                not any(s[k].coefficients for s in sides)) for k in sides[0]}


def stein(step, m):
    """The X with X - step^* X step = m, from scipy."""
    import scipy.linalg
    return scipy.linalg.solve_discrete_lyapunov(step.conj().T, m)


def _hermitian(m):
    return 0.5 * (m + m.conj().T)


def _window_forms(gamma0, values, start):
    """Gram and gamma0 forms of site values (rows from site ``start``),
    summed over the sites whose whole gamma0 band lies in the window."""
    r_g = gamma0.band_radius
    n = values.shape[0] - 2 * r_g
    image = transfer._apply_banded_window(gamma0, values, start)[0][2 * r_g : 2 * r_g + n]
    inner = values[r_g : r_g + n].conj()
    return (np.einsum("xia,xib->ab", inner, values[r_g : r_g + n]),
            np.einsum("xia,xib->ab", inner, image))


def _tail_forms(germ, edge, coeffs, depth, orient):
    """Gram and gamma0 forms, in germ coordinates, of one tail beyond ``depth``: the
    site at depth j holds edge @ S^j c, gamma0 acts there with the constant
    coefficients ``coeffs``, band m reading depth j - orient * m (orient -1 on the
    left, +1 on the right); depth exceeds gamma0's band radius."""
    if germ.dimension == 0:
        return np.zeros((0, 0), complex), np.zeros((0, 0), complex)
    powers = transfer._powers(germ.step, depth + max(map(abs, coeffs), default=0))
    head = edge @ powers[depth]
    form = sum(head.conj().T @ g @ edge @ powers[depth - orient * m] for m, g in coeffs.items())
    return stein(germ.step, head.conj().T @ head), stein(germ.step, form)


def lattice_forms(system, gamma0):
    """Gram matrix and gamma0 form on l2(Z) of the kernel vectors of a matching system:
    summed site by site within gamma0's reach of the matching window and of gamma0's
    bulk, and beyond them as geometric tails."""
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
        tail_gram, tail_form = _tail_forms(germ, edge, gamma0.symbol_at(side).coefficients,
                                           depth, orient)
        gram = gram + coords.conj().T @ tail_gram @ coords
        form = form + coords.conj().T @ tail_form @ coords
    return gram, form


def graded_kernel_by_forms(a, gamma0, rank_tol=indices.DEFAULT_RANK_TOL):
    """``transfer.exact_kernel(a, gamma0)`` of a banded operator (band radius >= 1) from
    the ``lattice_forms`` of its kernel vectors: gamma0's eigenvalues on the kernel are
    those of the pencil (form, gram), taken as the spectrum of L^-1 form L^-* with
    gram = L L^*, and ``indices._signature_and_margin`` reads them.  The kernel and its
    rank margin are the package's matching system's."""
    system = transfer._matching_system(a, rank_tol, 0)
    summary = system.null
    evals = np.zeros(0)
    if summary.dimension:
        gram, form = lattice_forms(system, gamma0)
        chol = np.linalg.cholesky(_hermitian(gram))
        half = np.linalg.solve(chol, _hermitian(form))
        evals = np.linalg.eigvalsh(_hermitian(np.linalg.solve(chol, half.conj().T)))
    summary.graded_signature, summary.signature_margin = indices._signature_and_margin(evals)
    summary.basis = None
    return summary


# --- germ spaces by the QZ split, explicit kernel vectors ------------------------


def companion_pencil(coeffs, d, r):
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


def half_line_germs(coeffs, d, r, tail):
    """Germ space of decaying solutions of one constant recursion, from scipy's
    ordqz: the deflating subspace of the companion pencil for |lambda| < 1
    (tail 'right', 0 included) or |lambda| > 1 (tail 'left', infinity included).
    A singular pencil, or an eigenvalue within CIRCLE_MARGIN of the unit circle,
    raises NotFredholmError: the pencil is its own gate."""
    import scipy.linalg

    def inside(alpha, beta):
        return np.abs(alpha) < (1.0 - transfer.CIRCLE_MARGIN) * np.abs(beta)

    def outside(alpha, beta):
        return np.abs(alpha) > (1.0 + transfer.CIRCLE_MARGIN) * np.abs(beta)

    select = inside if tail == "right" else outside
    e_mat, b_mat = companion_pencil(coeffs, d, r)
    aa, bb, alpha, beta, _, z = scipy.linalg.ordqz(b_mat, e_mat, sort=select, output="complex")
    if np.any((np.abs(alpha) < 1e-12) & (np.abs(beta) < 1e-12)):
        raise NotFredholmError("companion pencil is singular; symbol determinant degenerates")
    near = ~inside(alpha, beta) & ~outside(alpha, beta)
    if np.any(near):
        lam = alpha[near] / beta[near]
        raise NotFredholmError(
            f"transfer eigenvalue within margin of the unit circle (|lambda| = {np.abs(lam[0]):.8f})"
        )
    k = int(np.sum(select(alpha, beta)))
    s11, t11 = aa[:k, :k], bb[:k, :k]
    if k == 0:
        step = np.zeros((0, 0), dtype=complex)
    elif tail == "right":
        step = np.linalg.solve(t11, s11)   # forward: c_{x+1} = step c_x
    else:
        step = np.linalg.solve(s11, t11)   # backward: c_{x-1} = step c_x
    return transfer._GermSpace(dimension=k, window_basis=z[:, :k], step=step, radius=r)


def germ_pair(a):
    """(left germ, right germ) of a banded operator by ``half_line_germs``."""
    d, r = a.fiber_dim, a.band_radius
    return [half_line_germs({n: getattr(f, side) for n, f in a.bands.items()}, d, r, tail)
            for side, tail in ((ops.LEFT, "left"), (ops.RIGHT, "right"))]


def decay_length(step, cutoff):
    """First j with ||step^j||_2 < cutoff (0 for an empty germ)."""
    if step.shape[0] == 0:
        return 0
    n = 1
    while np.linalg.norm(np.linalg.matrix_power(step, n), 2) >= cutoff:
        n *= 2
    norms = np.linalg.norm(transfer._powers(step, n), 2, axis=(1, 2))
    return int(np.argmax(norms < cutoff))


def kernel_vectors(a):
    """Explicit kernel vectors of ``transfer.exact_kernel`` on a finite site window.

    Needs band radius >= 1.  Each tail runs until the norm of its germ
    step power falls below 1e-10, so the cost grows as the gap closes.
    The columns are orthonormalised with the Cholesky factor of their
    Gram matrix summed over the cut window.  Returns (basis of shape
    (sites * d, dim), (lo, hi)); an empty kernel keeps the matching window.
    """
    import scipy.linalg

    system = transfer._matching_system(a, indices.DEFAULT_RANK_TOL, 0)
    dim, d = system.null.dimension, a.fiber_dim
    lo, hi = system.y0, system.y1
    if dim == 0:
        return np.zeros(((hi - lo + 1) * d, 0), complex), (lo, hi)
    lo -= decay_length(system.germ_left.step, 1e-10)
    hi += decay_length(system.germ_right.step, 1e-10)
    vectors = system.values(lo, hi).reshape(-1, dim)
    chol = np.linalg.cholesky(vectors.conj().T @ vectors)
    basis = scipy.linalg.solve_triangular(chol, vectors.conj().T, lower=True).conj().T
    return basis, (lo, hi)


# --- projection intersections as constraint stacks -----------------------------


def intersections(p0, p1):
    """Constraints [1-P0; P1], [P0; 1-P1], [1-P0; 1-P1], [P0; P1], built as drawn.

    Their null spaces are Ran P0 ^ Ker P1, Ker P0 ^ Ran P1, Ran P0 ^ Ran P1
    and Ker P0 ^ Ker P1.
    """
    eye = np.eye(p0.shape[0])
    q0, q1 = eye - p0, eye - p1
    return [np.vstack(c) for c in ((q0, p1), (p0, q1), (q0, q1), (p0, p1))]


def intersection_dims(p0, p1, rank_tol=indices.DEFAULT_RANK_TOL):
    """The four intersection dimensions as kernel dimensions of ``intersections``."""
    return [indices.kernel_basis(c, rank_tol).dimension for c in intersections(p0, p1)]


# --- finite indices by SVD, traces by matrix powers ------------------------------


def tanaka_index_pm(u, gamma0, rank_tol=indices.DEFAULT_RANK_TOL):
    """(ind_plus, ind_minus): SVD kernel dimensions of r - 1 and r + 1 for the
    Re U blocks r = V^H Re(U) V on the frames V of Ran and Ker of gamma0."""
    re_u = 0.5 * (u + u.conj().T)
    dims = []
    for v in indices._grading_frames(gamma0):
        r = v.conj().T @ re_u @ v
        eye = np.eye(r.shape[0])
        dims.append(indices._kernel_dims(np.stack([r - eye, r + eye]), rank_tol))
    (plus1, minus1), (plus2, minus2) = dims
    return plus1 - plus2, minus1 - minus2


def susy_index(u, gamma0, rank_tol=indices.DEFAULT_RANK_TOL):
    """Index of Q_plus = V_minus^H Im(U) V_plus, built from U itself."""
    v_plus, v_minus = indices._grading_frames(gamma0)
    q_plus = v_minus.conj().T @ ((u - u.conj().T) / 2j) @ v_plus
    return indices._kernel_dims(q_plus, rank_tol) - indices._kernel_dims(q_plus.conj().T, rank_tol)


def cayley_signature(u, gamma0, rank_tol=indices.DEFAULT_RANK_TOL):
    """Graded signature of the Cayley kernel of u on Ran(1 - u): the ranges from
    the SVD of 1 - u, the kernel of the symmetrised Cayley matrix by SVD."""
    eye = np.eye(u.shape[0])
    w_full, svals, _ = np.linalg.svd(eye - u)
    w = w_full[:, svals >= rank_threshold(svals, rank_tol)]
    if w.shape[1] == 0:
        return 0
    a = w.conj().T @ (eye - u) @ w
    b = w.conj().T @ (1j * (eye + u)) @ w
    cayley = np.linalg.solve(a, b)
    cayley = 0.5 * (cayley + cayley.conj().T)
    g = w.conj().T @ gamma0 @ w
    assert np.abs(g @ g - np.eye(w.shape[1])).max() <= 1e-8
    assert np.abs(g @ cayley + cayley @ g).max() <= 1e-6 * max(1.0, np.abs(cayley).max())
    return indices.graded_signature(indices.kernel_basis(cayley, rank_tol).basis, g)


def full_index_report(u, g0, g1=None, rank_tol=indices.DEFAULT_RANK_TOL):
    """``indices.full_index_report(u, g0, g1, rank_tol).to_dict()`` composed index by
    index: kernels by SVD, Re U blocks from U, Cayley ranges from separate SVDs of
    1 - U and 1 + U, pair indices from ``indices.pair_index``."""
    eye = np.eye(u.shape[0])
    p0 = 0.5 * (eye + g0)
    p1 = 0.5 * (eye + (g0 @ u if g1 is None else g1))
    ker_plus = indices.kernel_basis(u - eye, rank_tol)
    ker_minus = indices.kernel_basis(u + eye, rank_tol)
    si_plus, si_minus = (indices.graded_signature(k.basis, g0) for k in (ker_plus, ker_minus))
    tanaka_plus, tanaka_minus = tanaka_index_pm(u, g0, rank_tol)
    return indices.IndexReport(
        si_plus=si_plus,
        si_minus=si_minus,
        si_total=si_plus + si_minus,
        susy_index=susy_index(u, g0, rank_tol),
        tanaka_plus=tanaka_plus,
        tanaka_minus=tanaka_minus,
        pair_index=indices.pair_index(p0, p1, rank_tol),
        pair_index_complement=indices.pair_index(p0, eye - p1, rank_tol),
        cayley_minus=cayley_signature(u, g0, rank_tol),
        cayley_plus=cayley_signature(-u, g0, rank_tol),
        trace_gamma0=int(round(np.trace(g0).real)),
        diagnostics={
            "rank_margin": min((k.rank_margin for k in (ker_plus, ker_minus)
                                if k.rank_margin is not None), default=None),
            "dim_ker_u_minus_one": ker_plus.dimension,
            "dim_ker_u_plus_one": ker_minus.dimension,
        },
    ).to_dict()


def generator_index(hamiltonian, gamma0, rank_tol=indices.DEFAULT_RANK_TOL):
    """(graded signature of Ker H by SVD, si_plus of e^(i pi H) from the kernels of
    both U - 1 and U + 1), H flattened as ``build_generator_walk`` flattens it."""
    walk = build_generator_walk(hamiltonian, gamma0)
    kernel = indices.kernel_basis(walk.hamiltonian, rank_tol).basis
    index = indices.graded_signature(kernel, gamma0)
    return index, indices.symmetry_index_pm(walk.walk_exp, gamma0, rank_tol)[0]


def pair_index_trace(p0, p1, m=0):
    """Tr((P0 - P1)^(2m+1)) from one matrix power."""
    power = np.linalg.matrix_power(np.asarray(p0) - np.asarray(p1), 2 * int(m) + 1)
    return float(np.trace(power).real)


# --- rank and signature decisions as numpy reductions ---------------------------


def rank_threshold(svals, rank_tol):
    """rank_tol * sigma_max, at least 1e-12, for one spectrum or a stack (shape (..., k))."""
    return np.maximum(rank_tol * svals[..., :1], 1e-12)


def kernel_summary(svals, rows, rank_tol):
    """(threshold, kernel mask, rank margin) of a full SVD with ``rows`` right singular
    vectors: a wide matrix keeps its implicit zeros, which cannot flip; the margin is the
    least of s / t over the values kept and t / s over the nonzero values counted as zero."""
    threshold = float(rank_threshold(svals, rank_tol).max(initial=1e-12))
    padded = np.concatenate([svals, np.zeros(rows - svals.size)])
    mask = padded < threshold
    nonzero = padded[padded != 0]
    ratios = np.where(nonzero < threshold, threshold / nonzero, nonzero / threshold)
    return threshold, mask, float(ratios.min()) if ratios.size else None


def kernel_dims(svals, cols, rank_tol, scale=None):
    """Kernel dimension of each matrix of a stack from its singular values."""
    ref = svals if scale is None else np.full(svals.shape, scale)
    return (cols - np.sum(svals >= rank_threshold(ref, rank_tol), axis=-1)).tolist()


def hermitian_kernel(evals, shifts, rank_tol):
    """Kernel mask of h - s from the eigenvalues of h, one row per shift of a sequence."""
    dist = np.abs(evals - np.reshape(shifts, np.shape(shifts) + (1,)))
    return dist < rank_threshold(dist.max(axis=-1, keepdims=True, initial=0.0), rank_tol)


def signature_and_margin(evals):
    """(signature, margin) of compressed gamma0 eigenvalues; one inside (-1/2, 1/2) refuses."""
    gap = indices.SIGNATURE_GAP
    if np.any(np.abs(evals) < gap):
        raise PreconditionError(
            "kernel not Gamma0-invariant within tolerance: compressed eigenvalue "
            f"{evals[np.argmin(np.abs(evals))]:.3f} inside (-1/2, 1/2); "
            "rank tolerance likely misclassified a singular value"
        )
    signature = int(np.sum(evals > gap) - np.sum(evals < -gap))
    return signature, float(np.abs(evals).min() - gap) if evals.size else None


def cayley_range(svals, rank_tol):
    """Mask of the left singular vectors that span the range of 1 - u."""
    return svals >= rank_threshold(svals, rank_tol)


# --- split-step indices in closed form -----------------------------------------


def split_step_indices(a_left, a_right, c, shift_exponent):
    """(si_plus, si_minus) of the split-step walk U = G0 G1, or None at a gap closing.

    G0 = [[c, conj(d) S^-m], [d S^m, -c]] and G1 = [[a, conj(b)], [b, -a]]
    with a(x) -> a_left, a_right at -inf, +inf, m = ``shift_exponent`` and
    (S psi)(x) = psi(x - 1).  si_plus and si_minus are the signatures of G0
    on Ker(U - 1) and Ker(U + 1).  Only the limits of a, c and m enter: not
    the phases of b and d, and not the sites between the limits.

    Gaps.  Both limit symbols are products of two reflections of C^2, with
    Bloch vectors (Re d z^m, Im d z^m, c) and (Re b, Im b, a), so their
    eigenvalues are exp(+-i w) with cos w = ca + Re(conj(d z^m) b), whose
    range over the circle is [ca - |d||b|, ca + |d||b|].  The gap at +1
    closes exactly when ca + |d||b| = 1, that is a = c, and the gap at -1
    when a = -c; there the function returns None.

    Both cases rest on the supersymmetric split of Suzuki & Tanaka (2019),
    whose Witten index of the anisotropic-coin walk is the G0-signature on
    Ker(U - 1) + Ker(U + 1), that is si_plus + si_minus.  U psi = psi is
    G1 psi = G0 psi, and U psi = -psi is G1 psi = -G0 psi, so each kernel
    splits into joint eigenspaces of G0 and G1.

    si_plus: Ker(U - 1) = (Ker(G0 - 1) ^ Ker(G1 - 1)) + (Ker(G0 + 1) ^ Ker(G1 + 1)),
    and si_plus is the dimension of the first minus that of the second.  On
    Ker(G1 - 1), psi(x) = f(x) (1 + a(x), b(x)), and G0 psi = psi asks
    psi_2(x) = d psi_1(x - m) / (1 + c).  So f(x) = r(x) f(x - m) with
    |r|^2 = (1 - c)(1 + a) / ((1 + c)(1 - a)) at the limits, below 1
    exactly when a < c.  The recursion steps by m: one solution per residue
    class mod m, in l2 exactly when a_right < c (decay at +inf) and
    a_left > c (decay at -inf).  On Ker(G1 + 1), psi(x) = g(x) (a(x) - 1,
    b(x)), and G0 psi = -psi gives |r|^2 = (1 + c)(1 - a) / ((1 - c)(1 + a)),
    so one solution per class exactly when a_right > c > a_left.  Hence
        si_plus = m ([a_left > c] - [a_right > c]).
    A defect table changes r at finitely many sites and never the decay,
    so it moves neither count.

    si_minus: Matsuzawa (2020) states the index theorem of split-step walks
    at +1 and at -1 separately.  Replacing G1 by -G1, the coin (-a, -b),
    gives the walk U' = -U, whose Ker(U' - 1) is Ker(U + 1), with the same
    grading G0; so the si_plus case with a -> -a gives
        si_minus = m ([a_right > -c] - [a_left > -c]).
    """
    if min(abs(a - s * c) for a in (a_left, a_right) for s in (1, -1)) == 0.0:
        return None
    m = shift_exponent
    return m * (int(a_left > c) - int(a_right > c)), m * (int(a_right > -c) - int(a_left > -c))


# --- scenario documents ----------------------------------------------------------


MAX_DEFECT_SITES = 10
NEAR_SEEDS = range(100, 104)
NEAR_MODELS_PER_SEED = 100   # 400 models in all
NEAR_EPS_LOG10 = (-7.0, -1.0)


def number_pair(z):
    """A complex scalar as the [re, im] pair that a scenario reads."""
    return [float(np.real(z)), float(np.imag(z))]


def table_profile(left, right, table):
    """A scenario's table profile of a coin: its limits and {site: value} table."""
    return {"profile": "table", "left": number_pair(left), "right": number_pair(right),
            "table": [{"x": int(x), "value": number_pair(v)} for x, v in table.items()]}


def near_closing_model(rng):
    """A split-step scenario whose left or right limit of a sits at |a -+ c| = eps from a
    gap closing, eps log-uniform over NEAR_EPS_LOG10, the other limit generic, a shift
    exponent 1-2 and, for half of the models, a defect table with |a(x)| < 1, where the
    closed form holds; returns (doc, the oracle's indices)."""
    theta2, theta_other = rng.uniform(0.05, np.pi - 0.05, size=2)
    c, eps = np.cos(theta2), 10.0 ** rng.uniform(*NEAR_EPS_LOG10)
    surface, offset = rng.choice([1.0, -1.0]) * c, rng.choice([1.0, -1.0]) * eps
    a_near = surface + offset if abs(surface + offset) < 1.0 else surface - offset
    limits = (a_near, np.cos(theta_other))
    a_left, a_right = limits if rng.random() < 0.5 else limits[::-1]
    m = int(rng.integers(1, 3))

    def phase():
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))

    start = int(rng.integers(-5, 5))
    width = int(rng.integers(1, MAX_DEFECT_SITES + 1))
    sites = range(start, start + width) if rng.random() < 0.5 else ()
    defects = {x: rng.uniform(0.05, np.pi - 0.05) for x in sites}
    doc = {
        "model": "split_step",
        "params": {
            "a": table_profile(a_left, a_right, {x: np.cos(t) for x, t in defects.items()}),
            "b": table_profile(np.sqrt(1.0 - a_left**2) * phase(),
                               np.sqrt(1.0 - a_right**2) * phase(),
                               {x: np.sin(t) * phase() for x, t in defects.items()}),
            "c": float(c),
            "d_coin": number_pair(np.sin(theta2) * phase()),
            "shift_exponent": m,
        },
    }
    return doc, split_step_indices(float(a_left), float(a_right), float(c), m)


def operator_doc(op):
    """The custom_banded operator document of a BandedAnisotropicOperator: its
    limits and trimmed bulk window per band, complex entries as [re, im] pairs."""
    def cpx(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]

    bands = []
    for n in sorted(op.bands):
        f = op.bands[n]
        bands.append({
            "offset": n,
            "left_limit": cpx(f.left),
            "right_limit": cpx(f.right),
            "bulk": [{"x": f.window_start + i, "value": cpx(v)} for i, v in enumerate(f.values)],
        })
    return {"fiber_dim": op.fiber_dim, "bands": bands}


def scaled_generator(s):
    """The generator scenario H = s (e1 e3^T + e3 e1^T), Gamma0 = diag(1, 1, -1).  Its
    eigenvalues +-s and 0 flatten to +-1 and 0 for s > 1: Ker H = span e2 gives
    Index(H) = si_plus = 1, with dim Ker(U - 1) = 1 and dim Ker(U + 1) = 2."""
    zero = [0.0, 0.0]
    h = [[[s, 0.0] if {i, j} == {0, 2} else zero for j in range(3)] for i in range(3)]
    g = [[[1.0 if i < 2 else -1.0, 0.0] if i == j else zero for j in range(3)] for i in range(3)]
    return {"model": "generator", "params": {"hamiltonian": h, "gamma0": g}}


def huge_coin():
    """A weighted-shift scenario with the finite coin diag(1e200 + 1e200i): its unitarity
    residual overflows to NaN, and the coin check refuses it."""
    zero, big = [0.0, 0.0], [1e200, 1e200]
    return {"model": "weighted_shift", "params": {"m": 1, "n": 0, "coin": [[big, zero], [zero, big]]}}


# --- coefficient windows site by site, trimmed row by row ---------------------


def values_on(f, lo, hi):
    """``f.values_on(lo, hi)`` from a site range, a mask per limit and a gather."""
    xs = np.arange(lo, hi + 1)
    out = np.where((xs < f.window_start)[:, None, None], f.left, f.right)
    bulk = (xs >= f.window_start) & (xs < f.window_end)
    out[bulk] = f.values[xs[bulk] - f.window_start]
    return out


def trim(values, window_start, left, right):
    """(table, window_start) with the rows that repeat the adjacent limit dropped,
    one ``np.array_equal`` per row."""
    lo, hi = 0, values.shape[0]
    while lo < hi and np.array_equal(values[lo], left):
        lo += 1
    while hi > lo and np.array_equal(values[hi - 1], right):
        hi -= 1
    return values[lo:hi], window_start + lo


# --- lattice clearances, germ gates, level sets and row trims as numpy reductions


def clearance(*roots):
    """``transfer._clearance`` by numpy reductions over the concatenated roots."""
    if any(isinstance(z, Exception) for z in roots):
        return 0.0, False
    return _clearance(np.concatenate(roots))


def germ_counts(roots, r, d):
    """The germ dimensions that ``transfer._germ_pair`` reads off the roots of an
    operator of band radius r on C^d, or its refusal of a root in the margin."""
    (z_left, order_left), (z_right, order_right) = roots
    z = np.concatenate([z_left, z_right])
    radii = np.abs(z)
    if not _clearance(z)[1]:
        nearest = radii[np.abs(1.0 / radii - 1.0).argmin()]
        raise NotFredholmError("transfer eigenvalue within margin of the unit circle "
                               f"(|lambda| = {1.0 / nearest:.8f})")
    inside = radii > 1.0
    return [r * d + order_left + int(np.count_nonzero(~inside[: z_left.size])),
            r * d - order_right - z_right.size + int(np.count_nonzero(inside[z_left.size :]))]


def germ_trace_check(sign, counts):
    """``transfer._trace_check``: the traces of the two germ projectors, from the
    matrix signs (shape (2, n, n)), against the root counts."""
    tail = np.array([-1.0, 1.0])
    traces = 0.5 * (sign.shape[-1] + tail * np.trace(sign, axis1=1, axis2=2).real)
    if not np.array_equal(np.rint(traces), counts):
        raise NotFredholmError(f"germ space dimensions {traces.round(6).tolist()} differ from "
                               f"the root counts {counts}")
    return counts


def det_polys(samples, mus):
    """``transfer._det_polys`` with each row trimmed by its own ``np.nonzero``."""
    values, twist, low = samples
    dets = np.linalg.det(values[..., None, :, :, :]
                         - np.asarray(mus)[:, None, None, None] * np.eye(values.shape[-1]))
    coeffs = np.fft.fft(dets * twist[..., None, :]) / values.shape[-3]
    coeffs[np.abs(coeffs) < transfer.COEFF_TOL * np.abs(coeffs).max(axis=-1, keepdims=True)] = 0.0
    polys = []
    for row, low in zip(coeffs.reshape(-1, coeffs.shape[-1]), np.repeat(low, len(mus))):
        nz = np.nonzero(row)[0]
        polys.append((row[nz[0] : nz[-1] + 1][::-1], int(low + nz[0])) if nz.size else
                     (NotFredholmError("symbol determinant vanishes identically"), None))
    return polys


def joint_gaps(loops, samples, targets):
    """``essential._gaps`` with its bookkeeping in numpy: probe owners as an array
    and a mask per group, crossings selected, sorted and averaged as arrays.  The
    stacked root solve is ``essential._sample_roots``, looked up at call time."""
    e = essential
    n = len(targets)
    value, level, bound, transfer_roots = [np.inf] * n, [np.inf] * n, [0.0] * n, None
    groups = [(range(n), [e.INITIAL_PROBES] * len(loops))]
    for _ in range(e.MAX_LEVELS):
        owner = np.concatenate([np.full(points[i].size, g) for i in range(len(loops))
                                for g, (_, points) in enumerate(groups)])
        evs = np.linalg.eigvals(np.concatenate([
            loop(np.exp(1j * np.concatenate([points[i] for _, points in groups])))
            for i, loop in enumerate(loops)]))
        live, mus = [], []
        for g, (members, _) in enumerate(groups):
            distances = evs[owner == g]
            for k in members:
                lowest = float(np.abs(distances - targets[k]).min())
                if lowest >= level[k]:
                    bound[k] = level[k]
                    continue
                value[k] = lowest
                if lowest != 0.0:
                    level[k] = lowest * (1.0 - e.LEVEL_RTOL)
                    phi = 2.0 * np.arcsin(min(level[k] / 2.0, 1.0))
                    live.append(k)
                    mus += [targets[k] * np.exp(1j * s * phi) for s in (1, -1)]
        mus += list(targets) if transfer_roots is None else []
        if not mus:
            break
        found = e._sample_roots(samples, mus)
        found = [found[i : i + len(mus)] for i in range(0, len(found), len(mus))]
        transfer_roots = transfer_roots or [[r[2 * len(live) + k] for r in found] for k in range(n)]
        groups = []
        for j, k in enumerate(live):
            ends = [[z for z, _ in r[2 * j : 2 * j + 2]] for r in found]
            if any(isinstance(z, Exception) for pair in ends for z in pair):
                continue
            points = []
            for r in map(np.concatenate, ends):
                close = np.abs(np.abs(r) - 1.0) <= e.CROSSING_TOL
                angles = np.sort(np.angle(r[close]) % (2.0 * np.pi))
                points.append(0.5 * (angles + np.append(angles[1:], angles[0] + 2.0 * np.pi))
                              if angles.size else np.zeros(1))
            groups.append(([k], points))
        if not groups:
            break
    clearances = [clearance(*(z for z, _ in roots)) for roots in transfer_roots]
    return [e._Gap(value[k], bound[k], *c, transfer_roots[k]) for k, c in enumerate(clearances)]
