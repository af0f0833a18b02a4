"""Randomized cross-validation suites and the model generators behind them.

Every suite takes an explicit seeded generator, checks one family of
identities between independently computed quantities, and returns a
SuiteResult; the CLI `verify` subcommand and the acceptance tests both
run these.  Structured chiral pairs are assembled from explicit 1- and
2-dimensional blocks, so every index is known by construction and
serves as an independent oracle.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from . import essential, indices, operators as ops, transfer, winding
from .exceptions import check_residual
from .operators import BandedAnisotropicOperator, CoefficientFunction
from .walks import SplitStepParams, build_walk

BLOCK_COUNTS = 3            # a structured pair has 0-3 one-dimensional blocks of each sign pair
ROTATIONS = 6               # ... and 1-6 rotation blocks
MIN_ANGLE = 0.25            # ... whose angles keep this far from 0 and pi
MAX_DIM = 40                # largest dimension of a generic chiral pair
TRACE_TOL = 1e-8            # odd-power traces against the pair indices
DEFECT_PROBABILITY = 0.5    # share of random split-step walks with a coin-defect table
MAX_ATTEMPTS = 2000         # random split-step walks drawn for the certified ones


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: int
    messages: list = field(default_factory=list)
    seconds: float | None = None      # wall time, set by run_suites; never in line()

    @property
    def passed(self):
        return self.failures == 0

    def record(self, ok, describe):   # describe() builds the message, only on a failure
        if not ok:
            self.failures += 1
            if len(self.messages) < 20:
                self.messages.append(describe())

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.trials} trials, {self.failures} failures"


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@dataclass
class StructuredPair:
    """Finite chiral pair with every index known by construction."""

    u: np.ndarray
    gamma0: np.ndarray
    gamma1: np.ndarray
    si_plus: int
    si_minus: int
    dim_ker_plus_one: int     # dim Ker(U + 1)
    dim_ker_minus_one: int    # dim Ker(U - 1)

    @property
    def trace_gamma0(self):
        return self.si_plus + self.si_minus


def structured_chiral_pair(rng):
    """Random chiral pair from explicit blocks.

    1-dim blocks carry (gamma0, gamma1) signs (s, t) with u = s t;
    2-dim blocks rotate by angles bounded away from 0 and pi so they
    contribute no +-1 spectrum.  Everything is conjugated by one random
    unitary.
    """
    counts = rng.integers(0, BLOCK_COUNTS + 1, size=4)
    n_pp, n_pm, n_mp, n_mm = (int(c) for c in counts)
    k = int(rng.integers(1, ROTATIONS + 1))
    angles = rng.uniform(MIN_ANGLE, np.pi - MIN_ANGLE, size=k)
    dim = n_pp + n_pm + n_mp + n_mm + 2 * k
    g0 = np.zeros((dim, dim), dtype=complex)
    g1 = np.zeros((dim, dim), dtype=complex)
    pos = 0
    for s, t, count in (
        (1, 1, n_pp),
        (1, -1, n_pm),
        (-1, 1, n_mp),
        (-1, -1, n_mm),
    ):
        for _ in range(count):
            g0[pos, pos] = s
            g1[pos, pos] = t
            pos += 1
    for phi in angles:
        g0[pos : pos + 2, pos : pos + 2] = np.array([[1, 0], [0, -1]])
        g1[pos : pos + 2, pos : pos + 2] = np.array(
            [[np.cos(phi), np.sin(phi)], [np.sin(phi), -np.cos(phi)]]
        )
        pos += 2
    v = random_unitary(dim, rng)
    g0 = v @ g0 @ v.conj().T
    g1 = v @ g1 @ v.conj().T
    g0 = 0.5 * (g0 + g0.conj().T)
    g1 = 0.5 * (g1 + g1.conj().T)
    return StructuredPair(
        u=g0 @ g1,
        gamma0=g0,
        gamma1=g1,
        si_plus=n_pp - n_mm,
        si_minus=n_pm - n_mp,
        dim_ker_plus_one=n_pm + n_mp,
        dim_ker_minus_one=n_pp + n_mm,
    )


def generic_chiral_pair(rng, dim):
    """Two independent random involutions; no ground truth attached."""
    def involution():
        v = random_unitary(dim, rng)
        signs = np.where(rng.random(dim) < 0.5, 1.0, -1.0)
        g = (v * signs) @ v.conj().T
        return 0.5 * (g + g.conj().T)

    g0, g1 = involution(), involution()
    return g0 @ g1, g0, g1


def random_projection(rng, dim, rank=None):
    if rank is None:
        rank = int(rng.integers(0, dim + 1))
    v = random_unitary(dim, rng)
    p = (v[:, :rank]) @ (v[:, :rank].conj().T)
    return 0.5 * (p + p.conj().T)


def random_chiral_hamiltonian(rng, m, n, rank=None, norm_cap=1.0):
    """H anticommuting with a rank-(m, n) grading; Index(H_plus) = m - n."""
    if rank is None:
        rank = int(rng.integers(0, min(m, n) + 1))
    t = np.zeros((n, m), dtype=complex)
    if rank:
        a = random_unitary(n, rng)[:, :rank]
        b = random_unitary(m, rng)[:, :rank]
        svals = rng.uniform(0.3, 1.0, size=rank)
        t = (a * svals) @ b.conj().T
    h = np.zeros((m + n, m + n), dtype=complex)
    h[m:, :m] = t
    h[:m, m:] = t.conj().T
    g0 = np.diag(np.concatenate([np.ones(m), -np.ones(n)])).astype(complex)
    v = random_unitary(m + n, rng)
    h = v @ h @ v.conj().T
    h = 0.5 * (h + h.conj().T) * norm_cap
    g0 = v @ g0 @ v.conj().T
    g0 = 0.5 * (g0 + g0.conj().T)
    return h, g0, m - n


# --- lattice model generators -------------------------------------------------


def scalar_profile(left, right, table=None):
    table = {x: np.array([[v]], dtype=complex) for x, v in (table or {}).items()}
    return CoefficientFunction.from_table(
        np.array([[left]], dtype=complex), np.array([[right]], dtype=complex), table
    )


def split_step_from_angles(theta1_left, theta1_right, theta2, shift_exponent=1, defects=None):
    """Split-step pair with step-profile coin angles and optional a/b defects.

    defects maps site -> angle; a(x) = cos, b(x) = sin at every site.
    """
    table_a = {x: np.cos(t) for x, t in (defects or {}).items()}
    table_b = {x: np.sin(t) for x, t in (defects or {}).items()}
    params = SplitStepParams(
        a=scalar_profile(np.cos(theta1_left), np.cos(theta1_right), table_a),
        b=scalar_profile(np.sin(theta1_left), np.sin(theta1_right), table_b),
        c=float(np.cos(theta2)),
        d_coin=complex(np.sin(theta2)),
        shift_exponent=shift_exponent,
    )
    return build_walk(params)


def random_split_step(rng):
    angles = rng.uniform(0.0, np.pi, size=3)
    defects = {}
    if rng.random() < DEFECT_PROBABILITY:
        for x in range(-int(rng.integers(0, 3)), int(rng.integers(1, 4))):
            defects[x] = float(rng.uniform(0.0, np.pi))
    return split_step_from_angles(angles[0], angles[1], angles[2], defects=defects)


def interpolating_shift_model(rng, power_left, power_right, noise_sites=3):
    """Scalar banded operator equal to S^power_left at -inf, S^power_right at +inf.

    Random bulk entries on every band keep the limits (and the index)
    unchanged.  Expected kernel-count index: power_right - power_left.
    """
    lo = min(power_left, power_right, 0)
    hi = max(power_left, power_right, 0)
    bands = {}
    for n in range(lo, hi + 1):
        left = 1.0 if n == power_left else 0.0
        right = 1.0 if n == power_right else 0.0
        table = {
            x: rng.normal() + 1j * rng.normal()
            for x in range(-noise_sites, noise_sites + 1)
            if rng.random() < 0.6
        }
        bands[n] = scalar_profile(left, right, table)
    return BandedAnisotropicOperator(1, bands)


# --- finite-dimensional suites ------------------------------------------------


def identity_chain_suite(seed=0, trials=1000):
    """si+ + si- = susy = tanaka+ + tanaka- = pair + pair-complement
    = cayley- + cayley+ = Tr(G0)."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("identity_chain", trials, 0)
    for k in range(trials):
        if k % 2 == 0:
            sp = structured_chiral_pair(rng)
            u, g0, g1 = sp.u, sp.gamma0, sp.gamma1
            expected = sp.trace_gamma0
        else:
            dim = int(rng.integers(2, MAX_DIM + 1))
            u, g0, g1 = generic_chiral_pair(rng, dim)
            expected = None
        report = indices.full_index_report(u, g0, g1)
        chain = report.identity_chain_values()
        chain["cayley_total"] = report.cayley_minus + report.cayley_plus
        values = set(chain.values())
        ok = len(values) == 1
        if expected is not None:
            ok = ok and values == {expected}
        result.record(ok, lambda: f"trial {k}: chain {chain}")
    return result


def componentwise_suite(seed=1, trials=300):
    """si- = tanaka- = pair = cayley- and si+ = tanaka+ = complement = cayley+."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("componentwise", trials, 0)
    for k in range(trials):
        sp = structured_chiral_pair(rng)
        report = indices.full_index_report(sp.u, sp.gamma0, sp.gamma1)
        minus = {report.si_minus, report.tanaka_minus, report.pair_index, report.cayley_minus}
        plus = {report.si_plus, report.tanaka_plus, report.pair_index_complement, report.cayley_plus}
        ok = minus == {sp.si_minus} and plus == {sp.si_plus}
        result.record(ok, lambda: f"trial {k}: minus {minus} vs {sp.si_minus}, "
                                  f"plus {plus} vs {sp.si_plus}")
    return result


def trace_formula_suite(seed=2, trials=300):
    """Tr((P0-P1)^(2m+1)) = Ind(P0,P1) and the complement version, m = 0,1,2."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("trace_formulas", trials, 0)
    for k in range(trials):
        sp = structured_chiral_pair(rng)
        eye = np.eye(sp.u.shape[0])
        p0 = 0.5 * (eye + sp.gamma0)
        p1 = 0.5 * (eye + sp.gamma1)
        t1 = indices.pair_index_trace(p0, p1, (0, 1, 2))
        t2 = indices.pair_index_trace(p0, eye - p1, (0, 1, 2))
        ok = check_residual(np.subtract([t1, t2], [[sp.si_minus], [sp.si_plus]]), TRACE_TOL)
        result.record(ok, lambda: f"trial {k}")
    return result


def pair_algebra_suite(seed=3, trials=500):
    """Antisymmetry, complement rules, additivity; rank-difference oracle; one batched call."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("pair_algebra", trials, 0)
    for k in range(trials):
        dim = int(rng.integers(2, 14))
        ranks = rng.integers(0, dim + 1, size=3)
        p = [random_projection(rng, dim, int(r)) for r in ranks]
        p += [np.eye(dim) - p[0], np.eye(dim) - p[1]]  # p[3] = 1 - P0, p[4] = 1 - P1
        ind_01, ind_10, ind_c01, ind_0c1, ind_1c0, ind_12, ind_02 = indices.pair_indices(
            p, [(0, 1), (1, 0), (3, 4), (0, 4), (1, 3), (1, 2), (0, 2)]
        )
        ok = True
        # rank oracle: in finite dimension Ind(P,Q) = rank P - rank Q
        ok &= ind_01 == int(ranks[0] - ranks[1])
        ok &= ind_01 == -ind_10
        ok &= ind_01 == -ind_c01
        ok &= ind_0c1 == ind_1c0
        # additivity: Ind(P0,P1) + Ind(P1,P2) = Ind(P0,P2)
        ok &= ind_01 + ind_12 == ind_02
        result.record(ok, lambda: f"trial {k} ranks {ranks}")
    return result


def kernel_structure_suite(seed=4, trials=500):
    """Kernel decompositions of Ker(U -+ 1) and the kernel-dimension bound."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("kernel_structure", trials, 0)
    for k in range(trials):
        sp = structured_chiral_pair(rng)
        deco, bound = indices._kernel_structure(
            sp.u, sp.gamma0, sp.gamma1, indices.DEFAULT_RANK_TOL, indices.RELATION_TOL
        )
        ok = (
            deco.holds
            and bound.holds
            and deco.dim_ker_u_plus_one == sp.dim_ker_plus_one
            and deco.dim_ker_u_minus_one == sp.dim_ker_minus_one
        )
        result.record(ok, lambda: f"trial {k}")
    return result


def generator_suite(seed=5, trials=300):
    """Index(H_plus) = si_plus(e^{i pi H}) for chiral H with ||H|| <= 1."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("generator", trials, 0)
    for k in range(trials):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        h, g0, expected = random_chiral_hamiltonian(rng, m, n)
        # generator_index raises unless Index(H) equals si_plus(e^{i pi H})
        got = indices.generator_index(h, g0)
        result.record(got == expected, lambda: f"trial {k}: expected {expected} got {got}")
    return result


# --- lattice suites -----------------------------------------------------------


def dichotomy_suite(seed=6, models=200):
    """max(||G0-G1||, ||G0+G1||) >= 1 for every constructed lattice pair."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("dichotomy", models, 0)
    for k in range(models):
        pair = random_split_step(rng)
        report = essential.certify_unitary(pair).dichotomy
        result.record(report.holds, lambda: f"model {k}: {report.to_dict()}")
    return result


def certified_split_step_models(rng, count):
    """(pair, certify_unitary of the pair) of split-step pairs whose essential gaps at
    both +-1 are certified."""
    models = []
    attempts = 0
    while len(models) < count and attempts < MAX_ATTEMPTS:
        attempts += 1
        pair = random_split_step(rng)
        certs = essential.certify_unitary(pair)
        if certs.gap_plus.certified and certs.gap_minus.certified:
            models.append((pair, certs))
    if len(models) < count:
        raise RuntimeError("could not certify enough random split-step models")
    return models


def index_theorem_suite(seed=7, models=20):
    """Transfer-oracle index against winding differences, chiral and banded.

    A chiral model holds when both of its branches do: the total
    -(si_plus + si_minus) against the Gamma0 root count and the per-sign
    difference si_minus - si_plus against the Gamma1 root count.
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult("index_theorem", 0, 0)
    chiral_count = min(models, max(models // 2, 1))
    for k, (pair, certs) in enumerate(certified_split_step_models(rng, chiral_count)):
        record = winding.verify_index_theorem_chiral(
            pair, kernels=winding.certified_kernels(pair, certs))
        result.trials += 1
        result.record(record.holds, lambda: f"chiral model {k}: {record.to_dict()}")
    while result.trials < models:
        p_left = int(rng.integers(-2, 3))
        p_right = int(rng.integers(-2, 3))
        f_op = interpolating_shift_model(rng, p_left, p_right)
        record = winding.verify_index_theorem_banded(f_op)
        branch = record.branches[0]
        expected = p_right - p_left
        result.trials += 1
        result.record(record.holds and branch.lhs_index == expected,
                      lambda: f"banded {p_left}->{p_right}: {branch.to_dict()}")
    return result


def homotopy_suite(paths=None, samples=8):
    """Indices constant along gap-certified parameter paths.

    Each path interpolates the three coin angles linearly; every sampled
    cell must certify both gaps and both kernels, and si+- must not move.
    """
    if paths is None:
        paths = DEFAULT_HOMOTOPY_PATHS
    result = SuiteResult("homotopy", len(paths), 0)
    for idx, (start, end) in enumerate(paths):
        start = np.asarray(start, dtype=float)
        end = np.asarray(end, dtype=float)
        seen = set()
        for t in np.linspace(0.0, 1.0, samples):
            pair = split_step_from_angles(*((1 - t) * start + t * end))
            certs = essential.certify_unitary(pair)
            kernels = (certs.gap_plus.certified and certs.gap_minus.certified
                       and winding.certified_kernels(pair, certs))
            if not kernels or any(isinstance(k, Exception) for k in kernels):
                result.record(False, lambda: f"path {idx}: cell t={t:.3f} not certified")
                break
            seen.add(tuple(k.graded_signature for k in reversed(kernels)))   # (si+, si-)
        else:
            result.record(len(seen) == 1, lambda: f"path {idx}: indices moved: {sorted(seen)}")
    return result


# ten parameter paths; homotopy_suite certifies both gaps and both kernels at
# its sampled cells (8 per path by default), not along the whole path
DEFAULT_HOMOTOPY_PATHS = [
    ((0.0, 1.0, 0.30), (0.0, 1.2, 0.45)),
    ((0.0, 2.5, 0.30), (0.1, 2.4, 0.40)),
    ((2.8, 0.4, 1.20), (2.7, 0.5, 1.30)),
    ((0.2, 2.0, 2.60), (0.3, 2.1, 2.50)),
    ((1.8, 0.5, 2.00), (1.9, 0.6, 2.10)),
    ((0.0, 1.0, 0.30), (0.2, 1.0, 0.35)),
    ((2.8, 0.4, 1.20), (2.8, 0.3, 1.10)),
    ((0.2, 2.0, 2.60), (0.2, 1.9, 2.70)),
    ((1.8, 0.5, 2.00), (1.7, 0.5, 1.90)),
    ((0.0, 2.5, 0.30), (0.0, 2.6, 0.25)),
]


def consistency_suite(seed=8, trials=50):
    """Cross-module coherence: symbols, essential norms, transfer kernels."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("consistency", trials, 0)
    zs = ops.circle_grid(16)
    for k in range(trials):
        pair = random_split_step(rng)
        u = pair.u
        ok = True
        # symbol functoriality for the pair product
        for side in (ops.LEFT, ops.RIGHT):
            fu = u.symbol_at(side)(zs)
            fg = pair.gamma0.symbol_at(side)(zs) @ pair.gamma1.symbol_at(side)(zs)
            ok &= check_residual(fu - fg, 1e-12)
        # certified gap at -1 implies the transfer oracle finds a finite kernel
        gap = essential.gap_at(pair, -1)
        if gap.certified:
            try:
                transfer.exact_kernel(u + ops.identity(2), pair.gamma0, roots=gap.roots)
            except Exception as exc:  # noqa: BLE001 - any failure is a finding
                ok = False
                result.record(False, lambda: f"model {k}: transfer failed after "
                                             f"certification: {exc}")
        result.record(ok, lambda: f"model {k}")
    return result


FINITE_SUITES = (
    identity_chain_suite,
    componentwise_suite,
    trace_formula_suite,
    pair_algebra_suite,
    kernel_structure_suite,
    generator_suite,
)

LATTICE_SUITES = (
    dichotomy_suite,
    index_theorem_suite,
    homotopy_suite,
    consistency_suite,
)


def _timed(suite, **kwargs):
    """suite(**kwargs), its wall time in the result's ``seconds``."""
    start = time.perf_counter()
    result = suite(**kwargs)
    result.seconds = time.perf_counter() - start
    return result


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in the forked child: the cause
    chained to that exception when the parent raises it."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _run_claimed(calls, index, claims):
    """(index, timed result) of call ``index``, then of each call index read from the pipe
    ``claims`` (one byte each) until it is empty; an exception takes its result's place and
    ends them.  The next index is read only when the caller asks for it."""
    while True:
        suite, kwargs = calls[index]
        try:
            result = _timed(suite, **kwargs)
        except Exception as exc:  # noqa: BLE001 - raised by the caller in suite order
            yield index, exc
            return
        yield index, result
        claim = os.read(claims, 1)
        if not claim:
            return
        index = claim[0]


def _child(calls, claims, pipe):
    """Pickle (index, result) to ``pipe`` for call 1 and each call claimed after it, as each
    one finishes; an exception goes with its formatted traceback, and nothing follows it."""
    for item in _run_claimed(calls, 1, claims):
        if isinstance(item[1], Exception):
            import traceback

            item += ("".join(traceback.format_exception(item[1])),)
        pickle.dump(item, pipe)
        pipe.flush()


def _read_child(pipe):
    """What ``_child`` wrote, by call index, each exception with the child's traceback as
    its cause."""
    items = {}
    while True:
        try:
            item = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):   # the end, or a child that died writing
            return items
        if len(item) == 3:
            item[1].__cause__ = _ChildTraceback(item[2])
        items[item[0]] = item[1]


MAX_CALLS = 256   # each call index past 1 is claimed as one byte


def _run_calls(calls):
    """The timed result of each (suite, kwargs) of ``calls``, in call order; the first
    exception in call order is raised.

    With at least two calls and at least two CPUs in ``os.sched_getaffinity``, this process
    forks once.  It runs call 0 and the child runs call 1; then each process, whenever it is
    free, claims the next call that neither has taken by reading one byte from a pipe that
    holds the indices 2, 3, ... (a one-byte read is atomic, so each call runs once).  A
    process stops when that pipe is empty or at the first exception of its own calls.  The
    child streams its (index, result) pairs through a second pipe and leaves by
    ``os._exit``.  It is reaped before this returns or raises, and killed first if this
    process leaves before it has read that pipe to its end (an exception of its own calls
    does not make it leave: the child's may come first in call order).  A call the child
    claimed and never reported is a RuntimeError naming its exit status.  Where ``os.fork``
    or the affinity call is missing, or one CPU is usable, the calls run one after another
    in this process.  More than MAX_CALLS calls are refused.
    """
    if len(calls) > MAX_CALLS:
        raise ValueError(f"{len(calls)} suite calls exceed {MAX_CALLS}")
    affinity = getattr(os, "sched_getaffinity", None)
    if len(calls) < 2 or not hasattr(os, "fork") or affinity is None or len(affinity(0)) < 2:
        return [_timed(suite, **kwargs) for suite, kwargs in calls]
    claims, queue = os.pipe()
    os.write(queue, bytes(range(2, len(calls))))
    os.close(queue)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                _child(calls, claims, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            done = dict(_run_claimed(calls, 0, claims))
            done.update(_read_child(pipe))
    except BaseException:   # KeyboardInterrupt, say: nothing will read the child's results
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claims)
        _, status = os.waitpid(pid, 0)
    results = []
    for k in range(len(calls)):
        if k not in done:   # claimed by a child that died before reporting it
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"the forked verify process ended with status {code}")
        if isinstance(done[k], Exception):
            raise done[k]
        results.append(done[k])
    return results


def run_suites(which="all", seed=None, trials=None, models=None):
    """Run the named suite group with optional overrides; returns timed SuiteResults.

    The suites are seeded independently and share no state.  On a host with at least two
    usable CPUs (``os.sched_getaffinity``), this process and one forked child share them
    (``_run_calls``): this process runs the first suite, the child the second, and each
    further suite goes to whichever process is free first.  On one CPU, or where
    ``os.fork`` or the affinity call is missing (macOS, Windows), they run one after
    another.  Either way the results come back in suite order, the first exception in
    suite order is raised, and the lines that ``verify`` prints are the same bytes; only
    the wall times in ``seconds`` overlap.
    """
    calls = []
    if which in ("finite", "all"):
        for k, suite in enumerate(FINITE_SUITES):
            kwargs = {}
            if seed is not None:
                kwargs["seed"] = seed + k
            if trials is not None:
                kwargs["trials"] = trials
            calls.append((suite, kwargs))
    if which in ("lattice", "all"):
        for k, suite in enumerate(LATTICE_SUITES):
            kwargs = {}
            if suite is homotopy_suite:
                calls.append((suite, kwargs))
                continue
            if seed is not None:
                kwargs["seed"] = 100 + seed + k
            if models is not None and suite in (dichotomy_suite, index_theorem_suite):
                kwargs["models"] = models
            if trials is not None and suite is consistency_suite:
                kwargs["trials"] = trials
            calls.append((suite, kwargs))
    return _run_calls(calls)
