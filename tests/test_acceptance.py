"""Acceptance criteria, one test per criterion, printed as pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Counts and tolerances are fixed here, not configurable.
"""

import json
import time

import numpy as np

from chiralwalk import indices, operators as ops, verification, winding
from chiralwalk.cli import main
from chiralwalk.verification import (
    generic_chiral_pair,
    random_unitary,
    structured_chiral_pair,
)
from chiralwalk.walks import build_weighted_shift_walk


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {description}{detail}")
    assert ok, f"criterion {number} failed {detail}"


def test_criterion_01_identity_chain():
    """>=1000 random chiral unitaries, dim <= 40: the five-member identity chain."""
    start = time.time()
    rng = np.random.default_rng(1001)
    trials = 1000
    failures = 0
    for k in range(trials):
        if k % 2 == 0:
            sp = structured_chiral_pair(rng)
            u, g0, g1, expected = sp.u, sp.gamma0, sp.gamma1, sp.trace_gamma0
        else:
            dim = int(rng.integers(2, 41))
            u, g0, g1 = generic_chiral_pair(rng, dim)
            expected = None
        si_plus, si_minus = indices.symmetry_index_pm(u, g0)
        susy = indices.susy_index(u, g0)
        t_plus, t_minus = indices.tanaka_index_pm(u, g0)
        eye = np.eye(u.shape[0])
        p0, p1 = 0.5 * (eye + g0), 0.5 * (eye + g1)
        pair_total = indices.pair_index(p0, p1) + indices.pair_index(p0, eye - p1)
        trace = np.trace(g0).real
        if abs(trace - round(trace)) >= 1e-6:  # pre-rounding deviation gate
            failures += 1
            continue
        values = {si_plus + si_minus, susy, t_plus + t_minus, pair_total, int(round(trace))}
        if expected is not None:
            values.add(expected)
        failures += len(values) != 1
    elapsed = time.time() - start
    _report(
        1,
        "identity chain over 1000 random chiral unitaries",
        failures == 0 and elapsed < 30.0,
        f" ({elapsed:.1f}s, {failures} failures)",
    )


def test_criterion_02_componentwise():
    """>=300 instances: si-_= tanaka- = pair = cayley- and the plus versions."""
    result = verification.componentwise_suite(seed=1002, trials=300)
    _report(2, "componentwise index equalities on 300 instances", result.passed,
            f" ({result.failures} failures)")


def test_criterion_03_trace_formulas():
    """Tr((P0-P1)^(2m+1)) and complement vs pair indices, m in {0,1,2}, 300 runs."""
    result = verification.trace_formula_suite(seed=1003, trials=300)
    _report(3, "odd-power trace formulas within 1e-8 on 300 instances",
            result.passed and verification.TRACE_TOL <= 1e-8,
            f" ({result.failures} failures)")


def test_criterion_04_pair_algebra():
    """Antisymmetry, complement rules, additivity over 500 random triples."""
    result = verification.pair_algebra_suite(seed=1004, trials=500)
    _report(4, "pair-index algebra on 500 triples", result.passed,
            f" ({result.failures} failures)")


def test_criterion_05_kernel_decomposition_and_bound():
    """Kernel decompositions of Ker(U-+1) and dim Ker(U+1) >= |Ind|, 500 runs."""
    result = verification.kernel_structure_suite(seed=1005, trials=500)
    _report(5, "kernel decomposition and bound on 500 instances", result.passed,
            f" ({result.failures} failures)")


def test_criterion_06_generator_theorem():
    """Index(H_plus) = si_plus(e^{i pi H}) for 300 random chiral generators."""
    result = verification.generator_suite(seed=1006, trials=300)
    _report(6, "generator index equals walk index on 300 instances", result.passed,
            f" ({result.failures} failures)")


def test_criterion_07_weighted_shift_anchor():
    """Winding of det-symbol of the weighted shift equals m - n, coins random."""
    rng = np.random.default_rng(1007)
    failures = 0
    for m in range(4):
        for n in range(4):
            for _ in range(20):
                coin = random_unitary(2, rng)
                op = build_weighted_shift_walk(m, n, coin)
                res = winding.winding_det(op.symbol_at(ops.RIGHT))
                failures += res.rounded != m - n
    _report(7, "weighted-shift winding anchor (m, n in 0..3, 20 coins each)",
            failures == 0, f" ({failures} failures)")


def test_criterion_08_double_sided_index_theorem():
    """>=20 certified models: transfer index = winding(right) - winding(left)."""
    start = time.time()
    result = verification.index_theorem_suite(seed=1008, models=20)
    elapsed = time.time() - start
    _report(8, "double-sided index theorem on 20 certified models",
            result.passed and elapsed < 120.0,
            f" ({result.trials} models, {elapsed:.1f}s, {result.failures} failures)")


def test_criterion_09_dichotomy():
    """max(||G0-G1||, ||G0+G1||) >= 1 - 1e-6 on 200 lattice chiral pairs."""
    result = verification.dichotomy_suite(seed=1009, models=200)
    _report(9, "essential-norm dichotomy on 200 lattice pairs", result.passed,
            f" ({result.failures} failures)")


def test_criterion_10_homotopy_invariance():
    """Ten gap-certified parameter paths: all reported indices constant."""
    result = verification.homotopy_suite()
    _report(10, "homotopy invariance along 10 certified paths", result.passed,
            f" ({result.failures} failures)")


def test_criterion_11_determinism(tmp_path):
    """Fixed seeds reproduce identical verify summaries and index reports."""
    summaries = []
    for _ in range(2):
        results = verification.run_suites("finite", seed=1011, trials=10)
        summaries.append("\n".join(r.line() for r in results))
    scenario = {
        "model": "split_step",
        "params": {
            "a": {"profile": "step", "left": 1.0, "right": float(np.cos(1.0))},
            "b": {"profile": "step", "left": 0.0, "right": float(np.sin(1.0))},
            "c": float(np.cos(0.3)),
            "d_coin": float(np.sin(0.3)),
        },
        "tolerances": {"grid_n": 512},
        "seed": 11,
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scenario))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["index", str(spath), "--out", str(out1)])
    code2 = main(["index", str(spath), "--out", str(out2)])
    ok = (
        summaries[0] == summaries[1]
        and code1 == code2 == 0
        and out1.read_bytes() == out2.read_bytes()
    )
    _report(11, "determinism: identical summaries and byte-identical reports", ok)
