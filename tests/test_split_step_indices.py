"""si_plus and si_minus of split-step walks against the closed-form oracle.

``oracles.split_step_indices`` derives both indices from the limits of
the coin, with no call into the package; these tests run seeded models,
seeded models with one limit at eps from a gap closing, the shipped
split-step scenarios and criterion 8's models through the ``index``
report and compare.
"""

from pathlib import Path

import numpy as np
import pytest

from chiralwalk import analysis, verification
from chiralwalk.scenarios import Scenario

import oracles

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SEEDS = range(4)
MODELS_PER_SEED = 256      # 1,024 models in all
CLEARANCE = 0.02           # sampled limits keep |a -+ c| above this: both gaps open
MAX_DEFECT_SITES = oracles.MAX_DEFECT_SITES


def random_model(rng):
    """A split-step scenario with random coin angles and phases of b and d, a
    shift exponent 1-3 and, for half of the models, a defect table of up to
    MAX_DEFECT_SITES sites; returns (doc, the oracle's indices)."""
    while True:
        theta_left, theta_right, theta2 = rng.uniform(0.0, np.pi, size=3)
        a_left, a_right, c = np.cos([theta_left, theta_right, theta2])
        if min(abs(a - s * c) for a in (a_left, a_right) for s in (1, -1)) > CLEARANCE:
            break
    m = int(rng.integers(1, 4))

    def phase():
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))

    start = int(rng.integers(-5, 5))
    sites = range(start, start + int(rng.integers(1, MAX_DEFECT_SITES + 1))) if rng.random() < 0.5 else ()
    defects = {x: rng.uniform(0.0, np.pi) for x in sites}
    doc = {
        "model": "split_step",
        "params": {
            "a": oracles.table_profile(a_left, a_right, {x: np.cos(t) for x, t in defects.items()}),
            "b": oracles.table_profile(np.sin(theta_left) * phase(), np.sin(theta_right) * phase(),
                                       {x: np.sin(t) * phase() for x, t in defects.items()}),
            "c": float(c),
            "d_coin": oracles.number_pair(np.sin(theta2) * phase()),
            "shift_exponent": m,
        },
    }
    return doc, oracles.split_step_indices(float(a_left), float(a_right), float(c), m)


def indices_of(report):
    return report["indices"].get("si_plus"), report["indices"].get("si_minus")


def params_doc(params):
    """The scenario of validated split-step parameters, defect table included."""
    lo, a, b = params.profile   # the values on sites lo - 1 .. hi, limits at both ends

    def profile(values):
        return oracles.table_profile(values[0], values[-1],
                                     dict(zip(range(lo, lo + values.size - 2), values[1:-1])))

    return {"model": "split_step", "params": {
        "a": profile(a), "b": profile(b), "c": params.c,
        "d_coin": oracles.number_pair(params.d_coin), "shift_exponent": params.shift_exponent}}


@pytest.mark.parametrize("seed", SEEDS)
def test_index_matches_the_closed_form(seed):
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(MODELS_PER_SEED):
        doc, want = random_model(rng)
        report, code = analysis.run_index_report(Scenario.from_doc(doc))
        assert code == analysis.EXIT_OK, report["omitted"]
        assert indices_of(report) == want, doc
        seen.add((doc["params"]["shift_exponent"],) + want)
    # every shift exponent with a nonzero index of each sign, and zeros
    for m in (1, 2, 3):
        assert {(m, m, 0), (m, -m, 0), (m, 0, m), (m, 0, -m), (m, 0, 0)} <= seen


@pytest.mark.parametrize("seed", oracles.NEAR_SEEDS)
def test_near_closing_matches_the_closed_form(seed):
    # a withheld index is no wrong answer; a reported si -+ must be the closed form's, and
    # Ker(U -+ 1) splits into two joint eigenspaces of G0 and G1 of which at most one is
    # square-summable, so its dimension is |si -+|.  A model whose limits stay 1e-4 from
    # both closings must have both indices reported
    rng = np.random.default_rng(seed)
    for _ in range(oracles.NEAR_MODELS_PER_SEED):
        doc, want = oracles.near_closing_model(rng)
        report, _ = analysis.run_index_report(Scenario.from_doc(doc))
        p = doc["params"]
        limits = (p["a"]["left"][0], p["a"]["right"][0])
        eps = min(abs(a - s * p["c"]) for a in limits for s in (1, -1))
        for key, dim_key, si in (("si_plus", "dim_ker_u_minus_one", want[0]),
                                 ("si_minus", "dim_ker_u_plus_one", want[1])):
            if key not in report["indices"]:
                assert eps < 1e-4, (doc, report["omitted"])
                continue
            assert report["indices"][key] == si, doc
            assert report["indices"][dim_key] == abs(si), doc


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("split_step_*.json")), ids=lambda p: p.stem)
def test_shipped_scenarios(path):
    scenario = Scenario.load(path)
    p = scenario.params
    limits = [complex(*v) if isinstance(v, list) else v for v in (p["a"]["left"], p["a"]["right"])]
    want = oracles.split_step_indices(*(float(np.real(a)) for a in limits), p["c"],
                                      p.get("shift_exponent", 1))
    report, code = analysis.run_index_report(scenario)
    if want is None:   # split_step_gapless: a = c = 0 on both sides closes both gaps
        assert code == analysis.EXIT_REFUTED and indices_of(report) == (None, None)
    else:
        assert code == analysis.EXIT_OK and indices_of(report) == want


def test_criterion_8_models():
    # the chiral models of verification.index_theorem_suite(seed=1008, models=20)
    models = verification.certified_split_step_models(np.random.default_rng(1008), 10)
    for pair, _ in models:
        params = pair.params
        _, a, _ = params.profile
        want = oracles.split_step_indices(a[0].real, a[-1].real, params.c, params.shift_exponent)
        report, code = analysis.run_index_report(Scenario.from_doc(params_doc(params)))
        assert code == analysis.EXIT_OK and indices_of(report) == want


@pytest.mark.parametrize("a_left, a_right, m, want", [
    (0.6, -0.6, 1, (1, -1)),
    (-0.6, 0.6, 2, (-2, 2)),
    (0.9, 0.3, 3, (0, 0)),
])
def test_zero_coin_c(a_left, a_right, m, want):
    # c = 0 exactly, where sign(c) = 0: a rule read off sampled data in terms of
    # sign(a) = sign(c) gives si_plus = 0 for every such model (and si_minus = 2m
    # in the first); the derivation and the package both give
    # si_plus = m ([a_left > 0] - [a_right > 0]) = -si_minus
    assert oracles.split_step_indices(a_left, a_right, 0.0, m) == want
    doc = {"model": "split_step", "params": {
        "a": {"profile": "step", "left": a_left, "right": a_right},
        "b": {"profile": "step", "left": float(np.sqrt(1 - a_left**2)),
              "right": float(np.sqrt(1 - a_right**2))},
        "c": 0.0, "d_coin": 1.0, "shift_exponent": m}}
    report, code = analysis.run_index_report(Scenario.from_doc(doc))
    assert code == analysis.EXIT_OK and indices_of(report) == want
