"""Self-tests of the benchmark: seeded generators, oracles and the tracer.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from chiralwalk import analysis, cli, essential, transfer  # noqa: E402
from chiralwalk.operators import circle_grid  # noqa: E402
from chiralwalk.scenarios import Scenario  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402


@pytest.fixture
def runner(tmp_path):
    return run.Runner(cli, tmp_path)


def execute(runner, op):
    runner.write_inputs(op)
    code, data, _ = runner.execute(op, "test")
    return code, data


def near_op(workload, path, eps):
    doc = workload.paths[path].doc(eps)
    return wl.Op(900 + path, ["index", "near.json", "--out", "{out}"], {"near.json": doc},
                 {"path": path, "eps": eps})


def relabel(data, mutate):
    doc = json.loads(data)
    mutate(doc)
    return json.dumps(doc).encode()


# --- generators ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    cls = wl.WORKLOADS[name]
    first = [cls(7).make_op(i) for i in range(10)]
    again = [cls(7).make_op(i) for i in range(10)]
    other = [cls(8).make_op(i) for i in range(10)]
    assert [(o.argv, o.files, o.expect) for o in first] == [
        (o.argv, o.files, o.expect) for o in again
    ]
    assert [(o.argv, o.files) for o in first] != [(o.argv, o.files) for o in other]


def kind_of(doc):
    params = doc["params"]
    return params["shift_exponent"], params["a"]["profile"] == "table"


def test_every_round_has_the_same_mix_of_kinds():
    sweep = wl.SweepGapped(4)
    for start in (0, sweep.round_size):
        docs = [doc for i in range(start, start + sweep.round_size)
                for f in sweep.make_op(i).files.values() for doc in f["axes"][0]["values"]]
        assert sorted(kind_of({"params": p}) for p in docs) == sorted(wl.KINDS)
    gapless = wl.IndexGapless(4)
    for start in (0, gapless.round_size):
        ops = [gapless.make_op(i) for i in range(start, start + gapless.round_size)]
        mix = sorted((op.expect["closed"], *kind_of(next(iter(op.files.values())))) for op in ops)
        assert mix == sorted((t, *kind) for t in (1, -1) for kind in wl.KINDS)


def test_gapless_generator_refutes_exactly_the_closed_gap():
    workload = wl.IndexGapless(3)
    for i in range(8):
        op = workload.make_op(i)
        (doc,) = op.files.values()
        pair = Scenario.from_doc(doc).build()
        closed = op.expect["closed"]
        assert essential.gap_at(pair.u, closed).status == essential.REFUTED
        assert essential.gap_at(pair.u, -closed).status == essential.CERTIFIED


def spectral_distance(pair, target, grid_n=512):
    """min |lambda - target| over both limit symbols' eigenvalues on the grid."""
    zs = circle_grid(grid_n)
    return min(
        float(np.abs(np.linalg.eigvals(pair.u.symbol_at(side)(zs)) - target).min())
        for side in wl.SIDES
    )


@pytest.mark.parametrize("eps", [1e-4, 3e-4, 1e-3, 1e-2, 0.1])
def test_near_closing_generator_hits_its_gap(eps):
    workload = wl.IndexNearClosing(5)
    for path in workload.paths:
        pair = Scenario.from_doc(path.doc(eps)).build()
        assert abs(spectral_distance(pair, path.target) - eps) <= 0.1 * eps
        assert spectral_distance(pair, -path.target) >= wl.FAR_GAP_FLOOR


def test_near_closing_cycle_gives_every_path_every_stratum():
    workload, other = wl.IndexNearClosing(9), wl.IndexNearClosing(10)
    width = (wl.EPS_LOG10[1] - wl.EPS_LOG10[0]) / wl.NEAR_STRATA
    for cycle in range(2):
        seen = set()
        for i in range(cycle * wl.NEAR_CYCLE, (cycle + 1) * wl.NEAR_CYCLE):
            assert workload.eps_at(i) == other.eps_at(i)
            stratum = int((math.log10(workload.eps_at(i)) - wl.EPS_LOG10[0]) // width)
            assert stratum == i % wl.NEAR_STRATA
            seen.add((workload.path_at(i), stratum))
        assert len(seen) == wl.NEAR_CYCLE


# --- oracles ---------------------------------------------------------------------


def test_sweep_oracle(runner):
    workload = wl.SweepGapped(1)
    op = workload.make_op(0)
    code, data = execute(runner, op)
    assert workload.check(op, code, data).status == wl.OK
    text = data.decode()
    assert workload.check(op, code, text.replace(",true", ",false", 1).encode()).status == wl.WRONG
    assert workload.check(op, code, text.replace("certified", "refuted", 1).encode()).status \
        == wl.WRONG
    assert workload.check(op, code, text.replace(",true", ",", 1).encode()).status == wl.FAILED
    assert workload.check(op, 1, data).status == wl.FAILED


def test_gapless_oracle(runner):
    workload = wl.IndexGapless(1)
    op = workload.make_op(0)
    code, data = execute(runner, op)
    assert workload.check(op, code, data).status == wl.OK
    closed = "gap_plus_one" if op.expect["closed"] == 1 else "gap_minus_one"

    def certify_closed(doc):
        doc["certifications"][closed]["status"] = "certified"

    def drop_index(doc):
        doc["indices"].clear()

    assert workload.check(op, code, relabel(data, certify_closed)).status == wl.WRONG
    assert workload.check(op, code, relabel(data, drop_index)).status == wl.FAILED
    assert workload.check(op, 0, data).status == wl.FAILED


def test_near_closing_oracle(runner):
    workload = wl.IndexNearClosing(1)
    path = 0
    (ref,) = [r for r in workload.references() if r.expect["path"] == path]
    workload.set_reference(ref, *execute(runner, ref))
    si_plus, si_minus = workload.reference[path]
    assert (si_plus, si_minus) != (0, 0)
    op = near_op(workload, path, 0.05)
    code, data = execute(runner, op)
    assert workload.check(op, code, data).status == wl.OK

    def flip(doc):
        doc["indices"]["si_plus"] = -doc["indices"]["si_plus"]

    def withhold(doc):
        del doc["indices"]["si_plus"]

    assert workload.check(op, code, relabel(data, flip)).status == wl.WRONG
    assert workload.check(op, code, relabel(data, withhold)).status == wl.FAILED
    assert workload.check(op, 2, data).status == wl.FAILED


def test_near_closing_oracle_without_reference_fails(runner):
    workload = wl.IndexNearClosing(1)
    op = near_op(workload, 1, 0.05)
    code, data = execute(runner, op)
    assert workload.check(op, code, data).status == wl.FAILED


def test_verify_oracle(runner):
    workload = wl.VerifyFinite(1)
    op = workload.make_op(0)
    code, data = execute(runner, op)
    assert workload.check(op, code, data).status == wl.OK
    text = data.decode()
    assert workload.check(op, 1, text.replace("PASS  ", "FAIL  ", 1).encode()).status == wl.WRONG
    assert workload.check(op, code, "\n".join(text.splitlines()[1:]).encode()).status \
        == wl.FAILED


# --- measurement helpers -----------------------------------------------------------


def test_percentile_interpolates_linearly():
    values = [float(v) for v in range(1, 201)]
    assert run.percentile(values, 95.0) == pytest.approx(190.05)
    assert run.percentile(values, 50.0) == pytest.approx(100.5)
    assert run.percentile([3.0], 90.0) == 3.0


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tail_percentile_is_fixed_and_below_the_maximum(name):
    assert 50.0 < wl.WORKLOADS[name].tail_percentile < 100.0


def test_tracer_records_linked_spans_and_restores_bindings(runner):
    workload = wl.SweepGapped(2)
    op = workload.make_op(0)
    runner.write_inputs(op)
    pool = getattr(analysis, "ThreadPoolExecutor", None)
    originals = (transfer.exact_kernel, analysis.run_index_report, pool)
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        assert sys.modules["chiralwalk.winding"].exact_kernel is transfer.exact_kernel
        assert transfer.exact_kernel is not originals[0]
        with contextlib.redirect_stdout(io.StringIO()):
            traced = runner.execute(op, "traced")
    finally:
        tracer.uninstall()
    assert (transfer.exact_kernel, analysis.run_index_report,
            getattr(analysis, "ThreadPoolExecutor", None)) == originals
    plain = runner.execute(op, "plain")
    assert traced[:2] == plain[:2]

    (sweep,) = [s for s in tracer.spans if s.name == "run_sweep"]
    cells = [s for s in tracer.spans if s.name == "run_index_report"]
    assert len(cells) == wl.SWEEP_CELLS and all(c.parent is sweep for c in cells)
    assert all(s.op == 0 for s in tracer.spans)
    selfs = self_times(tracer.spans)
    assert all(value >= -1e-9 for value in selfs.values())
    metrics = layer_metrics(tracer.spans, 1)
    assert metrics["winding.loops"] > 0
    assert metrics["transfer.exact_kernel_repeat_ratio"] >= 1.0
    assert metrics["analysis.sweep_parallelism"] > 0
