"""Failure messages of the verify suites, and the forked split of ``run_suites``.

A suite builds a trial's message only when the trial fails.  Each test
forces the first trial of one suite to fail, by doctoring what one of
its calls returns, and requires the message each suite has always
written, rebuilt here from the undoctored value.

On a host with two usable CPUs ``run_suites`` forks one child: the
parent runs suite 0, the child suite 1, and each later suite goes to
whichever process is free first.  Only slots 0 and 1 are pinned, so a
test that needs a suite in a given process puts it there.  The results
must equal the sequential run's suite by suite (the same bytes in suite
order), the first exception must be the first in suite order, and no
child process may outlive ``run_suites``.
"""

import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from chiralwalk import essential, indices, transfer, verification, winding
from chiralwalk.exceptions import PreconditionError


def capture(monkeypatch, module, name, doctor=lambda out: out):
    """Replace module.name by a spy: it records (args, real result) and returns doctor(result)."""
    real, seen = getattr(module, name), []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append((args, out))
        return doctor(out)

    monkeypatch.setattr(module, name, spy)
    return seen


def never_holds(monkeypatch, cls):
    monkeypatch.setattr(cls, "holds", property(lambda self: False))


def shifted_cayley(report):
    report.cayley_plus += 1
    return report


def test_identity_chain(monkeypatch):
    reports = capture(monkeypatch, indices, "full_index_report", shifted_cayley)
    result = verification.identity_chain_suite(seed=0, trials=1)
    r = reports[0][1]
    chain = {**r.identity_chain_values(), "cayley_total": r.cayley_minus + r.cayley_plus}
    assert result.messages == [f"trial 0: chain {chain}"]


def test_componentwise(monkeypatch):
    pairs = capture(monkeypatch, verification, "structured_chiral_pair")
    reports = capture(monkeypatch, indices, "full_index_report", shifted_cayley)
    result = verification.componentwise_suite(seed=1, trials=1)
    sp, r = pairs[0][1], reports[0][1]
    minus = {r.si_minus, r.tanaka_minus, r.pair_index, r.cayley_minus}
    plus = {r.si_plus, r.tanaka_plus, r.pair_index_complement, r.cayley_plus}
    assert result.messages == [f"trial 0: minus {minus} vs {sp.si_minus}, "
                               f"plus {plus} vs {sp.si_plus}"]


def test_trace_formulas(monkeypatch):
    capture(monkeypatch, indices, "pair_index_trace", lambda out: [t + 1.0 for t in out])
    assert verification.trace_formula_suite(seed=2, trials=1).messages == ["trial 0"]


def test_pair_algebra(monkeypatch):
    capture(monkeypatch, indices, "pair_indices", lambda out: [1] * len(out))
    result = verification.pair_algebra_suite(seed=3, trials=1)
    rng = np.random.default_rng(3)
    ranks = rng.integers(0, int(rng.integers(2, 14)) + 1, size=3)
    assert result.messages == [f"trial 0 ranks {ranks}"]


def test_kernel_structure(monkeypatch):
    capture(monkeypatch, indices, "_kernel_structure",
            lambda out: (SimpleNamespace(holds=False), out[1]))
    assert verification.kernel_structure_suite(seed=4, trials=1).messages == ["trial 0"]


def test_generator(monkeypatch):
    got = capture(monkeypatch, indices, "generator_index", lambda out: out + 1)
    result = verification.generator_suite(seed=5, trials=1)
    index = got[0][1]
    assert result.messages == [f"trial 0: expected {index} got {index + 1}"]


def test_dichotomy(monkeypatch):
    never_holds(monkeypatch, essential.DichotomyReport)
    certs = capture(monkeypatch, essential, "certify_unitary")
    result = verification.dichotomy_suite(seed=6, models=1)
    assert result.messages == [f"model 0: {certs[0][1].dichotomy.to_dict()}"]


def test_index_theorem(monkeypatch):
    never_holds(monkeypatch, winding.IndexTheoremRecord)
    chiral = capture(monkeypatch, winding, "verify_index_theorem_chiral")
    banded = capture(monkeypatch, winding, "verify_index_theorem_banded")
    models = capture(monkeypatch, verification, "interpolating_shift_model")
    result = verification.index_theorem_suite(seed=7, models=2)
    (_, p_left, p_right), _ = models[0]
    assert result.messages == [
        f"chiral model 0: {chiral[0][1].to_dict()}",
        f"banded {p_left}->{p_right}: {banded[0][1].branches[0].to_dict()}",
    ]


def test_homotopy(monkeypatch):
    capture(monkeypatch, essential, "certify_unitary",
            lambda out: SimpleNamespace(gap_plus=SimpleNamespace(certified=False),
                                        gap_minus=out.gap_minus))
    path = verification.DEFAULT_HOMOTOPY_PATHS[0]
    result = verification.homotopy_suite(paths=[path], samples=2)
    assert result.messages == ["path 0: cell t=0.000 not certified"]


def test_consistency(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("refused")

    capture(monkeypatch, essential, "gap_at",
            lambda out: SimpleNamespace(certified=True, roots=out.roots))
    monkeypatch.setattr(transfer, "exact_kernel", refuse)
    result = verification.consistency_suite(seed=8, trials=1)
    assert result.messages == ["model 0: transfer failed after certification: refused", "model 0"]


def test_consistency_gates_the_kernel_by_the_certified_roots(monkeypatch):
    # the exact kernel of U + 1 takes the roots of det(F + 1) from its certification
    gaps = capture(monkeypatch, essential, "gap_at")
    real, handed = transfer.exact_kernel, []

    def kernel(*args, **kwargs):
        handed.append(kwargs.get("roots"))
        return real(*args, **kwargs)

    monkeypatch.setattr(transfer, "exact_kernel", kernel)
    result = verification.consistency_suite(seed=8, trials=6)
    assert result.failures == 0
    certified = [out.roots for _, out in gaps if out.certified]
    assert certified and len(handed) == len(certified)
    assert all(got is want for got, want in zip(handed, certified))


def test_index_theorem_kernels_take_the_certifications_roots(monkeypatch):
    # each chiral model is certified once, by certified_split_step_models, and the kernels of
    # U + 1 and U - 1 are gated by that certification's own roots
    certs = capture(monkeypatch, essential, "certify_unitary")
    real, handed = winding.exact_kernel, []

    def kernel(*args, **kwargs):
        handed.append(kwargs.get("roots"))
        return real(*args, **kwargs)

    monkeypatch.setattr(winding, "exact_kernel", kernel)
    result = verification.index_theorem_suite(seed=7, models=4)
    assert result.failures == 0
    certified = [out for _, out in certs if out.gap_plus.certified and out.gap_minus.certified]
    assert len(certified) == 2
    want = [roots for c in certified for roots in (c.gap_minus.roots, c.gap_plus.roots)]
    assert len(handed) == len(want) and all(got is w for got, w in zip(handed, want))


def summary(result):
    return result.line(), result.messages, result.trials, result.failures


def passing(**kwargs):
    return verification.SuiteResult("passing", 1, 0)


def raising(message):
    def suite(**kwargs):
        raise PreconditionError(message)

    return suite


class TestForkedSplit:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def forks(self, monkeypatch):
        """Two usable CPUs, whatever the host has; the list of os.fork's calls."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        real, calls = os.fork, []

        def fork():
            calls.append(None)
            return real()

        monkeypatch.setattr(os, "fork", fork)
        return calls

    @pytest.mark.parametrize("which", ["finite", "lattice", "all"])
    def test_equals_the_sequential_run(self, which, forks, monkeypatch):
        # identity_chain (a parent slot) and componentwise (a child slot) fail with messages
        real = indices.full_index_report
        monkeypatch.setattr(indices, "full_index_report", lambda *a: shifted_cayley(real(*a)))
        forked = verification.run_suites(which, seed=3, trials=2, models=2)
        assert len(forks) == 1
        monkeypatch.delattr(os, "fork")
        sequential = verification.run_suites(which, seed=3, trials=2, models=2)
        assert [summary(r) for r in forked] == [summary(r) for r in sequential]
        assert len(forked) == {"finite": 6, "lattice": 4, "all": 10}[which]
        if which != "lattice":
            assert forked[0].messages and forked[1].messages

    @pytest.mark.parametrize("slots", [(1, 2), (0, 1)], ids=["child_first", "parent_first"])
    def test_raises_the_first_exception_in_suite_order(self, slots, forks, monkeypatch):
        suites = [passing] * 5
        suites[slots[0]], suites[slots[1]] = raising("first"), raising("second")
        monkeypatch.setattr(verification, "FINITE_SUITES", tuple(suites))
        with pytest.raises(PreconditionError, match="^first$") as exc:
            verification.run_suites("finite")
        cause = exc.value.__cause__
        if slots[0] == 1:   # raised in the child: its traceback is the cause
            assert isinstance(cause, verification._ChildTraceback)
            assert "PreconditionError: first" in str(cause)
        else:
            assert cause is None

    def test_a_free_process_claims_the_next_suite(self, forks, monkeypatch):
        # the parent sleeps in suite 0, so the child runs suite 1 and claims 2 to 5
        def slow(**kwargs):
            time.sleep(0.3)
            return verification.SuiteResult("slow", 1, 0)

        def quick(k):
            return lambda **kwargs: verification.SuiteResult(f"quick {k}", k, 0,
                                                             [str(os.getpid())])

        monkeypatch.setattr(verification, "FINITE_SUITES",
                            (slow, *(quick(k) for k in range(1, 6))))
        forked = verification.run_suites("finite")
        assert len(forks) == 1
        pids = {pid for r in forked[1:] for pid in r.messages}
        assert len(pids) == 1 and pids != {str(os.getpid())}
        monkeypatch.delattr(os, "fork")
        sequential = verification.run_suites("finite")
        assert [r.line() for r in forked] == [r.line() for r in sequential]

    @pytest.mark.parametrize("sleeper", [0, 1], ids=["parent_sleeps", "child_sleeps"])
    def test_a_claimed_suite_raises_in_suite_order(self, sleeper, forks, monkeypatch):
        # suite 2 goes to the process that is not asleep, suite 3 to the other one
        def slow(**kwargs):
            time.sleep(0.3)
            return verification.SuiteResult("slow", 1, 0)

        def raising_pid(message):
            def suite(**kwargs):
                raise PreconditionError(f"{message} {os.getpid()}")

            return suite

        suites = [passing, passing, raising_pid("first"), raising_pid("second"), passing]
        suites[sleeper] = slow
        monkeypatch.setattr(verification, "FINITE_SUITES", tuple(suites))
        with pytest.raises(PreconditionError, match="^first ") as exc:
            verification.run_suites("finite")
        cause, in_child = exc.value.__cause__, str(exc.value) != f"first {os.getpid()}"
        assert in_child == (sleeper == 0)
        if in_child:
            assert isinstance(cause, verification._ChildTraceback)
            assert "PreconditionError: first" in str(cause)
        else:
            assert cause is None

    def test_more_than_256_calls_are_refused(self, forks):
        with pytest.raises(ValueError, match="257 suite calls exceed 256"):
            verification._run_calls([(passing, {})] * 257)
        assert not forks

    def test_a_child_that_dies_is_an_error(self, forks, monkeypatch):
        monkeypatch.setattr(verification, "FINITE_SUITES",
                            (passing, lambda **kwargs: os._exit(3), passing))
        with pytest.raises(RuntimeError, match="status 3"):
            verification.run_suites("finite")

    def test_an_interrupted_parent_kills_the_child(self, forks, monkeypatch):
        def interrupt(**kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(verification, "FINITE_SUITES",
                            (interrupt, lambda **kwargs: time.sleep(60)))
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            verification.run_suites("finite")
        assert time.perf_counter() - start < 30

    def test_one_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
        assert len(verification.run_suites("finite", seed=3, trials=1)) == 6
