"""Benchmark of the chiralwalk command line: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
``src/``.  Set-up is timed as a fresh interpreter importing the package
plus one pass that writes the seeded inputs and runs the warm-up
operations; both are repeated and the medians are added.  BLAS runs one
thread per caller thread.  Then the workload's operations run back to
back through ``chiralwalk.cli.main``, in process, in whole rounds, for
about ``--seconds``.  Every output is judged by the workload's oracle.

Reported times are host-normalised: a fixed reference computation is
timed after every operation (and after every set-up step), and each
operation's time is scaled by ``REFERENCE_MS`` over the mean of the
reference times just before and just after it, so it reads as on a host
where the reference takes ``REFERENCE_MS``.  On a shared host the wall
time of one operation drifts by a third within seconds, and the
reference drifts with it.  Set-up uses the interquartile mean of its
samples.  ``result.json`` keeps the raw wall times and the reference
samples.

``--trace 1`` runs each operation once plainly and once under the span
tracer, and reports per-layer metrics instead of end-to-end ones.

Inputs, outputs, the per-operation log, the environment and the result
go to ``bench/out/<workload>/seed<N>-trace<T>/``; any operation can be
replayed with the argv recorded in ``result.json``, for example
``chiralwalk index bench/out/.../inputs/op00003.json``.  The last line
of standard output is the JSON result.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import os  # noqa: E402

# Before numpy loads: the sweep pool's two threads already fill a 2-core
# host, and BLAS threads on top of them make the timings unsteady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
SETUP_SAMPLES = 3  # reference samples between set-up steps
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import chiralwalk.cli"

# Typical reference times on a quiet 2-vCPU Xeon host, by thread count, so
# that scaled times stay close to wall times there.
REFERENCE_MS = {1: 30.0, 2: 65.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import chiralwalk from this checkout's src/, never from elsewhere."""
    package = SRC / "chiralwalk"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no chiralwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chiralwalk
    from chiralwalk import cli

    if Path(chiralwalk.__file__).resolve().parent != package.resolve():
        raise ImportError(f"chiralwalk imported from {chiralwalk.__file__}, not {package}")
    return cli


def environment(seed):
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", ""),
        "blas_version": blas.get("version", ""),
        "blas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def openblas_threads():
    """Thread count of the OpenBLAS loaded in this process, or None."""
    import ctypes

    with contextlib.suppress(OSError):
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "openblas" not in path.lower() or not path.endswith(".so") and ".so." not in path:
                continue
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def percentile(sorted_values, p):
    """Linear-interpolation percentile of already sorted values."""
    rank = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


def import_seconds():
    """Wall time of a fresh interpreter that imports the package, in seconds.

    No timeout: waiting with one polls in steps of up to 50 ms.
    """
    start = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True,
                   stdin=subprocess.DEVNULL)
    return perf_counter() - start


class Runner:
    """Writes inputs, runs one CLI operation in process and captures its output."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.inputs = workdir / "inputs"
        self.outputs = workdir / "outputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)

    def argv(self, op, out_path):
        names = {name: str(self.inputs / name) for name in op.files}
        return [names.get(a, a).replace("{out}", str(out_path)) for a in op.argv]

    def write_inputs(self, op):
        for name, doc in op.files.items():
            (self.inputs / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def execute(self, op, tag):
        """Run one operation; returns (exit code or error text, output bytes, seconds)."""
        out_path = self.outputs / f"{tag}{op.index:05d}.out"
        if out_path.exists():
            out_path.unlink()
        argv = self.argv(op, out_path)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - a raising operation is a measured failure
            code = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        seconds = perf_counter() - start
        if "{out}" in op.argv:
            data = out_path.read_bytes() if out_path.exists() else b""
        else:
            data = stdout.getvalue().encode()
            out_path.write_bytes(data)
        return code, data, seconds

    def replay_argv(self, op):
        out_path = self.outputs / f"op{op.index:05d}.out"
        return ["chiralwalk"] + [
            os.path.relpath(a, ROOT) if a.startswith(str(ROOT)) else a
            for a in self.argv(op, out_path)
        ]


class HostSpeed:
    """Times the reference computation: small dense eigenproblems and a
    pure-Python loop, the kinds of work the program's inner loops do.

    It runs on as many threads as the workload keeps busy, because a
    contended second core slows a two-cell sweep but not one thread.
    """

    def __init__(self, threads):
        import numpy

        self.numpy = numpy
        self.threads = threads
        self.matrix = numpy.random.default_rng(0).standard_normal((48, 48))
        self.samples_ms = []
        self.spent_s = 0.0

    def _compute(self):
        for _ in range(40):
            self.numpy.linalg.eigvals(self.matrix)
        acc = 0
        for k in range(40_000):
            acc += k * k

    def sample(self):
        start = perf_counter()
        helpers = [threading.Thread(target=self._compute) for _ in range(self.threads - 1)]
        for helper in helpers:
            helper.start()
        self._compute()
        for helper in helpers:
            helper.join()
        seconds = perf_counter() - start
        self.samples_ms.append(1e3 * seconds)
        self.spent_s += seconds
        return 1e3 * seconds

    def mean_ms(self, count):
        """Mean of ``count`` new samples."""
        return statistics.fmean(self.sample() for _ in range(count))


def set_up(cli, workload, workdir):
    """One set-up pass: fresh directories, inputs and warm-up operations."""
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(cli, workdir)
    warmups = workload.references() or [workload.make_op(0, key="warmup")]
    for op in warmups:
        runner.write_inputs(op)
        code, data, _ = runner.execute(op, "ref" if workload.references() else "warmup")
        workload.set_reference(op, code, data)
    return runner


def run_traced(runner, op, tracer):
    tracer.op = op.index
    tracer.install()
    try:
        return runner.execute(op, "traced")
    finally:
        tracer.uninstall()


def measure(runner, workload, seconds, host, tracer=None):
    """Closed loop of operations; returns the per-operation log and the
    wall time the operations took, without the samples of ``host``.

    ``host`` is sampled before the first operation and after each one;
    an operation's ``scale`` is REFERENCE_MS over the mean of the samples
    on either side of it.

    A new round starts only if, at the mean round time so far, it would
    end within ``seconds``; so the number of rounds flips only where a
    round takes about ``seconds / k``, not wherever it takes less than
    ``seconds``.
    """
    log = []
    before = host.sample()
    reference_ms = REFERENCE_MS[host.threads]
    start, spent = perf_counter(), host.spent_s
    i = rounds = 0
    while True:
        if i % workload.round_size == 0:
            elapsed = perf_counter() - start
            if i >= workload.digest_ops and elapsed * (rounds + 1) / rounds > seconds:
                break
            rounds += 1
        op = workload.make_op(i)
        runner.write_inputs(op)
        # Under tracing the traced run goes first on odd operations, so that
        # the warm caches of whichever run is second cancel in the overhead.
        traced = None
        if tracer is not None and i % 2:
            traced = run_traced(runner, op, tracer)
        code, data, elapsed = runner.execute(op, "op")
        if tracer is not None and traced is None:
            traced = run_traced(runner, op, tracer)
        after = host.sample()
        verdict = workload.check(op, code, data)
        entry = {
            "op": i,
            "argv": runner.replay_argv(op),
            "exit": code,
            "ms": 1e3 * elapsed,
            "scale": 2.0 * reference_ms / (before + after),
            "sha256": hashlib.sha256(data).hexdigest(),
            "status": verdict.status,
            "reason": verdict.reason,
        }
        if traced is not None:
            traced_code, traced_data, traced_elapsed = traced
            entry["traced_ms"] = 1e3 * traced_elapsed
            if (traced_code, traced_data) != (code, data) and verdict.status == wl.OK:
                entry["status"] = wl.FAILED
                entry["reason"] = "traced output differs from the untraced output"
        log.append(entry)
        before = after
        i += 1
    return log, perf_counter() - start - (host.spent_s - spent)


def summarize(log, workload):
    n = len(log)
    counts = {status: sum(1 for e in log if e["status"] == status)
              for status in (wl.OK, wl.FAILED, wl.WRONG)}
    digest = hashlib.sha256()
    for entry in log[: workload.digest_ops]:
        digest.update(bytes.fromhex(entry["sha256"]))
    return n, counts, digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - PROCESS_START
    workload = wl.WORKLOADS[args.workload](args.seed)
    # set-up runs on one thread, so one-thread samples scale it
    setup_host = HostSpeed(1)
    setup_scales = []
    before = setup_host.mean_ms(SETUP_SAMPLES)

    def set_up_step(step):
        nonlocal before
        start = perf_counter()
        value = step()
        seconds = perf_counter() - start
        after = setup_host.mean_ms(SETUP_SAMPLES)
        setup_scales.append(2.0 * REFERENCE_MS[1] / (before + after))
        before = after
        return seconds, value

    imports = [set_up_step(import_seconds)[0] for _ in range(IMPORT_REPEATS)]
    workdir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    passes = []
    for _ in range(SETUP_REPEATS):
        seconds, runner = set_up_step(lambda: set_up(cli, workload, workdir))
        passes.append(seconds)

    tracer = layer_share = None
    if args.trace:
        from tracing import LAYERS, Tracer, layer_metrics

        tracer = Tracer()
    host = HostSpeed(workload.threads)
    log, wall = measure(runner, workload, args.seconds, host, tracer)
    n, counts, digest = summarize(log, workload)
    durations = [e["ms"] for e in log]
    scaled = [e["ms"] * e["scale"] for e in log]
    # time-weighted scale of the run, for its wall time and the layer times
    scale = sum(scaled) / sum(durations)
    p_tail = workload.tail_percentile
    tail_ms = percentile(sorted(scaled), p_tail)
    beyond = sum(1 for d in scaled if d > tail_ms)

    wall_clock = {
        "setup_s": statistics.median(imports) + statistics.median(passes),
        "ops_per_s": counts[wl.OK] / wall,
        "op_p50_ms": statistics.median(durations),
        "op_tail_ms": percentile(sorted(durations), p_tail),
    }
    end_to_end = {
        "setup_s": statistics.median(a * b for a, b in zip(imports, setup_scales))
        + statistics.median(a * b for a, b in zip(passes, setup_scales[IMPORT_REPEATS:])),
        "ops_per_s": wall_clock["ops_per_s"] / scale,
        "op_p50_ms": statistics.median(scaled),
        "op_tail_ms": tail_ms,
        "correct_ratio": counts[wl.OK] / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    else:
        per_layer = {k: v * scale if per_layer_unit(k) == "ms" else v
                     for k, v in layer_metrics(tracer.spans, n).items()}
        per_layer["trace.op_p50_ms"] = statistics.median(e["traced_ms"] * e["scale"] for e in log)
        # median of per-operation differences: the pairs share the host's state
        per_layer["trace.overhead_ms"] = statistics.median(
            (e["traced_ms"] - e["ms"]) * e["scale"] for e in log)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in per_layer.items()}
        tracer.write(workdir / "spans.jsonl")
        self_ms = {layer: per_layer[f"{layer}.self_ms"] for layer in LAYERS}
        total = sum(self_ms.values()) or 1.0
        layer_share = {layer: v / total for layer, v in self_ms.items()}

    result = {
        "correct": counts[wl.WRONG] == 0,
        "attempted": n,
        "failed": counts[wl.FAILED] + counts[wl.WRONG],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_passes_s": passes,
        "import_probes_s": imports,
        "import_s": import_s,
        "reference_ms": REFERENCE_MS[host.threads],
        "reference_threads": host.threads,
        "reference_samples_ms": host.samples_ms,
        "host_scale": scale,
        "setup_reference_samples_ms": setup_host.samples_ms,
        "setup_scales": setup_scales,
        "wall_clock": wall_clock,
        "measured_wall_s": wall,
        "fail_ratio": (n - counts[wl.OK]) / n,
        "wrong": counts[wl.WRONG],
        "tail_percentile": p_tail,
        "tail_samples": n,
        "tail_beyond": beyond,
        "digest_ops": min(n, workload.digest_ops),
        "digest_sha256": digest,
        "end_to_end": end_to_end,
        "layer_self_share": layer_share,
        "result": result,
        "operations": log,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  -> {workdir}")
    env = record["environment"]
    print(f"{env['nproc']} cpus ({env['cpu_model']}), python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']} {env['blas_version']} "
          f"with {env['blas_threads']} threads")
    print(f"operations {n}: {counts[wl.OK]} ok, {counts[wl.FAILED]} failed, "
          f"{counts[wl.WRONG]} wrong; fail_ratio {record['fail_ratio']:.4f}")
    reasons = sorted({e["reason"] for e in log if e["status"] != wl.OK})
    for reason in reasons[:5]:
        print(f"  miss: {reason}")
    print(f"op_tail_ms is p{p_tail:g} of {n} operations, {beyond} beyond it")
    print(f"host scale {scale:.4f} (reference median {statistics.median(host.samples_ms):.2f} ms "
          f"on {host.threads} threads, {len(host.samples_ms)} samples), set-up host scale "
          f"{statistics.median(setup_scales):.4f}; wall clock: "
          + ", ".join(f"{k} {v:.6g}" for k, v in wall_clock.items()))
    print(f"digest sha256 of the first {record['digest_ops']} outputs: {digest}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    if layer_share:
        ranked = sorted(layer_share, key=layer_share.get, reverse=True)
        predictions = json.loads((HERE / "predictions.json").read_text())["workloads"]
        print("self-time share: " + ", ".join(
            f"{layer} {layer_share[layer]:.1%}" for layer in ranked if layer_share[layer] >= 0.001))
        print(f"dominant layer: {ranked[0]} "
              f"(predicted {predictions[args.workload]['dominant_layer']})")
    print(json.dumps(result))
    return 0


def per_layer_unit(name):
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(("_ratio", "parallelism")):
        return "ratio"
    if name.endswith("grid_max"):
        return "points"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
