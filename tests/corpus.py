"""A fixed corpus of program outputs and the digests that pin them.

Each entry is one output of the program on a fixed input:
- ``index`` on every shipped scenario, as JSON and as CSV;
- ``winding`` on both sides of every shipped scenario;
- ``sweep scenarios/sweep_coin_angle.json``;
- ``verify finite|lattice --seed 4242 --trials 10``;
- ``index`` and ``winding`` on ``oracles.huge_coin()``, both refused, and
  ``index`` on ``oracles.scaled_generator(1e160)``;
- ``analysis._chiral_report`` on every ``oracles.report_pairs()`` pair;
- ``analysis._custom_banded_report`` on 36 seeded ``interpolating_shift_model``
  operators, on 7 hand-made ones at the edges of the root-count rule
  (``hand_made_operators``) and on the adjoints of all 43;
- ``analysis.run_index_report`` on the 400 near-closing split-step models of
  ``test_split_step_indices`` (``oracles.near_closing_model``).

Two digests are kept per entry in ``corpus_digests.json``:
- **decisions**: the sha256 of every int, bool and string of the output, with
  its exit code and error line, and of the place of every float (not its
  value).  Statuses, ``omitted`` lines, refusals and error messages are all
  strings, so a changed decision changes this digest.  The test suite compares
  it exactly.
- **bytes**: the sha256 of the whole output.  The last bits of a float depend
  on numpy and BLAS, so ``python -m tests.corpus --bytes`` reports mismatches
  and does not fail on them.

A CSV cell is read as a bool (``true``/``false``), an int, a float or else a
string, from its text.  In-process reports are written as ``cli`` writes JSON,
with no fallback for a value that is not JSON: such a value raises.  numpy's
floating-point warnings (an overflow in a refused input's residual) name source
lines and are not outputs: the corpus runs with them off.

    python -m tests.corpus            # check the decisions; exit 1 on a mismatch
    python -m tests.corpus --bytes    # also report byte mismatches (never fails on them)
    python -m tests.corpus --write    # regenerate corpus_digests.json

A change that moves an entry regenerates the file in the same commit and
names every moved entry, with the reason.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from chiralwalk import analysis, cli
from chiralwalk.operators import BandedAnisotropicOperator, CoefficientFunction
from chiralwalk.scenarios import Scenario, Tolerances
from chiralwalk.verification import interpolating_shift_model

if __package__:          # python -m tests.corpus
    from . import oracles
else:                    # imported by the test suite, with tests/ on the path
    import oracles

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "corpus_digests.json"
VERIFY_SEED, VERIFY_TRIALS = 4242, 10
BANDED_SEEDS = 36


def _cli_entries(workdir):
    """(name, format, exit code, output text, error line) of each CLI input."""
    sweep = ROOT / "scenarios" / "sweep_coin_angle.json"
    runs = []
    for path in sorted(set((ROOT / "scenarios").glob("*.json")) - {sweep}):
        runs += [(["index", path], "json"), (["index", path, "--format", "csv"], "csv")]
        runs += [(["winding", path, "--side", side], "json") for side in ("left", "right")]
    runs.append((["sweep", sweep], "csv"))
    runs += [(["verify", suite, "--seed", str(VERIFY_SEED), "--trials", str(VERIFY_TRIALS)], "text")
             for suite in ("finite", "lattice")]
    coin, generator = Path(workdir) / "huge_coin.json", Path(workdir) / "generator_1e160.json"
    coin.write_text(json.dumps(oracles.huge_coin()))
    generator.write_text(json.dumps(oracles.scaled_generator(1e160)))
    runs += [(["index", coin], "json"), (["winding", coin], "json"), (["index", generator], "json")]
    out = Path(workdir) / "out"
    for args, fmt in runs:
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = cli.main([*map(str, args), "--out", str(out)])
        text = out.read_text() if out.exists() else ""
        # verify's wall times go to stderr and are not outputs
        error = "".join(line for line in err.getvalue().splitlines(True)
                        if not line.startswith("time  "))
        name = " ".join((a.relative_to(ROOT).as_posix() if a.is_relative_to(ROOT) else a.name)
                        if isinstance(a, Path) else a for a in args)
        yield name, fmt, code, text, error


def _report_entry(name, doc, code):
    """(name, "json", exit code, report text, error line) of one in-process report."""
    return name, "json", code, json.dumps(doc, sort_keys=True, indent=2) + "\n", ""


def banded_operators():
    """(name, operator) for 36 seeded interpolating shift models and their adjoints."""
    ops = []
    for seed in range(BANDED_SEEDS):
        rng = np.random.default_rng(seed)
        p_left, p_right = (int(p) for p in rng.integers(-2, 3, size=2))
        op = interpolating_shift_model(rng, p_left, p_right, int(rng.integers(0, 4)))
        ops += [(f"banded{seed}", op), (f"banded{seed}*", op.adjoint())]
    return ops


def _banded(left, right):
    """The operator with the {offset: matrix} bands ``left`` for x < 0 and ``right`` for x >= 0."""
    d = len(np.atleast_2d(next(iter({**left, **right}.values()))))
    zero = np.zeros((d, d))
    return BandedAnisotropicOperator(d, {n: CoefficientFunction.step(
        np.atleast_2d(left.get(n, zero)), np.atleast_2d(right.get(n, zero)))
        for n in sorted(set(left) | set(right))})


def hand_made_operators():
    """(name, operator) for 7 operators at the edges of the root-count rule, and their
    adjoints: a limit determinant 1 + c z with its root 5e-7 inside the margin on the left,
    on the right and on both sides, 3e-6 clear of it on the left, on the circle on one side
    and on both (fiber 2), and a determinant that vanishes identically (fiber 2)."""
    inside, outside = 1.0 / (1.0 - 5e-7), 1.0 / (1.0 + 3e-6)
    ops = [
        ("inside_left", _banded({0: 1.0, 1: inside}, {0: 1.0, -1: 0.4})),
        ("inside_right", _banded({0: 1.0, -1: 0.4}, {0: 1.0, 1: inside})),
        ("inside_both", _banded({0: 1.0, 1: inside}, {0: 1.0, -1: inside})),
        ("outside_left", _banded({0: 1.0, 1: outside}, {1: 1.0})),
        ("on_circle", _banded({0: 1.0, 1: 1.0}, {1: 1.0})),
        ("on_circle_both", _banded({0: np.eye(2), 1: np.diag([1.0, -1.0])},
                                   {0: np.eye(2), -1: np.diag([1j, 1.0])})),
        ("vanishing", _banded({0: np.diag([1.0, 0.0])}, {0: np.eye(2), 1: 0.5 * np.eye(2)})),
    ]
    return [(f"{name}{star}", op.adjoint() if star else op) for name, op in ops for star in ("", "*")]


def near_closing_scenarios():
    """(name, scenario) for the near-closing models of ``test_split_step_indices``."""
    for seed in oracles.NEAR_SEEDS:
        rng = np.random.default_rng(seed)
        for k in range(oracles.NEAR_MODELS_PER_SEED):
            yield f"near_closing {seed}/{k}", Scenario.from_doc(oracles.near_closing_model(rng)[0])


def entries():
    """Every corpus entry, in a fixed order."""
    with tempfile.TemporaryDirectory() as workdir:
        yield from _cli_entries(workdir)
    tol = Tolerances()
    for name, pair in oracles.report_pairs():
        yield _report_entry(f"chiral {name}", *analysis._chiral_report(pair, tol))
    for name, op in banded_operators() + hand_made_operators():
        yield _report_entry(f"custom_banded {name}", *analysis._custom_banded_report(op, tol))
    for name, scenario in near_closing_scenarios():
        yield _report_entry(f"index {name}", *analysis.run_index_report(scenario))


def _leaves(doc, path=""):
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _leaves(doc[key], f"{path}/{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{path}/{i}")
    else:
        yield path, doc


def _cell(text):
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def decisions(fmt, code, text, error):
    """Every int, bool, string and None of an output, with each float's place."""
    if fmt == "json":
        values = list(_leaves(json.loads(text))) if text else []
    elif fmt == "csv":
        values = [(f"{r}/{c}", _cell(cell)) for r, row in enumerate(csv.reader(io.StringIO(text)))
                  for c, cell in enumerate(row)]
    else:
        values = list(enumerate(text.splitlines()))
    values = [(place, "<float>" if isinstance(v, float) else v) for place, v in values]
    return [code, error, values]


def digests():
    """{name: [decisions sha256, bytes sha256]} of every entry."""
    out = {}
    for name, fmt, code, text, error in entries():
        canon = json.dumps(decisions(fmt, code, text, error), separators=(",", ":"))
        out[name] = [hashlib.sha256(canon.encode()).hexdigest(),
                     hashlib.sha256(text.encode()).hexdigest()]
    return out


def load():
    return json.loads(DIGESTS.read_text())


def write(found):
    lines = [f"{json.dumps(name)}: {json.dumps(pair)}" for name, pair in found.items()]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def mismatches(found, kept, column):
    """Names whose digest in ``column`` (0 decisions, 1 bytes) differs or is on one side only."""
    return [n for n in sorted(set(found) | set(kept))
            if n not in found or n not in kept or found[n][column] != kept[n][column]]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    found = digests()
    if "--write" in argv:
        write(found)
        print(f"wrote {len(found)} entries to {DIGESTS}")
        return 0
    kept = load()
    moved = mismatches(found, kept, 0)
    print(f"decisions: {len(found)} entries, {len(moved)} mismatches")
    for name in moved:
        print(f"  decisions differ: {name}")
    if "--bytes" in argv:
        differ = mismatches(found, kept, 1)
        print(f"bytes: {len(found)} entries, {len(differ)} mismatches (reported, not failed)")
        for name in differ:
            print(f"  bytes differ: {name}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
