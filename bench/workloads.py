"""Seeded workload generators and the correctness oracle of each workload.

Every workload is a closed loop of operations, each one ``chiralwalk``
command-line invocation.  Inputs are derived only from the benchmark seed
and the operation index, so any prefix of the operation sequence is the
same in every run with that seed, however many operations fit in the
measured time.

Split-step angles live in [0, pi].  For a = cos(t1), b = sin(t1),
c = cos(t2), d = sin(t2) the limit symbol has eigenvalues exp(+-i w(k))
with cos w(k) = cos t1 cos t2 + sin t1 sin t2 cos(n k), so its distance
from +1 is 2|sin((t1 - t2)/2)| and from -1 is 2|cos((t1 + t2)/2)|.
Those closed forms let each generator place the spectral gaps exactly
and let each oracle know which certifications and indices to expect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field

# Status of one operation under its oracle.
OK = "ok"
FAILED = "failed"   # raised, refused, withheld an entitled index, or wrong exit code
WRONG = "wrong"     # returned a value that contradicts the oracle

EXIT_OK = 0
EXIT_REFUTED = 2

SIDES = ("left", "right")


def gap_plus(theta1, theta2):
    """Distance of the split-step limit symbol's spectrum from +1."""
    return 2.0 * abs(math.sin((theta1 - theta2) / 2.0))


def gap_minus(theta1, theta2):
    """Distance of the split-step limit symbol's spectrum from -1."""
    return 2.0 * abs(math.cos((theta1 + theta2) / 2.0))


def angle_for_gap(eps):
    """Offset d from the closing surface at which the gap equals eps."""
    return 2.0 * math.asin(eps / 2.0)


def op_rng(seed, workload, *key):
    """Independent, reproducible stream for one piece of one workload."""
    return random.Random(":".join(str(part) for part in (seed, workload, *key)))


def split_step_doc(theta_left, theta_right, theta2, shift_exponent, defects, grid_n=None):
    """Scenario document of a split-step walk with coin angle profile theta1(x).

    ``defects`` maps a site in [-2, 2] to its own coin angle.
    """

    def profile(fn):
        doc = {"profile": "step", "left": fn(theta_left), "right": fn(theta_right)}
        if defects:
            doc["profile"] = "table"
            doc["table"] = [{"x": x, "value": fn(t)} for x, t in sorted(defects.items())]
        return doc

    doc = {
        "model": "split_step",
        "params": {
            "a": profile(math.cos),
            "b": profile(math.sin),
            "c": math.cos(theta2),
            "d_coin": math.sin(theta2),
            "shift_exponent": shift_exponent,
        },
    }
    if grid_n is not None:
        doc["tolerances"] = {"grid_n": grid_n}
    return doc


def site_defects(rng, present):
    """No defects, or coin-angle table entries at one to three sites."""
    if not present:
        return {}
    sites = rng.sample(range(-2, 3), rng.randint(1, 3))
    return {x: rng.uniform(0.0, math.pi) for x in sites}


def gapped_angle(rng, theta2, floor):
    """theta1 uniform on [0, pi] conditioned on both closed-form gaps >= floor."""
    while True:
        theta1 = rng.uniform(0.0, math.pi)
        if gap_plus(theta1, theta2) >= floor and gap_minus(theta1, theta2) >= floor:
            return theta1


def away_from_half_pi(rng, clearance):
    """Uniform on [clearance, pi/2 - clearance] u [pi/2 + clearance, pi - clearance]."""
    width = math.pi / 2.0 - 2.0 * clearance
    u = rng.uniform(0.0, 2.0 * width)
    return clearance + u if u < width else math.pi / 2.0 + clearance + (u - width)


# Structural kinds of a model, (shift exponent, coin defects present): they
# set the band radius and the bulk window, hence most of an operation's cost.
# Workloads cycle through them in a fixed rotation, so every run has the same
# mix and seeds differ only in the angles.
KINDS = ((1, False), (2, False), (1, True), (2, True))


@dataclass
class Op:
    """One command-line invocation; ``files`` are the inputs it reads."""

    index: int
    argv: list
    files: dict = field(default_factory=dict)   # file name -> JSON document
    expect: dict = field(default_factory=dict)  # what the oracle needs


@dataclass
class Verdict:
    status: str
    reason: str = ""


class Workload:
    """A seeded stream of operations and the oracle that judges each one.

    Operations run in rounds of ``round_size``; a run always completes
    its round and at least ``digest_ops`` operations.  ``op_tail_ms`` is
    the ``tail_percentile`` of the operation times, fixed per workload so
    that at least ten operations of a run at this commit lie beyond it.
    ``threads`` is how many threads an operation keeps busy.
    """

    name = ""
    round_size = 1
    digest_ops = 8
    tail_percentile = 90.0
    threads = 1

    def __init__(self, seed):
        self.seed = seed

    def make_op(self, i, key="op"):
        raise NotImplementedError

    def references(self):
        """Operations run during set-up whose outputs the oracle needs."""
        return []

    def set_reference(self, op, code, data):
        pass

    def check(self, op, code, data):
        raise NotImplementedError


def _load_json(data):
    try:
        return json.loads(data)
    except (ValueError, UnicodeDecodeError):
        return None


# --- sweep_gapped --------------------------------------------------------------

SWEEP_CELLS = 2
SWEEP_GRID = 256
SWEEP_GAP_FLOOR = 0.2


class SweepGapped(Workload):
    """`chiralwalk sweep` over two generic gapped split-step cells at grid 256.

    Cell c of operation i has kind KINDS[(2 i + c) % 4], so each operation
    pairs a shift exponent 1 cell with a shift exponent 2 cell, and a round
    of two operations covers every kind once.
    """

    name = "sweep_gapped"
    round_size = len(KINDS) // SWEEP_CELLS
    tail_percentile = 65.0
    threads = SWEEP_CELLS  # run_sweep's pool runs the cells concurrently

    def cell(self, rng, kind):
        shift_exponent, defects = kind
        theta2 = rng.uniform(0.0, math.pi)
        return split_step_doc(
            gapped_angle(rng, theta2, SWEEP_GAP_FLOOR),
            gapped_angle(rng, theta2, SWEEP_GAP_FLOOR),
            theta2,
            shift_exponent,
            site_defects(rng, defects),
        )

    def sweep_doc(self, rng, i):
        cells = [self.cell(rng, KINDS[(SWEEP_CELLS * i + c) % len(KINDS)])
                 for c in range(SWEEP_CELLS)]
        template = dict(cells[0], tolerances={"grid_n": SWEEP_GRID})
        return {
            "scenario": template,
            "axes": [{"path": "params", "values": [c["params"] for c in cells]}],
        }

    def make_op(self, i, key="op"):
        name = f"{key}{i:05d}.sweep.json"
        doc = self.sweep_doc(op_rng(self.seed, self.name, key, i), i)
        return Op(i, ["sweep", name, "--out", "{out}"], {name: doc})

    def check(self, op, code, data):
        if code != EXIT_OK:
            return Verdict(FAILED, f"exit code {code}")
        table = list(csv.reader(io.StringIO(data.decode())))
        if len(table) != SWEEP_CELLS + 1:
            return Verdict(FAILED, f"expected {SWEEP_CELLS} rows, got {len(table) - 1}")
        for k, row in enumerate(table[1:]):
            cell = dict(zip(table[0], row))
            for gap in ("gap_plus_status", "gap_minus_status"):
                if cell[gap] == "refuted":
                    return Verdict(WRONG, f"cell {k}: {gap} refuted on a gapped model")
                if cell[gap] != "certified":
                    return Verdict(FAILED, f"cell {k}: {gap} {cell[gap]!r}")
            if cell["error"]:
                return Verdict(FAILED, f"cell {k}: error {cell['error']!r}")
            if cell["theorem_holds"] == "false":
                return Verdict(WRONG, f"cell {k}: index theorem does not hold")
            if cell["theorem_holds"] != "true":
                return Verdict(FAILED, f"cell {k}: theorem_holds {cell['theorem_holds']!r}")
        return Verdict(OK)


# --- index_gapless -------------------------------------------------------------

GAPLESS_CLEARANCE = 0.3


class IndexGapless(Workload):
    """`chiralwalk index` at the default grid on a model whose +1 or -1 gap is closed.

    A round of eight operations gives each closed target every kind once.
    """

    name = "index_gapless"
    round_size = 2 * len(KINDS)
    tail_percentile = 75.0

    def model(self, rng, i):
        """Scenario with one side on a gap-closing surface, and the closed target."""
        target = (1, -1)[i % 2]
        shift_exponent, defects = KINDS[(i // 2) % len(KINDS)]
        theta2 = away_from_half_pi(rng, GAPLESS_CLEARANCE)
        closed = theta2 if target == 1 else math.pi - theta2
        other = gapped_angle(rng, theta2, 2.0 * GAPLESS_CLEARANCE)
        closed_side = rng.choice(SIDES)
        left, right = (closed, other) if closed_side == "left" else (other, closed)
        doc = split_step_doc(left, right, theta2, shift_exponent, site_defects(rng, defects))
        return doc, target

    def make_op(self, i, key="op"):
        name = f"{key}{i:05d}.json"
        doc, target = self.model(op_rng(self.seed, self.name, key, i), i)
        return Op(i, ["index", name, "--out", "{out}"], {name: doc}, {"closed": target})

    def check(self, op, code, data):
        report = _load_json(data)
        if report is None:
            return Verdict(FAILED, f"exit code {code}, no report")
        certs = report.get("certifications", {})
        closed = "gap_plus_one" if op.expect["closed"] == 1 else "gap_minus_one"
        open_ = "gap_minus_one" if op.expect["closed"] == 1 else "gap_plus_one"
        closed_status = certs.get(closed, {}).get("status")
        open_status = certs.get(open_, {}).get("status")
        if closed_status == "certified":
            return Verdict(WRONG, f"{closed} certified on a closed gap")
        if open_status == "refuted":
            return Verdict(WRONG, f"{open_} refuted on an open gap")
        if report.get("windings") is not None:
            return Verdict(WRONG, "winding comparison reported although a gap is closed")
        if closed_status != "refuted" or open_status != "certified":
            return Verdict(FAILED, f"{closed} {closed_status}, {open_} {open_status}")
        entitled = "si_minus" if op.expect["closed"] == 1 else "si_plus"
        if entitled not in report.get("indices", {}):
            return Verdict(FAILED, f"{entitled} withheld although its gap is certified")
        if code != EXIT_REFUTED:
            return Verdict(FAILED, f"exit code {code}, expected {EXIT_REFUTED}")
        return Verdict(OK)


# --- index_near_closing --------------------------------------------------------

NEAR_GRID = 256
EPS_LOG10 = (-4.0, -1.0)
EPS_FAR = 0.1
# A narrow coin-angle band keeps the tail decay rate, hence the cost and the
# refusal threshold at a given eps, alike across seeds.
NEAR_THETA2 = (0.7, 0.9)
FAR_GAP_FLOOR = 0.3
NEAR_STRATA = 8
# one path per (closing target, shift exponent, coin defects present)
PATH_KINDS = ((1, 1, False), (1, 2, True), (-1, 1, True), (-1, 2, False))
NEAR_CYCLE = NEAR_STRATA * len(PATH_KINDS)


@dataclass
class ClosingPath:
    """Coin-angle path along which the gap at ``target`` equals eps.

    The near side sits at offset angle_for_gap(eps) from the closing
    surface, on the ``phase`` side of it; the far side sits on the other
    side, with both of its gaps at least FAR_GAP_FLOOR, so the model
    carries a nonzero kernel at ``target``.  For eps <= EPS_FAR every
    other gap stays at least FAR_GAP_FLOOR, so the whole path is
    gap-certified and its indices are those at eps = EPS_FAR.
    """

    target: int
    shift_exponent: int
    near_side: str
    phase: int
    theta2: float
    theta_far: float
    defects: dict

    @classmethod
    def draw(cls, rng, target, shift_exponent, defects):
        theta2 = rng.uniform(*NEAR_THETA2)
        if rng.random() < 0.5:
            theta2 = math.pi - theta2
        phase = rng.choice((1, -1))
        surface = theta2 if target == 1 else math.pi - theta2
        while True:
            theta_far = gapped_angle(rng, theta2, FAR_GAP_FLOOR)
            if (theta_far - surface) * phase < 0:
                break
        return cls(target, shift_exponent, rng.choice(SIDES), phase, theta2, theta_far,
                   site_defects(rng, defects))

    def near_angle(self, eps):
        surface = self.theta2 if self.target == 1 else math.pi - self.theta2
        return surface + self.phase * angle_for_gap(eps)

    def doc(self, eps):
        near = self.near_angle(eps)
        if self.near_side == "left":
            left, right = near, self.theta_far
        else:
            left, right = self.theta_far, near
        return split_step_doc(left, right, self.theta2, self.shift_exponent, self.defects,
                              grid_n=NEAR_GRID)


class IndexNearClosing(Workload):
    """`chiralwalk index` at grid 256 with the gap at +1 or -1 equal to eps.

    Each round of NEAR_STRATA operations places one eps in every stratum
    of equal width in log10(eps) over EPS_LOG10, and assigns the points to
    the four paths in a rotation.  A cycle of four rounds gives every path
    every stratum once, at the midpoints of the stratum's four quarters, so
    it is a stratified log-uniform sample.  The eps lattice is the same for
    every seed: an operation's cost grows as 1/eps, so a seeded shift of the
    lattice would move every run's times together.  Seeds draw the paths.
    """

    name = "index_near_closing"
    round_size = NEAR_CYCLE
    digest_ops = NEAR_CYCLE
    # a 20-second run at this commit completes one cycle, 32 operations
    tail_percentile = 65.0

    def __init__(self, seed):
        super().__init__(seed)
        rng = op_rng(seed, self.name, "paths")
        self.paths = [ClosingPath.draw(rng, *kind) for kind in PATH_KINDS]
        self.reference = {}

    def eps_at(self, i):
        rnd, j = divmod(i % NEAR_CYCLE, NEAR_STRATA)
        shift = (rnd + 0.5) / len(self.paths)
        lo, hi = EPS_LOG10
        return 10.0 ** (lo + (hi - lo) * (j + shift) / NEAR_STRATA)

    def path_at(self, i):
        rnd, j = divmod(i, NEAR_STRATA)
        return (j + rnd) % len(self.paths)

    def make_op(self, i, key="op"):
        p, eps = self.path_at(i), self.eps_at(i)
        name = f"{key}{i:05d}.json"
        doc = self.paths[p].doc(eps)
        return Op(i, ["index", name, "--out", "{out}"], {name: doc}, {"path": p, "eps": eps})

    def references(self):
        """The path end points at eps = EPS_FAR; their indices are the oracle."""
        ops = []
        for p, path in enumerate(self.paths):
            name = f"path{p}.eps0.1.json"
            ops.append(Op(p, ["index", name, "--out", "{out}"], {name: path.doc(EPS_FAR)},
                          {"path": p}))
        return ops

    def set_reference(self, op, code, data):
        report = _load_json(data)
        indices = (report or {}).get("indices", {})
        if code == EXIT_OK and "si_plus" in indices and "si_minus" in indices:
            self.reference[op.expect["path"]] = (indices["si_plus"], indices["si_minus"])

    def check(self, op, code, data):
        ref = self.reference.get(op.expect["path"])
        if ref is None:
            return Verdict(FAILED, f"path {op.expect['path']} has no reference at eps={EPS_FAR}")
        report = _load_json(data)
        if report is None:
            return Verdict(FAILED, f"exit code {code}, no report")
        target = self.paths[op.expect["path"]].target
        key = "gap_plus_one" if target == 1 else "gap_minus_one"
        status = report.get("certifications", {}).get(key, {}).get("status")
        if status == "refuted":
            return Verdict(WRONG, f"{key} refuted at eps={op.expect['eps']:.3e}")
        if status != "certified":
            return Verdict(FAILED, f"{key} {status}")
        indices = report.get("indices", {})
        got = (indices.get("si_plus"), indices.get("si_minus"))
        if None not in got and got != ref:
            return Verdict(WRONG, f"(si_plus, si_minus) = {got}, path end gives {ref}")
        windings = report.get("windings")
        if windings is not None and not windings.get("holds"):
            return Verdict(WRONG, "index theorem does not hold")
        if None in got:
            return Verdict(FAILED, "; ".join(report.get("omitted", [])) or "index withheld")
        if code != EXIT_OK:
            return Verdict(FAILED, "; ".join(report.get("omitted", [])) or f"exit code {code}")
        return Verdict(OK)


# --- verify_finite -------------------------------------------------------------

VERIFY_TRIALS = 10
FINITE_SUITE_COUNT = 6


class VerifyFinite(Workload):
    """`chiralwalk verify finite` with a fresh suite seed for every operation."""

    name = "verify_finite"
    tail_percentile = 85.0

    def make_op(self, i, key="op"):
        suite_seed = op_rng(self.seed, self.name, key, i).randrange(2**31)
        argv = ["verify", "finite", "--seed", str(suite_seed), "--trials", str(VERIFY_TRIALS)]
        return Op(i, argv)

    def check(self, op, code, data):
        lines = data.decode().splitlines()
        suites = [line for line in lines if line.startswith(("PASS  ", "FAIL  "))]
        if any(line.startswith("FAIL") for line in lines):
            return Verdict(WRONG, next(line for line in lines if line.startswith("FAIL")))
        if len(suites) != FINITE_SUITE_COUNT:
            return Verdict(FAILED, f"{len(suites)} suite lines, expected {FINITE_SUITE_COUNT}")
        if not lines or not lines[-1].startswith("PASS: "):
            return Verdict(FAILED, "no PASS summary line")
        if code != EXIT_OK:
            return Verdict(FAILED, f"exit code {code}")
        return Verdict(OK)


WORKLOADS = {w.name: w for w in (SweepGapped, IndexGapless, IndexNearClosing, VerifyFinite)}
