"""Command-line front end: index, sweep, verify, spectrum, winding.

Exit codes: 0 success, 1 usage/parse/internal error, 2 a gating
certification was refuted.  Output is deterministic for a fixed
scenario, seed and tolerances; verify's per-suite wall times go to
stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import analysis, verification
from .essential import DEFAULT_GRID_N, DEFAULT_MARGIN
from .exceptions import ChiralwalkError
from .indices import DEFAULT_RANK_TOL
from .scenarios import Scenario, SweepSpec


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _emit_csv(header, rows, out):
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])


def _flatten(doc, prefix=""):
    items = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            items.extend(_flatten(doc[key], f"{prefix}{key}."))
    elif isinstance(doc, (list, tuple)):
        for i, value in enumerate(doc):
            items.extend(_flatten(value, f"{prefix}{i}."))
    else:
        items.append((prefix[:-1], doc))
    return items


def _write_json(doc, out):
    out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write(target, emit):
    """Call emit with the file ``target`` opened for writing, or with stdout."""
    if target:
        with open(target, "w") as handle:
            emit(handle)
    else:
        emit(sys.stdout)


def _write_report(doc, fmt, target):
    if fmt == "csv":
        _write(target, lambda out: _emit_csv(["key", "value"], _flatten(doc), out))
    else:
        _write(target, lambda out: _write_json(doc, out))


def _write_rows(header, rows, fmt, target):
    if fmt == "json":
        _write(target, lambda out: _write_json([dict(zip(header, row)) for row in rows], out))
    else:
        _write(target, lambda out: _emit_csv(header, rows, out))


def _index_tolerances(args):
    """The scenario tolerances that index and sweep take from their flags."""
    return {"rank_tol": args.rank_tol, "margin": args.margin}


def _report(args, analyse, overrides=None):
    """Load the scenario, write analyse(scenario)'s report, return its exit code."""
    report, code = analyse(Scenario.load(args.scenario, overrides))
    _write_report(report, args.format, args.out)
    return code


def cmd_index(args):
    return _report(args, analysis.run_index_report, _index_tolerances(args))


def cmd_winding(args):
    return _report(args, lambda scenario: analysis.winding_report(scenario, args.side))


def cmd_sweep(args):
    spec = SweepSpec.load(args.sweep, _index_tolerances(args))
    header, rows = analysis.run_sweep(spec)
    _write_rows(header, rows, args.format, args.out or spec.output)
    return 0


def cmd_verify(args):
    if args.trials == 0:
        lines = ["WARNING: trials=0 requested; suites pass vacuously", "PASS  (vacuous): 0 trials"]
        failed = 0
    else:
        results = verification.run_suites(which=args.suite, seed=args.seed,
                                          trials=args.trials, models=args.models)
        lines = []
        for result in results:
            lines.append(result.line())
            lines.extend(f"    {message}" for message in result.messages)
            # wall time goes to stderr, so the lines and the --out file stay deterministic
            print(f"time  {result.name}: {result.seconds:.3f} s", file=sys.stderr)
        failed = sum(r.failures for r in results)
        total = sum(r.trials for r in results)
        lines.append(f"{'PASS' if failed == 0 else 'FAIL'}: {total} trials across "
                     f"{len(results)} suites, {failed} failures")
    _write(args.out, lambda out: out.writelines(f"{line}\n" for line in lines))
    return 0 if failed == 0 else 1


def cmd_spectrum(args):
    scenario = Scenario.load(args.scenario, {"grid_n": args.grid})
    header = ["side", "theta", "eigenvalue_re", "eigenvalue_im"]
    _write_rows(header, analysis.spectrum_rows(scenario), args.format, args.out)
    return 0


def non_negative_int(text):
    """argparse type of the counts and the seed: a negative value is a usage error."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


# each subcommand registers the flags its command reads, and --out
_FLAGS = {
    "--rank-tol": {"type": float,
                   "help": f"relative kernel rank threshold (default {DEFAULT_RANK_TOL})"},
    "--margin": {"type": float, "help": f"certification margin (default {DEFAULT_MARGIN})"},
    "--grid": {"type": int, "help": f"circle grid of the spectrum dump (default {DEFAULT_GRID_N})"},
    "--format": {"choices": ("json", "csv"), "help": "report format"},
    "--out": {"help": "write output to this file"},
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code of a refuted certification here;
    the top-level parser takes no flag, so one given before the subcommand is named."""

    def parse_known_args(self, args=None, namespace=None):
        self._first = next(iter(sys.argv[1:] if args is None else args), "")
        return super().parse_known_args(args, namespace)

    def error(self, message):
        if self._subparsers and self._first.startswith("-"):
            message += f"; {self._first.split('=')[0]} precedes the subcommand: flags go after it"
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="chiralwalk",
        description="Indices of chiral unitaries and split-step quantum walks on the lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        for flag in (*flags, "--out"):
            p.add_argument(flag, **_FLAGS[flag])
        return p

    p_index = subparser("index", "full index report for one scenario",
                        "--rank-tol", "--margin", "--format")
    p_index.add_argument("scenario")
    p_index.set_defaults(func=cmd_index)

    p_sweep = subparser("sweep", "evaluate a parameter sweep to CSV",
                        "--rank-tol", "--margin", "--format")
    p_sweep.add_argument("sweep")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = subparser("verify", "run the randomized identity suites")
    p_verify.add_argument("suite", nargs="?", default="all",
                          choices=("finite", "lattice", "all"))
    p_verify.add_argument("--trials", type=non_negative_int, default=None)
    p_verify.add_argument("--models", type=non_negative_int, default=None)
    p_verify.add_argument("--seed", type=non_negative_int, default=None,
                          help="randomized-suite seed")
    p_verify.set_defaults(func=cmd_verify)

    p_spectrum = subparser("spectrum", "sampled symbol eigenvalues as CSV",
                           "--grid", "--format")
    p_spectrum.add_argument("scenario")
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_winding = subparser("winding", "det-symbol winding of a lattice scenario", "--format")
    p_winding.add_argument("scenario")
    p_winding.add_argument("--side", choices=("left", "right"), default="right")
    p_winding.set_defaults(func=cmd_winding)
    return parser


_PARSER = None


def main(argv=None):
    # one parser per process: each parse resets what it keeps, and building
    # it costs more than parsing
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ChiralwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
