"""Command-line front end: index, sweep, verify, spectrum, winding.

Exit codes: 0 success, 1 usage/parse/internal error, 2 a gating
certification was refuted.  Output is deterministic for a fixed
scenario, seed and tolerances.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import analysis, verification
from .exceptions import ChiralwalkError, ScenarioError
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


def _emit_report(doc, fmt, out):
    if fmt == "csv":
        flat = _flatten(doc)
        _emit_csv(["key", "value"], flat, out)
    else:
        out.write(json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n")


def _open_out(args):
    if args.out:
        return open(args.out, "w")
    return None


def _tolerance_overrides(args):
    return {"rank_tol": args.rank_tol, "grid_n": args.grid, "margin": args.margin}


def cmd_index(args):
    scenario = Scenario.load(args.scenario, _tolerance_overrides(args))
    report, code = analysis.run_index_report(scenario)
    handle = _open_out(args)
    _emit_report(report, args.format or "json", handle or sys.stdout)
    if handle:
        handle.close()
    return code


def cmd_sweep(args):
    spec = SweepSpec.load(args.sweep, _tolerance_overrides(args))
    header, rows = analysis.run_sweep(spec)
    target = args.out or spec.output

    def emit(out):
        if args.format == "json":
            doc = [dict(zip(header, row)) for row in rows]
            out.write(json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n")
        else:
            _emit_csv(header, rows, out)

    if target:
        with open(target, "w") as handle:
            emit(handle)
    else:
        emit(sys.stdout)
    return 0


def cmd_verify(args):
    if args.trials is not None and args.trials == 0:
        print("WARNING: trials=0 requested; suites pass vacuously")
        print("PASS  (vacuous): 0 trials")
        return 0
    results = verification.run_suites(
        which=args.suite,
        seed=args.seed,
        trials=args.trials,
        models=args.models,
    )
    for result in results:
        print(result.line())
        for message in result.messages:
            print(f"    {message}")
    failed = sum(r.failures for r in results)
    total = sum(r.trials for r in results)
    print(f"{'PASS' if failed == 0 else 'FAIL'}: {total} trials across {len(results)} suites, {failed} failures")
    return 0 if failed == 0 else 1


def cmd_spectrum(args):
    scenario = Scenario.load(args.scenario, _tolerance_overrides(args))
    rows = analysis.spectrum_rows(scenario)
    header = ["side", "theta", "eigenvalue_re", "eigenvalue_im"]
    handle = _open_out(args)
    out = handle or sys.stdout
    if args.format == "json":
        doc = [dict(zip(header, row)) for row in rows]
        out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        _emit_csv(header, rows, out)
    if handle:
        handle.close()
    return 0


def cmd_winding(args):
    scenario = Scenario.load(args.scenario, _tolerance_overrides(args))
    report, code = analysis.winding_report(scenario, args.side)
    handle = _open_out(args)
    _emit_report(report, args.format or "json", handle or sys.stdout)
    if handle:
        handle.close()
    return code


def _add_common_flags(parser, suppress=False):
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--rank-tol", dest="rank_tol", type=float, default=default,
                        help="relative kernel rank threshold (default 1e-8)")
    parser.add_argument("--grid", type=int, default=default,
                        help="circle grid size of the spectrum dump (default 4096); "
                             "certifications and windings use no grid")
    parser.add_argument("--margin", type=float, default=default,
                        help="certification margin (default 1e-6)")
    parser.add_argument("--seed", type=int, default=default, help="randomized-suite seed")
    parser.add_argument("--out", default=default, help="write output to this file")
    parser.add_argument("--format", choices=("json", "csv"), default=default)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chiralwalk",
        description="Indices of chiral unitaries and split-step quantum walks on the lattice",
    )
    _add_common_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name, help_text):
        p = sub.add_parser(name, help=help_text)
        # SUPPRESS keeps values parsed before the subcommand from being reset
        _add_common_flags(p, suppress=True)
        return p

    p_index = subparser("index", "full index report for one scenario")
    p_index.add_argument("scenario")
    p_index.set_defaults(func=cmd_index)

    p_sweep = subparser("sweep", "evaluate a parameter sweep to CSV")
    p_sweep.add_argument("sweep")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = subparser("verify", "run the randomized identity suites")
    p_verify.add_argument("suite", nargs="?", default="all",
                          choices=("finite", "lattice", "all"))
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--models", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_spectrum = subparser("spectrum", "sampled symbol eigenvalues as CSV")
    p_spectrum.add_argument("scenario")
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_winding = subparser("winding", "det-symbol winding of a lattice scenario")
    p_winding.add_argument("scenario")
    p_winding.add_argument("--side", choices=("left", "right"), default="right")
    p_winding.set_defaults(func=cmd_winding)
    return parser


_PARSER = None


def main(argv=None):
    # one parser per process: parsing leaves no state in it, and building
    # it costs more than parsing
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ChiralwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
