"""Scenario-driven report assembly: certifications gate index emission.

Every index in the report carries an essential-spectrum assumption; a
refuted (or inconclusive) certification withholds the indices it gates
and is listed under "omitted".  Exit dispositions: 0 all requested
quantities emitted, 2 something was withheld.
"""

from __future__ import annotations

from . import essential, indices, winding
from .exceptions import ChiralwalkError, ScenarioError
from .transfer import MAX_PENCIL
from .walks import ChiralPair

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2


def _chiral_report(pair, tol):
    r, d = pair.u.band_radius, pair.u.fiber_dim
    if 2 * r * d > MAX_PENCIL:   # refused before the gaps are certified
        raise ScenarioError(f"companion pencil 2 r d = {2 * r * d} exceeds {MAX_PENCIL} "
                            f"(band radius {r}, fiber dimension {d})")
    certs = essential.certify_unitary(pair, margin=tol.margin)
    report = {
        "chiral_certification": pair.certification.to_dict(),
        "certifications": {
            "gap_plus_one": certs.gap_plus.to_dict(),
            "gap_minus_one": certs.gap_minus.to_dict(),
            "dichotomy": certs.dichotomy.to_dict(),
        },
        "indices": {},
        "windings": None,
        "omitted": [],
    }
    kernels = winding.certified_kernels(pair, certs, tol.rank_tol)
    for name, ker, dim_key in (("minus", kernels[0], "dim_ker_u_plus_one"),
                               ("plus", kernels[1], "dim_ker_u_minus_one")):
        if isinstance(ker, ChiralwalkError):
            report["omitted"].append(f"si_{name}: {ker}")
            continue
        report["indices"][f"si_{name}"] = ker.graded_signature
        report["indices"][dim_key] = ker.dimension
        report[f"diagnostics_{name}"] = ker.to_dict()
    if not report["omitted"]:
        report["indices"]["si_total"] = report["indices"]["si_plus"] + report["indices"]["si_minus"]
        try:
            record = winding.verify_index_theorem_chiral(pair, tol.rank_tol, kernels=kernels)
            report["windings"] = record.to_dict()
        except ChiralwalkError as exc:
            report["omitted"].append(f"winding comparison: {exc}")
    else:
        report["omitted"].append("winding comparison: needs both essential gaps")
    code = EXIT_OK if not report["omitted"] else EXIT_REFUTED
    return report, code


def _custom_banded_report(f_op, tol):
    counts, found = winding._banded_theorem(f_op, tol.rank_tol)
    certs = {f"symbol_invertible_{side}": {"root_margin": c.margin, "certified": c.clear}
             for side, c in counts.items()}
    report = {"certifications": certs, "omitted": []}
    if isinstance(found, ChiralwalkError):
        report["omitted"].append(f"index: {found}")
        return report, EXIT_REFUTED
    result, record = found
    report["index"] = result.to_dict()
    report["index_theorem"] = record.to_dict()
    return report, EXIT_OK


def _banded_unitary_report(u_op, tol):
    """The custom_banded report of a banded unitary, with its essential gaps at +-1."""
    certs = essential.certify_unitary(u_op, margin=tol.margin)
    report, code = _custom_banded_report(u_op, tol)
    report["certifications"].update(gap_plus_one=certs.gap_plus.to_dict(),
                                    gap_minus_one=certs.gap_minus.to_dict())
    return report, code


def _generator_report(model, tol):
    walk, gamma0 = model
    report = {"conventions": {"regularized": walk.regularized}}
    idx = indices.full_index_report(walk.walk_exp, gamma0, rank_tol=tol.rank_tol)
    report["indices"] = idx.to_dict()
    # the walk as built, and the si_plus of its report: neither is derived twice
    report["indices"]["generator_index"] = indices._generator_core(
        walk, walk.gamma0, lambda: idx.si_plus, tol.rank_tol
    )
    return report, EXIT_OK


# each model's report builder, and the tolerances that it reads
_REPORTS = {"split_step": (_chiral_report, ("rank_tol", "margin")),
            "weighted_shift": (_banded_unitary_report, ("rank_tol", "margin")),
            "custom_banded": (_custom_banded_report, ("rank_tol",)),
            "generator": (_generator_report, ("rank_tol",))}


def run_index_report(scenario):
    """Build the model and its report, which states the tolerances its builder read;
    returns (dict, exit_code)."""
    tol = scenario.tolerances
    build, reads = _REPORTS[scenario.model]
    body, code = build(scenario.build(), tol)
    body["model"] = scenario.model
    body["tolerances"] = {key: getattr(tol, key) for key in reads}
    if scenario.seed is not None:
        body["seed"] = scenario.seed
    return body, code


def lattice_operator(scenario):
    """The banded operator a lattice scenario ultimately describes."""
    model = scenario.build()
    if isinstance(model, ChiralPair):
        return model.u
    if isinstance(model, tuple):
        raise ChiralwalkError("finite-dimensional scenario has no lattice operator")
    return model


def spectrum_rows(scenario):
    """(side, theta, eigenvalue_re, eigenvalue_im) rows of the symbol spectrum."""
    if not scenario.is_lattice():
        raise ChiralwalkError("spectrum requires a lattice model")
    u_op = lattice_operator(scenario)
    rows = []
    for side, theta, ev in essential.symbol_eigenvalues(u_op, scenario.tolerances.grid_n):
        rows.append((side, theta, ev.real, ev.imag))
    return rows


def winding_report(scenario, side):
    """The det-symbol root-count winding of a lattice scenario on one side."""
    if not scenario.is_lattice():
        raise ChiralwalkError("winding requires a lattice model")
    u_op = lattice_operator(scenario)
    try:
        doc = {**winding.winding_det(u_op.symbol_at(side)).to_dict(), "certified": True}
    except ChiralwalkError as exc:
        doc = {"rounded": None, "root_margin": None, "certified": False, "reason": str(exc)}
    return {**doc, "side": side}, EXIT_OK if doc["certified"] else EXIT_REFUTED


SWEEP_COLUMNS = (
    "gap_plus_status",
    "gap_plus_value",
    "gap_minus_status",
    "gap_minus_value",
    "si_plus",
    "si_minus",
    "winding_left",
    "winding_right",
    "theorem_holds",
    "error",
)


def _sweep_cell(scenario):
    values = dict.fromkeys(SWEEP_COLUMNS, "")
    try:
        report, _ = run_index_report(scenario)
    except ChiralwalkError as exc:
        values["error"] = str(exc)
        return values
    except Exception as exc:  # noqa: BLE001 - a cell must never kill the sweep
        values["error"] = f"{type(exc).__name__}: {exc}"
        return values
    certs = report.get("certifications", {})
    if "gap_plus_one" in certs:
        values["gap_plus_status"] = certs["gap_plus_one"]["status"]
        values["gap_plus_value"] = certs["gap_plus_one"]["value"]
        values["gap_minus_status"] = certs["gap_minus_one"]["status"]
        values["gap_minus_value"] = certs["gap_minus_one"]["value"]
    idx = report.get("indices", {})
    for key in ("si_plus", "si_minus"):
        if key in idx and idx[key] is not None:
            values[key] = idx[key]
    theorem = report.get("windings") or report.get("index_theorem")   # chiral, or banded
    if theorem and theorem["branches"]:
        branch = theorem["branches"][-1]
        values["winding_left"] = branch["winding_left"]
        values["winding_right"] = branch["winding_right"]
        values["theorem_holds"] = theorem["holds"]
    return values


def run_sweep(spec):
    """Evaluate every grid cell in lexicographic axis order, one row each."""
    header = [path for path, _ in spec.axes] + list(SWEEP_COLUMNS)
    rows = []
    for point, scenario in zip(spec.grid_points(), spec.scenarios):
        cell = _sweep_cell(scenario)
        rows.append(list(spec.axis_values(point)) + [cell[c] for c in SWEEP_COLUMNS])
    return header, rows
