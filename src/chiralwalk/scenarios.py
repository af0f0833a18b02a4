"""Scenario and sweep files: JSON-shaped model descriptions for the CLI.

Complex scalars are either plain numbers or [re, im] pairs; matrices are
nested lists of [re, im] pairs.  Every model, custom_banded operators
included, is read by the same field rules: unknown keys are rejected so
that typos fail loudly instead of silently running defaults, a value of
the wrong JSON type is refused rather than coerced, and a table site or
band offset given twice is refused rather than overwritten.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .essential import DEFAULT_GRID_N, DEFAULT_MARGIN
from .exceptions import ScenarioError
from .indices import DEFAULT_RANK_TOL
from .operators import BandedAnisotropicOperator, CoefficientFunction
from .walks import SplitStepParams, build_generator_walk, build_walk, build_weighted_shift_walk

MODELS = ("split_step", "weighted_shift", "generator", "custom_banded")


def _reject_unknown(doc, allowed, where):
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where}: expected a JSON object, got {doc!r}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")


def _read_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _field(doc, key, where, kind=None, default=None):
    """kind(doc[key]), default standing in for an absent key when given; a missing
    or malformed value is a ScenarioError naming the field.  A number field takes
    a JSON number only, not a boolean or a string, and an int field refuses a
    fraction instead of truncating it; any other kind takes only its own type."""
    value = doc.get(key, default)
    if value is None and key not in doc:
        raise ScenarioError(f"{where}.{key}: missing")
    if kind is None:
        return value
    try:
        if not (_is_number(value) if kind in (int, float) else isinstance(value, kind)):
            raise ValueError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return kind(value)
    except (ValueError, OverflowError):
        raise ScenarioError(f"{where}.{key}: expected {kind.__name__}, got {value!r}") from None


def _as_scalar(value, where):
    if _is_number(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return complex(float(value[0]), float(value[1]))
    raise ScenarioError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _as_matrix(value, where, dim=None):
    """An n x n matrix of [re, im] pairs of JSON numbers, n = dim when given."""
    arr = np.asarray(value, dtype=object)
    if (arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2
            or dim not in (None, arr.shape[0]) or not all(map(_is_number, arr.flat))):
        size = "an n x n" if dim is None else f"a {dim} x {dim}"
        raise ScenarioError(f"{where}: expected {size} matrix of [re, im] pairs")
    arr = arr.astype(float)
    return arr[..., 0] + 1j * arr[..., 1]


def _table(entries, where, read):
    """The {x: read(value)} table of a list of {"x", "value"} entries; a site
    given twice is refused."""
    table = {}
    for entry in entries:
        _reject_unknown(entry, {"x", "value"}, where)
        value = read(_field(entry, "value", where))
        x = _field(entry, "x", where, int)
        if x in table:
            raise ScenarioError(f"{where}.x: site {x} given twice")
        table[x] = value
    return table


def parse_profile(doc, where):
    """Scalar site profile: step between limits or explicit table."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where}: expected a profile object")
    kind = doc.get("profile")
    if kind not in ("step", "table"):
        raise ScenarioError(f"{where}: profile must be 'step' or 'table'")
    _reject_unknown(doc, {"profile", "left", "right", "split" if kind == "step" else "table"}, where)
    left, right = (np.array([[_as_scalar(_field(doc, key, where), where)]]) for key in ("left", "right"))
    if kind == "step":
        return CoefficientFunction.step(left, right, split=_field(doc, "split", where, int, 0))
    table = _table(_field(doc, "table", where, list, []), f"{where}.table",
                   lambda value: np.array([[_as_scalar(value, where)]]))
    return CoefficientFunction.from_table(left, right, table)


def parse_operator(doc, where):
    """A custom_banded operator: fiber_dim and a list of bands, each an offset,
    left and right limit matrices and an optional bulk table of site values."""
    _reject_unknown(doc, {"fiber_dim", "bands"}, where)
    d = _field(doc, "fiber_dim", where, int)
    if d < 1:
        raise ScenarioError(f"{where}.fiber_dim: expected a positive int, got {d}")
    bands, at = {}, f"{where}.bands"
    for band in _field(doc, "bands", where, list):
        _reject_unknown(band, {"offset", "left_limit", "right_limit", "bulk"}, at)
        left, right = (_as_matrix(_field(band, key, at), f"{at}.{key}", d)
                       for key in ("left_limit", "right_limit"))
        table = _table(_field(band, "bulk", at, list, []), f"{at}.bulk",
                       lambda value: _as_matrix(value, f"{at}.bulk.value", d))
        offset = _field(band, "offset", at, int)
        if offset in bands:
            raise ScenarioError(f"{at}.offset: offset {offset} given twice")
        bands[offset] = CoefficientFunction.from_table(left, right, table)
    return BandedAnisotropicOperator(d, bands)


@dataclass
class Tolerances:
    rank_tol: float = DEFAULT_RANK_TOL
    grid_n: int = DEFAULT_GRID_N
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.rank_tol, self.grid_n, self.margin)):
            raise ScenarioError("tolerances must be positive and finite")   # NaN fails 0 < v

    @classmethod
    def from_doc(cls, doc, overrides=None):
        doc = dict(doc or {})
        _reject_unknown(doc, {"rank_tol", "grid_n", "margin"}, "tolerances")
        merged = {**doc, **{k: v for k, v in (overrides or {}).items() if v is not None}}
        return cls(_field(merged, "rank_tol", "tolerances", float, cls.rank_tol),
                   _field(merged, "grid_n", "tolerances", int, cls.grid_n),
                   _field(merged, "margin", "tolerances", float, cls.margin))


@dataclass
class Scenario:
    model: str
    params: dict
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int | None = None

    @classmethod
    def from_doc(cls, doc, tolerance_overrides=None):
        if not isinstance(doc, dict):
            raise ScenarioError("scenario must be a JSON object")
        _reject_unknown(doc, {"model", "params", "tolerances", "seed"}, "scenario")
        model = doc.get("model")
        if model not in MODELS:
            raise ScenarioError(f"model must be one of {MODELS}, got {model!r}")
        return cls(
            model=model,
            params=doc.get("params", {}),
            tolerances=Tolerances.from_doc(doc.get("tolerances"), tolerance_overrides),
            seed=None if doc.get("seed") is None else _field(doc, "seed", "scenario", int),
        )

    @classmethod
    def load(cls, path, tolerance_overrides=None):
        return cls.from_doc(_read_json(path), tolerance_overrides)

    def build(self):
        """Instantiate the model object this scenario describes."""
        p = self.params
        if self.model == "split_step":
            _reject_unknown(p, {"a", "b", "c", "d_coin", "shift_exponent"}, "params")
            params = SplitStepParams(
                a=parse_profile(_field(p, "a", "params"), "params.a"),
                b=parse_profile(_field(p, "b", "params"), "params.b"),
                c=_field(p, "c", "params", float),
                d_coin=_as_scalar(_field(p, "d_coin", "params"), "params.d_coin"),
                shift_exponent=_field(p, "shift_exponent", "params", int, 1),
            )
            return build_walk(params)
        if self.model == "weighted_shift":
            _reject_unknown(p, {"m", "n", "coin"}, "params")
            return build_weighted_shift_walk(
                _field(p, "m", "params", int), _field(p, "n", "params", int),
                _as_matrix(_field(p, "coin", "params"), "params.coin"),
            )
        if self.model == "generator":
            _reject_unknown(p, {"hamiltonian", "gamma0"}, "params")
            h = _as_matrix(_field(p, "hamiltonian", "params"), "params.hamiltonian")
            g0 = _as_matrix(_field(p, "gamma0", "params"), "params.gamma0")
            return build_generator_walk(h, g0), g0
        if self.model == "custom_banded":
            _reject_unknown(p, {"operator"}, "params")
            return parse_operator(_field(p, "operator", "params"), "params.operator")
        raise ScenarioError(f"unsupported model {self.model!r}")

    def is_lattice(self):
        return self.model in ("split_step", "weighted_shift", "custom_banded")


def _resolve_path(doc, path):
    *parents, last = path.split(".")
    target = doc
    for key in parents:
        target = target.get(key) if isinstance(target, dict) else None
    if not isinstance(target, dict):
        raise ScenarioError(f"sweep axis path {path!r} not found in the scenario template")
    return target, last


@dataclass
class SweepSpec:
    axes: list                      # [(path, [values...]), ...]
    scenarios: list                 # one Scenario per grid point, in grid_points() order
    output: str | None = None

    @classmethod
    def load(cls, path, tolerance_overrides=None):
        doc = _read_json(path)
        if not isinstance(doc, dict):
            raise ScenarioError("sweep must be a JSON object")
        _reject_unknown(doc, {"scenario", "axes", "output"}, "sweep")
        template = doc.get("scenario")
        if not isinstance(template, dict):
            raise ScenarioError("sweep needs a 'scenario' template object")
        axes_doc = doc.get("axes")
        if not axes_doc:
            raise ScenarioError("sweep needs a non-empty 'axes' list")
        axes = []
        for axis in _field(doc, "axes", "sweep", list):
            _reject_unknown(axis, {"path", "values"}, "axes entry")
            values = axis.get("values")
            if not values:
                raise ScenarioError(f"axis {axis.get('path')!r} has no values")
            axes.append((_field(axis, "path", "axes entry", str),
                         _field(axis, "values", "axes entry", list)))
        output = None if doc.get("output") is None else _field(doc, "output", "sweep", str)
        spec = cls(axes, [], output)
        # parse every grid point's scenario here: a malformed one is refused before any cell runs
        for point in spec.grid_points():
            point_doc = copy.deepcopy(template)
            for (axis_path, values), idx in zip(axes, point):
                target, key = _resolve_path(point_doc, axis_path)
                target[key] = values[idx]
            spec.scenarios.append(Scenario.from_doc(point_doc, tolerance_overrides))
        return spec

    def grid_points(self):
        """Index tuples in lexicographic order of the axes (the last varies fastest)."""
        return itertools.product(*(range(len(values)) for _, values in self.axes))

    def axis_values(self, point):
        return [values[idx] for (_, values), idx in zip(self.axes, point)]
