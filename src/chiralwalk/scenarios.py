"""Scenario and sweep files: JSON-shaped model descriptions for the CLI.

Complex scalars are either plain numbers or [re, im] pairs; matrices are
nested lists of [re, im] pairs.  Unknown keys are rejected so that typos
fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ScenarioError
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


def _field(doc, key, where, kind=None, default=None):
    """kind(doc[key]), default standing in for an absent key when given; a missing
    or malformed value is a ScenarioError naming the field.  An int field refuses
    a boolean and a number that is not integral instead of truncating it."""
    value = doc.get(key, default)
    if value is None and key not in doc:
        raise ScenarioError(f"{where}.{key}: missing")
    try:
        if kind is int and (isinstance(value, bool)
                            or isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return value if kind is None else kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{where}.{key}: expected {kind.__name__}, got {value!r}") from None


def _as_scalar(value, where):
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError):
            pass
    raise ScenarioError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _as_matrix(value, where):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = np.zeros(0)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ScenarioError(f"{where}: expected an n x n matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


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
    table = {}
    for entry in _field(doc, "table", where, list, []):
        _reject_unknown(entry, {"x", "value"}, f"{where}.table")
        value = _as_scalar(_field(entry, "value", f"{where}.table"), where)
        table[_field(entry, "x", f"{where}.table", int)] = np.array([[value]])
    return CoefficientFunction.from_table(left, right, table)


@dataclass
class Tolerances:
    rank_tol: float = 1e-8
    grid_n: int = 4096
    margin: float = 1e-6

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.rank_tol, self.grid_n, self.margin)):
            raise ScenarioError("tolerances must be positive and finite")   # NaN fails 0 < v

    @classmethod
    def from_doc(cls, doc, overrides=None):
        doc = dict(doc or {})
        _reject_unknown(doc, {"rank_tol", "grid_n", "margin"}, "tolerances")
        merged = {**doc, **{k: v for k, v in (overrides or {}).items() if v is not None}}
        return cls(_field(merged, "rank_tol", "tolerances", float, 1e-8),
                   _field(merged, "grid_n", "tolerances", int, 4096),
                   _field(merged, "margin", "tolerances", float, 1e-6))

    def to_dict(self):
        return {"rank_tol": self.rank_tol, "grid_n": self.grid_n, "margin": self.margin}


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
            return BandedAnisotropicOperator.from_json_dict(_field(p, "operator", "params"))
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
    template: dict
    axes: list                      # [(path, [values...]), ...]
    output: str | None = None
    tolerance_overrides: dict | None = None

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
        spec = cls(template, axes, doc.get("output"), tolerance_overrides)
        # validate that every grid point yields a well-formed scenario
        for point in spec.grid_points():
            spec.scenario_at(point)
        return spec

    def grid_points(self):
        """Index tuples in lexicographic order of the axes (the last varies fastest)."""
        return itertools.product(*(range(len(values)) for _, values in self.axes))

    def scenario_at(self, point):
        doc = copy.deepcopy(self.template)
        for (path, values), idx in zip(self.axes, point):
            target, key = _resolve_path(doc, path)
            target[key] = values[idx]
        return Scenario.from_doc(doc, self.tolerance_overrides)

    def axis_values(self, point):
        return [values[idx] for (_, values), idx in zip(self.axes, point)]
