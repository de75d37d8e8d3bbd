"""Scenario documents: JSON schema parsing and the builtin comparison registry.

A scenario document pins a baseline, an optional coupling generator, two
sides (marginal vectors or two-block specs), optional sample-size laws, a
grid, and a theorem tag.  Unknown and repeated keys are rejected so that
typos never silently change a comparison.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from .copula import builtin_generator
from .marginals import Exponential, MphrMarginal, Weibull
from .orderstats import DependentSampleSpec, MultipleOutlierSpec, SampleSizeLaw
from .stochorder import Grid, Scenario

__all__ = ["ScenarioError", "parse_scenario", "load_scenario_file",
           "builtin_example", "example_scenario_document"]

EXAMPLE_IDS = (1, 2, 3, 4)


class ScenarioError(ValueError):
    """Scenario document is malformed; the message names the offending key."""


_REQUIRED = object()


def _object(value, path: str, allowed=None) -> dict:
    """``value``, a JSON object with no key outside ``allowed`` (None allows
    any).  ``path`` names it by its dotted key path; the empty path is the
    document itself, called "scenario" where it holds the offending key."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{path} must be an object" if path
                            else "scenario document must be a JSON object")
    unknown = sorted(set(value) - set(value if allowed is None else allowed))
    if unknown:
        raise ScenarioError(f"unknown key(s) {unknown} in {path or 'scenario'}")
    return value


def _field(obj: dict, path: str, key: str, convert=None, *args, default=_REQUIRED):
    """``convert(obj[key], "<path>.<key>", *args)``, or ``obj[key]`` when
    there is no ``convert``, for ``obj`` found at ``path``.  A missing key is
    an error unless a ``default`` is given, which JSON null takes too."""
    value = obj.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in obj:
        raise ScenarioError(f"missing key {key!r} in {path or 'scenario'}")
    return convert(value, f"{path}.{key}" if path else key, *args) if convert else value


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose ValueError becomes a ScenarioError on
    ``path``, the object it builds; the empty path adds no prefix."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}" if path else str(exc)) from None


def _number(value, path: str) -> float:
    """A finite JSON number; strings, booleans, NaN and infinities fail."""
    # bool is an int subclass; the range test fails NaN, infinities and
    # integers too large for a float
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ScenarioError(f"{path} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    """A JSON integer; floats, strings and booleans fail."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path} must be an integer, got {value!r}")
    return value


def _positive(value, path: str) -> float:
    v = _number(value, path)
    if not v > 0.0:
        raise ScenarioError(f"{path} must be positive, got {v}")
    return v


def _parse_baseline(doc: dict) -> Weibull:
    obj = _field(doc, "", "baseline", _object)
    family = _field(obj, "baseline", "family")
    if family == "weibull":
        _object(obj, "baseline", ("family", "a", "b"))
        return Weibull(_field(obj, "baseline", "a", _positive),
                       _field(obj, "baseline", "b", _positive))
    if family == "exponential":
        _object(obj, "baseline", ("family", "rate"))
        return Exponential(_field(obj, "baseline", "rate", _positive))
    raise ScenarioError(f"unknown baseline family {family!r}")


def _parse_generator(doc: dict):
    obj = _field(doc, "", "generator", _object, ("name", "params"), default=None)
    if obj is None:
        return builtin_generator("independence")
    name = _field(obj, "generator", "name")
    params = _field(obj, "generator", "params", _object, ("theta",), default={})
    theta = _field(params, "generator.params", "theta", _number, default=None)
    return _build("generator", builtin_generator, name, theta)


def _as_vector(value, path: str, length_hint: int | None) -> list[float]:
    if isinstance(value, list):
        if not value:
            raise ScenarioError(f"{path} must be a number or a non-empty number list")
        return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    v = _number(value, path)
    if length_hint is None:
        raise ScenarioError(f"{path} is a scalar but the side length cannot be inferred")
    return [v] * length_hint


def _parse_side(doc: dict, key: str, baseline: Weibull, generator):
    obj = _field(doc, "", key, _object)
    if "multiple_outlier" in obj:
        _object(obj, key, ("multiple_outlier",))
        mo = _field(obj, key, "multiple_outlier", _object,
                    ("alpha", "lambda1", "lambda2", "p", "q"))
        path = f"{key}.multiple_outlier"
        rates = [_field(mo, path, k, _positive) for k in ("alpha", "lambda1", "lambda2")]
        sizes = [_field(mo, path, k, _integer) for k in ("p", "q")]
        return _build(key, MultipleOutlierSpec, *rates, *sizes, baseline)
    _object(obj, key, ("alpha", "lambda"))
    hint = next((len(v) for v in (obj.get("alpha"), obj.get("lambda"))
                 if isinstance(v, list)), None)
    alphas = _field(obj, key, "alpha", _as_vector, hint)
    lams = _field(obj, key, "lambda", _as_vector, hint)
    if len(alphas) != len(lams):
        raise ScenarioError(f"{key}: alpha and lambda lengths differ")
    return _build(key, lambda: DependentSampleSpec(
        tuple(MphrMarginal(a, l, baseline) for a, l in zip(alphas, lams)), generator))


def _law(value, path: str) -> SampleSizeLaw:
    if not isinstance(value, list):
        raise ScenarioError(f"{path} must be a list of probabilities for m = 1..len")
    probs = [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return _build(path, SampleSizeLaw, probs)


def _parse_grid(doc: dict, override: dict | None = None) -> Grid:
    convert = {"points": _integer, "u_min": _number, "u_max": _number}
    raw = _field(doc, "", "grid", _object, convert, default={})
    # a key the document leaves out takes Grid.default's value
    obj = {k: _field(raw, "grid", k, convert[k]) for k in raw}
    # command-line values arrive typed by argparse
    if override:
        obj.update({k: v for k, v in override.items() if v is not None})
    return _build("grid", Grid.default, **obj)


def parse_scenario(doc: dict, grid_override: dict | None = None,
                   name: str = "scenario") -> tuple[Scenario, dict]:
    """Turn a parsed JSON document into a Scenario plus output-path options."""
    _object(doc, "", ("name", "baseline", "generator", "x_side", "y_side",
                      "n1_pmf", "n2_pmf", "grid", "theorem", "output"))
    baseline = _parse_baseline(doc)
    generator = _parse_generator(doc)
    side_x = _parse_side(doc, "x_side", baseline, generator)
    side_y = _parse_side(doc, "y_side", baseline, generator)
    law_x = _field(doc, "", "n1_pmf", _law, default=None)
    law_y = _field(doc, "", "n2_pmf", _law, default=None)
    grid = _parse_grid(doc, grid_override)
    theorem = _field(doc, "", "theorem", default="none")
    output = _field(doc, "", "output", _object, ("csv", "svg", "report"), default={})
    for key, value in output.items():
        if not (isinstance(value, str) and value):
            raise ScenarioError(f"output.{key} must be a non-empty string, got {value!r}")
    name = _field(doc, "", "name", default=name)
    if not isinstance(name, str):
        raise ScenarioError(f"name must be a string, got {name!r}")
    scenario = _build("", Scenario, side_x=side_x, side_y=side_y, grid=grid,
                      law_x=law_x, law_y=law_y, theorem=theorem, name=name)
    return scenario, dict(output)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object with distinct keys; json.loads keeps the last of two."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_scenario_file(path: str | Path, grid_override: dict | None = None
                       ) -> tuple[Scenario, dict]:
    """Read and parse a scenario JSON file; decode errors carry line/column."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ScenarioError(f"invalid JSON in {path}: nested too deeply") from None
    return parse_scenario(doc, grid_override, name=path.stem)


_N1 = [0.05, 0.2, 0.3, 0.45]
_N2 = [0.05, 0.2, 0.35, 0.4]


def example_scenario_document(example_id: int) -> dict:
    """The builtin comparison number ``example_id`` as a scenario document."""
    if example_id == 1:
        return {
            "name": "example1",
            "baseline": {"family": "weibull", "a": 1.2, "b": 0.5},
            "generator": {"name": "exp_tilt", "params": {"theta": 0.1}},
            "x_side": {"alpha": 0.8, "lambda": [0.2, 0.4, 0.8, 1.3]},
            "y_side": {"alpha": 0.8, "lambda": [0.3, 0.3, 1.5, 1.6]},
            "n1_pmf": _N1,
            "n2_pmf": _N2,
            "theorem": "thm1",
        }
    if example_id == 2:
        return {
            "name": "example2",
            "baseline": {"family": "weibull", "a": 0.5, "b": 0.8},
            "generator": {"name": "power_tilt", "params": {"theta": 7.0}},
            "x_side": {"alpha": [1 / 3, 1 / 3, 1 / 5, 1 / 8], "lambda": 0.4},
            "y_side": {"alpha": [1 / 5, 1 / 6, 1 / 7, 1 / 9], "lambda": 0.4},
            "n1_pmf": _N1,
            "n2_pmf": _N2,
            "theorem": "thm2",
        }
    if example_id == 3:
        return {
            "name": "example3",
            "baseline": {"family": "weibull", "a": 0.15, "b": 1.2},
            "x_side": {"alpha": [1 / 4, 1 / 3, 1 / 2, 1.0], "lambda": 0.5},
            "y_side": {"alpha": [1 / 3, 1 / 3, 1 / 2, 1 / 2], "lambda": 0.5},
            "theorem": "thm3",
        }
    if example_id == 4:
        return {
            "name": "example4",
            "baseline": {"family": "weibull", "a": 1.5, "b": 0.2},
            "x_side": {"multiple_outlier": {"alpha": 0.05, "lambda1": 0.1,
                                            "lambda2": 0.3, "p": 3, "q": 4}},
            "y_side": {"multiple_outlier": {"alpha": 0.05, "lambda1": 0.1,
                                            "lambda2": 0.3, "p": 1, "q": 8}},
            "theorem": "thm5",
        }
    raise ScenarioError(f"example id must be one of {EXAMPLE_IDS}, got {example_id}")


def builtin_example(example_id: int, grid_override: dict | None = None) -> Scenario:
    scenario, _ = parse_scenario(example_scenario_document(example_id), grid_override)
    return scenario
