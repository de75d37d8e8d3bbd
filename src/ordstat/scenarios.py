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
           "builtin_example", "example_scenario_document", "EXAMPLE_IDS"]

EXAMPLE_IDS = (1, 2, 3, 4)


class ScenarioError(ValueError):
    """Scenario document is malformed; the message names the offending key."""


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")


def _get(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ScenarioError(f"missing key {key!r} in {where}")
    return obj[key]


def _number(value, where: str) -> float:
    """A finite JSON number; strings, booleans, NaN and infinities fail."""
    # bool is an int subclass; the range test fails NaN, infinities and
    # integers too large for a float
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ScenarioError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    """A JSON integer; floats, strings and booleans fail."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _positive(value, where: str) -> float:
    v = _number(value, where)
    if not v > 0.0:
        raise ScenarioError(f"{where} must be positive, got {v}")
    return v


def _parse_baseline(doc: dict) -> Weibull:
    obj = _get(doc, "baseline", "scenario")
    if not isinstance(obj, dict):
        raise ScenarioError("baseline must be an object")
    family = _get(obj, "family", "baseline")
    if family == "weibull":
        _require_keys(obj, {"family", "a", "b"}, "baseline")
        return Weibull(_positive(_get(obj, "a", "baseline"), "baseline.a"),
                       _positive(_get(obj, "b", "baseline"), "baseline.b"))
    if family == "exponential":
        _require_keys(obj, {"family", "rate"}, "baseline")
        return Exponential(_positive(_get(obj, "rate", "baseline"), "baseline.rate"))
    raise ScenarioError(f"unknown baseline family {family!r}")


def _parse_generator(doc: dict):
    obj = doc.get("generator")
    if obj is None:
        return builtin_generator("independence")
    if not isinstance(obj, dict):
        raise ScenarioError("generator must be an object")
    _require_keys(obj, {"name", "params"}, "generator")
    name = _get(obj, "name", "generator")
    params = obj.get("params") or {}
    if not isinstance(params, dict):
        raise ScenarioError("generator.params must be an object")
    _require_keys(params, {"theta"}, "generator.params")
    theta = params.get("theta")
    if theta is not None:
        theta = _number(theta, "generator.params.theta")
    try:
        return builtin_generator(name, theta)
    except ValueError as exc:
        raise ScenarioError(f"generator: {exc}") from None


def _as_vector(value, length_hint: int | None, where: str) -> list[float]:
    if isinstance(value, list):
        if not value:
            raise ScenarioError(f"{where} must be a number or a non-empty number list")
        return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]
    v = _number(value, where)
    if length_hint is None:
        raise ScenarioError(f"{where} is a scalar but the side length cannot be inferred")
    return [v] * length_hint


def _parse_side(doc: dict, key: str, baseline: Weibull, generator):
    obj = _get(doc, key, "scenario")
    if not isinstance(obj, dict):
        raise ScenarioError(f"{key} must be an object")
    if "multiple_outlier" in obj:
        _require_keys(obj, {"multiple_outlier"}, key)
        mo = obj["multiple_outlier"]
        if not isinstance(mo, dict):
            raise ScenarioError(f"{key}.multiple_outlier must be an object")
        _require_keys(mo, {"alpha", "lambda1", "lambda2", "p", "q"},
                      f"{key}.multiple_outlier")
        try:
            return MultipleOutlierSpec(
                alpha=_positive(_get(mo, "alpha", key), f"{key}.alpha"),
                lambda_out=_positive(_get(mo, "lambda1", key), f"{key}.lambda1"),
                lambda_main=_positive(_get(mo, "lambda2", key), f"{key}.lambda2"),
                p=_integer(_get(mo, "p", key), f"{key}.p"),
                q=_integer(_get(mo, "q", key), f"{key}.q"), baseline=baseline)
        except ValueError as exc:
            raise ScenarioError(f"{key}: {exc}") from None
    _require_keys(obj, {"alpha", "lambda"}, key)
    alpha_raw = _get(obj, "alpha", key)
    lam_raw = _get(obj, "lambda", key)
    hint = None
    for raw in (alpha_raw, lam_raw):
        if isinstance(raw, list):
            hint = len(raw)
            break
    alphas = _as_vector(alpha_raw, hint, f"{key}.alpha")
    lams = _as_vector(lam_raw, hint, f"{key}.lambda")
    if len(alphas) != len(lams):
        raise ScenarioError(f"{key}: alpha and lambda lengths differ")
    try:
        marginals = tuple(MphrMarginal(a, l, baseline) for a, l in zip(alphas, lams))
        return DependentSampleSpec(marginals, generator)
    except ValueError as exc:
        raise ScenarioError(f"{key}: {exc}") from None


def _parse_law(doc: dict, key: str) -> SampleSizeLaw | None:
    raw = doc.get(key)
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise ScenarioError(f"{key} must be a list of probabilities for m = 1..len")
    probs = [_number(v, f"{key}[{i}]") for i, v in enumerate(raw)]
    try:
        return SampleSizeLaw(probs)
    except ValueError as exc:
        raise ScenarioError(f"{key}: {exc}") from None


def _parse_grid(doc: dict, override: dict | None = None) -> Grid:
    raw = doc.get("grid") or {}
    if not isinstance(raw, dict):
        raise ScenarioError("grid must be an object")
    convert = {"points": _integer, "u_min": _number, "u_max": _number}
    _require_keys(raw, set(convert), "grid")
    # a key the document leaves out takes Grid.default's value
    obj = {k: convert[k](v, f"grid.{k}") for k, v in raw.items()}
    # command-line values arrive typed by argparse
    if override:
        obj.update({k: v for k, v in override.items() if v is not None})
    try:
        return Grid.default(**obj)
    except ValueError as exc:
        raise ScenarioError(f"grid: {exc}") from None


def parse_scenario(doc: dict, grid_override: dict | None = None,
                   name: str = "scenario") -> tuple[Scenario, dict]:
    """Turn a parsed JSON document into a Scenario plus output-path options."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _require_keys(doc, {"name", "baseline", "generator", "x_side", "y_side",
                        "n1_pmf", "n2_pmf", "grid", "theorem", "output"}, "scenario")
    baseline = _parse_baseline(doc)
    generator = _parse_generator(doc)
    side_x = _parse_side(doc, "x_side", baseline, generator)
    side_y = _parse_side(doc, "y_side", baseline, generator)
    law_x = _parse_law(doc, "n1_pmf")
    law_y = _parse_law(doc, "n2_pmf")
    grid = _parse_grid(doc, grid_override)
    theorem = doc.get("theorem", "none")
    output = doc.get("output") or {}
    if not isinstance(output, dict):
        raise ScenarioError("output must be an object")
    _require_keys(output, {"csv", "svg", "report"}, "output")
    for key, value in output.items():
        if not (isinstance(value, str) and value):
            raise ScenarioError(f"output.{key} must be a non-empty string, got {value!r}")
        # a directory part, "." or ".." would leave or replace --out-dir
        if Path(value).name != value or value == "..":
            raise ScenarioError(f"output.{key} must be a bare file name, got {value!r}")
    name = doc.get("name", name)
    if not isinstance(name, str):
        raise ScenarioError(f"name must be a string, got {name!r}")
    try:
        scenario = Scenario(side_x=side_x, side_y=side_y, grid=grid,
                            law_x=law_x, law_y=law_y, theorem=theorem, name=name)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
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
