"""Experiment configuration: JSON schema, validation, and construction.

Configs are strictly validated (unknown keys rejected) before any numerical
work starts, so a malformed experiment fails fast with a readable message.
The schema dicts below are the one description of the format; ``_schema_error``
checks a value against them and knows only the JSON Schema keywords they use.
A JSON ``integer`` is a Python int, never a bool or a float such as 3.0.

Each job becomes one ``FunctionalSpec`` at the schedule's start, and
``functionals.validate_spec`` is the one home of the rules a job must keep
(the p range, no identity-test polynomial, which theorems take a mollifier kind);
a job that breaks one is a ``ConfigError`` naming the job.  This module
checks only what is no spec's business: the schema, bodies, plans and the
schedule.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .bodies import MAX_LP_EXPONENT, from_descriptor
from .convergence import MAX_SCHEDULE_POINTS, Schedule
from .engine import IntegrationPlan, lattice_sizes
from .functionals import MAX_M, THEOREMS, FunctionalSpec, SpecError, validate_spec
from .functions import MAX_DIM, list_functions, make_function
from .mollifiers import KINDS as MOLLIFIER_KINDS


class ConfigError(ValueError):
    pass


_BODY_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"properties": {"kind": {"const": "ball"},
                        "radius": {"type": "number", "exclusiveMinimum": 0},
                        "dim": {"type": "integer", "minimum": 1, "maximum": MAX_DIM}},
         "required": ["kind", "radius", "dim"], "additionalProperties": False},
        {"properties": {"kind": {"const": "box"},
                        "half_widths": {"type": "array", "minItems": 1, "maxItems": MAX_DIM,
                                        "items": {"type": "number", "exclusiveMinimum": 0}}},
         "required": ["kind", "half_widths"], "additionalProperties": False},
        {"properties": {"kind": {"const": "ellipsoid"},
                        "semi_axes": {"type": "array", "minItems": 1, "maxItems": MAX_DIM,
                                      "items": {"type": "number", "exclusiveMinimum": 0}}},
         "required": ["kind", "semi_axes"], "additionalProperties": False},
        {"properties": {"kind": {"const": "lp_ball"},
                        "exponent": {"type": "number", "minimum": 1,
                                     "maximum": MAX_LP_EXPONENT},
                        "radius": {"type": "number", "exclusiveMinimum": 0},
                        "dim": {"type": "integer", "minimum": 1, "maximum": MAX_DIM}},
         "required": ["kind", "exponent", "radius", "dim"], "additionalProperties": False},
        {"properties": {"kind": {"const": "polytope"},
                        "normals": {"type": "array", "items": {"type": "array",
                                                               "items": {"type": "number"}}},
                        "offsets": {"type": "array", "items": {"type": "number"}}},
         "required": ["kind", "normals", "offsets"], "additionalProperties": False},
    ],
}

_PLAN_SCHEMA = {
    "type": "object",
    "properties": {
        "method": {"enum": ["monte_carlo", "tensor_quadrature"]},
        "samples": {"type": "integer", "minimum": 1},
        # a Gauss-Legendre rule of N nodes builds an N x N matrix
        "x_nodes": {"type": "integer", "minimum": 4, "maximum": 1024},
        "t_nodes": {"type": "integer", "minimum": 4, "maximum": 1024},
    },
    "required": ["method"],
    "additionalProperties": False,
}

_JOB_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "theorem": {"enum": list(THEOREMS)},
        "function": {"type": "string"},
        "body": _BODY_SCHEMA,
        "m": {"type": "integer", "minimum": 1, "maximum": MAX_M},
        "p": {"type": "number"},
        "mollifier": {
            "type": "object",
            "properties": {"kind": {"enum": list(MOLLIFIER_KINDS)}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        "schedule": {
            "type": "object",
            "properties": {
                "start": {"type": "number", "exclusiveMinimum": 0},
                "ratio": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "points": {"type": "integer", "minimum": 4, "maximum": MAX_SCHEDULE_POINTS},
            },
            "required": ["start"],
            "additionalProperties": False,
        },
        "plan": _PLAN_SCHEMA,
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["theorem", "function", "body", "m", "p", "schedule", "plan"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "workers": {"type": "integer", "minimum": 1},
        "output": {"type": "string"},
        "format": {"enum": ["csv", "json"]},
        "timestamp": {"type": "boolean"},
        "jobs": {"type": "array", "minItems": 1, "items": _JOB_SCHEMA},
    },
    "required": ["jobs"],
    "additionalProperties": False,
}


_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "integer": int, "number": (int, float)}
_BOUNDS = (("minimum", operator.lt, "less than the minimum"),
           ("exclusiveMinimum", operator.le, "less than or equal to the minimum"),
           ("maximum", operator.gt, "greater than the maximum"),
           ("exclusiveMaximum", operator.ge, "greater than or equal to the maximum"))


def _schema_error(value, schema: dict, path: tuple = ()) -> tuple[tuple, str] | None:
    """The first way ``value`` breaks ``schema``, as (path, message); None when it conforms."""
    kind = schema.get("type")
    if kind is not None and (not isinstance(value, _JSON_TYPES[kind])
                             or isinstance(value, bool) != (kind == "boolean")):
        return path, f"{value!r} is not of type {kind!r}"
    if "const" in schema and value != schema["const"]:
        return path, f"{schema['const']!r} was expected"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        for key, breaks, words in _BOUNDS:
            if key in schema and breaks(value, schema[key]):
                return path, f"{value!r} is {words} of {schema[key]!r}"
    children = []
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} is too short"
        if len(value) > schema.get("maxItems", math.inf):
            return path, f"{value!r} is too long"
        if "items" in schema:
            children = [(index, item, schema["items"]) for index, item in enumerate(value)]
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                return path, f"{name!r} is a required property"
        known = schema.get("properties", {})
        extra = [name for name in value if name not in known]
        if extra and schema.get("additionalProperties", True) is False:
            return path, f"Additional properties are not allowed ({extra[0]!r} was unexpected)"
        children = [(name, value[name], known[name]) for name in known if name in value]
    for key, child, child_schema in children:
        error = _schema_error(child, child_schema, path + (key,))
        if error is not None:
            return error
    if "oneOf" in schema:
        errors = [_schema_error(value, branch, path) for branch in schema["oneOf"]]
        if errors.count(None) != 1:
            # name the fault within the one branch whose "const" properties the value has
            tagged = [error for error, branch in zip(errors, schema["oneOf"])
                      if error and isinstance(value, dict)
                      and all(value.get(name) == sub["const"]
                              for name, sub in branch["properties"].items() if "const" in sub)]
            return tagged[0] if len(tagged) == 1 else (
                path, f"{value!r} is not valid under exactly one of the given schemas")
    return None


@dataclass
class JobConfig:
    """One sweep: the functional at the schedule's start, and how to run it."""

    name: str
    spec: FunctionalSpec
    schedule: Schedule
    plan: IntegrationPlan
    tolerance: float


@dataclass
class ExperimentConfig:
    jobs: list[JobConfig]
    seed: int
    workers: int
    output: str | None
    format: str
    timestamp: bool


def _huge_integers(node, path: str = "") -> list[str]:
    """Paths of the integers in ``node`` that no float holds (JSON integers are unbounded)."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [hit for key, child in items for hit in _huge_integers(child, f"{path}/{key}")]
    return [path.lstrip("/")] if isinstance(node, int) and abs(node) > sys.float_info.max else []


def check_override(key: str, value) -> None:
    """Raise ``ConfigError`` unless ``value`` keeps the rule of the config field ``key``."""
    error = _schema_error(value, CONFIG_SCHEMA["properties"][key])
    if error is not None:
        raise ConfigError(f"override {key}={value!r} invalid: {error[1]}")


def parse_config(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Validate a raw config dict and build the runnable experiment."""
    error = _schema_error(raw, CONFIG_SCHEMA)
    if error is not None:
        path, message = error
        raise ConfigError(f"config invalid at '{'/'.join(map(str, path))}': {message}")

    overrides = overrides or {}
    for key, value in overrides.items():
        check_override(key, value)
    seed = overrides.get("seed", raw.get("seed", 0))
    workers = overrides.get("workers", raw.get("workers", 1))
    output = overrides.get("output", raw.get("output"))
    fmt = overrides.get("format", raw.get("format", "csv"))
    timestamp = overrides.get("timestamp", raw.get("timestamp", True))

    jobs: list[JobConfig] = []
    for idx, job in enumerate(raw["jobs"]):
        label = job.get("name", f"job{idx}")
        huge = _huge_integers(job)
        if huge:
            raise ConfigError(f"{label}: {huge[0]} is an integer too large for a float")
        try:
            body = from_descriptor(job["body"])
        except ValueError as exc:
            raise ConfigError(f"{label}: invalid body: {exc}") from exc
        fname = job["function"]
        if fname not in list_functions():
            raise ConfigError(f"{label}: unknown test function {fname!r}")
        try:
            func = make_function(fname, body.dim)
        except ValueError as exc:
            raise ConfigError(f"{label}: {exc}") from exc
        plan_raw, method = job["plan"], job["plan"]["method"]
        # a field the job never reads would do nothing
        unread = {"samples": method != "monte_carlo", "x_nodes": method == "monte_carlo",
                  "t_nodes": method == "monte_carlo"}
        for key in plan_raw:
            if unread.get(key):
                raise ConfigError(f"{label}: plan.{key} is never read by a {method} "
                                  f"{job['theorem']} job")
        if method == "monte_carlo":
            if "samples" not in plan_raw:
                raise ConfigError(f"{label}: monte_carlo plans require 'samples'")
            try:
                lattice_sizes(plan_raw["samples"], func.proposal is not None)
            except ValueError as exc:
                raise ConfigError(f"{label}: plan: {exc}") from exc
        if plan_raw["method"] == "tensor_quadrature" and body.dim != 1:
            raise ConfigError(f"{label}: tensor_quadrature needs a 1-D body, got dim "
                              f"{body.dim}; use monte_carlo")
        # Gauss-Legendre loses its rate on a payoff that jumps in t, and stderr 0 would
        # claim an exact value
        if plan_raw["method"] == "tensor_quadrature" and job["theorem"].startswith("nguyen"):
            raise ConfigError(f"{label}: tensor_quadrature has no error bound for the level-set "
                              f"{job['theorem']} job, whose payoff jumps; use monte_carlo")
        try:
            schedule = Schedule(**job["schedule"])
        except ValueError as exc:
            raise ConfigError(f"{label}: invalid schedule: {exc}") from exc
        spec = FunctionalSpec(job["theorem"], func, body, job["m"], float(job["p"]),
                              schedule.start, job.get("mollifier", {}).get("kind"))
        try:
            validate_spec(spec)
        except SpecError as exc:
            raise ConfigError(f"{label}: {exc}") from exc
        # decorrelate jobs while keeping runs reproducible for fixed config
        job_seed = int(np.random.SeedSequence((seed, idx)).generate_state(1)[0])
        plan = IntegrationPlan(**plan_raw, seed=job_seed, workers=workers)
        jobs.append(JobConfig(name=label, spec=spec, schedule=schedule, plan=plan,
                              tolerance=float(job.get("tolerance", 0.05))))
    return ExperimentConfig(jobs=jobs, seed=seed, workers=workers, output=output,
                            format=fmt, timestamp=timestamp)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, not JSON, or NaN, Infinity, -Infinity
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw, overrides)
