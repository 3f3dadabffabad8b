"""Experiment configuration: JSON schema, validation, and construction.

Configs are strictly validated (unknown keys rejected) before any numerical
work starts, so a malformed experiment fails fast with a readable message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from .bodies import ConvexBody, from_descriptor
from .convergence import Schedule
from .engine import IntegrationPlan
from .functionals import THEOREMS, P_RANGE
from .functions import TestFunction, list_functions, make_function
from .mollifiers import KINDS as MOLLIFIER_KINDS


class ConfigError(ValueError):
    pass


_BODY_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"properties": {"kind": {"const": "ball"},
                        "radius": {"type": "number", "exclusiveMinimum": 0},
                        "dim": {"type": "integer", "minimum": 1, "maximum": 3}},
         "required": ["kind", "radius", "dim"], "additionalProperties": False},
        {"properties": {"kind": {"const": "box"},
                        "half_widths": {"type": "array", "minItems": 1, "maxItems": 3,
                                        "items": {"type": "number", "exclusiveMinimum": 0}}},
         "required": ["kind", "half_widths"], "additionalProperties": False},
        {"properties": {"kind": {"const": "ellipsoid"},
                        "semi_axes": {"type": "array", "minItems": 1, "maxItems": 3,
                                      "items": {"type": "number", "exclusiveMinimum": 0}}},
         "required": ["kind", "semi_axes"], "additionalProperties": False},
        {"properties": {"kind": {"const": "lp_ball"},
                        "exponent": {"type": "number", "minimum": 1},
                        "radius": {"type": "number", "exclusiveMinimum": 0},
                        "dim": {"type": "integer", "minimum": 1, "maximum": 3}},
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
        "stratification": {"type": "integer", "minimum": 1},
        "x_nodes": {"type": "integer", "minimum": 4},
        "t_nodes": {"type": "integer", "minimum": 4},
        "outer_box_radius": {"type": "number", "exclusiveMinimum": 0},
        "t_max": {"type": "number", "exclusiveMinimum": 0},
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
        "m": {"type": "integer", "minimum": 1, "maximum": 3},
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
                "points": {"type": "integer", "minimum": 4},
                "fit_points": {"type": "integer", "minimum": 3},
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


@dataclass
class JobConfig:
    name: str
    theorem: str
    function: TestFunction
    body: ConvexBody
    m: int
    p: float
    schedule: Schedule
    plan: IntegrationPlan
    mollifier_kind: str | None
    tolerance: float


@dataclass
class ExperimentConfig:
    jobs: list[JobConfig]
    seed: int = 0
    workers: int = 1
    output: str | None = None
    format: str = "csv"
    timestamp: bool = True
    raw: dict = field(default_factory=dict)


def _build_plan(raw: dict, seed: int, workers: int) -> IntegrationPlan:
    method = raw["method"]
    if method == "monte_carlo":
        if "samples" not in raw:
            raise ConfigError("monte_carlo plans require 'samples'")
        return IntegrationPlan(
            "monte_carlo", samples=raw["samples"], seed=seed, workers=workers,
            stratification=raw.get("stratification", 16),
            outer_box_radius=raw.get("outer_box_radius"), t_max=raw.get("t_max"))
    return IntegrationPlan(
        "tensor_quadrature", x_nodes=raw.get("x_nodes", 200),
        t_nodes=raw.get("t_nodes", 64),
        outer_box_radius=raw.get("outer_box_radius"), t_max=raw.get("t_max"))


def parse_config(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Validate a raw config dict and build the runnable experiment."""
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(s) for s in exc.absolute_path)
        raise ConfigError(f"config invalid at '{path}': {exc.message}") from exc

    overrides = overrides or {}
    for key, value in overrides.items():
        try:
            jsonschema.validate(value, CONFIG_SCHEMA["properties"][key])
        except jsonschema.ValidationError as exc:
            raise ConfigError(f"override {key}={value!r} invalid: {exc.message}") from exc
    seed = overrides.get("seed", raw.get("seed", 0))
    workers = overrides.get("workers", raw.get("workers", 1))
    output = overrides.get("output", raw.get("output"))
    fmt = overrides.get("format", raw.get("format", "csv"))
    timestamp = overrides.get("timestamp", raw.get("timestamp", True))

    jobs: list[JobConfig] = []
    for idx, job in enumerate(raw["jobs"]):
        label = job.get("name", f"job{idx}")
        if not P_RANGE[0] < job["p"] <= P_RANGE[1]:
            raise ConfigError(
                f"{label}: p={job['p']} violates the constraint p > 1 (and p <= {P_RANGE[1]})")
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
        if not func.integrable:
            raise ConfigError(f"{label}: function {fname!r} is identity-test only")
        plan_raw = job["plan"]
        if plan_raw["method"] == "tensor_quadrature" and body.dim != 1:
            raise ConfigError(f"{label}: tensor_quadrature needs a 1-D body, got dim "
                              f"{body.dim}; use monte_carlo")
        box_radius = plan_raw.get("outer_box_radius")
        if box_radius is not None and box_radius < func.support_radius:
            raise ConfigError(f"{label}: outer_box_radius {box_radius} is below the "
                              f"support radius {func.support_radius} of {fname!r}")
        moll_kind = job.get("mollifier", {}).get("kind")
        if job["theorem"].startswith("bbm") and moll_kind is None:
            raise ConfigError(f"{label}: mollified functionals require a mollifier block")
        sched_raw = job["schedule"]
        try:
            schedule = Schedule(start=sched_raw["start"], ratio=sched_raw.get("ratio", 0.5),
                                points=sched_raw.get("points", 7),
                                fit_points=sched_raw.get("fit_points"))
        except ValueError as exc:
            raise ConfigError(f"{label}: invalid schedule: {exc}") from exc
        # decorrelate jobs while keeping runs reproducible for fixed config
        job_seed = int(np.random.SeedSequence((seed, idx)).generate_state(1)[0])
        plan = _build_plan(plan_raw, job_seed, workers)
        jobs.append(JobConfig(name=label, theorem=job["theorem"], function=func,
                              body=body, m=job["m"], p=float(job["p"]),
                              schedule=schedule, plan=plan,
                              mollifier_kind=moll_kind,
                              tolerance=float(job.get("tolerance", 0.05))))
    return ExperimentConfig(jobs=jobs, seed=seed, workers=workers, output=output,
                            format=fmt, timestamp=timestamp, raw=raw)


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw, overrides)
