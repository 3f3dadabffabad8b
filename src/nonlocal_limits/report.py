"""Report emission: CSV (one row per sweep point plus a summary row) and JSON."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone

from .convergence import SweepResult

CSV_COLUMNS = ["job_id", "theorem", "m", "p", "body", "function", "parameter",
               "value", "stderr", "limit", "rate", "target", "rel_gap", "verdict"]


@dataclass
class JobError:
    """A job stopped by a numerical error: reported with verdict ``error`` and no numbers."""

    theorem: str
    function: str
    m: int
    p: float
    body: dict
    message: str
    verdict = "error"
    passed = False


def _num(x: float) -> str:
    # 17 significant digits: round-trips doubles exactly
    return f"{x:.17g}"


def _body_str(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def render_csv(results: list[SweepResult | JobError], timestamp: bool = True) -> str:
    buf = io.StringIO()
    if timestamp:
        buf.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for job_id, res in enumerate(results):
        head = [str(job_id), res.theorem, str(res.m), _num(res.p),
                _body_str(res.body), res.function]
        if isinstance(res, JobError):
            writer.writerow(head + [""] * 7 + [res.verdict])
            continue
        for pt in res.points:
            writer.writerow(head + [_num(pt.parameter), _num(pt.value),
                                    _num(pt.stderr), "", "", "", "", ""])
        writer.writerow(head + ["", "", "", _num(res.extrapolated_limit),
                                _num(res.fitted_rate), _num(res.target),
                                _num(res.rel_gap), res.verdict])
    return buf.getvalue()


def result_dict(res: SweepResult | JobError) -> dict:
    if isinstance(res, JobError):
        return {"theorem": res.theorem, "function": res.function, "m": res.m, "p": res.p,
                "body": res.body, "verdict": res.verdict, "error": res.message}
    return {
        "theorem": res.theorem,
        "function": res.function,
        "m": res.m,
        "p": res.p,
        "body": res.body,
        "points": [{"parameter": pt.parameter, "value": pt.value, "stderr": pt.stderr}
                   for pt in res.points],
        "limit": res.extrapolated_limit,
        "rate": res.fitted_rate,
        "aitken_limit": res.aitken_limit,
        "aitken_fallback": res.aitken_fallback,
        "target": res.target,
        "rel_gap": res.rel_gap,
        "tolerance": res.tolerance,
        "verdict": res.verdict,
        "limit_uncertainty": res.limit_uncertainty,
        "info": res.info,
    }


def render_json(results: list[SweepResult | JobError], meta: dict | None = None,
                timestamp: bool = True) -> str:
    doc: dict = {}
    if timestamp:
        doc["generated"] = datetime.now(timezone.utc).isoformat()
    if meta:
        doc.update(meta)
    doc["jobs"] = [result_dict(r) for r in results]
    return json.dumps(doc, indent=2, sort_keys=True, default=float) + "\n"
