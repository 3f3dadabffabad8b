"""Arithmetic behind the reported metrics, kept free of I/O so it can be tested."""

from __future__ import annotations

import statistics


def summary(values) -> dict:
    """Median, first and third quartile and sample count of ``values``.

    Quartiles follow ``statistics.quantiles(values, n=4)``; a single sample
    is its own median and quartiles.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def hit_fraction(pairs: int, hits: int) -> float:
    """Share of Monte Carlo pairs whose kernel payoff is nonzero (0 when none were drawn)."""
    if hits < 0 or hits > pairs:
        raise ValueError(f"hits={hits} outside [0, pairs={pairs}]")
    return hits / pairs if pairs else 0.0


def stderr2_s(jobs, wall_s: float) -> float:
    """Mean relative variance of the sweep's estimates times the seconds spent on them.

    ``jobs`` are sweep results with ``points`` (``value``, ``stderr``,
    ``seconds``, ``method``), ``target`` and ``limit_uncertainty``.  With any
    Monte Carlo points, the mean of (stderr / value)^2 over those points times
    the seconds of their evaluate calls.  A sweep set without Monte Carlo has
    no sampling stderr; there the relative variance is that of each job's
    reported limit uncertainty against its target, and the seconds are the
    workload's ``wall_s``: its quadrature calls are too short a slice of the
    run to time steadily on their own.

    The mean is geometric: relative variances of different points span two
    orders of magnitude, and a single point whose estimator breaks down would
    otherwise set the figure for the whole workload, differently per seed.
    """
    mc = [pt for job in jobs for pt in job["points"]
          if pt["method"] == "monte_carlo" and pt["value"] != 0.0]
    if mc:
        rel_var = statistics.geometric_mean((pt["stderr"] / pt["value"]) ** 2 for pt in mc)
        return rel_var * sum(pt["seconds"] for pt in mc)
    if not jobs:
        raise ValueError("no sweep jobs")
    rel_var = statistics.geometric_mean((job["limit_uncertainty"] / job["target"]) ** 2
                                        for job in jobs)
    return rel_var * wall_s


def at_reference_speed(seconds: float, reference_s: float, nominal_s: float) -> float:
    """``seconds`` measured while the reference loop took ``reference_s``, rescaled
    to the host speed at which that loop takes ``nominal_s``."""
    if reference_s <= 0.0:
        raise ValueError(f"reference_s={reference_s} is not positive")
    return seconds * nominal_s / reference_s
