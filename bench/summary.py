"""Medians and quartiles of repeated runs, and the metric names of BENCHMARK.json."""

import json
import statistics


def load_spec(path):
    with open(path) as f:
        return json.load(f)


def with_units(values, spec, kind):
    """Attach each metric's unit from ``spec[kind]``; the names must match exactly.

    Raises ``ValueError`` when a metric is missing, unknown or not finite, so
    a run never prints a result that BENCHMARK.json does not describe.
    """
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = sorted(set(units) - set(values))
    unknown = sorted(set(values) - set(units))
    if missing or unknown:
        raise ValueError(f"{kind} metrics: missing {missing}, unknown {unknown}")
    out = {}
    for name in units:
        value = float(values[name])
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": units[name]}
    return out


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2)
