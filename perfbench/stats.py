"""Statistics for the benchmark: percentiles, span self times, metric names.

Dependency-free, so run.py and its tests need nothing beyond the standard
library.
"""

import math
import re
import statistics

# Metric names: a letter or digit, then up to 63 of [A-Za-z0-9_.-].
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A tail percentile needs this many samples above it.
TAIL_BEYOND = 10
# Tail percentiles considered, highest first.  p99 and beyond are left out:
# on a shared VM they follow disk-fsync and scheduling hiccups and move
# between runs by up to a fifth (session_repl: 16-21 % quartile spread over
# ten runs), more than any useful bound.
TAIL_GRID = (90.0,)


def valid_metric_name(name):
    return isinstance(name, str) and METRIC_NAME.fullmatch(name) is not None


def p50(values):
    """Median of the samples."""
    if not values:
        raise ValueError("p50 of no samples")
    return statistics.median(values)


def tail(values, beyond=TAIL_BEYOND, grid=TAIL_GRID):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples).  The percentile is the highest of
    `grid` that leaves `beyond` samples above its nearest-rank value; with
    too few samples for any of them, it is the order statistic with exactly
    `beyond` samples above it.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    ordered = sorted(values)
    for percentile in grid:
        rank = math.ceil(percentile / 100.0 * n)
        if n - rank >= beyond:
            return ordered[rank - 1], percentile, n
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def spread(values):
    """Inter-quartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def span_events(doc):
    """The complete ("X") events of a Chrome-trace dump."""
    return [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]


def self_times(events):
    """Self time of every span, in microseconds, keyed by span id.

    A span's self time is its duration minus the time its direct children
    cover.  Children of one span run one after another on its thread, so
    their durations add without overlap.
    """
    children = {}
    for event in events:
        parent = event["args"].get("parent", 0)
        if parent:
            children[parent] = children.get(parent, 0.0) + event["dur"]
    return {e["args"]["id"]: e["dur"] - children.get(e["args"]["id"], 0.0)
            for e in events}


def per_call_us(events, name):
    """Mean duration per call of the spans called `name`, in microseconds.

    Loop spans carry the number of calls they cover in args.calls.
    """
    matching = [e for e in events if e["name"] == name]
    calls = sum(e["args"].get("calls", 1) for e in matching)
    if calls == 0:
        raise ValueError(f"no spans named {name}")
    return sum(e["dur"] for e in matching) / calls


def mean_self_us(events, prefix):
    """Mean self time of the spans whose names start with `prefix`."""
    own = self_times(events)
    values = [own[e["args"]["id"]] for e in events
              if e["name"].startswith(prefix)]
    if not values:
        raise ValueError(f"no spans named {prefix}*")
    return statistics.fmean(values)
