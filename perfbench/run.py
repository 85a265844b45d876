#!/usr/bin/env python3
"""Benchmark entry point: builds rfsmd and the driver, runs one workload,
checks its outputs, and prints the metrics as one JSON line.

    python3 perfbench/run.py --workload plan_ea|plan_small_mix|session_repl
                             --seed N --seconds S --trace 0|1

Run it from the repository root.  The build lives in $CARGO_TARGET_DIR
(default .bench_build) under perfbench/.  With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer ones,
taken from the traced ladder (see perfbench/README.md).  Exits non-zero
when any output check failed or the run could not complete.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("plan_ea", "plan_small_mix", "session_repl")
# Hard cap on one run; a first run also has to build.
RUN_LIMIT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds rfsmd plus the driver; returns paths."""
    source = os.path.join(root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "rfsmd", "-j4"])
    with open(build_log, "w", encoding="utf-8") as handle:
        for step in steps:
            if subprocess.run(step, stdout=handle, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                raise RuntimeError(f"build failed, see {build_log}")
    return (os.path.join(build_dir, "perfbench_driver"),
            os.path.join(build_dir, "rfsm", "tools", "rfsmd"))


def end_to_end(report):
    latency = report["latency_ms"]
    value, _, _ = stats.tail(latency)
    return {
        "setup_s": stats.p50(report["setup_s"]),
        "p50_ms": stats.p50(latency),
        "tail_ms": value,
        "items_per_s": report["items"] / report["window_s"],
        "program_steps_mean": statistics.fmean(report["program_steps"]),
        "rss_peak_mb": report["rss_peak_mb"],
    }


def per_layer(report, doc):
    events = stats.span_events(doc)
    counts = report["counts"]

    def rung(name):  # mean duration of a ladder rung, ms
        return stats.per_call_us(events, "ladder." + name) / 1000.0

    def micro(name):  # per-call duration of a micro loop, us
        return stats.per_call_us(events, "micro." + name)

    r0, r1, r2, r2m, r3 = (rung(n) for n in ("R0", "R1", "R2", "R2m", "R3"))
    s0, s1, s2, s3, s4 = (rung(n) for n in ("S0", "S1", "S2", "S3", "S4"))
    instances = counts.get("instances", 0.0)
    untraced = stats.p50(report["latency_ms"])
    return {
        "core.decode_us": micro("decode"),
        "core.jsr_us": micro("jsr"),
        "ea.plan_instance_ms": micro("ea") / 1000.0,
        "ea.evals_per_instance": counts["ea_evaluations"] / counts["ea_runs"],
        "protocol.encode_us": micro("plan_encode"),
        "protocol.decode_us": micro("plan_decode"),
        "protocol.mutate_encode_us": micro("mutate_encode"),
        "protocol.mutate_decode_us": micro("mutate_decode"),
        "protocol.response_bytes": counts["response_bytes"],
        "supervisor.dispatch_ms": r1 - r0,
        "supervisor.retries": counts.get("retries", 0.0),
        "supervisor.crashes": counts.get("crashes", 0.0),
        "ipc.rpc_ms": r2 - r1,
        "plan_cache.hit_frac":
            counts.get("cache_hits", 0.0) / instances if instances else 0.0,
        "plan_cache.lookup_us": micro("cache_lookup"),
        "plan_cache.saved_ms": r2m - r3,
        "session.apply_us": s0 * 1000.0,
        "session.queue_ms": s1 - s0,
        "session.compaction_frac":
            counts["ladder_deltas_planned"] / counts["ladder_deltas_raw"],
        "session.replay_us": micro("session_replay"),
        "fsio.fsync_us": micro("fsync"),
        "session.wal_ms": s2 - s1,
        "repl.ship_ms": s4 - s3,
        "repl.replay_rpc_ms": rung("S4_replay"),
        "ladder.R0_ms": r0,
        "ladder.R1_ms": r1,
        "ladder.R2_ms": r2,
        "ladder.R2m_ms": r2m,
        "ladder.R3_ms": r3,
        "ladder.S0_ms": s0,
        "ladder.S1_ms": s1,
        "ladder.S2_ms": s2,
        "ladder.S3_ms": s3,
        "ladder.S4_ms": s4,
        "client.self_us": stats.mean_self_us(events, "op."),
        "trace.overhead_frac":
            stats.p50(report["traced_latency_ms"]) / untraced - 1.0,
        "trace.spans": float(len(events)),
    }


def stitches(root, trace_path):
    """Whether tools/trace_stitch.py accepts the dump (when the tool is
    present in this checkout)."""
    tool = os.path.join(root, "tools", "trace_stitch.py")
    if not os.path.exists(tool):
        return True
    spec = importlib.util.spec_from_file_location("trace_stitch", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        doc, _ = module.stitch([trace_path])
    except (OSError, ValueError) as error:
        log(f"trace_stitch rejected {trace_path}: {error}")
        return False
    return bool(doc["traceEvents"])


def summary(workload, report, metrics, traced):
    """Human-readable lines before the JSON line."""
    attempted = max(report["attempted"], 1)
    lines = [f"workload {workload}: {report['attempted']} operations, "
             f"{report['failed']} failed "
             f"(failed_frac {report['failed'] / attempted:.6f})"]
    for failure in report["failures"]:
        lines.append(f"  failure: {failure}")
    latency = report["latency_ms"]
    op, item = (("mutate", "mutations") if workload == "session_repl"
                else ("plan", "instances"))
    if len(latency) > stats.TAIL_BEYOND:
        value, percentile, n = stats.tail(latency)
        highest, top, _ = stats.tail(latency, grid=())
        lines.append(f"{op}_p50_ms {stats.p50(latency):.4f}, {op}_tail_ms "
                     f"{value:.4f} = p{percentile:.2f} of {n} samples "
                     f"(highest with {stats.TAIL_BEYOND} beyond: "
                     f"p{top:.2f} = {highest:.4f})")
    if report["window_s"] > 0:
        lines.append(f"{item}_per_s "
                     f"{report['items'] / report['window_s']:.2f}")
    if report["read_ms"]:
        lines.append(f"replay_p50_ms {stats.p50(report['read_ms']):.4f} "
                     f"({len(report['read_ms'])} replays)")
    if traced:
        m = metrics
        order = (m["ladder.R0_ms"] <= m["ladder.R1_ms"] <= m["ladder.R2_ms"]
                 and m["ladder.S0_ms"] <= m["ladder.S1_ms"]
                 <= m["ladder.S2_ms"] <= m["ladder.S4_ms"]
                 and m["ladder.R3_ms"] < m["ladder.R2_ms"])
        lines.append("ladder order R0<=R1<=R2, R3<R2, S0<=S1<=S2<=S4: "
                     + ("holds" if order else "VIOLATED"))
    return lines


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("no rfsm sources under ./src; run from the repository root")
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench")
    try:
        driver, rfsmd = build(root, build_dir)
    except (OSError, RuntimeError) as error:
        log(str(error))
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = os.path.join(build_dir, f"report-{tag}.json")
    trace_path = os.path.join(build_dir, f"trace-{tag}.json")
    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    for stale in (report_path, trace_path):
        if os.path.exists(stale):
            os.remove(stale)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--rfsmd", rfsmd, "--work-dir", runs, "--out", report_path]
    if args.trace:
        command += ["--trace-out", trace_path]
    limit = max(RUN_LIMIT_S - (time.monotonic() - started), 30)
    try:
        code = subprocess.run(command, timeout=limit, check=False).returncode
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {limit:.0f} s")
        return 1
    if code != 0:
        log(f"driver exited with {code}")
        return 1

    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    correct = report["failed"] == 0
    if args.trace:
        with open(trace_path, encoding="utf-8") as f:
            values = per_layer(report, json.load(f))
        correct = correct and stitches(root, trace_path)
        listed = contract["per_layer"]
    else:
        values = end_to_end(report)
        listed = contract["end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        log("metrics computed differ from BENCHMARK.json")
        return 1

    for line in summary(args.workload, report, values, args.trace):
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": max(int(report["attempted"]), 1),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
