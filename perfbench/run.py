#!/usr/bin/env python3
"""CT-Bus serving benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload hit-mix --seed 1 --seconds 20 --trace 0

Builds ctbus_server and perfbench_tool from source (perfbench/
CMakeLists.txt, into .bench_build/), then:

  1. set-up, SETUPS times: launch `ctbus_server --preset chicago --scale
     1.0 --threads 2`, wait for "listening", send the warm-up request
     (it computes the workload's warm precompute key); setup_s is the
     median. The first two servers are stopped, the last one is measured.
  2. measure: perfbench_tool's client sends the workload for --seconds over
     framed TCP and records every request (due, sent, received, status,
     response checksum, wire tail).
  3. reconcile: read the server's VmHWM, stop it with SIGTERM, and check
     its shutdown metrics against the client's counts.
  4. check: perfbench_tool re-plans every ok request in-process, one after
     another, and compares response checksums; any drift fails the run.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same steps
with the server's request log on and spans around the reference pass,
and prints the per-layer metrics (see perfbench/README.md). The
last stdout line is the JSON result; the exit code is 0 only when every
response was ok, every checksum matched and the server reconciled.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
SERVER = os.path.join(BUILD_DIR, "ctbus_server")
TOOL = os.path.join(BUILD_DIR, "perfbench_tool")

WORKLOADS = ("hit-mix", "online-eta")
SETUPS = 3             # set-ups per run; setup_s is their median
SERVER_THREADS = 2     # service workers of the measured server
RUN_BUDGET_S = 170     # a run (after the build) must end within this
# Open loop: the run is invalid (not slow) when the generator sent its
# requests later than this, at the 99th percentile, than they were due.
MAX_LATENESS_P99_MS = 20.0
# A traced run fails when the layer spans leave more than 5% of the traced
# request wall time unaccounted for.
MIN_ATTRIBUTED_FRACTION = 0.95

_children = []


class BenchError(Exception):
    """A run that cannot produce a valid result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def spawn(argv, **kwargs):
    proc = subprocess.Popen(argv, **kwargs)
    _children.append(proc)
    return proc


def reap(proc, timeout):
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc in _children:
        _children.remove(proc)


def kill_children():
    for proc in list(_children):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        _children.remove(proc)


def on_alarm(signum, frame):
    raise BenchError("run exceeded its %d s budget" % RUN_BUDGET_S)


def build():
    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "tools", "ctbus_server.cpp"))):
        raise BenchError("no CT-Bus sources (src/, tools/) next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for argv in steps:
        done = subprocess.run(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError("build failed: %s" % " ".join(argv))


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Server:
    """A ctbus_server child on an ephemeral port."""

    def __init__(self, args, log_path=None):
        argv = [SERVER, "--preset", args.dataset, "--scale", "1.0",
                "--threads", str(SERVER_THREADS)]
        self.log_file = None
        if log_path:
            argv.append("--log-requests")
            self.log_file = open(log_path, "w")
        self.proc = spawn(argv, stdout=subprocess.PIPE,
                          stderr=self.log_file or subprocess.DEVNULL,
                          text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on 127.0.0.1:"):
            raise BenchError("server did not start: %r" % line)
        self.port = line.split(":")[1].split()[0]

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self):
        """SIGTERM, then the shutdown metrics snapshot as a dict."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        finally:
            reap(self.proc, 5)
            if self.log_file:
                self.log_file.close()
        marker = "shutdown metrics: "
        if marker not in out:
            raise BenchError("server printed no shutdown metrics")
        return json.loads(out.split(marker, 1)[1])


def client_argv(args, port, extra):
    return [TOOL, "client", "--port", port, "--workload", args.workload,
            "--seed", str(args.seed), "--dataset", args.dataset] + extra


def set_up(args, measured, records_path, log_path):
    """Launches a server and sends the warm-up request through a client.

    Returns (set-up seconds, server, client, warm-up checksum); the client
    of the measured set-up goes on to send the workload."""
    start = time.monotonic()
    server = Server(args, log_path)
    extra = ["--seconds", str(args.seconds), "--records", records_path]
    if not measured:
        extra = ["--warmup-only"]
    elif args.canary == "unknown-dataset":
        extra.append("--inject-unknown-dataset")
    client = spawn(client_argv(args, server.port, extra),
                   stdout=subprocess.PIPE, text=True)
    line = client.stdout.readline().split()
    seconds = time.monotonic() - start
    if len(line) != 3 or line[0] != "warm" or line[1] != "ok":
        raise BenchError("warm-up failed: %r" % line)
    return seconds, server, client, line[2]


def read_records(path):
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        rows = [dict(zip(header, line.rstrip("\n").split("\t"))) for line in f]
    for row in rows:
        for key in ("due", "sent", "received", "queue_s"):
            row[key] = float(row[key])
        row["ok"] = row["transport_ok"] == "1" and row["status"] == "ok"
    return rows


def read_server_log(path):
    """Request id -> (latency_s, queue_s) from ctbus_server --log-requests."""
    out = {}
    with open(path) as f:
        for line in f:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if "request" in entry:
                out[entry["request"]] = (entry["latency_s"], entry["queue_s"])
    return out


def run_reference(args, records_path, spans_path):
    argv = [TOOL, "reference", "--workload", args.workload, "--seed",
            str(args.seed), "--dataset", args.dataset, "--records",
            records_path]
    if args.trace:
        argv += ["--trace", "--spans", spans_path]
    if args.canary == "checksum":
        argv += ["--perturb-index", "0"]
    proc = spawn(argv, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate()
    reap(proc, 5)
    fold, layers = None, {}
    for line in out.splitlines():
        if line.startswith("reference "):
            fold = line.split()[-1]
        elif line.startswith("layers "):
            layers = json.loads(line[len("layers "):])
    return proc.returncode == 0, fold, layers


def measure(args):
    run_dir = os.path.join(RUNS_DIR, "%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    records_path = os.path.join(run_dir, "records.tsv")
    log_path = os.path.join(run_dir, "server.log") if args.trace else None
    spans_path = os.path.join(run_dir, "spans.jsonl")

    setup_seconds, warm_checksums = [], set()
    for i in range(SETUPS):
        measured = i == SETUPS - 1
        seconds, server, client, warm = set_up(
            args, measured, records_path, log_path if measured else None)
        setup_seconds.append(seconds)
        warm_checksums.add(warm)
        if not measured:
            reap(client, 30)
            server.stop()
    client.communicate(timeout=RUN_BUDGET_S)
    reap(client, 5)
    if client.returncode != 0:
        server.stop()
        raise BenchError("client failed (exit %d)" % client.returncode)
    rss_mb = server.peak_rss_mb()
    shutdown = server.stop()["counters"]

    rows = read_records(records_path)
    ok_rows = [r for r in rows if r["ok"]]
    attempted, failed = len(rows), len(rows) - len(ok_rows)
    problems = []
    if len(warm_checksums) != 1:
        problems.append("warm-up checksums differ across set-ups: %s" %
                        sorted(warm_checksums))
    # Reconcile with the server (the warm-up request is one more of each).
    expect = {"net.requests.received": attempted + 1,
              "net.requests.ok": len(ok_rows) + 1,
              "net.frames.malformed": 0}
    for name, value in expect.items():
        if shutdown.get(name) != value:
            problems.append("server %s = %s, client expects %d" %
                            (name, shutdown.get(name), value))
    for r in rows:
        if not r["ok"]:
            problems.append("request %s failed: %s" % (r["index"], r["status"]))
            break

    checked, fold, layers = run_reference(args, records_path, spans_path)
    if not checked:
        problems.append("checksum drift against the in-process reference")

    latency = [1e3 * (r["received"] - r["due"]) for r in ok_rows]
    lateness = [1e3 * (r["sent"] - r["due"]) for r in rows]
    end = max((r["received"] for r in ok_rows), default=0.0)
    lateness_p99 = percentile(lateness, 0.99)
    if args.workload == "hit-mix" and lateness_p99 > MAX_LATENESS_P99_MS:
        problems.append("invalid run: the generator fell behind (lateness "
                        "p99 %.2f ms > %.1f ms)" % (lateness_p99,
                                                    MAX_LATENESS_P99_MS))
    summary = {
        "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted if attempted else 1.0,
        "checksum_fold": fold, "generator_lateness_p99_ms": lateness_p99,
        "samples": len(latency), "run_dir": os.path.relpath(run_dir, ROOT),
    }
    if args.trace:
        metrics = layer_metrics(ok_rows, read_server_log(log_path), layers,
                                latency, lateness_p99)
        attributed = metrics["trace.attributed_fraction"]
        if not attributed >= MIN_ATTRIBUTED_FRACTION:
            problems.append("layer self times cover only %.3f of the traced "
                            "request time" % attributed)
    else:
        metrics = {
            "latency_p50_ms": percentile(latency, 0.50),
            "throughput_rps": len(ok_rows) / end if end > 0 else 0.0,
            "server_peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup_seconds),
        }
    declared = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        problems.append("metrics differ from BENCHMARK.json: %s" %
                        sorted(set(metrics) ^ set(declared)))
    result = {}
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append("metric %s was not measured" % name)
            value = 0.0
        result[name] = (value, declared.get(name, "?"))
    return problems, summary, result


def declared_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def layer_metrics(ok_rows, server_log, layers, latency, lateness_p99):
    """Per-layer metrics: client-, wire- and log-derived ones here, the
    rest from perfbench_tool's traced pass."""
    overhead, exec_ms = [], []
    for r in ok_rows:
        entry = server_log.get(int(r["index"]) + 1)
        if entry:
            latency_s, queue_s = entry
            overhead.append(1e3 * (r["received"] - r["sent"] - latency_s))
            exec_ms.append(1e3 * (latency_s - queue_s))
    queue_ms = [1e3 * r["queue_s"] for r in ok_rows]
    count = max(1, len(ok_rows))
    metrics = {
        "client.latency_p90_ms": percentile(latency, 0.90),
        "client.latency_p99_ms": percentile(latency, 0.99),
        "client.generator_lateness_p99_ms": lateness_p99,
        "net.client_overhead_ms": percentile(overhead, 0.50),
        "service.queue_ms_p50": percentile(queue_ms, 0.50),
        "service.queue_ms_p99": percentile(queue_ms, 0.99),
        "service.exec_ms_p50": percentile(exec_ms, 0.50),
        "service.cache_hit_ratio":
            sum(r["cache_hit"] == "1" for r in ok_rows) / count,
        "service.batch_size_mean":
            sum(int(r["batch_size"]) for r in ok_rows) / count,
    }
    metrics.update(layers)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dataset", default="chicago",
                        help="gen:: preset served (midtown for smoke tests)")
    parser.add_argument("--canary", choices=("checksum", "unknown-dataset"),
                        help="self-test: break the run on purpose")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(RUN_BUDGET_S)
        problems, summary, metrics = measure(args)
        signal.alarm(0)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        signal.alarm(0)
        kill_children()
        log("perfbench: %s" % e)
        return 2

    print("workload %s seed %d dataset %s: %s" % (
        args.workload, args.seed, args.dataset,
        " ".join("%s=%s" % kv for kv in summary.items())))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6f %s" % (name, value, unit))
    for problem in problems:
        log("perfbench: %s %s" % (args.workload, problem))
    result = {
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
