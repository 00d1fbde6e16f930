"""flagflux benchmark: three pipeline workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload flag-correspond --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --smoke                 # few ops; checks every metric is emitted

Run from the root of a flagflux source tree; the program is imported from its
``src`` directory.  A run sets up (untimed: set-up time probes, Kostant's
theorem as an oracle on the fingerprint ranks), then runs whole passes over the
workload's ops, one op at a time from one client, until another pass would
overrun ``--seconds`` (at least two passes).  Every pass runs the same ops, each
in a fresh worker.  Every op is checked; the checks are not timed.  Times are
rescaled to a nominal CPU speed by a reference loop (see ``refclock.py``).

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1`` the
run makes one untraced pass and the same pass traced, and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  The run record, per-op
results and spans are written to ``.perfbench_out/`` at the end of the run.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback

import layertrace
import refclock
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

OP_TIMEOUT_S = 30.0  # a worker whose op outlasts this is killed: reason "timeout"
DEADLINE_SECONDS = 2  # ops not begun by this many times --seconds fail as "deadline"
MIN_PASSES = 2  # so every op has a median over passes and a result to repeat
SHORT_OP_S, SHORT_OP_REPS = 0.05, 3  # untraced, a forked op under 50 ms runs 3 times a pass
SETUP_PROBES = 9
KOSTANT_RANKS = (3, 4, 5, 6)
TAIL_PERCENTILES = (90, 75, 50)  # the tail is the highest with >= 10 samples above

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mib": "MiB",
    "failed_frac": "ratio",
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fail_setup(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import flagflux from this tree's src, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "flagflux", "__init__.py")):
        fail_setup("no flagflux sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import flagflux

    if not os.path.abspath(flagflux.__file__).startswith(SRC + os.sep):
        fail_setup("flagflux imported from %s, not from %s" % (flagflux.__file__, SRC))
    return flagflux


# --------------------------------------------------------------- workers


class Worker:
    """Runs ops of one workload inside a forked child; one message per op."""

    def __init__(self, workload, traced):
        self.workload = workload
        self.traced = traced
        self.tracer = None

    def prepare(self):
        self.clock = refclock.SpeedClock()
        if self.traced:
            self.tracer = layertrace.Tracer(self.clock.now)
            self.tracer.install()

    def __call__(self, op):
        _name, payload = op
        wl = self.workload
        try:
            if self.tracer is not None:
                (out, traced), raw, latency = self.clock.measure(
                    self.tracer.run_op, wl.run, payload)
            else:
                out, raw, latency = self.clock.measure(wl.run, payload)
            result, failures = wl.check(payload, out)
        except (Exception, SystemExit) as exc:
            latency = raw = traced = result = None
            failures = ["raised %s: %s" % (type(exc).__name__, exc)]
        msg = {
            "latency_ns": latency,
            "raw_ns": raw,
            "result": result,
            "failures": failures,
            "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if self.tracer is not None:
            msg["trace"] = self.tracer.take()
            msg["trace_ns"] = traced
            msg["absent"] = self.tracer.absent
        return msg


def _serve(items, work, prepare, write_fd):
    status = 0
    try:
        with os.fdopen(write_fd, "w") as pipe:
            if prepare is not None:
                prepare()
            for item in items:
                pipe.write(json.dumps(work(item)) + "\n")
                pipe.flush()
    except BaseException:
        traceback.print_exc()
        status = 1
    os._exit(status)


def _collect(pid, read_fd, items, deadline):
    """Read one message per item; kill the worker on a timeout or at EOF."""
    served = []
    buf = b""
    try:
        for item in items:
            limit = time.monotonic() + min(OP_TIMEOUT_S, max(0.0, deadline - time.monotonic()))
            while b"\n" not in buf:
                ready, _, _ = select.select([read_fd], [], [], max(0.0, limit - time.monotonic()))
                chunk = os.read(read_fd, 1 << 16) if ready else None
                if not chunk:
                    reason = "timeout" if chunk is None else "worker exited"
                    served.append((item, {"failures": [reason]}))
                    return served
                buf += chunk
            line, buf = buf.split(b"\n", 1)
            served.append((item, json.loads(line)))
        return served
    finally:
        os.close(read_fd)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(pid, 0)


def run_forked(items, work, deadline, prepare=None):
    """Run work(item) for each item in forked workers; [(item, message)].

    One worker serves the items in order.  An item that fails by timeout or
    worker death is recorded as failed, and a fresh worker takes the rest.
    """
    done = []
    while len(done) < len(items):
        pending = items[len(done):]
        if time.monotonic() >= deadline:
            done.extend((item, {"failures": ["deadline"]}) for item in pending)
            break
        read_fd, write_fd = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _serve(pending, work, prepare, write_fd)
        os.close(write_fd)
        done.extend(_collect(pid, read_fd, pending, deadline))
    return done


def run_pass(workload, traced, deadline, max_ops, short_reps=1):
    """One pass over the workload's ops; [(op, message)], an op once per run of it.

    With short_reps > 1, a forked op that ran in under SHORT_OP_S runs that
    many times in all, each in a fresh worker: such an op is noise-bound, and
    more runs of it cost little.
    """
    ops = workload.ops[:max_ops or None]
    worker = Worker(workload, traced)
    if not workload.fork_per_op:
        return run_forked(ops, worker, deadline, worker.prepare)
    done = []
    for op in ops:
        served = run_forked([op], worker, deadline, worker.prepare)
        raw = served[0][1].get("raw_ns")
        if raw is not None and raw < SHORT_OP_S * 1e9:
            for _ in range(short_reps - 1):
                served += run_forked([op], worker, deadline, worker.prepare)
        done.extend(served)
    return done


# --------------------------------------------------------------- set-up


def measure_setup(args):
    """Wall time from interpreter start to the first op, in fresh processes.

    Not rescaled by the reference loop: exec, imports and file reads do not
    follow its speed, and rescaling made the median of the probes spread more.
    """
    samples, failures = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        proc.wait(timeout=60)
        if line.strip() == b"ready":
            samples.append(elapsed)
        else:
            failures.append("set-up probe exited with %s" % proc.returncode)
    return samples, failures


def kostant_oracle():
    """Kostant's theorem on maximal flags; run in a worker so no cache warms."""
    items = [("kostant-A%d" % r, r) for r in KOSTANT_RANKS]
    failures = []
    for (name, _rank), msg in run_forked(items, lambda op: {"failures": workloads.kostant_failures(op[1])},
                                         float("inf")):
        failures.extend("%s: %s" % (name, f) for f in msg["failures"])
    return failures


# --------------------------------------------------------------- metrics


def quantile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail(values):
    """(percentile, value): the highest percentile with >= 10 samples above it."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) >= 1000:
            return p, quantile(values, p)
    return 50, quantile(values, 50)


def end_to_end(passes, setup_samples, key="latency_ns"):
    """Metrics from normalized times, or with key="raw_ns" from raw ones."""
    messages = [m for p in passes for m in p]
    by_op = {}
    for (name, _payload), msg in messages:
        if msg.get(key) is not None:
            by_op.setdefault(name, []).append(msg[key] / 1e9)
    # an op run several times counts once, at its median latency
    latencies = [statistics.median(v) for v in by_op.values()]
    completed = sum(len(v) for v in by_op.values())
    failed = sum(1 for _op, msg in messages if msg["failures"])
    p, tail_value = tail(latencies) if latencies else (50, 0.0)
    # each pass's largest worker, median over passes: more passes must not mean more peak
    rss = statistics.median(max((msg.get("rss_kib", 0) for _op, msg in ms), default=0)
                            for ms in passes)
    metrics = {
        "setup_s": statistics.median(setup_samples) if setup_samples else 0.0,
        "ops_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
        "op_tail_s": tail_value,
        "peak_rss_mib": rss / 1024.0,
        "failed_frac": failed / len(messages) if messages else 0.0,
    }
    notes = {
        "setup_s": "median of %d fresh processes" % len(setup_samples),
        "ops_per_s": "%d distinct ops of %d run, closed loop, one client" % (
            len(latencies), completed),
        "op_p50_s": "p50 of %d ops" % len(latencies),
        "op_tail_s": "p%d of %d ops" % (p, len(latencies)),
        "peak_rss_mib": "max ru_maxrss of a pass's op workers, median over passes",
        "failed_frac": "%d of %d" % (failed, len(messages)),
    }
    return metrics, notes


def per_layer(base, traced):
    """Per-layer metrics from the traced pass, and its overhead over the untraced one."""
    calls = dict.fromkeys(layertrace.SPANS + (layertrace.OP,), 0)
    self_ns = dict(calls)
    counters = dict.fromkeys(layertrace.COUNTERS, 0)
    absent = set()
    for _op, msg in traced:
        trace = msg.get("trace")
        if trace is None or msg.get("trace_ns") is None:
            continue
        absent.update(msg["absent"])
        for span, n in trace["calls"].items():
            calls[span] += n
        for span, ns in trace["self_ns"].items():
            self_ns[span] += ns
        for name, n in trace["counters"].items():
            counters[name] = counters.get(name, 0) + n
    op_ns = sum(msg["trace_ns"] for _op, msg in traced if msg.get("trace_ns") is not None)
    traced_ns = sum(msg["latency_ns"] for _op, msg in traced if msg.get("latency_ns") is not None)
    base_ns = sum(msg["latency_ns"] for _op, msg in base if msg.get("latency_ns") is not None)

    metrics = {}
    for span in layertrace.SPANS:
        metrics[span + ".calls"] = calls[span]
        metrics[span + ".self_s"] = self_ns[span] / 1e9
    for layer in layertrace.LAYERS:
        spans = [s for s in layertrace.SPANS if s.split(".")[0] == layer]
        metrics[layer + ".calls"] = sum(calls[s] for s in spans)
        metrics[layer + ".self_s"] = sum(self_ns[s] for s in spans) / 1e9
    metrics.update(counters)
    candidates = counters["correspond.candidates"]
    metrics["correspond.target_yield"] = (
        counters["correspond.targets"] / candidates if candidates else 0.0)
    metrics["kernel.self_share"] = metrics["kernel.self_s"] * 1e9 / op_ns if op_ns else 0.0
    metrics["trace.op_s"] = op_ns / 1e9
    metrics["trace.unattributed_s"] = self_ns[layertrace.OP] / 1e9
    metrics["trace.overhead_frac"] = traced_ns / base_ns - 1.0 if base_ns else 0.0

    failures = []
    if sum(self_ns.values()) != op_ns:
        failures.append("trace: self times sum to %d ns, ops took %d ns"
                        % (sum(self_ns.values()), op_ns))
    failures.extend("trace: negative self time in %s" % s for s, ns in self_ns.items() if ns < 0)
    return metrics, sorted(absent), failures


# --------------------------------------------------------------- record


def git_sha():
    """HEAD of this tree, or none when it is not a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def digest(messages):
    """sha256 of the canonical results of the first pass, keyed by op name."""
    canon = sorted({name: msg.get("result") for (name, _payload), msg in messages}.items())
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def repeat_failures(passes):
    """Every run of an op must give the same result."""
    first, out = {}, []
    for (name, _p), msg in (m for p in passes for m in p):
        result = msg.get("result")
        if result is not None and first.setdefault(name, result) != result:
            out.append((name, "result differs between runs of the op"))
    return out


# --------------------------------------------------------------- main


def run(args):
    flagflux = import_program()
    if args.workload == "flag-correspond":
        import flagflux.cli  # noqa: F401  the golden jobs run through the CLI
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, OUT_DIR)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_samples, failures = measure_setup(args)
    failures = [("set-up", f) for f in failures]
    failures += [("kostant-oracle", f) for f in kostant_oracle()]

    measure_start = time.monotonic()
    deadline = measure_start + DEADLINE_SECONDS * args.seconds
    if args.trace:
        passes = [run_pass(workload, False, deadline, args.max_ops),
                  run_pass(workload, True, deadline, args.max_ops)]
    else:
        passes = []
        while True:
            passes.append(run_pass(workload, False, deadline, args.max_ops, SHORT_OP_REPS))
            elapsed = time.monotonic() - measure_start
            if args.max_ops or time.monotonic() >= deadline or (
                    len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds):
                break

    messages = [m for p in passes for m in p]
    failures += [(name, f) for (name, _p), msg in messages for f in msg["failures"]]
    failures += repeat_failures(passes)
    if not messages:
        failures.append(("run", "no op attempted"))
    measured = passes[:1] if args.trace else passes
    e2e, notes = end_to_end(measured, setup_samples)
    raw, _ = end_to_end(measured, setup_samples, key="raw_ns")
    layer_metrics, absent = {}, []
    if args.trace:
        layer_metrics, absent, trace_failures = per_layer(passes[0], passes[1])
        failures += [("trace", f) for f in trace_failures]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "reference_loop_ns": refclock.NOMINAL_NS,
        "trace": args.trace,
        "python": platform.python_version(),
        "backend": getattr(flagflux, "BACKEND", "absent"),
        "git_sha": git_sha(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(passes),
        "measured_s": time.monotonic() - measure_start,
        "results_sha256": digest(passes[0]),
    }
    for key, value in record.items():
        print("record %s = %s" % (key, value))
    for name, value in e2e.items():
        print("metric %s = %r %s (%s; raw %.6g)" % (name, value, E2E_UNITS[name], notes[name], raw[name]))
    for name, value in layer_metrics.items():
        print("layer %s = %r" % (name, value))
    for span in absent:
        print("absent %s" % span)
    for name, reason in failures:
        print("failed %s: %s" % (name, reason))

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(out_path, "w") as fh:
        json.dump({
            "record": record,
            "end_to_end": e2e,
            "per_layer": layer_metrics,
            "absent": absent,
            "failures": failures,
            "ops": [[[name, msg] for (name, _p), msg in p] for p in passes],
        }, fh, sort_keys=True)
    print("written %s" % os.path.relpath(out_path, ROOT))

    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer_metrics if args.trace else e2e
    print(json.dumps({
        "correct": not failures,
        "attempted": max(1, len(messages)),
        "failed": sum(1 for _op, msg in messages if msg["failures"]),
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def invoke(workload, seed, seconds, trace, max_ops=0):
    """Run one workload in its own process; (exit code, output lines)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if max_ops:
        cmd += ["--max-ops", str(max_ops)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    return proc.returncode, proc.stdout.splitlines()


def run_all(args):
    """Every workload in turn, each in its own process; prints a summary."""
    summary = {}
    for name in workloads.WORKLOADS:
        code, lines = invoke(name, args.seed, args.seconds, args.trace, args.max_ops)
        print("== %s" % name)
        print("\n".join(lines[:-1]))
        if code != 0 or not lines:
            print("perfbench: %s exited with %d" % (name, code), file=sys.stderr)
            return code or 1
        summary[name] = json.loads(lines[-1])
    print("== summary")
    for name, res in summary.items():
        print("%-16s correct=%s attempted=%d failed=%d" % (
            name, res["correct"], res["attempted"], res["failed"]))
        for metric, m in res["metrics"].items():
            print("    %-44s %14.6g %s" % (metric, m["value"], m["unit"]))
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {"%s.%s" % (w, k): v for w, r in summary.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def smoke(args):
    """A few ops per workload, both trace modes: every metric named, with its unit."""
    spec = load_spec()
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            label = "%s --trace %d" % (name, trace)
            code, lines = invoke(name, args.seed, args.seconds, trace, max_ops=3)
            if code != 0 or not lines:
                problems.append("%s: exit %d" % (label, code))
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                problems.append("%s: not correct" % label)
            want = {m["name"]: m["unit"] for m in (spec["per_layer"] if trace else spec["end_to_end"])}
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want:
                problems.append("%s: metrics or units differ: %s" % (
                    label, sorted(set(got.items()) ^ set(want.items()))))
            problems += ["%s: no line for %s in %s" % (label, metric, unit)
                         for metric, unit in E2E_UNITS.items()
                         if not any(line.startswith("metric %s = " % metric)
                                    and line.split()[4] == unit for line in lines)]
            print("smoke %s: %d lines" % (label, len(lines)))
    for p in problems:
        print("smoke problem: %s" % p)
    print("smoke %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0, help="cap ops per pass (smoke runs)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true", help="few ops; check every metric")
    args = parser.parse_args(argv)
    if args.smoke:
        import_program()
        return smoke(args)
    if args.workload == "all":
        import_program()
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
