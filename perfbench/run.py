#!/usr/bin/env python3
"""sympdiff benchmark: three seeded, single-process, closed-loop workloads.

Run from the repository root::

    python3 perfbench/run.py --workload dup_blocks --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload
    python3 perfbench/run.py --check-seeds                          # input digests
    python3 perfbench/run.py --record-oracle                        # oracle_expected.json

``--trace 0`` prints the end-to-end metrics.  Set-up is timed in
``SETUP_REPEATS`` fresh processes (import ``sympdiff``, build the workload's
field contexts, run one warm-up item) and the median is reported.  Then one
fresh process runs whole rounds of items back to back, each under a per-item
deadline, until their summed time reaches ``--seconds``.

``--trace 1`` prints the per-layer metrics: an untraced pass of half the
time, then a second fresh process replays exactly the same items with
wrappers around the library's public functions (see ``tracing.py``).  The
spans are written to ``.bench_out/``.

Host speed.  The machines this runs on are shared, and their speed changes
by a factor of up to two within seconds.  Every pass therefore interleaves a
fixed calibration chunk (``_calibrate``) with the items, about every
``CALIB_EVERY_S`` of item time, and every reported time is scaled to the
reference speed at which one chunk takes ``REF_CALIB_S``: an item's time is
multiplied by ``REF_CALIB_S`` over the median of the chunk times measured
around it (for ``latency_tail_ms``, over their maximum: tail items are the
ones that ran while the host was slow).  Set-up is scaled the same way.  The
raw wall-clock figures and the host speed are printed on stderr, and the
per-layer metrics carry them as ``host.speed``, ``raw.items_per_s`` and
``raw.latency_p50_ms``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An item fails when it
raises, runs past its deadline, or fails its answer check; only a failed
answer check makes the run incorrect and the exit code nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("dup_blocks", "oracle_sweep", "cli_queries")
# Percentile reported as latency_tail_ms: the highest one that leaves at
# least 10 samples above it at the item counts a 30 s run reaches.
TAIL_PERCENTILE = {"dup_blocks": 99, "oracle_sweep": 99, "cli_queries": 90}
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
CLI_KINDS = ("classify", "decide", "witness", "verify", "enumerate")
# failure counters reported in the trace run; other types go to failed.other
FAILURE_TYPES = ("Deadline", "WrongAnswer", "DegreeBoundExceeded",
                 "ConstructionInvariantViolated")

REF_CALIB_S = 0.0022  # one chunk on an unloaded 2-CPU Intel Xeon sandbox (Python 3.11)
CALIB_EVERY_S = 0.05
CALIB_SPAN = 10  # chunks on each side of an item that set its scale


def _calibrate() -> int:
    """Fixed work of the kinds the library does: tuples, dict updates and
    integer arithmetic in the interpreter, small int64 matrix products, and
    a pass over a 512 KiB int64 array."""
    import numpy

    d = {}
    acc = 0
    for i in range(2500):
        t = (i, i * 3 % 7)
        d[t[1]] = d.get(t[1], 0) + i
        acc = (acc + i * i) % 1000003
    a = numpy.arange(4096, dtype=numpy.int64).reshape(64, 64)
    for _ in range(4):
        a = (a @ a) % 7 + 1
    big = numpy.arange(1 << 16, dtype=numpy.int64)
    big = (big * 3 + a[0, 0]) % 7
    return acc + int(big[-1])


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------


class Deadline(Exception):
    """An item ran past its per-item deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


def _chunk_time() -> float:
    t = time.perf_counter()
    _calibrate()
    return time.perf_counter() - t


def child_setup(workload: str) -> dict:
    t0 = time.perf_counter()
    import workloads  # imports sympdiff

    w = workloads.WORKLOADS[workload]()
    w.warmup().run()
    raw = time.perf_counter() - t0
    chunk = statistics.median(_chunk_time() for _ in range(2 * CALIB_SPAN + 1))
    return {"setup_s": raw, "chunk_s": chunk}


def child_pass(workload: str, seed: int, seconds: float, limit: int, trace: bool) -> dict:
    """Run whole rounds of items until their summed time reaches
    ``seconds``, or, when ``limit`` > 0, exactly the first ``limit`` items."""
    import resource
    import signal

    import workloads

    w = workloads.WORKLOADS[workload]()
    w.warmup().run()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = w.deadline_s
    clock = time.perf_counter
    latencies, kinds, failures = [], [], []
    chunks = [(0, _chunk_time())]  # (index of the next item, chunk seconds)
    digest = hashlib.sha256()
    measured = 0.0
    next_chunk = CALIB_EVERY_S
    stream = w.items(seed)
    while True:
        item = next(stream)
        if item is None:  # end of a round: stop here once the time is spent
            if not limit and measured >= seconds:
                break
            continue
        if limit and len(latencies) >= limit:
            break
        digest.update(item.key.encode())
        failure = None
        root = tracer.begin_item(len(latencies)) if tracer else None
        t = clock()
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            item.run()
        except Exception as exc:  # every failure is counted, none stops the run
            failure = getattr(exc, "type_name", type(exc).__name__)
            if failure == "WrongAnswer":
                print(f"wrong answer: {item.key[:200]}: {exc}", file=sys.stderr)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            dt = clock() - t
            if tracer:
                tracer.close(root)
        latencies.append(dt)
        kinds.append(item.kind)
        failures.append(failure)
        measured += dt
        if measured >= next_chunk:
            chunks.append((len(latencies), _chunk_time()))
            next_chunk = measured + CALIB_EVERY_S
    out = {
        "latencies": latencies,
        "kinds": kinds,
        "failures": failures,
        "chunks": chunks,
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        out["layers"] = tracer.self_times()
        out["counts"] = tracer.counts
        out["spans"] = len(tracer.name)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{workload}-{seed}.npz")
    return out


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------


def _spawn(args) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + args,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pass(workload, seed, seconds, limit=0, trace=False) -> dict:
    res = _spawn(["--child", "pass", "--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--limit", str(limit),
                  "--trace", "1" if trace else "0"])
    res["scaled"] = _scaled(res["latencies"], res["chunks"], statistics.median)
    res["scaled_slow"] = _scaled(res["latencies"], res["chunks"], max)
    return res


def _scaled(latencies, chunks, pick):
    """Each item time at the reference host speed: times REF_CALIB_S over
    ``pick`` of the calibration chunks around the item.  ``median`` gives
    the typical host speed there; ``max`` the slowest, which is the speed
    the items in the tail ran at."""
    secs = [c for _, c in chunks]
    bounds = [i for i, _ in chunks] + [len(latencies)]
    out = []
    for k in range(len(chunks)):
        factor = REF_CALIB_S / pick(secs[max(0, k - CALIB_SPAN):k + CALIB_SPAN + 1])
        out += [t * factor for t in latencies[bounds[k]:bounds[k + 1]]]
    return out


def _ok(res) -> int:
    return sum(1 for f in res["failures"] if f is None)


def _speed(res) -> float:
    """Host speed over the pass, as a share of the reference speed."""
    return REF_CALIB_S / statistics.median(c for _, c in res["chunks"])


def _quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by the Beta(q(n+1), (1-q)(n+1)) density.  Items of
    differently priced kinds trade places around a quantile from seed to
    seed; a single order statistic then jumps between them, this moves
    smoothly."""
    import numpy

    x = numpy.sort(numpy.asarray(values, dtype=float))
    n, steps = len(x), 64  # density sampled at 64 points per order statistic
    a, b = q * (n + 1), (1 - q) * (n + 1)
    u = (numpy.arange(steps * n) + 0.5) / (steps * n)
    logpdf = (a - 1) * numpy.log(u) + (b - 1) * numpy.log1p(-u)
    w = numpy.exp(logpdf - logpdf.max()).reshape(n, steps).sum(axis=1)
    return float(w @ x / w.sum())


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def _timing(times, slow_times, ok, pct):
    """items_per_s and latency_p50_ms from ``times``, latency_tail_ms (the
    ``pct`` percentile) from ``slow_times``, and the number of samples above
    that percentile."""
    above = len(times) - max(1, math.ceil(pct / 100.0 * len(times)))
    return (ok / sum(times), _quantile(times, 0.5) * 1e3,
            _quantile(slow_times, pct / 100.0) * 1e3, above)


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setups = [_spawn(["--child", "setup", "--workload", workload])
              for _ in range(SETUP_REPEATS)]
    res = _pass(workload, seed, seconds)
    n = len(res["latencies"])
    ok = _ok(res)
    pct = TAIL_PERCENTILE[workload]
    ips, p50, tail, above = _timing(res["scaled"], res["scaled_slow"], ok, pct)
    raw_ips, raw_p50, raw_tail, _ = _timing(res["latencies"], res["latencies"], ok, pct)
    raw_setup = statistics.median(s["setup_s"] for s in setups)
    metrics = {
        "items_per_s": (ips, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "ok_frac": (ok / n, "ratio"),
        "setup_s": (statistics.median(s["setup_s"] * REF_CALIB_S / s["chunk_s"]
                                      for s in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    speed = _speed(res)
    print(f"{workload} seed={seed}: {n} items, {n - ok} failed, tail=p{pct} "
          f"({above} above), input digest {res['digest'][:16]}; host speed "
          f"{speed:.3f} of reference; raw: items_per_s {raw_ips:.4g}, "
          f"latency_p50_ms {raw_p50:.4g}, latency_tail_ms {raw_tail:.4g}, "
          f"setup_s {raw_setup:.4g}", file=sys.stderr)
    if above < 10:
        print(f"warning: only {above} samples above p{pct}", file=sys.stderr)
    return _result(res, metrics)


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    """Half of ``seconds`` untraced, then the same items traced, so that the
    two passes together take about as long as one untraced run."""
    import tracing

    base = _pass(workload, seed, seconds / 2)
    n = len(base["latencies"])
    traced = _pass(workload, seed, seconds, limit=n, trace=True)
    layers, counts = traced["layers"], traced["counts"]
    wall = sum(traced["latencies"])
    scale = sum(traced["scaled"]) / wall  # self times at the reference speed

    metrics = {}
    for name in tracing.LAYER_NAMES:
        calls, self_s = layers[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s * scale, "s")
    for key in ("linalg.matmul.calls_numpy", "linalg.matmul.calls_generic",
                "linalg.invariant_factors.max_n",
                "witness.brute_force_witness.candidate_space",
                "atlas.indecomposable_reps.rows"):
        metrics[key] = (counts[key], "count")
    searched = counts["witness.brute_force_witness.searched"]
    metrics["witness.brute_force_witness.found_ratio"] = (
        counts["witness.brute_force_witness.found"] / searched if searched else 0.0, "ratio")
    for kind in CLI_KINDS:
        lat = [t for t, k in zip(base["scaled"], base["kinds"]) if k == kind]
        metrics[f"cli.{kind}.latency_p50_ms"] = (
            statistics.median(lat) * 1e3 if lat else 0.0, "ms")
    failed = {f"failed.{f}": 0 for f in FAILURE_TYPES + ("other",)}
    for f in base["failures"]:
        if f is not None:
            failed[f"failed.{f}" if f in FAILURE_TYPES else "failed.other"] += 1
    metrics.update((k, (v, "count")) for k, v in failed.items())
    bench_self = layers[tracing.ITEM][1]
    metrics["trace.bench_self_frac"] = (bench_self / wall, "ratio")
    metrics["trace.overhead_frac"] = (sum(traced["scaled"]) / sum(base["scaled"]) - 1.0, "ratio")
    metrics["trace.spans"] = (traced["spans"], "count")
    # the scale applied to every time above, and the unscaled figures, so
    # that a change in the calibration chunk's own time shows
    raw_ips, raw_p50, _, _ = _timing(base["latencies"], base["latencies"],
                                     _ok(base), TAIL_PERCENTILE[workload])
    metrics["host.speed"] = (_speed(base), "ratio")
    metrics["raw.items_per_s"] = (raw_ips, "1/s")
    metrics["raw.latency_p50_ms"] = (raw_p50, "ms")

    print(f"{workload} seed={seed}: traced {n} items, {wall:.3f}s wall, "
          f"{traced['spans']} spans; self time by layer:", file=sys.stderr)
    ranked = sorted(((layers[name][1], name) for name in tracing.LAYER_NAMES), reverse=True)
    for self_s, name in ranked + [(bench_self, tracing.ITEM)]:
        if self_s > 0:
            print(f"  {name:34s} {self_s:9.4f}s {100 * self_s / wall:5.1f}%", file=sys.stderr)
    return _result(base, metrics)


def _result(res, metrics) -> dict:
    fails = [f for f in res["failures"] if f is not None]
    return {
        "correct": "WrongAnswer" not in fails,
        "attempted": len(res["failures"]),
        "failed": len(fails),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def check_seeds(count: int = 60) -> bool:
    """One seed always yields the same inputs; another seed, different ones."""
    import workloads

    def digest(name, seed):
        stream = workloads.WORKLOADS[name]().items(seed)
        h = hashlib.sha256()
        for item in itertools.islice(filter(None, stream), count):
            h.update(item.key.encode())
        return h.hexdigest()

    ok = True
    for name in WORKLOAD_NAMES:
        a, b, c = digest(name, 1), digest(name, 1), digest(name, 2)
        good = a == b and a != c
        ok = ok and good
        print(f"{name}: seed 1 {a[:16]} / {b[:16]}, seed 2 {c[:16]}: "
              f"{'ok' if good else 'FAIL'}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-seeds", action="store_true")
    ap.add_argument("--record-oracle", action="store_true")
    ap.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    ap.add_argument("--limit", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "sympdiff" / "__init__.py").is_file():
        print(f"error: no sympdiff sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.child == "setup":
        print(json.dumps(child_setup(args.workload)))
        return 0
    if args.child == "pass":
        print(json.dumps(child_pass(args.workload, args.seed, args.seconds,
                                    args.limit, bool(args.trace))))
        return 0

    sys.path.insert(0, str(SRC))
    if args.check_seeds:
        return 0 if check_seeds() else 1
    if args.record_oracle:
        import workloads

        workloads.ORACLE_EXPECTED.write_text(
            json.dumps(workloads.record_oracle_expected(), indent=0, sort_keys=True) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    print(f"environment: {json.dumps(environment())}", file=sys.stderr)
    measure = per_layer if args.trace else end_to_end
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOAD_NAMES:
            part = measure(name, args.seed, args.seconds)
            print(f"{name}:")
            for key, m in part["metrics"].items():
                print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
                result["metrics"][f"{name}.{key}"] = m
            result["correct"] = result["correct"] and part["correct"]
            result["attempted"] += part["attempted"]
            result["failed"] += part["failed"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
