"""indval benchmark: closed-loop workloads, end-to-end metrics and a layer trace.

One workload per process, one closed-loop client: each operation starts when
the previous one returns.  Run from the root of a source checkout:

    python3 bench/run.py --workload valuation --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --all --seeds 1-3 --out bench/out/suite.json

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs a fixed prefix of the input set untraced and then traced,
and reports the per-layer metrics.  Both check every output.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
``--all`` runs every workload, one process after another, and writes a
summary with medians and spreads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_BUDGET_S = 2.0
# Host speed: a fixed piece of pure-Python work is timed REFERENCE_REPEATS
# times (the median is one sample) every REFERENCE_PERIOD_S between
# operations.  The host's speed drifts by up to a third over tens of seconds
# on a shared machine; operation times are scaled to the speed at which one
# sample takes REFERENCE_NOMINAL_S, so that this drift cancels out.
REFERENCE_PERIOD_S = 0.25
REFERENCE_REPEATS = 5
REFERENCE_SMOOTH = 5
REFERENCE_NOMINAL_S = 4.5e-4

sys.path.insert(0, BENCH_DIR)
import layers  # noqa: E402
from workloads import WORKLOADS, layer_census  # noqa: E402

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "indval", "__init__.py")):
        print(f"error: no indval source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _fresh_import():
    """Import indval from the checkout, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "indval" or n.startswith("indval.")]:
        del sys.modules[name]
    iv = importlib.import_module("indval")
    if not os.path.abspath(iv.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: indval imported from {iv.__file__}, not {SRC}")
    return iv


def _setup(wl, workdir):
    """Median of repeated (import indval + workload setup), each repeat scaled
    to the nominal host speed by host samples taken just before and after it;
    returns (s, iv, ctx, unscaled times).

    Cheap set-ups repeat more often (up to SETUP_BUDGET_S of set-up time), so
    that their median is as steady as that of the expensive ones.
    """
    clock = time.perf_counter
    times, scaled = [], []
    before = _host_sample(clock)
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS
    ):
        t0 = clock()
        iv = _fresh_import()
        ctx = wl.setup(iv, workdir)
        t = clock() - t0
        after = _host_sample(clock)
        times.append(t)
        scaled.append(t * 2 * REFERENCE_NOMINAL_S / (before + after))
        before = after
        gc.collect()  # free the previous copy's modules, whatever the repeat count
    return statistics.median(scaled), iv, ctx, times


def _inputs(wl, seed: int, blocks: int):
    specs = wl.generate(random.Random(seed), blocks)
    digest = hashlib.sha256(repr(specs).encode()).hexdigest()
    return specs, digest


def _environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "indval")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def _reference_work() -> int:
    """Fixed pure-Python work (stdlib only) whose time tracks the host's speed."""
    acc, seen = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i * 7 % 13 - 6, i + 1)
        seen[(i, i % 5)] = (acc.numerator % 97, acc.denominator % 89)
    return len(seen)


def _host_sample(clock) -> float:
    """Median time of REFERENCE_REPEATS runs of the reference work, GC paused."""
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            t0 = clock()
            _reference_work()
            times.append(clock() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def _execute(wl, iv, ctx, ops, *, seconds=None, tracer=None):
    """Closed loop over ops.  With seconds, run whole blocks until the time is
    spent (cycling the input set if it runs out), sampling the host's speed
    between operations; else run ops once.

    Returns (latencies, executions, wall, scales) with executions a list of
    (op index, output, exception or None) and scales, with seconds, the factor
    REFERENCE_NOMINAL_S / host speed for each operation (the mean of the
    smoothed samples taken just before and just after it), else None.
    """
    lat, runs = [], []
    clock = time.perf_counter
    n = len(ops)
    i = 0
    samples, sample_of = [], []
    t_start = clock()
    t_end = t_start
    next_sample = t_start
    while True:
        k = i % n
        if seconds is not None:
            if t_end >= next_sample:
                samples.append(_host_sample(clock))
                next_sample = clock() + REFERENCE_PERIOD_S
            sample_of.append(len(samples) - 1)
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            out, exc = wl.run(iv, ctx, ops[k]), None
        except Exception as e:  # a failed operation is counted, never fatal
            out, exc = None, e
        t_end = clock()
        lat.append(t_end - t0)
        runs.append((k, out, exc))
        i += 1
        if seconds is None:
            if i == n:
                break
        elif i % wl.block == 0 and t_end - t_start >= seconds:
            break
    if seconds is None:
        return lat, runs, t_end - t_start, None
    samples.append(_host_sample(clock))
    # a centred moving average over REFERENCE_SMOOTH samples follows the
    # drift and evens out the noise of single samples
    h = REFERENCE_SMOOTH // 2
    smooth = [statistics.fmean(samples[max(0, j - h):j + h + 1]) for j in range(len(samples))]
    scales = [2 * REFERENCE_NOMINAL_S / (smooth[j] + smooth[j + 1]) for j in sample_of]
    return lat, runs, t_end - t_start, scales


def _check(wl, iv, ctx, ops, runs):
    """Oracle on the first output of each input; repeats must match it."""
    first, failures = {}, []
    for k, out, exc in runs:
        if exc is not None:
            reason = f"{type(exc).__name__}: {exc}"
        elif k in first:
            reason = None if out == first[k] else "output differs from an earlier run of the same input"
        else:
            first[k] = out
            try:
                reason = wl.check(iv, ctx, ops[k], out)
            except Exception as e:
                reason = f"check raised {type(e).__name__}: {e}"
        if reason is not None:
            failures.append({"op": k, "reason": reason[:300]})
    return failures


def _latency_stats(lat, percentile):
    """Median and the workload's tail percentile (nearest rank), with counts."""
    s = sorted(lat)
    n = len(s)
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return {
        "samples": n,
        "p50_ms": statistics.median(s) * 1e3,
        "tail_ms": s[rank - 1] * 1e3,
        "tail_percentile": percentile,
        "tail_beyond": n - rank,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    _require_source()
    wl = WORKLOADS[name]
    workdir = os.path.join(OUT_DIR, f"work-{name}")
    os.makedirs(workdir, exist_ok=True)

    setup_s, iv, ctx, setup_all = _setup(wl, workdir)
    blocks = wl.trace_blocks if traced else wl.pool_blocks
    specs, digest = _inputs(wl, seed, blocks)
    ops = [wl.prepare(iv, ctx, spec) for spec in specs]
    detail = {"workload": name, "trace": int(traced), "inputs_sha256": digest, "input_ops": len(ops),
              "env": _environment(seed), "setup_runs_s": setup_all}

    gc.collect()
    gc.freeze()  # set-up and inputs are long-lived: keep them out of the timed collections
    if not traced:
        lat, runs, wall, scales = _execute(wl, iv, ctx, ops, seconds=seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = _check(wl, iv, ctx, ops, runs)
        scaled = [t * f for t, f in zip(lat, scales)]
        stats = _latency_stats(scaled, wl.tail_percentile)
        raw = _latency_stats(lat, wl.tail_percentile)
        metrics = {
            "throughput_ops_s": len(scaled) / sum(scaled),
            "latency_p50_ms": stats["p50_ms"],
            "latency_tail_ms": stats["tail_ms"],
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }
        units = dict(END_TO_END)
        ops_failed = len(failures)
        detail.update(stats)
        detail["unscaled"] = {"throughput_ops_s": len(lat) / wall, "latency_p50_ms": raw["p50_ms"],
                              "latency_tail_ms": raw["tail_ms"], "setup_s": statistics.median(setup_all)}
        detail["host_scale"] = {"median": statistics.median(scales), "min": min(scales), "max": max(scales)}
        detail.update({"wall_s": wall, "input_passes": len(runs) / len(ops),
                       "ops_failed_ratio": ops_failed / len(runs), "ops_failed": ops_failed,
                       "ops_attempted": len(runs)})
    else:
        # untraced reference, on warm code: the second of two passes
        _execute(wl, iv, ctx, ops)
        _lat0, runs0, wall0, _ = _execute(wl, iv, ctx, ops)
        import indval.cli  # noqa: F401  (traced by the census below)

        tracer = layers.Tracer()
        tracer.install()
        try:
            # traced set-up, spans with op_id -1: the layer census, then the
            # workload's own set-up
            census_failures = layer_census(iv, workdir)
            ctx_t = wl.setup(iv, workdir)
            ops_t = [wl.prepare(iv, ctx_t, spec) for spec in specs]
            _lat1, runs, wall1, _ = _execute(wl, iv, ctx_t, ops_t, tracer=tracer)
        finally:
            tracer.uninstall()
        failures = _check(wl, iv, ctx, ops, runs0) + _check(wl, iv, ctx_t, ops_t, runs)
        failures += [{"op": -1, "reason": r} for r in census_failures]
        metrics, bases = tracer.layer_metrics()
        metrics["trace_overhead_ratio"] = wall1 / wall0
        units = dict(layers.PER_LAYER)
        stem = os.path.join(OUT_DIR, f"spans-{name}-{seed}")
        tracer.write(stem)
        detail.update({"ratio_bases": bases, "untraced_wall_s": wall0, "traced_wall_s": wall1,
                       "spans_file": os.path.relpath(stem, ROOT) + ".bin"})
        ops_failed = len(failures)
        runs = runs0 + runs

    detail["failures"] = failures[:20]
    for metric, value in metrics.items():
        print(f"  {metric:36s} {value:>16.6g} {units[metric]}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": len(runs),
        "failed": ops_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# --all: every workload, one process after another, with spreads
# ---------------------------------------------------------------------------


def _parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _one_process(name, seed, seconds, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("detail: "):])
    return json.loads(lines[-1]), detail


def _spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / q2 if q2 else 0.0,
            "values": values}


def run_all(seeds, seconds, out_path) -> int:
    _require_source()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        runs = [_one_process(name, s, seconds, 0) for s in seeds]
        traced = [_one_process(name, seeds[0], seconds, 1) for _ in range(2)]
        entry = {"end_to_end": {}, "per_layer": {}}
        print(f"{name}")
        for metric, unit in END_TO_END:
            sp = _spread([r[0]["metrics"][metric]["value"] for r in runs])
            sp.update({"unit": unit, "bound": bounds[metric]})
            entry["end_to_end"][metric] = sp
            print(f"  {metric:20s} median {sp['median']:12.6g} {unit:5s} IQR/median {sp['iqr_over_median']:.4f}"
                  f"  (bound {bounds[metric]})")
        entry["samples"] = [r[1]["samples"] for r in runs]
        entry["tail_percentile"] = [r[1]["tail_percentile"] for r in runs]
        entry["ops_failed"] = [r[1]["ops_failed"] for r in runs]
        entry["ops_attempted"] = [r[1]["ops_attempted"] for r in runs]
        entry["ops_failed_ratio"] = sum(entry["ops_failed"]) / sum(entry["ops_attempted"])
        entry["inputs_sha256"] = {s: r[1]["inputs_sha256"] for s, r in zip(seeds, runs)}
        traced_metrics = [t[0]["metrics"] for t in traced]
        counts_equal = all(
            traced_metrics[0][k]["value"] == traced_metrics[1][k]["value"]
            for k, u in layers.PER_LAYER if u in ("count", "calls/op")
        )
        for metric, unit in layers.PER_LAYER:
            entry["per_layer"][metric] = {"value": traced_metrics[0][metric]["value"], "unit": unit,
                                          "second_run": traced_metrics[1][metric]["value"]}
        entry["ratio_bases"] = traced[0][1]["ratio_bases"]
        entry["trace_counts_repeat"] = counts_equal
        entry["failures"] = [f for r in runs for f in r[1]["failures"]]
        ok = ok and counts_equal and entry["ops_failed_ratio"] == 0
        print(f"  ops_failed_ratio {entry['ops_failed_ratio']} of {sum(entry['ops_attempted'])};"
              f" per-layer counts repeat: {counts_equal}")
        for metric, unit in layers.PER_LAYER:
            print(f"    {metric:36s} {traced_metrics[0][metric]['value']:>14.6g} {unit}")
        summary["workloads"][name] = entry
    summary["env"] = _environment(seeds[0])
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload in its own process")
    ap.add_argument("--seeds", default="1-10", help="seed range for --all, as 1-10")
    ap.add_argument("--out", default=os.path.join(OUT_DIR, "suite.json"), help="summary file for --all")
    args = ap.parse_args(argv)
    if args.all:
        return run_all(_parse_seeds(args.seeds), args.seconds, args.out)
    if args.workload is None:
        ap.error("--workload or --all is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
