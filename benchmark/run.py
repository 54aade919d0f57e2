#!/usr/bin/env python3
"""Benchmark of the spatialindex_ray engine: closed-loop workloads, one
client each, run from one Python process.

    python3 benchmark/run.py --workload encode_scan --seed 1 --seconds 15 --trace 0

It works in the repository root whatever directory it is started from.
It builds its inputs from the seed under ``.bench/``, then three times sets
up (``ray.init(num_cpus=1)`` for the Ray workloads and an untimed warm-up
pass) and runs the closed loop for a third
of ``--seconds`` of operation time. It checks every result against a
Ray-free reference and prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics instead (see README.md). The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

# One BLAS/OpenMP thread in this process unless the environment asks for
# more: Ray gets one CPU, and NumPy in the benchmark's own process should not
# take more.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import measure  # noqa: E402
import micro  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
# Set-ups per run. Each gets its own Ray instance and a third of the timed
# loop, so one run samples three instances and a longer stretch of host time.
SETUPS = 3
# One Ray CPU whatever the machine offers: the workloads are one-core by
# design, and the execution shape must not change with the host.
RAY_CPUS = 1
# A fixed object store, so the execution shape does not follow the host's
# memory size (Ray's default is 30% of available memory, up to 10 GB).
OBJECT_STORE_BYTES = 512 << 20
# Everything Ray writes stays under the checkout, relative to the working
# directory, which main() sets to the checkout root.
RAY_DIR = os.path.join(".bench", "ray")
PLASMA_DIR = os.path.join(".bench", "plasma")


def process_age_s() -> float:
    """Seconds since this process started (from /proc, 10 ms resolution)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


class LocalRay:
    """One local Ray instance; ``close`` shuts it down, waits for every
    process it started to end and removes its temp files."""

    def __init__(self):
        import ray

        os.makedirs(RAY_DIR, exist_ok=True)
        # Ray's Unix sockets live under its temp dir and must fit in
        # sun_path (107 bytes) whatever the checkout's path; this process's
        # /proc cwd link names the same directory in a short absolute path
        # that every Ray process resolves while this process lives.
        tmp = f"/proc/{os.getpid()}/cwd/{RAY_DIR}"
        kwargs = {}
        if _shm_free_bytes() < OBJECT_STORE_BYTES:
            # Ray would fall back to the system temp dir
            os.makedirs(PLASMA_DIR, exist_ok=True)
            kwargs["_plasma_directory"] = os.path.abspath(PLASMA_DIR)
            print("note: /dev/shm too small; object store in " + PLASMA_DIR,
                  file=sys.stderr)
        before = set(os.listdir(RAY_DIR))
        for attempt in (1, 2):
            try:
                ray.init(
                    address="local",
                    num_cpus=RAY_CPUS,
                    object_store_memory=OBJECT_STORE_BYTES,
                    include_dashboard=False,
                    log_to_driver=False,
                    _temp_dir=tmp,
                    **kwargs,
                )
                break
            except Exception:
                # a start that times out on a busy host is retried once
                if attempt == 2:
                    raise
                print(f"note: ray.init failed, retrying:\n{traceback.format_exc()}",
                      file=sys.stderr)
                pids = measure.descendants(os.getpid())
                ray.shutdown()
                measure.stop_all(pids)
        ray.data.DataContext.get_current().enable_progress_bars = False
        self._ray = ray
        # the per-start directories this instance created, removed on close
        self._own = [
            os.path.join(RAY_DIR, d)
            for d in set(os.listdir(RAY_DIR)) - before
            if d.startswith("session_2")
        ]

    def close(self):
        pids = measure.descendants(os.getpid())
        self._ray.shutdown()
        killed = measure.stop_all(pids)
        if killed:
            print(f"note: killed leftover Ray processes {killed}", file=sys.stderr)
        for d in self._own:
            shutil.rmtree(d, ignore_errors=True)


class Runner:
    """Runs a workload's operations with a global operation counter, timing
    each ``op`` call alone and checking every result."""

    def __init__(self, w, out):
        self.w, self.out, self.i = w, out, 0

    def step(self):
        w, i = self.w, self.i
        self.i += 1
        kind = w.prepare(i)
        t0 = time.perf_counter()
        try:
            res = w.op(i)
        except Exception:
            dt = time.perf_counter() - t0
            self.out.record(False, f"{w.name}[{i}] raised:\n{traceback.format_exc()}")
            return kind, dt
        dt = time.perf_counter() - t0
        w.check(i, res, self.out)
        return kind, dt

    def run(self, ops: int) -> float:
        """One untimed pass of ``ops`` operations; returns its wall time."""
        self.w.begin()
        t0 = time.perf_counter()
        for _ in range(ops):
            self.step()
        return time.perf_counter() - t0

    def loop(self, seconds: float):
        """Closed loop of whole cycles until ``seconds`` of operation time
        have passed. Returns the latencies of the workload's unit operations,
        the busy seconds, and each cycle's unit operations per second."""
        w = self.w
        w.begin()
        lat, busy, rates = [], 0.0, []
        while busy < seconds:
            units, cycle_s = 0, 0.0
            for _ in range(w.cycle_ops()):
                kind, dt = self.step()
                cycle_s += dt
                if kind == w.unit:
                    units += 1
                    lat.append(dt)
            busy += cycle_s
            rates.append(units / cycle_s)
        return lat, busy, rates


def _shm_free_bytes() -> int:
    try:
        st = os.statvfs("/dev/shm")
    except OSError:
        return 0
    return st.f_bavail * st.f_frsize


def check_golden(w, out):
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f).get(w.name)
    if golden is not None:
        out.check(f"{w.name} golden references (seed {w.seed})", w.references(), golden)


def end_to_end(args, w, out, import_s):
    runner = Runner(w, out)
    setups, lat, busy, rates, rss = [], [], 0.0, [], 0.0
    probe_before = measure.host_probe(0.25)
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        local_ray = LocalRay() if w.uses_ray else None
        try:
            runner.run(w.warmup_ops())
            setups.append(time.perf_counter() - t0)
            part = runner.loop(args.seconds / SETUPS)
            rss = max(rss, measure.peak_rss_mb())
        finally:
            if local_ray is not None:
                local_ray.close()
        lat += part[0]
        busy += part[1]
        rates += part[2]
    probe_after = measure.host_probe(0.25)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": 1e3 * measure.percentile(lat, 50),
        "peak_rss_mb": rss,
    }
    extra = {
        "op_unit": w.unit,
        "ops": len(lat),
        "busy_s": busy,
        "cycle_ops_per_s": rates,
        "latency_tail_ms": _tail(lat),
        "setup_samples_s": setups,
        "import_s": import_s,
        "host_probe_iters_per_s": {"before": probe_before, "after": probe_after},
    }
    return metrics, extra


def _tail(lat):
    t = measure.tail(lat)
    if t is None:
        return {"n": len(lat), "note": "fewer than 10 samples beyond p90"}
    return {"p": t[0], "value": 1e3 * t[1], "n": t[2]}


def traced(args, w, out):
    """Per-layer metrics: setup spans, the workload's loop untraced then
    traced (tracing overhead), one traced cycle of every Ray workload, and
    the Ray-free microbenchmarks."""
    tracer = measure.Tracer(f"{w.name}-{args.seed}-{os.getpid()}")
    runner = Runner(w, out)
    local_ray = None
    try:
        if w.uses_ray:
            with tracer.span("setup.ray_init"):
                local_ray = LocalRay()
        with tracer.span("setup.warmup"):
            runner.run(w.warmup_ops())
        rate_u = statistics.median(runner.loop(args.seconds / 2)[2])
        w.tr = tracer
        with tracer.span(f"bench.{w.name}.loop"):
            rate_t = statistics.median(runner.loop(args.seconds / 2)[2])
        w.tr = measure.NO_TRACER
        if local_ray is None:
            with tracer.span("setup.ray_init"):
                local_ray = LocalRay()
        sweep = {}
        for cls in (workloads.EncodeScan, workloads.JoinTiles, workloads.IndexRw):
            sw = w if isinstance(w, cls) else cls(args.seed, args.workdir)
            r = Runner(sw, out)
            if sw is not w:
                r.run(sw.warmup_ops())
            first = len(tracer.spans)
            sw.tr = tracer
            with tracer.span(f"bench.{sw.name}.sweep"):
                r.run(sw.cycle_ops())
            sw.tr = measure.NO_TRACER
            sweep[sw.name] = (sw, tracer.spans[first:])
        metrics = layer_metrics(sweep, tracer.spans)
        metrics.update(micro.kernel_rates())
        metrics.update(micro.cover_metrics())
    finally:
        if local_ray is not None:
            local_ray.close()
    metrics["trace.overhead_frac"] = rate_u / rate_t - 1.0
    spans_path = os.path.join(args.results_dir, f"{w.name}-seed{args.seed}.spans.jsonl")
    tracer.write(spans_path)
    return metrics, {"spans": spans_path}


def _median_span_s(spans, name):
    d = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return statistics.median(d) if d else 0.0


STAGES = {"encode": "encode_scan", "region_search": "encode_scan",
          "tile_counts": "join_tiles", "query_index": "index_rw"}
LAYERS = ("bench", "cover", "ops", "build", "setup")


def layer_metrics(sweep, all_spans) -> dict:
    from spatialindex_ray.state.manifest import Manifest

    es, es_spans = sweep["encode_scan"]
    jt, jt_spans = sweep["join_tiles"]
    ix, ix_spans = sweep["index_rw"]
    m = {
        "ops.encode.wall_s": _median_span_s(es_spans, "ops.encode"),
        "ops.region_search.wall_s": _median_span_s(es_spans, "ops.region_search"),
        "ops.radius_join.wall_s": _median_span_s(jt_spans, "ops.radius_join"),
        "ops.tile_counts.wall_s": _median_span_s(jt_spans, "ops.tile_counts"),
        "ops.radius_join.pairs_per_row": jt.ref["pairs"] / workloads.JOIN_PAGES,
        "ops.tile_counts.tiles": float(jt.ref["tiles"]),
    }
    for stage, owner in STAGES.items():
        stats = sweep[owner][0].stage_stats.get(stage, [])
        for key in ("tasks", "blocks", "rows_per_block", "udf_s", "busy_frac"):
            vals = [s[key] for s in stats]
            m[f"ray_data.{stage}.{key}"] = float(statistics.median(vals)) if vals else 0.0
    build_s = _median_span_s(ix_spans, "build.build_index")
    manifest = Manifest(os.path.join(ix.index_dir, "_manifest.json"))
    files = sum(
        n.endswith(".parquet") for _, _, ns in os.walk(ix.index_dir) for n in ns
    )
    queries = ix.traced_queries
    m.update({
        "build.build_index.wall_s": build_s,
        "build.build_index.rows_per_s": workloads.INDEX_PAGES / build_s if build_s else 0.0,
        "build.bytes_written_per_input_byte": manifest.total_bytes() / ix.input_bytes,
        "build.files_written": float(files),
        "build.query.plan_ms": 1e3 * _median_span_s(ix_spans, "cover.cone_plan"),
        "build.query.read_ms": 1e3 * _median_span_s(ix_spans, "build.query_index"),
        "build.query.rows_returned": float(statistics.mean(n for _, n in queries)),
        "build.query.row_groups_read_frac": float(
            statistics.mean(ix.row_groups_read_frac(p) for p, _ in queries)
        ),
        "setup.ray_init_s": _median_span_s(all_spans, "setup.ray_init"),
        "setup.warmup_s": _median_span_s(all_spans, "setup.warmup"),
    })
    selfs = measure.layer_self_times(all_spans)
    for layer in LAYERS:
        m[f"trace.self_s.{layer}"] = selfs.get(layer, 0.0)
    return m


def declared_units(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {e["name"]: e["unit"] for e in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # any integer names a seed; NumPy's seeding takes non-negative ones
    args.seed %= 2**64

    if not os.path.isdir(os.path.join(ROOT, "spatialindex_ray")):
        print(f"error: no spatialindex_ray package under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    import spatialindex_ray  # noqa: F401

    cls = workloads.WORKLOADS[args.workload]
    if cls.uses_ray or args.trace:
        from ray import cloudpickle

        # Ray workers cannot import the benchmark's modules by name
        for mod in (workloads, sys.modules["inputs"]):
            cloudpickle.register_pickle_by_value(mod)
    import_s = process_age_s()

    bench_dir = os.path.join(ROOT, ".bench")
    args.results_dir = os.path.join(bench_dir, "results")
    os.makedirs(args.results_dir, exist_ok=True)
    args.workdir = os.path.join(bench_dir, f"work-{os.getpid()}")
    units = declared_units(args.trace)
    out = measure.Outcomes()
    try:
        w = cls(args.seed, args.workdir)
        if args.seed == DEFAULT_SEED:
            check_golden(w, out)
        if args.trace:
            metrics, extra = traced(args, w, out)
        else:
            metrics, extra = end_to_end(args, w, out, import_s)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        measure.stop_all(measure.descendants(os.getpid()))
    if set(metrics) != set(units):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} disagree "
              "with BENCHMARK.json", file=sys.stderr)
        return 1

    for name in units:
        print(f"{args.workload} {name} {metrics[name]:.6g} {units[name]}")
    print(f"{args.workload} failed_frac {out.failed_frac:.6g} "
          f"({out.failed}/{out.attempted})")
    for msg in out.messages:
        print(f"FAILED {msg}", file=sys.stderr)
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, **extra)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(args.results_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(extra))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
