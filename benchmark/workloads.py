"""The four closed-loop workloads: one client each, the next operation sent
when the previous one has returned.

Each workload builds its inputs and references from the seed, runs one
operation per ``op`` call, and checks the result in ``check``; the runner
times ``op`` alone. ``self.tr`` is the no-op ``measure.NO_TRACER`` unless the
runner swaps in a ``measure.Tracer``; with a real tracer, ``op`` also
materializes between stages and keeps each stage's ``Dataset.stats()`` in
``self.stage_stats``.
Public engine functions are called with their defaults except for the
arguments a workload fixes (radius, tile size, levels, ``n_shards``).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import inputs
from measure import NO_TRACER

ENCODE_SCAN_PAGES = 40_000
JOIN_PAGES = 3_000
INDEX_PAGES = 20_000
# bench.py joins 400,000 pages at 0.05 degrees (1.08 pairs per row); at
# JOIN_PAGES the radius that keeps that neighbour density is 0.58 degrees
JOIN_RADIUS_DEG = 0.58
JOIN_SHARDS = 8
TILE_DEG = 1.0
INDEX_QUERIES_PER_BUILD = 8


def stage_stats(ds, wall_s: float) -> dict:
    """Task overhead against UDF work for one materialized stage, from the
    operators this Dataset itself ran (its parents are other stages).
    busy_frac is the tasks' CPU time over the stage's wall time. Ray has no
    public structured form of ``Dataset.stats()``, hence the private call."""
    ops_ = ds._get_stats_summary().operators_stats
    tasks = sum(o.task_rows.get("count", 0) for o in ops_ if o.task_rows)
    udf = sum(o.udf_time.get("sum", 0.0) for o in ops_ if o.udf_time)
    busy = sum(o.cpu_time.get("sum", 0.0) for o in ops_ if o.cpu_time)
    last = ops_[-1] if ops_ else None
    blocks = 0
    if last is not None:
        m = re.search(r"(\d+) blocks produced", last.block_execution_summary_str)
        blocks = int(m.group(1)) if m else 0
    rows = last.output_num_rows.get("sum", 0) if last and last.output_num_rows else 0
    return {
        "tasks": tasks,
        "blocks": blocks,
        "rows_per_block": rows / blocks if blocks else 0.0,
        "udf_s": udf,
        "busy_frac": busy / wall_s if wall_s > 0 else 0.0,
    }


class Workload:
    name = ""
    uses_ray = True
    # the unit latency_p50_ms and ops_per_s count
    unit = "query"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = os.path.join(workdir, self.name)
        os.makedirs(self.dir, exist_ok=True)
        self.tr = NO_TRACER
        self.stage_stats: dict[str, list[dict]] = {}

    def keep_stats(self, stage: str, ds, wall_s: float):
        self.stage_stats.setdefault(stage, []).append(stage_stats(ds, wall_s))

    def cycle_ops(self) -> int:
        """Operations in one cycle of the workload's fixed design; the timed
        loop runs whole cycles."""
        return 1

    def warmup_ops(self) -> int:
        """Operations in one warm-up pass; it runs every kind of operation."""
        return self.cycle_ops()

    def begin(self):
        """Called before every warm-up pass and every timed loop."""

    def prepare(self, i: int) -> str:
        """Untimed bookkeeping before operation ``i``; returns its kind."""
        return self.unit

    def references(self) -> dict:
        """Reference answers that the golden file pins for the default seed."""
        return {}


# ------------------------------------------------------------- plan_sql
class PlanSql(Workload):
    """Region -> ranges -> SQL in the calling process, Ray-free."""

    name = "plan_sql"
    uses_ray = False

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from spatialindex_ray import SpatialIndex

        self.si = SpatialIndex()
        self._rng = np.random.default_rng([seed, 1])
        self._check_rng = np.random.default_rng([seed, 2])
        self.stream: list[dict] = []

    def cycle_ops(self) -> int:
        return inputs.PLAN_CYCLE_LEN

    def references(self):
        """Digest of the first cycle's regions (the inputs are the plans)."""
        rows = [
            [q["region"].kind, q["mode"], q["level"]]
            + [round(v, 9) for v in (q["region"].ra, q["region"].dec, q["region"].size)]
            for q in (self.query(i) for i in range(inputs.PLAN_CYCLE_LEN))
        ]
        return {"first_cycle_sha1": hashlib.sha1(json.dumps(rows).encode()).hexdigest()}

    def query(self, i: int) -> dict:
        while i >= len(self.stream):
            self.stream.extend(inputs.plan_cycle(self._rng))
        return self.stream[i]

    def op(self, i: int):
        q = self.query(i)
        r, mode, level = q["region"], q["mode"], q["level"]
        with self.tr.span("cover.spatial_index." + r.kind):
            if r.kind == "cone":
                return self.si.cone_search(r.ra, r.dec, r.size, mode=mode, level=level)
            if r.kind == "ellipse":
                return self.si.ellipse_plan(r.ra, r.dec, r.size, r.b, r.angle, level=level)
            if mode == 0:
                return self.si.polygon_search(len(r.vra), r.vra, r.vdec, mode=0, level=level)
            # polygon_search in HEALPix mode keeps the reference's pruning
            # bug (cover.hpx_polygon_ranges, compat=True), so its cover is
            # not a superset; the engine plan is the correct HEALPix path.
            return self.si.polygon_plan(r.vra, r.vdec, mode=1, level=level)

    def check(self, i: int, res, out):
        q = self.query(i)
        r, mode, level = q["region"], q["mode"], q["level"]
        what = f"plan_sql[{i}] {r.kind} mode={mode} L{level} size={r.size:.3g}"
        pts = r.sample_inside(self._check_rng, 32)
        cells = inputs.cells_of(pts, mode, level)
        if "ranges" in res:
            ok = inputs.in_ranges(cells, res["ranges"]) & r.contains(pts)
        elif res.get("status") != 0:
            return out.record(False, f"{what}: {res.get('error_message')}")
        else:
            ok = inputs.in_ranges(
                cells, inputs.sql_ranges(res["index_constraint"], mode)
            ) & inputs.sql_geom_ok(res["geom_constraint"], pts)
        return out.record(bool(ok.all()), f"{what}: {int((~ok).sum())} inside points not covered")


# ----------------------------------------------------------- encode_scan
class EncodeScan(Workload):
    """Full-scan region queries over an unindexed Parquet table:
    read_parquet -> ops.encode -> ops.region_search -> count."""

    name = "encode_scan"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from spatialindex_ray import SpatialIndex

        pages = inputs.make_pages(seed, ENCODE_SCAN_PAGES, hot_frac=0.0)
        self.files = inputs.write_pages(pages, os.path.join(self.dir, "pages"), 4)
        self.input_dir = os.path.dirname(self.files[0])
        pts = inputs.Points(pages["url"].to_pylist())
        rng = np.random.default_rng([seed, 1])
        si = SpatialIndex()
        regions = [
            (inputs.random_region(rng, "cone", 6.0), 0, 10),
            (inputs.random_region(rng, "cone", 8.0), 1, 9),
            (inputs.random_region(rng, "polygon", 7.0), 1, 8),
        ]
        self.plans = []
        for reg, mode, level in regions:
            if reg.kind == "cone":
                plan = si.cone_plan(reg.ra, reg.dec, reg.size, mode=mode, level=level)
            else:
                plan = si.polygon_plan(reg.vra, reg.vdec, mode=mode, level=level)
            self.plans.append((plan, int(reg.contains(pts.xyz).sum())))

    def cycle_ops(self) -> int:
        return len(self.plans)

    def warmup_ops(self) -> int:
        return 1

    def references(self):
        return {"hits": [h for _, h in self.plans]}

    def op(self, i: int):
        import ray

        from spatialindex_ray import ops

        plan = self.plans[i % len(self.plans)][0]
        if not self.tr.traced:
            enc = ops.encode(ray.data.read_parquet(self.input_dir), url_col="url")
            return ops.region_search(enc, plan).count()
        with self.tr.span("ops.encode") as s:
            enc = ops.encode(
                ray.data.read_parquet(self.input_dir), url_col="url"
            ).materialize()
        self.keep_stats("encode", enc, s["end"] - s["start"])
        with self.tr.span("ops.region_search") as s:
            hits = ops.region_search(enc, plan).materialize()
        self.keep_stats("region_search", hits, s["end"] - s["start"])
        return hits.count()

    def check(self, i: int, res, out):
        return out.check(f"encode_scan[{i}] hits", res, self.plans[i % len(self.plans)][1])


# ------------------------------------------------------------ join_tiles
def _add_row_id(tbl: pa.Table) -> pa.Table:
    from spatialindex_ray import ops

    return tbl.append_column(
        "row_id", pa.array(ops.hash64_strings(tbl["url"]).view("int64"))
    )


class JoinTiles(Workload):
    """Parquet pages -> encode + row_id -> self radius join -> tile counts."""

    name = "join_tiles"
    unit = "pass"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        pages = inputs.make_pages(seed, JOIN_PAGES, hot_frac=0.002)
        self.files = inputs.write_pages(pages, os.path.join(self.dir, "pages"), 2)
        self.input_dir = os.path.dirname(self.files[0])
        pts = inputs.Points(pages["url"].to_pylist())
        self.ref = {
            "pairs": inputs.pair_count(pts.xyz, JOIN_RADIUS_DEG),
            **inputs.tile_histogram(pts.lon, pts.lat, TILE_DEG),
        }

    def references(self):
        return dict(self.ref)

    def op(self, i: int):
        import ray

        from spatialindex_ray import ops

        with self.tr.span("ops.encode"):
            enc = (
                ops.encode(ray.data.read_parquet(self.input_dir), url_col="url")
                .map_batches(_add_row_id, batch_format="pyarrow", batch_size=None)
                .materialize()
            )
        with self.tr.span("ops.radius_join"):
            pairs = ops.radius_join(
                enc, enc, JOIN_RADIUS_DEG, id_col="row_id", n_shards=JOIN_SHARDS
            ).count()
        with self.tr.span("ops.tile_counts") as s:
            tiles = ops.tile_counts(enc, TILE_DEG).materialize()
        if self.tr.traced:
            self.keep_stats("tile_counts", tiles, s["end"] - s["start"])
        tbl = pa.concat_tables(ray.get(tiles.to_arrow_refs()))
        cnt = tbl.column(tbl.num_columns - 1).to_numpy()
        return {
            "pairs": pairs,
            "tiles": tbl.num_rows,
            "rows": int(cnt.sum()),
            "max": int(cnt.max()),
        }

    def check(self, i: int, res, out):
        return out.check(f"join_tiles[{i}]", res, self.ref)


# -------------------------------------------------------------- index_rw
class IndexRw(Workload):
    """build.build_index over the pages (write path), then a stream of
    build.region_count cone queries against it (read path); the index is
    rebuilt every INDEX_QUERIES_PER_BUILD queries."""

    name = "index_rw"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from spatialindex_ray import SpatialIndex

        self.si = SpatialIndex()
        pages = inputs.make_pages(seed, INDEX_PAGES, hot_frac=0.0)
        self.files = inputs.write_pages(pages, os.path.join(self.dir, "pages"), 8)
        self.input_bytes = sum(os.path.getsize(f) for f in self.files)
        self.pts = inputs.Points(pages["url"].to_pylist())
        self._rng = np.random.default_rng([seed, 1])
        self.queries: list[tuple] = []
        self.builds = 0
        self.index_dir = None
        self._since_build = None
        self._query_of: dict[int, int | None] = {}
        self._queries_run = 0
        self.traced_queries: list[tuple[dict, int]] = []

    def cycle_ops(self) -> int:
        return 1 + INDEX_QUERIES_PER_BUILD

    def warmup_ops(self) -> int:
        return 2

    def query(self, k: int):
        while k >= len(self.queries):
            reg = inputs.random_region(
                self._rng, "cone", float(np.exp(self._rng.uniform(np.log(2.0), np.log(6.0))))
            )
            self.queries.append((reg, int(reg.contains(self.pts.xyz).sum())))
        return self.queries[k]

    def references(self):
        return {"rows": len(self.pts), "counts": [self.query(k)[1] for k in range(8)]}

    def begin(self):
        self._since_build = None

    def prepare(self, i: int) -> str:
        """Every pass starts with a build, and every INDEX_QUERIES_PER_BUILD
        queries trigger another; a build gets an empty directory
        (build_index resumes from an existing manifest)."""
        if self._since_build in (None, INDEX_QUERIES_PER_BUILD):
            old = self.index_dir
            self.builds += 1
            self.index_dir = os.path.join(self.dir, f"index-{self.builds}")
            if old:
                shutil.rmtree(old, ignore_errors=True)
            self._since_build = 0
            self._query_of[i] = None
            return "build"
        self._since_build += 1
        self._query_of[i] = self._queries_run
        self._queries_run += 1
        return "query"

    def op(self, i: int):
        from spatialindex_ray.pipelines import build

        if self._query_of[i] is None:
            with self.tr.span("build.build_index"):
                m = build.build_index(self.files, self.index_dir)
            return m.total_rows()
        reg = self.query(self._query_of[i])[0]
        with self.tr.span("cover.cone_plan"):
            plan = self.si.cone_plan(reg.ra, reg.dec, reg.size, mode=1, level=10)
        if not self.tr.traced:
            return build.region_count(self.index_dir, plan)
        with self.tr.span("build.query_index") as s:
            ds = build.query_index(self.index_dir, plan).materialize()
        self.keep_stats("query_index", ds, s["end"] - s["start"])
        n = ds.count()
        self.traced_queries.append((plan, n))
        return n

    def check(self, i: int, res, out):
        k = self._query_of.pop(i)
        if k is None:
            return out.check(f"index_rw[{i}] manifest rows", res, len(self.pts))
        return out.check(f"index_rw[{i}] region_count", res, self.query(k)[1])

    def row_groups_read_frac(self, plan) -> float:
        """Share of the index's row groups whose footer min/max of hpx20
        overlaps the plan's ranges (those a pruned read opens)."""
        shift = 2 * (20 - plan["level"])
        fine = np.array(
            [[int(a) << shift, ((int(b) + 1) << shift) - 1] for a, b in plan["ranges"]],
            dtype=np.int64,
        )
        hit = total = 0
        for root, _, names in os.walk(self.index_dir):
            for n in names:
                if not n.endswith(".parquet"):
                    continue
                md = pq.ParquetFile(os.path.join(root, n)).metadata
                col = md.schema.to_arrow_schema().get_field_index("hpx20")
                for g in range(md.num_row_groups):
                    st = md.row_group(g).column(col).statistics
                    total += 1
                    hit += bool(np.any((fine[:, 0] <= st.max) & (st.min <= fine[:, 1])))
        return hit / total if total else 0.0


WORKLOADS = {w.name: w for w in (PlanSql, EncodeScan, JoinTiles, IndexRw)}
