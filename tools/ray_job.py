"""Submittable job driver for the flagship DAG:

    synth/read pages -> encode (xyz + htm20 + hpx20)
      -> global range-partitioned index build (resumable, manifest lineage)
      -> cone region query via manifest + row-group pruning
      -> raster tile assignment -> per-tile counts written as parquet

Run standalone on one node:

    python tools/ray_job.py --input synth:200000 --out /tmp/sptjob

or submit to a fixed-size cluster (the north-star deployment shape —
`--working-dir` ships this repo to the cluster; Ray's job runtime sets the
address):

    ray job submit --working-dir /root/repo -- \
        python tools/ray_job.py --input '/data/pages/*.parquet' --out /mnt/out

Resumability: re-submitting with the same --out reuses the persisted range
boundaries and skips index partitions already recorded in
``<out>/index/_manifest.json`` (per-partition lineage: input fingerprint,
rows, bytes, cell range — state/manifest.py). Per-stage metrics are emitted
as one JSON line each on stdout and persisted in the manifest, mirroring the
"row/byte metrics emitted per stage" requirement; the reference's closest
analog is the htm_tree_gen phase timing prints (tree_gen.c).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import time

import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _emit(manifest, stage: str, **metrics):
    metrics = {"stage": stage, **metrics}
    print(json.dumps(metrics), flush=True)
    manifest.record_stage_metrics(stage, metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--input", required=True,
                    help="parquet glob, or synth:<n_rows> for generated pages")
    ap.add_argument("--out", required=True, help="output root directory")
    ap.add_argument("--cone", nargs=3, type=float, default=[83.2, 12.5, 40.0],
                    metavar=("RA", "DEC", "RADIUS_ARCMIN"))
    ap.add_argument("--level", type=int, default=7, help="cover plan level")
    ap.add_argument("--tile-deg", type=float, default=15.0)
    ap.add_argument("--partitions", type=int, default=64,
                    help="index range partitions (per-partition checkpoint unit)")
    ap.add_argument("--dedup", action="store_true",
                    help="exact-dedup pages on text content before indexing "
                         "(keeps the min-url row per distinct text)")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():  # under `ray job submit` the runtime owns this
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False)

    import spatialindex_ray
    from spatialindex_ray import SpatialIndex, ops, pipelines
    from spatialindex_ray.sources import webpages
    from spatialindex_ray.state.manifest import Manifest

    index_dir = os.path.join(args.out, "index")
    # Job-level metrics get their OWN manifest file: Manifest.flush rewrites
    # the whole file from memory, so sharing the index's _manifest.json here
    # would clobber the partition records build_index_ranged writes.
    manifest = Manifest(os.path.join(args.out, "_job_manifest.json"))

    # Stage 1: input. synth:<n> generates distributed; a glob stays lazy.
    t0 = time.time()
    if args.input.startswith("synth:"):
        n = int(args.input.split(":", 1)[1])
        src_dir = os.path.join(args.out, "src")
        # marker records the synth row count: re-submitting with a different
        # n against the same --out regenerates instead of silently reusing
        # stale data of the old size (ADVICE r2)
        marker = os.path.join(src_dir, "_synth_n.txt")
        have = None
        if os.path.exists(marker):
            try:
                have = int(open(marker).read().strip())
            except ValueError:
                have = None
        if have != n or not glob.glob(os.path.join(src_dir, "*.parquet")):
            if os.path.isdir(src_dir):
                shutil.rmtree(src_dir)
            webpages.synth_webpages(n, hot_frac=0.02).write_parquet(src_dir)
            with open(marker, "w") as fh:
                fh.write(str(n))
        files = sorted(glob.glob(os.path.join(src_dir, "*.parquet")))
    else:
        files = sorted(glob.glob(args.input))
    if not files:
        print(f"no input files match {args.input}", file=sys.stderr)
        return 2
    # "by_value": workers cannot import the package (run from the repo or
    # with --working-dir to get "by_name"), so every UDF carries its code
    _emit(manifest, "input", n_files=len(files), wall_s=round(time.time() - t0, 3),
          udf_shipping=spatialindex_ray._udf_shipping())

    # Stage 1.5 (optional): exact content dedup — keep the min-url row per
    # distinct text (the Common-Crawl dedup step). One text-hash exchange;
    # every surviving row's text/html bytes are untouched (the input_hint
    # byte-identity invariant), and the deduped set persists as parquet so
    # the downstream build resumes against a stable fingerprint.
    if args.dedup:
        import numpy as np

        t0 = time.time()
        from spatialindex_ray.ops import hash64_strings, hash_exchange

        ds = ray.data.read_parquet(files)
        n_in = ds.count()
        n_shards = max(16, args.partitions // 2)

        def keyed(tbl: pa.Table) -> pa.Table:
            h = hash64_strings(tbl["text"].combine_chunks()).astype(np.int64)
            tbl = tbl.append_column("_h", pa.array(h))
            return tbl.append_column(
                "_shard", pa.array(((h % n_shards) + n_shards) % n_shards)
            )

        def first_per_hash(tbl: pa.Table) -> pa.Table:
            if tbl.num_rows == 0 or "_h" not in tbl.schema.names:
                return tbl.drop_columns(
                    [c for c in ("_h", "_shard") if c in tbl.schema.names]
                )
            h = tbl["_h"].to_numpy(zero_copy_only=False)
            url = tbl["url"].to_numpy(zero_copy_only=False)
            order = np.lexsort((url, h))
            sh = h[order]
            heads = np.concatenate([[True], sh[1:] != sh[:-1]])
            kept = tbl.take(pa.array(order[heads]))
            return kept.drop_columns(["_h", "_shard"])

        keyed_ds = ds.map_batches(keyed, batch_format="pyarrow", batch_size=None)
        dedup_dir = os.path.join(args.out, "dedup")
        if os.path.isdir(dedup_dir):
            shutil.rmtree(dedup_dir)
        deduped = hash_exchange(keyed_ds, "_shard", n_shards, first_per_hash)
        deduped.write_parquet(dedup_dir)
        files = sorted(glob.glob(os.path.join(dedup_dir, "*.parquet")))
        import pyarrow.parquet as pq

        n_out = sum(pq.read_metadata(f).num_rows for f in files)
        bytes_out = sum(os.path.getsize(f) for f in files)
        _emit(manifest, "dedup", rows_in=int(n_in), rows_out=int(n_out),
              bytes=int(bytes_out), wall_s=round(time.time() - t0, 3))

    # Stage 2: resumable range-partitioned index build (encode + sort inside).
    t0 = time.time()
    pipelines.build.build_index_ranged(
        files, index_dir, n_partitions=args.partitions
    )
    built = Manifest(os.path.join(index_dir, "_manifest.json"))
    rows = sum(r.get("rows", 0) for r in built.partitions().values())
    nbytes = sum(r.get("bytes", 0) for r in built.partitions().values())
    _emit(manifest, "index_build", rows=int(rows), bytes=int(nbytes),
          partitions=len(built.partitions()), wall_s=round(time.time() - t0, 3))

    # Stage 3: cone region query (manifest prune -> row-group prune -> exact).
    t0 = time.time()
    ra, dec, radius = args.cone
    plan = SpatialIndex().cone_plan(ra, dec, radius, mode=1, level=args.level)
    hits = pipelines.build.query_index_ranged(index_dir, plan)

    # Stage 4: raster tile assignment + per-tile counts.
    tiled = ops.tile_counts(hits, args.tile_deg)
    tiles_dir = os.path.join(args.out, "tiles")
    if os.path.isdir(tiles_dir):  # derived output: rewrite, never append
        import shutil

        shutil.rmtree(tiles_dir)
    tiled.write_parquet(tiles_dir)
    import pyarrow.dataset as pads

    if os.path.isdir(tiles_dir):  # an all-empty result writes no files
        tset = pads.dataset(tiles_dir).to_table()
    else:
        tset = pa.table({})
    n_hits = (
        int(tset["sum(partial)"].to_pandas().sum()) if tset.num_rows else 0
    )
    _emit(manifest, "query_tile", hit_rows=n_hits, tiles=tset.num_rows,
          wall_s=round(time.time() - t0, 3))
    print(json.dumps({"stage": "done", "out": args.out}), flush=True)
    return 0


if __name__ == "__main__":
    rc = main()
    import ray

    if ray.is_initialized():
        ray.shutdown()
    sys.exit(rc)
