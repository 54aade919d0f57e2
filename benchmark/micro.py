"""Ray-free per-core microbenchmarks of the kernels and the planner on fixed
arrays (independent of the run seed), so a kernel or cover regression points
at one function."""

from __future__ import annotations

import time

import numpy as np

import inputs

N_ROWS = 50_000
MIN_SECONDS = 0.25
LEVEL = 10


def _median_time(fn, min_seconds: float = MIN_SECONDS, min_reps: int = 3) -> float:
    times, t_end = [], time.perf_counter() + min_seconds
    while len(times) < min_reps or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def kernel_rates(n: int = N_ROWS) -> dict:
    """kernels.<name>.rows_per_s for the per-row kernels of the encode and
    filter paths."""
    from spatialindex_ray import SpatialIndex, ops
    from spatialindex_ray.kernels import healpix, htm
    from spatialindex_ray.sources import webpages

    tbl = webpages.synth_batch(np.arange(n), columns=["url"])
    urls = tbl["url"]
    lon, lat = ops.positions_from_url(urls)
    xyz = ops.xyz_from_lonlat(lon, lat)
    hpx = healpix.sky2hpx(20, lon, lat)
    plan = SpatialIndex().cone_plan(40.0, 20.0, 10.0, mode=1, level=LEVEL)
    shift = 2 * (20 - LEVEL)
    cases = {
        "sha1_positions": lambda: ops.positions_from_url(urls),
        "htm_v3_id": lambda: htm.v3_id(xyz, 20),
        "hpx_sky2hpx": lambda: healpix.sky2hpx(20, lon, lat),
        "hash64": lambda: ops.hash64_strings(urls),
        "encode_batch": lambda: ops.encode_batch(tbl, url_col="url"),
        "ranges_mask": lambda: ops.ranges_mask(hpx >> shift, plan["ranges"]),
        "region_mask": lambda: plan["region"].mask(xyz),
    }
    return {
        f"kernels.{k}.rows_per_s": n / _median_time(fn) for k, fn in cases.items()
    }


def _regions(rng, count: int):
    """Fixed mixed-size regions: (ra, dec, size) with size 0.5-5 degrees."""
    out = []
    for _ in range(count):
        ra = float(rng.uniform(0, 360))
        dec = float(np.degrees(np.arcsin(rng.uniform(-0.95, 0.95))))
        out.append((ra, dec, float(np.exp(rng.uniform(np.log(0.5), np.log(5.0))))))
    return out


def _square(ra, dec, size):
    """A square of half-diagonal ``size`` around (ra, dec), as vertex lists."""
    reg = inputs.Region("polygon", ra, dec, size, bearings=[0.0, 90.0, 180.0, 270.0])
    return reg.vra, reg.vdec


def cover_metrics(count: int = 8) -> dict:
    """cover.<kind>.plan_ms (median per call), gap_compress_ms,
    ranges_per_plan, candidate_ratio, spatial_index.search_ms and
    spatial_index.sql_bytes over a fixed set of regions at level 10."""
    from spatialindex_ray import SpatialIndex, cover, geom, ops
    from spatialindex_ray.kernels import healpix
    from spatialindex_ray.sources import webpages

    rng = np.random.default_rng(12345)
    regions = _regions(rng, count)
    squares = [_square(*r) for r in regions]
    cones = [geom.Cone(*r) for r in regions]
    polys = [geom.ConvexPolygon(ra, dec) for ra, dec in squares]
    ells = [
        geom.Ellipse.from_center(ra, dec, s, 0.5 * s, 30.0) for ra, dec, s in regions
    ]
    calls = {
        "htm_cone": [lambda c=c: cover.htm_circle_ranges(c.center, c.radius, LEVEL) for c in cones],
        "hpx_cone": [lambda c=c: cover.hpx_cone_ranges(LEVEL, c.ra, c.dec, c.radius) for c in cones],
        "htm_polygon": [lambda p=p: cover.htm_polygon_ranges(p, LEVEL) for p in polys],
        "hpx_polygon": [lambda s=s: cover.hpx_polygon_ranges(LEVEL, s[0], s[1]) for s in squares],
        "htm_ellipse": [lambda e=e: cover.htm_ellipse_ranges(e, LEVEL) for e in ells],
    }
    out = {}
    raw = []
    for kind, fns in calls.items():
        out[f"cover.{kind}.plan_ms"] = 1e3 * float(
            np.median([_median_time(f, 0.0, 2) for f in fns])
        )
        raw.extend(f() for f in fns)
    out["cover.gap_compress_ms"] = 1e3 * float(
        np.median([_median_time(lambda r=r: cover.gap_compress(r), 0.0, 3) for r in raw])
    )
    out["cover.ranges_per_plan"] = float(np.mean([len(cover.gap_compress(r)) for r in raw]))

    # candidate ratio: rows passing the range prefilter / exact hits, on the
    # same fixed points the kernel rates use, HEALPix plans at level 10
    tbl = webpages.synth_batch(np.arange(N_ROWS), columns=["url"])
    lon, lat = ops.positions_from_url(tbl["url"])
    xyz = ops.xyz_from_lonlat(lon, lat)
    hpx = healpix.sky2hpx(20, lon, lat) >> (2 * (20 - LEVEL))
    si = SpatialIndex()
    cand = exact = 0
    for (ra, dec, s), (pra, pdec) in zip(regions, squares):
        for plan in (
            si.cone_plan(ra, dec, s, mode=1, level=LEVEL),
            si.polygon_plan(pra, pdec, mode=1, level=LEVEL),
        ):
            cand += int(ops.ranges_mask(hpx, plan["ranges"]).sum())
            exact += int(plan["region"].mask(xyz).sum())
    out["cover.candidate_ratio"] = cand / max(exact, 1)

    searches = [
        lambda r=r: si.cone_search(r[0], r[1], r[2], mode=0, level=LEVEL) for r in regions
    ] + [
        lambda s=s: si.polygon_search(len(s[0]), s[0], s[1], mode=0, level=LEVEL)
        for s in squares
    ]
    out["spatial_index.search_ms"] = 1e3 * float(
        np.median([_median_time(f, 0.0, 2) for f in searches])
    )
    sql = [f() for f in searches]
    out["spatial_index.sql_bytes"] = float(
        np.mean([len(r["index_constraint"]) + len(r["geom_constraint"]) for r in sql])
    )
    return out
