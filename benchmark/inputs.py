"""Seeded benchmark inputs and their Ray-free reference answers.

Everything here is a pure function of the seed. The pages come from
``sources.webpages.synth_batch`` at a seed-derived row offset; query centres
and shapes come from ``numpy.random.default_rng(seed)``. The references never
touch Ray or the engine's encode path: sky positions are re-derived from
``hashlib.sha1(url)`` (FIXTURES.md section 1) and every count is plain NumPy.
"""

from __future__ import annotations

import hashlib
import math
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

RAD = math.pi / 180.0
TWO64 = 18446744073709551616.0


# ------------------------------------------------------------------ pages
def page_offset(seed: int) -> int:
    """Global row index of the first page for this seed (the synth rows are
    a pure function of their index, so the offset is the input identity)."""
    return int(np.random.default_rng([seed, 0]).integers(0, 10**9))


def make_pages(seed: int, n: int, hot_frac: float):
    from spatialindex_ray.sources import webpages

    idx = np.arange(page_offset(seed), page_offset(seed) + n, dtype=np.int64)
    return webpages.synth_batch(idx, hot_frac=hot_frac, columns=["url", "lang"])


def write_pages(table: pa.Table, out_dir: str, n_files: int) -> list[str]:
    """Split the pages into ``n_files`` Parquet files; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    per = -(-table.num_rows // n_files)
    files = []
    for k in range(n_files):
        path = os.path.join(out_dir, f"part-{k:03d}.parquet")
        pq.write_table(table.slice(k * per, per), path)
        files.append(path)
    return files


class Points:
    """Reference sky positions of the pages, derived from the urls alone."""

    def __init__(self, urls: list[str]):
        raw = np.array(
            [
                [int.from_bytes(d[0:8], "big"), int.from_bytes(d[8:16], "big")]
                for d in (hashlib.sha1(u.encode()).digest() for u in urls)
            ],
            dtype=np.uint64,
        ).reshape(-1, 2)
        u = raw.astype(np.float64) / TWO64
        self.lon = 360.0 * u[:, 0]
        self.lat = np.degrees(np.arcsin(2.0 * u[:, 1] - 1.0))
        self.xyz = unit_vectors(self.lon, self.lat)

    def __len__(self):
        return len(self.lon)


def unit_vectors(lon_deg, lat_deg) -> np.ndarray:
    lon = np.asarray(lon_deg, dtype=np.float64) * RAD
    lat = np.asarray(lat_deg, dtype=np.float64) * RAD
    v = np.column_stack(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)]
    )
    return v / np.linalg.norm(v, axis=1)[:, None]


# --------------------------------------------------------------- regions
def _basis(ra: float, dec: float):
    """Centre vector plus the local north/east unit vectors."""
    c = unit_vectors([ra], [dec])[0]
    north = np.array([-c[0] * c[2], -c[1] * c[2], c[0] ** 2 + c[1] ** 2])
    north /= np.linalg.norm(north)
    east = np.cross(north, c)
    return c, north, east / np.linalg.norm(east)


def _radec(v: np.ndarray):
    v = np.atleast_2d(v)
    lon = np.degrees(np.arctan2(v[:, 1], v[:, 0])) % 360.0
    lat = np.degrees(np.arcsin(np.clip(v[:, 2], -1.0, 1.0)))
    return lon, lat


class Region:
    """A query region with its own membership test and an inside-sampler.

    kind 'cone': (ra, dec, radius); 'polygon': vertices on a small circle of
    radius ``size`` at sorted random bearings (so it is convex); 'ellipse':
    semi-axes (a, b) and position angle, in the engine's north/east frame.
    """

    def __init__(self, kind, ra, dec, size, *, bearings=None, b=None, angle=0.0):
        self.kind, self.ra, self.dec, self.size = kind, ra, dec, size
        self.c, north, east = _basis(ra, dec)
        if kind == "polygon":
            th = np.asarray(bearings) * RAD
            d = np.cos(th)[:, None] * north + np.sin(th)[:, None] * east
            verts = math.cos(size * RAD) * self.c + math.sin(size * RAD) * d
            self.verts = verts / np.linalg.norm(verts, axis=1)[:, None]
            self.vra, self.vdec = (a.tolist() for a in _radec(self.verts))
            nrm = np.cross(self.verts, np.roll(self.verts, -1, axis=0))
            if nrm[0] @ self.c < 0:
                nrm = -nrm
            self.normals = nrm / np.linalg.norm(nrm, axis=1)[:, None]
        elif kind == "ellipse":
            self.b, self.angle = b, angle
            s, co = math.sin(angle * RAD), math.cos(angle * RAD)
            self.nvec = north * co - east * s
            self.evec = north * s + east * co

    def contains(self, xyz: np.ndarray) -> np.ndarray:
        if self.kind == "cone":
            return xyz @ self.c >= math.cos(self.size * RAD)
        if self.kind == "polygon":
            return np.all(xyz @ self.normals.T >= 0.0, axis=1)
        cz = xyz @ self.c
        ta, tb = math.tan(self.size * RAD), math.tan(self.b * RAD)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (xyz @ self.nvec) / (cz * ta)
            w = (xyz @ self.evec) / (cz * tb)
        return (cz > 0) & (u * u + w * w <= 1.0)

    def sample_inside(self, rng, n: int) -> np.ndarray:
        """``n`` unit vectors strictly inside the region (margin 0.1% of its
        size, so a 12-digit SQL rendering of the predicate still admits
        them)."""
        c, north, east = _basis(self.ra, self.dec)
        if self.kind == "ellipse":
            r = 0.999 * np.sqrt(rng.random(n))
            t = rng.random(n) * 2 * math.pi
            v = (
                c
                + (math.tan(self.size * RAD) * r * np.cos(t))[:, None] * self.nvec
                + (math.tan(self.b * RAD) * r * np.sin(t))[:, None] * self.evec
            )
            return v / np.linalg.norm(v, axis=1)[:, None]
        out = []
        while sum(len(o) for o in out) < n:
            # uniform in the circumscribed cap, radius 0.999 * size
            cosr = math.cos(0.999 * self.size * RAD)
            z = 1.0 - rng.random(4 * n) * (1.0 - cosr)
            t = rng.random(4 * n) * 2 * math.pi
            s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            v = (
                z[:, None] * c
                + (s * np.cos(t))[:, None] * north
                + (s * np.sin(t))[:, None] * east
            )
            if self.kind == "polygon":
                v = v[np.all(v @ self.normals.T >= 1e-9, axis=1)]
            out.append(v)
        return np.concatenate(out)[:n]


def random_centre(rng):
    ra = float(rng.uniform(0.0, 360.0))
    dec = float(np.degrees(np.arcsin(rng.uniform(-0.98, 0.98))))
    return ra, dec


def random_region(rng, kind: str, size: float) -> Region:
    ra, dec = random_centre(rng)
    if kind == "cone":
        return Region("cone", ra, dec, size)
    if kind == "polygon":
        n = int(rng.integers(3, 7))
        # gaps within 25:35 of each other: none under 40 or over 150 degrees
        gaps = 25.0 + rng.random(n) * 10.0
        gaps = gaps / gaps.sum() * 360.0
        bearings = (float(rng.uniform(0, 360)) + np.concatenate([[0], np.cumsum(gaps[:-1])])) % 360.0
        return Region("polygon", ra, dec, size, bearings=np.sort(bearings))
    b = size * float(rng.uniform(0.3, 0.9))
    return Region("ellipse", ra, dec, size, b=b, angle=float(rng.uniform(0, 180)))


# ------------------------------------------------------- plan_sql stream
PLAN_KINDS = (("cone", 0), ("cone", 1), ("polygon", 0), ("polygon", 1), ("ellipse", 0))
PLAN_LEVELS = (8, 10, 12)
PLAN_SIZE_BINS = ((0.05, 0.06), (0.3, 0.36), (1.5, 1.8), (6.6, 8.0))
PLAN_CYCLE_LEN = len(PLAN_KINDS) * len(PLAN_LEVELS) * len(PLAN_SIZE_BINS)


def plan_cycle(rng) -> list[dict]:
    """One stratified cycle of the plan_sql stream: every (kind, mode) x
    level x size bin once, in a shuffled order. Cycling a fixed design keeps
    the per-run query mix, and so the run's cost, independent of the seed;
    the seed moves centres, shapes and exact sizes."""
    out = []
    for kind, mode in PLAN_KINDS:
        for level in PLAN_LEVELS:
            for lo, hi in PLAN_SIZE_BINS:
                size = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
                out.append(
                    {"region": random_region(rng, kind, size), "mode": mode, "level": level}
                )
    return [out[i] for i in rng.permutation(len(out))]


# ------------------------------------------------------------ references
def cells_of(xyz: np.ndarray, mode: int, level: int) -> np.ndarray:
    """Cell ids of unit vectors at ``level`` (HTM for mode 0, HEALPix-nested
    for mode 1), straight from the kernels."""
    from spatialindex_ray.kernels import healpix, htm

    if mode == 0:
        return htm.v3_id(xyz, level)
    lon, lat = _radec(xyz)
    return healpix.sky2hpx(level, lon, lat)


def in_ranges(cells: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    ranges = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
    if len(ranges) == 0:
        return np.zeros(len(cells), dtype=bool)
    i = np.searchsorted(ranges[:, 0], cells, side="right") - 1
    ok = i >= 0
    out = np.zeros(len(cells), dtype=bool)
    out[ok] = cells[ok] <= ranges[i[ok], 1]
    return out


_TERM = re.compile(r"\((\w+) (?:= (\d+)|BETWEEN (\d+) AND (\d+))\)")
_HALF = re.compile(
    r"\(([-\d.e+]+)\*x\)\+\(([-\d.e+]+)\*y\)\+\(([-\d.e+]+)\*z\)>=([-\d.e+]+)"
)


def base4_to_id(dec: int) -> int:
    """Invert the IRSA base-4 rendering of an HTM id: a leading 1 (south) or
    2 (north), then one base-4 digit per 2-bit group below the hemisphere
    bit (root triangle first)."""
    digits = str(dec)
    v = 2 | (int(digits[0]) - 1)
    for ch in digits[1:]:
        v = (v << 2) | int(ch)
    return v


def sql_ranges(index_constraint: str, mode: int) -> np.ndarray:
    terms = []
    for _, eq, lo, hi in _TERM.findall(index_constraint):
        a, b = (int(eq), int(eq)) if eq else (int(lo), int(hi))
        if mode == 0:
            a, b = base4_to_id(a), base4_to_id(b)
        terms.append((a, b))
    return np.array(sorted(terms), dtype=np.int64).reshape(-1, 2)


def sql_geom_ok(geom_constraint: str, xyz: np.ndarray) -> np.ndarray:
    ok = np.ones(len(xyz), dtype=bool)
    for cx, cy, cz, lim in _HALF.findall(geom_constraint):
        ok &= (
            xyz[:, 0] * float(cx) + xyz[:, 1] * float(cy) + xyz[:, 2] * float(cz)
        ) >= float(lim)
    return ok


def pair_count(xyz: np.ndarray, radius_deg: float) -> int:
    """Ordered pairs (self pairs included) within ``radius_deg``: z-sorted
    band search, the exact secant test of the engine's join predicate."""
    s = math.sin(radius_deg * 0.5 * RAD)
    thresh = 4.0 * s * s
    chord = math.sqrt(thresh)
    order = np.argsort(xyz[:, 2], kind="stable")
    p = xyz[order]
    lo = np.searchsorted(p[:, 2], p[:, 2] - chord, side="left")
    hi = np.searchsorted(p[:, 2], p[:, 2] + chord, side="right")
    cnt = hi - lo
    i = np.repeat(np.arange(len(p)), cnt)
    j = lo[i] + (np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt))
    d = p[i] - p[j]
    return int(np.count_nonzero((d * d).sum(axis=1) <= thresh))


def tile_histogram(lon: np.ndarray, lat: np.ndarray, tile_deg: float) -> dict:
    nx = int(math.ceil(360.0 / tile_deg))
    t = np.floor((lat + 90.0) / tile_deg).astype(np.int64) * nx + np.floor(
        lon / tile_deg
    ).astype(np.int64)
    ids, cnt = np.unique(t, return_counts=True)
    return {"tiles": int(len(ids)), "rows": int(cnt.sum()), "max": int(cnt.max())}
