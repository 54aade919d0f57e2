"""Conformance of the vectorized kernels against captured reference vectors
(tests/fixtures/reference_conformance.json, produced by the compiled
Caltech-IPAC/SpatialIndex build — see FIXTURES.md)."""

import itertools
import json
import math
import os

import numpy as np
import pytest

from spatialindex_ray.kernels import healpix, htm, vec

FIX = json.load(
    open(os.path.join(os.path.dirname(__file__), "fixtures", "reference_conformance.json"))
)


@pytest.fixture(scope="module")
def points():
    ra = np.array([float(p["ra"]) for p in FIX["points"]])
    dec = np.array([float(p["dec"]) for p in FIX["points"]])
    return ra, dec


def test_sc_to_v3_bit_exact(points):
    """x,y,z match the reference's 17-significant-digit CSV output exactly."""
    ra, dec = points
    v = vec.normalize(vec.sc_to_v3(ra, dec))
    for i, p in enumerate(FIX["points"]):
        assert f"{v[i,0]:.17f}" == p["x"], (p["ra"], p["dec"])
        assert f"{v[i,1]:.17f}" == p["y"]
        assert f"{v[i,2]:.17f}" == p["z"]


def test_htm_encoder_bit_exact(points):
    ra, dec = points
    v = vec.normalize(vec.sc_to_v3(ra, dec))
    got7 = htm.v3_id(v, 7)
    got20 = htm.v3_id(v, 20)
    exp7 = np.array([p["htm7"] for p in FIX["points"]])
    exp20 = np.array([p["htm20"] for p in FIX["points"]])
    np.testing.assert_array_equal(got7, exp7)
    np.testing.assert_array_equal(got20, exp20)


def test_hpx_encoder_bit_exact(points):
    ra, dec = points
    got7 = healpix.sky2hpx(7, ra, dec)
    got20 = healpix.sky2hpx(20, ra, dec)
    exp7 = np.array([p["hpx7"] for p in FIX["points"]])
    exp20 = np.array([p["hpx20"] for p in FIX["points"]])
    np.testing.assert_array_equal(got7, exp7)
    np.testing.assert_array_equal(got20, exp20)


def test_coarse_level_by_shift(points):
    """htm20 >> 26 == htm7 and hpx20 >> 26 == hpx7 (store finest, derive coarse)."""
    ra, dec = points
    v = vec.normalize(vec.sc_to_v3(ra, dec))
    assert (htm.v3_id(v, 20) >> 26 == htm.v3_id(v, 7)).all()
    assert (healpix.sky2hpx(20, ra, dec) >> 26 == healpix.sky2hpx(7, ra, dec)).all()


def test_id_to_dec_goldens():
    ids = np.array([258749, 245105, 8, 15, 16448732312323])
    np.testing.assert_array_equal(
        htm.id_to_dec(ids), [233022331, 223311301, 10, 23, 0]
    )


def test_level_of():
    assert htm.level_of([8])[0] == 0
    assert htm.level_of([258749])[0] == 7
    assert htm.level_of([16448732312323])[0] == 20
    assert htm.level_of([3])[0] == -1


def test_tri_contains_own_point():
    """Encode<->geometry roundtrip: each point lies inside its own trixel
    (all three edge-plane dots >= 0) — property test per FIXTURES.md §6."""
    rng = np.random.default_rng(42)
    n = 2000
    lon = rng.uniform(0, 360, n)
    lat = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
    v = vec.normalize(vec.sc_to_v3(lon, lat))
    for level in (3, 7, 11):
        ids = htm.v3_id(v, level)
        verts, center, radius = htm.tri_geometry(ids)
        # edge plane normals via rcross of consecutive vertices
        e0 = vec.rcross(verts[:, 0], verts[:, 1])
        e1 = vec.rcross(verts[:, 1], verts[:, 2])
        e2 = vec.rcross(verts[:, 2], verts[:, 0])
        assert (vec.dot(e0, v) >= -1e-12).all()
        assert (vec.dot(e1, v) >= -1e-12).all()
        assert (vec.dot(e2, v) >= -1e-12).all()


# ----------------------------------------------- scalar htm_v3_id oracle
# A plain-float port of htm_v3_id (htm.c:980-1033), independent of the
# vectorized encoder: lazy edge tests in the C's order (sv0 and the later
# edges are only computed when the earlier tests fail) and the C's float
# op order in _htm_vertex, htm_v3_rcross and htm_v3_dot.
_Z, _X, _Y = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
_NX, _NY, _NZ = (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)
_ROOTS = [  # S0..S3, N0..N3 (htm.c:132-141)
    (_X, _NZ, _Y), (_Y, _NZ, _NX), (_NX, _NZ, _NY), (_NY, _NZ, _X),
    (_X, _Z, _NY), (_NY, _Z, _NX), (_NX, _Z, _Y), (_Y, _Z, _X),
]


def _scalar_root(x, y, z):
    """_htm_v3_htmroot (htm.c:814-835)."""
    if z < 0.0:
        if y > 0.0:
            return 0 if x > 0.0 else 1
        if y == 0.0:
            return 0 if x >= 0.0 else 2
        return 2 if x < 0.0 else 3
    if y > 0.0:
        return 7 if x > 0.0 else 6
    if y == 0.0:
        return 7 if x >= 0.0 else 5
    return 5 if x < 0.0 else 4


def _vertex(a, b):
    x, y, z = a[0] + b[0], a[1] + b[1], a[2] + b[2]
    norm = math.sqrt(x * x + y * y + z * z)
    return (x / norm, y / norm, z / norm)


def _rcross_dot(v1, v2, p):
    x1, x2 = v2[0] + v1[0], v2[0] - v1[0]
    y1, y2 = v2[1] + v1[1], v2[1] - v1[1]
    z1, z2 = v2[2] + v1[2], v2[2] - v1[2]
    e = (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
    return e[0] * p[0] + e[1] * p[1] + e[2] * p[2]


def _scalar_descent(p, level):
    """[(id, (v0, v1, v2)) after levels 0..level] for one point p."""
    r = _scalar_root(*p)
    v0, v1, v2 = _ROOTS[r]
    hid = r + 8
    path = [(hid, (v0, v1, v2))]
    for _ in range(level):
        sv1 = _vertex(v2, v0)
        sv2 = _vertex(v0, v1)
        if _rcross_dot(sv2, sv1, p) >= 0:
            v1, v2, child = sv2, sv1, 0
        else:
            sv0 = _vertex(v1, v2)
            if _rcross_dot(sv0, sv2, p) >= 0:
                v0, v1, v2, child = v1, sv0, sv2, 1
            elif _rcross_dot(sv1, sv0, p) >= 0:
                v0, v1, v2, child = v2, sv1, sv0, 2
            else:
                v0, v1, v2, child = sv0, sv1, sv2, 3
        hid = (hid << 2) + child
        path.append((hid, (v0, v1, v2)))
    return path


EDGE_LEVELS = (0, 1, 3, 4, 5, 7, 12, 20, 24)


@pytest.fixture(scope="module")
def edge_points(points):
    """Goldens, trixel vertices and centres (points on and next to edge
    planes), the six axis points, signed-zero components, random points."""
    ra, dec = points
    parts = [vec.normalize(vec.sc_to_v3(ra, dec))]
    rng = np.random.default_rng(7)
    for level in range(1, 13):
        ids = rng.integers(8 << 2 * level, 16 << 2 * level, 64)
        verts, center, _ = htm.tri_geometry(ids)
        parts += [verts.reshape(-1, 3), center]
    axes = np.vstack([np.eye(3), -np.eye(3)])
    planar = [(a, b, 0.0) for a, b in ((0.6, 0.8), (0.8, -0.6), (-0.28, 0.96))]
    bases = np.vstack([axes] + [np.roll(planar, k, axis=1) for k in range(3)])
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=3)))
    parts += [axes, (bases[:, None, :] * signs).reshape(-1, 3)]  # 0.0 * -1 = -0.0
    lon = rng.uniform(0, 360, 1500)
    lat = np.degrees(np.arcsin(rng.uniform(-1, 1, 1500)))
    parts.append(vec.normalize(vec.sc_to_v3(lon, lat)))
    pts = np.ascontiguousarray(np.vstack(parts))
    paths = [_scalar_descent(tuple(p), max(EDGE_LEVELS)) for p in pts.tolist()]
    oracle = np.array([[hid for hid, _ in path] for path in paths], dtype=np.int64)
    return pts, oracle


def test_htm_encoder_matches_scalar_oracle(edge_points):
    """Bit-exact edge-plane decisions at every listed level, for one batch,
    a batch split into chunks (over the chunk size) and small batches."""
    pts, oracle = edge_points
    tiled = np.tile(pts, (-(-(htm._CHUNK_ROWS + 1) // len(pts)), 1))
    small = np.random.default_rng(3).choice(len(pts), 256, replace=False)
    assert (np.signbit(pts) & (pts == 0.0)).any()
    for level in EDGE_LEVELS:
        want = oracle[:, level]
        np.testing.assert_array_equal(htm.v3_id(pts, level), want, err_msg=str(level))
        got = htm.v3_id(tiled, level)
        np.testing.assert_array_equal(got, np.resize(want, len(tiled)), err_msg=str(level))
        got = np.concatenate([htm.v3_id(b, level) for b in np.split(pts[small], 32)])
        np.testing.assert_array_equal(got, want[small], err_msg=str(level))


def test_htm_encoder_shapes():
    """One 1-D point, an empty batch, and levels outside 0..24 (zeros)."""
    p = np.array([0.6, 0.0, 0.8])
    want = _scalar_descent(tuple(p), 20)[20][0]
    assert htm.v3_id(p, 20).tolist() == [want]
    empty = htm.v3_id(np.zeros((0, 3)), 20)
    assert empty.dtype == np.int64 and empty.shape == (0,)
    for level in (-1, htm.HTM_MAX_LEVEL + 1):
        out = htm.v3_id(np.tile(p, (3, 1)), level)
        assert out.dtype == np.int64 and out.tolist() == [0, 0, 0]


def test_tri_geometry_matches_scalar_oracle():
    """tri_geometry's vertices are the oracle's final vertices, bit for bit."""
    rng = np.random.default_rng(11)
    lon = rng.uniform(0, 360, 2000)
    lat = np.degrees(np.arcsin(rng.uniform(-1, 1, 2000)))
    pts = vec.normalize(vec.sc_to_v3(lon, lat))
    paths = [_scalar_descent(tuple(p), 11) for p in pts.tolist()]
    for level in (3, 7, 11):
        ids = htm.v3_id(pts, level)
        verts, _, _ = htm.tri_geometry(ids)
        want = np.array([path[level][1] for path in paths])
        assert [path[level][0] for path in paths] == ids.tolist()
        np.testing.assert_array_equal(verts.view(np.uint64), want.view(np.uint64))


def test_encode_udf_pickles_small():
    """The closures ops.encode and ops.region_search hand to map_batches
    name the engine's functions instead of carrying their code (about
    190 KB by value), and stay small after the encoder has run in the
    calling process, so no kernel cache ends up in every task."""
    cloudpickle = pytest.importorskip("ray.cloudpickle")
    from spatialindex_ray import SpatialIndex, ops

    rng = np.random.default_rng(0)
    htm.v3_id(vec.normalize(rng.normal(size=(50_000, 3))), 20)

    class Capture:
        def map_batches(self, fn, **kw):
            self.fn = fn
            return self

    udf = ops.encode(Capture(), url_col="url").fn
    assert len(cloudpickle.dumps(udf)) < 16 * 1024
    plan = SpatialIndex().cone_plan(129.4, 43.7, 0.5, mode=1, level=10)
    udf = ops.region_search(Capture(), plan).fn
    assert len(cloudpickle.dumps(udf)) < 16 * 1024


def test_hpx_roundtrip_center():
    """pix2loc(sky2hpx(center)) stays in the same pixel."""
    for order in (3, 7, 12):
        npix = 12 << (2 * order)
        rng = np.random.default_rng(1)
        pix = rng.integers(0, npix, 500)
        z, phi = healpix.pix2loc(order, pix)
        lat = 90.0 - np.degrees(np.arccos(z))
        lon = np.degrees(phi)
        back = healpix.sky2hpx(order, lon, lat)
        np.testing.assert_array_equal(back, pix)


def test_hpx_neighbors():
    """Every neighbor's center is within 3x the max pixel radius; pixel is a
    neighbor of its neighbors (symmetry) where both sides exist."""
    order = 6
    npix = 12 << (2 * order)
    rng = np.random.default_rng(2)
    pix = rng.integers(0, npix, 300)
    nbrs = healpix.neighbors(order, pix)
    maxrad = healpix.max_pix_rad(order)
    c = healpix.pix2v3(order, pix)
    for m in range(8):
        valid = nbrs[:, m] >= 0
        vc = healpix.pix2v3(order, nbrs[valid, m])
        sep = np.degrees(
            2 * np.arcsin(np.sqrt(vec.dist2(c[valid], vc)) / 2.0)
        )
        assert (sep <= 3.1 * np.degrees(maxrad)).all()
    # symmetry
    flat = nbrs[:50].ravel()
    flat = flat[flat >= 0]
    back = healpix.neighbors(order, flat)
    for i, p in enumerate(pix[:50]):
        mine = nbrs[i][nbrs[i] >= 0]
        for q in mine:
            row = back[np.where(flat == q)[0][0]]
            assert p in row


class TestS2:
    def test_leaf_roundtrip_and_containment(self):
        from spatialindex_ray.kernels import s2

        rng = np.random.RandomState(1)
        v = rng.normal(size=(5000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        leaf = s2.cellid_from_xyz(v)
        assert leaf.dtype == np.uint64
        assert (s2.cellid_level(leaf) == 30).all()
        assert (s2.cellid_from_xyz(s2.cellid_to_center_xyz(leaf)) == leaf).all()
        for L in (0, 4, 11, 19):
            cl = s2.cellid_from_xyz(v, L)
            assert (s2.cellid_level(cl) == L).all()
            lo, hi = s2.cellid_range(cl)
            assert ((leaf >= lo) & (leaf <= hi)).all()
            assert (s2.cellid_from_xyz(s2.cellid_to_center_xyz(cl), L) == cl).all()

    def test_known_cell_ids(self):
        from spatialindex_ray.kernels import s2

        # face centers at level 0: canonical ids face << 61 | 2^60
        axes = np.array(
            [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0],
             [-1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]
        )
        ids = s2.cellid_from_xyz(axes, 0)
        exp = np.array([(f << 61) | (1 << 60) for f in range(6)], dtype=np.uint64)
        assert (ids == exp).all()

    def test_cap_cover_superset(self):
        from spatialindex_ray import ops
        from spatialindex_ray.kernels import s2

        rng = np.random.RandomState(2)
        v = rng.normal(size=(20000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        leaf = s2.cellid_from_xyz(v)
        for seed in range(5):
            r2 = np.random.RandomState(seed)
            c = r2.normal(size=3)
            c /= np.linalg.norm(c)
            rad = np.radians(float(r2.uniform(0.5, 20.0)))
            ranges = s2.cap_cover_ranges(c, rad, 8)
            inside = (v @ c) >= np.cos(rad)
            m = ops.ranges_mask(leaf, ranges)
            assert not (inside & ~m).any()


class TestHexGrid:
    def test_partition_and_roundtrip(self):
        from spatialindex_ray.kernels import hexgrid as hg

        rng = np.random.RandomState(5)
        v = rng.normal(size=(20000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        for res in (2, 5, 8):
            ids = hg.xyz_to_cell(v, res)
            assert ids.dtype == np.uint64
            r, f, q, rr = hg.cell_to_parts(ids)
            assert (r == res).all()
            assert ((f >= 0) & (f < 20)).all()
            # determinism
            assert (hg.xyz_to_cell(v, res) == ids).all()
            # interior-cell center roundtrip (face-boundary cells are
            # clipped by design — see module docstring)
            uniq = np.unique(ids)
            back = hg.xyz_to_cell(hg.cell_center_xyz(uniq), res)
            # boundary slivers are a larger share at coarse res
            assert (back == uniq).mean() > (0.9 if res <= 3 else 0.95)

    def test_resolution_refines(self):
        from spatialindex_ray.kernels import hexgrid as hg

        rng = np.random.RandomState(6)
        v = rng.normal(size=(50000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        n1 = len(np.unique(hg.xyz_to_cell(v, 1)))
        n2 = len(np.unique(hg.xyz_to_cell(v, 2)))
        # aperture 7: each res multiplies cell count ~7x (boundary slivers
        # push it a bit above; use coarse resolutions so 50k samples don't
        # saturate the cell population)
        assert 5.0 < n2 / n1 < 9.5

    def test_neighbors_ring(self):
        from spatialindex_ray.kernels import hexgrid as hg

        rng = np.random.RandomState(7)
        v = rng.normal(size=(50, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        ids = hg.xyz_to_cell(v, 6)
        nb = hg.neighbors(ids)
        ctr = hg.cell_center_xyz(ids)
        for k in range(6):
            nc = hg.cell_center_xyz(nb[:, k])
            d = np.degrees(np.arccos(np.clip((ctr * nc).sum(axis=1), -1, 1)))
            assert (d > 0).all() and (d < 1.0).all()

    def test_neighbors_stitched(self):
        from spatialindex_ray.kernels import hexgrid as hg

        rng = np.random.RandomState(8)
        v = rng.normal(size=(20000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        res = 4
        ids = np.unique(hg.xyz_to_cell(v, res))
        raw = hg.neighbors(ids, stitch=False)
        st = hg.neighbors(ids, stitch=True)
        # interior cells (all raw neighbors same-face AND real): stitching
        # is the identity there
        _, f0, _, _ = hg.cell_to_parts(ids)
        interior = (raw == st).all(axis=1)
        assert interior.mean() > 0.5  # most cells are interior
        # every stitched id is REAL: it owns its probe direction, so it must
        # appear when encoding a dense sample -> all stitched ids of sampled
        # cells are *encodable* (contain at least their own probe). Verify
        # via geometry: stitched centers stay within 2.5 hex pitches.
        ctr = hg.cell_center_xyz(ids)
        pitch = np.degrees(hg._RES0_SCALE / (hg._SQRT7 ** res))
        for k in range(6):
            nc = hg.cell_center_xyz(st[:, k])
            d = np.degrees(np.arccos(np.clip((ctr * nc).sum(axis=1), -1, 1)))
            assert (d < 3.0 * pitch).all()
        # boundary cells get at least one cross-face neighbor
        bmask = ~interior
        assert bmask.any()
        _, fn, _, _ = hg.cell_to_parts(st[bmask].ravel())
        cross = (fn.reshape(-1, 6) != f0[bmask][:, None]).any(axis=1)
        assert cross.mean() > 0.5
        # stitched neighborhood is mostly symmetric (clipped slivers may
        # break it for a few cells)
        idset = {}
        for i, cid in enumerate(ids):
            idset[int(cid)] = i
        sym = 0
        tot = 0
        for i in range(len(ids)):
            for k in range(6):
                j = idset.get(int(st[i, k]))
                if j is None:
                    continue
                tot += 1
                if ids[i] in st[j]:
                    sym += 1
        assert tot > 0 and sym / tot > 0.9
