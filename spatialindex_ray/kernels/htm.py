"""Vectorized HTM (Hierarchical Triangular Mesh) kernels.

From-scratch NumPy implementation of the HTM scheme (Szalay/Budavari/Fekete/
Gray; http://adsabs.harvard.edu/abs/2010PASP..122.1375B). Bit-exact parity
with the reference scalar C code is maintained by replicating its float
operation order — conformance targets:

- point encoder htm_v3_id:      /root/reference/lib/src/tinyhtm/src/htm.c:980-1033
- root selection:               htm.c:814-835
- subdivision scheme + tables:  htm.c:27-74,112-154
- id -> level:                  htm.c:1064-1084
- id -> triangle (tri_init):    htm.c:1087-1144
- id -> IRSA decimal (BASE4):   htm.c:1562-1579

The encoder loops over *levels*, not points, and keeps each batch as
struct-of-arrays: one contiguous row per (x/y/z component, vertex slot) of
the current triangles and their edge midpoints (see ``_workspace``). The
three midpoints, the three edge-plane normals and their dot products are
each one NumPy op over a (3, 3, N) block in the reference's float order, so
ids stay bit-identical. The child index is integer arithmetic on the three
sign tests, and the next level's vertices are one flat ``take`` per
component through a 4-children x 3-vertices slot table, not a chain of
``np.where``. Points go through all levels in bounded chunks.
``tri_geometry`` runs the same descent with the children read from the ids.

There is deliberately no module-level cache (of trixel tables or
workspaces). Workers import the package by name, so each worker process
would build its own copy; and where they cannot, the package is pickled by
value into every Ray task closure (``spatialindex_ray._udf_shipping``),
and the cache would travel with every task.
"""

from __future__ import annotations

import numpy as np

from . import vec

HTM_MAX_LEVEL = 24
HTM_DEC_MAX_LEVEL = 18

# The 6 fundamental vertices (htm.c:114-121).
_ROOT_V3 = np.array(
    [
        [0.0, 0.0, 1.0],   # Z
        [1.0, 0.0, 0.0],   # X
        [0.0, 1.0, 0.0],   # Y
        [-1.0, 0.0, 0.0],  # NX
        [0.0, -1.0, 0.0],  # NY
        [0.0, 0.0, -1.0],  # NZ
    ]
)
_Z, _X, _Y, _NX, _NY, _NZ = range(6)

# Vertex indices for the 8 root triangles S0..S3, N0..N3 (htm.c:132-141).
_ROOT_VERT = np.array(
    [
        [_X, _NZ, _Y],    # S0 (id 8)
        [_Y, _NZ, _NX],   # S1 (id 9)
        [_NX, _NZ, _NY],  # S2 (id 10)
        [_NY, _NZ, _X],   # S3 (id 11)
        [_X, _Z, _NY],    # N0 (id 12)
        [_NY, _Z, _NX],   # N1 (id 13)
        [_NX, _Z, _Y],    # N2 (id 14)
        [_Y, _Z, _X],     # N3 (id 15)
    ]
)

# Edge-normal indices for the 8 root triangles (htm.c:145-154).
_ROOT_EDGE = np.array(
    [
        [_Y, _X, _NZ],    # S0
        [_NX, _Y, _NZ],   # S1
        [_NY, _NX, _NZ],  # S2
        [_X, _NY, _NZ],   # S3
        [_NY, _X, _Z],    # N0
        [_NX, _NY, _Z],   # N1
        [_Y, _NX, _Z],    # N2
        [_X, _Y, _Z],     # N3
    ]
)

# (8, 3, 3): root triangle -> 3 vertices -> xyz
ROOT_TRI_VERTS = _ROOT_V3[_ROOT_VERT]
ROOT_TRI_EDGES = _ROOT_V3[_ROOT_EDGE]


def v3_root(v):
    """Vectorized root-triangle selection; mirrors _htm_v3_htmroot (htm.c:814-835).

    Returns uint8 root ordinals 0..7 (S0..S3, N0..N3); HTM id of a root is
    ``root + 8``.
    """
    v = np.asarray(v)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    south = np.where(
        y > 0.0,
        np.where(x > 0.0, 0, 1),
        np.where(y == 0.0, np.where(x >= 0.0, 0, 2), np.where(x < 0.0, 2, 3)),
    )
    north = np.where(
        y > 0.0,
        np.where(x > 0.0, 7, 6),
        np.where(y == 0.0, np.where(x >= 0.0, 7, 5), np.where(x < 0.0, 5, 4)),
    )
    return np.where(z < 0.0, south, north).astype(np.uint8)


# ------------------------------------------------------------ descent
# A batch of M triangles is a struct-of-arrays workspace ``ws`` of shape
# (3, 8, M): ws[c, s] is component c (x, y, z) of vertex slot s, one
# contiguous row per (component, slot). The slots hold the triangle and the
# midpoints of its edges, each ordered so that the three midpoints and the
# three edge-plane normals are single slice ops over (3, 3, M) blocks:
#   0-3  v2, v0, v1, v2        (v2 + v0, v0 + v1, v1 + v2 = sv1, sv2, sv0)
#   4-7  sv1, sv2, sv0, sv1    (edge k is rcross(slot 5+k, slot 4+k))
_V2, _V0, _V1, _SV1, _SV2, _SV0 = 0, 1, 2, 4, 5, 6
# Slots of the vertices (v0, v1, v2) of children 0-3 (htm.c:1005-1030) ...
_CHILD_VERTS = np.array(
    [
        [_V0, _SV2, _SV1],
        [_V1, _SV0, _SV2],
        [_V2, _SV1, _SV0],
        [_SV0, _SV1, _SV2],
    ]
)
# ... and the slots a child's workspace rows 0-3 (v2, v0, v1, v2) come from.
_CHILD_SLOTS = _CHILD_VERTS[:, [2, 0, 1, 2]]

# Points are encoded in chunks of at most this many rows. That bounds the
# working set of the two workspaces (384 bytes per row) and the per-level
# temporaries to a few MiB whatever the batch size; at 50,000 rows it is
# about 1.4x faster than one pass over the whole batch.
_CHUNK_ROWS = 8192


def _workspace(verts):
    """(M, 3, 3) triangles (v0, v1, v2) -> a new (3, 8, M) workspace."""
    ws = np.empty((3, 8, len(verts)))
    ws[:, 0:4] = verts[:, [2, 0, 1, 2]].transpose(2, 1, 0)
    return ws


def _split(ws):
    """Write the edge midpoints sv0 = mid(v1, v2), sv1 = mid(v2, v0),
    sv2 = mid(v0, v1) into ``ws``; _htm_vertex (htm.c:176-182): add, then
    divide by sqrt((x*x + y*y) + z*z)."""
    sv = ws[:, 4:7]
    np.add(ws[:, 0:3], ws[:, 1:4], out=sv)
    norm = sv[0] * sv[0]
    norm += sv[1] * sv[1]
    norm += sv[2] * sv[2]
    np.sqrt(norm, out=norm)
    sv /= norm
    ws[:, 7] = ws[:, 4]


def _edges(ws):
    """(3, 3, M) edge-plane normals e0 = rcross(sv2, sv1), e1 = rcross(sv0,
    sv2), e2 = rcross(sv1, sv0) (htm.c:997-1025), indexed [component, edge],
    with htm_v3_rcross's op order: rcross(a, b) = cross(b + a, b - a)
    (geometry.h:203-216)."""
    a, b = ws[:, 5:8], ws[:, 4:7]
    s = b + a
    d = b - a
    e = np.empty_like(s)
    np.subtract(s[1] * d[2], s[2] * d[1], out=e[0])
    np.subtract(s[2] * d[0], s[0] * d[2], out=e[1])
    np.subtract(s[0] * d[1], s[1] * d[0], out=e[2])
    return e


def _child(e, p):
    """uint8 child per point: the first edge k with cK = dot(e_k, p) >= 0,
    else 3 (htm.c:997-1031), as nc0 * (1 + nc1 * (1 + nc2)) with ncK = not
    cK. The C tests the edges lazily; testing all three for every point
    changes no value, only the amount of work."""
    d = e[0] * p[0]
    d += e[1] * p[1]
    d += e[2] * p[2]
    nc = d >= 0.0
    np.logical_not(nc, out=nc)
    nc = nc.view(np.uint8)
    return nc[0] * (1 + nc[1] * (1 + nc[2]))


def _select(ws, child, out):
    """Write the vertices of each triangle's ``child`` into out's slots 0-3:
    one flat take per component over ws's rows."""
    m = ws.shape[2]
    idx = np.take(_CHILD_SLOTS.T * m, child, axis=1)
    idx += np.arange(m)
    for c in range(3):
        np.take(ws[c], idx, out=out[c, 0:4], mode="clip")


def v3_id(points, level):
    """Vectorized HTM point encoder; bit-exact port of htm_v3_id (htm.c:980-1033).

    points: (N, 3) float64 unit vectors (or one (3,) vector). Returns (N,)
    int64 HTM ids at ``level``; zeros when level is outside 0..24.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[None, :]
    n = points.shape[0]
    if n == 0 or level < 0 or level > HTM_MAX_LEVEL:
        return np.zeros(n, dtype=np.int64)

    root = v3_root(points)
    ids = root.astype(np.int64) + 8
    chunks = -(-n // _CHUNK_ROWS)
    bounds = [n * k // chunks for k in range(chunks + 1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        p = np.ascontiguousarray(points[lo:hi].T)
        cid = ids[lo:hi]
        ws = _workspace(ROOT_TRI_VERTS[root[lo:hi]])
        nxt = np.empty_like(ws)
        for _ in range(level):
            _split(ws)
            child = _child(_edges(ws), p)
            cid <<= 2
            cid += child
            _select(ws, child, nxt)
            ws, nxt = nxt, ws
    return ids


def level_of(ids):
    """Vectorized htm_level (htm.c:1064-1084): id -> subdivision level, -1 if invalid."""
    from . import hashing

    ids = np.asarray(ids, dtype=np.int64)
    x = ids.astype(np.uint64).copy()
    for s in (1, 2, 4, 8, 16, 32):
        x |= x >> np.uint64(s)
    # popcount via a 16-bit LUT (4 gathers + add) — no per-element Python
    l = hashing.popcount64(x) - 4
    bad = (
        (ids < 8)
        | ((l & 1) != 0)
        | (((ids >> np.minimum(np.maximum(l, 0), 62)) & 0x8) == 0)
        | (l > HTM_MAX_LEVEL * 2)
    )
    return np.where(bad, -1, l // 2)


def id_to_dec(ids):
    """Vectorized htm_idtodec (htm.c:1562-1579): bit-packed id -> IRSA base-4
    decimal rendering (``spt_ind`` convention); 0 for invalid ids or level > 18.
    """
    ids = np.asarray(ids, dtype=np.int64)
    scalar = ids.ndim == 0
    ids = np.atleast_1d(ids)
    levels = level_of(ids)
    ok = (levels >= 0) & (levels <= HTM_DEC_MAX_LEVEL)
    dec = np.zeros_like(ids)
    factor = np.ones_like(ids)
    work = ids.copy()
    # peel level+1 base-4 digits; per-element loop count differs, so mask
    maxiter = int(levels.max()) + 1 if ok.any() else 0
    remaining = np.where(ok, levels + 1, 0)
    for _ in range(maxiter):
        act = remaining > 0
        dec = np.where(act, dec + factor * (work & 3), dec)
        work = np.where(act, work >> 2, work)
        factor = np.where(act, factor * 10, factor)
        remaining = np.where(act, remaining - 1, remaining)
    dec = np.where((work & 1) == 1, dec + 2 * factor, dec + factor)
    dec = np.where(ok, dec, 0)
    return int(dec[0]) if scalar else dec


def tri_geometry(ids):
    """Vectorized htm_tri_init (htm.c:1087-1144): ids (all the same level) ->
    (verts (N,3,3), center (N,3), radius_deg (N,)).

    Replays the subdivision path from the root with the same midpoint order
    as the reference, so vertices are bit-identical.
    """
    ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
    levels = level_of(ids)
    level = int(levels[0])
    if level < 0 or not (levels == level).all():
        raise ValueError("tri_geometry requires valid ids of a single level")
    shift = 2 * level
    ws = _workspace(ROOT_TRI_VERTS[(ids >> shift) & 0x7])
    nxt = np.empty_like(ws)
    for s in range(shift - 2, -1, -2):
        _split(ws)
        _select(ws, ((ids >> s) & 0x3).astype(np.uint8), nxt)
        ws, nxt = nxt, ws
    verts = np.ascontiguousarray(ws[:, [_V0, _V1, _V2]].transpose(2, 1, 0))
    v0, v1, v2 = verts[:, 0], verts[:, 1], verts[:, 2]
    vsum = v0 + v1
    vsum = vsum + v2
    center = vec.normalize(vsum)
    radius = vec.angsep(vsum, v0)
    return verts, center, radius
