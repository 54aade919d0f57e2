"""Round-5 kernel-level properties (the oracle gate in test_engine.py
covers every wave end-to-end; these pin the helper algebra directly)."""

import numpy as np
import pytest

import __ray_entry__ as entry


def _brute_lev(a: str, b: str) -> int:
    d = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        prev = d[0]
        d[0] = i
        for j in range(1, len(b) + 1):
            cur = d[j]
            d[j] = min(d[j] + 1, d[j - 1] + 1,
                       prev + (a[i - 1] != b[j - 1]))
            prev = cur
    return d[len(b)]


def test_lev_dp_matches_brute():
    cases = [
        ("kitten", "sitting"), ("", "abc"), ("abc", ""), ("same", "same"),
        ("a", "b"), ("forest green antique", "forest blue antique"),
        ("xy", "yx"), ("aaaa", "aa"),
    ]
    a = np.asarray([c[0] for c in cases], dtype=object)
    b = np.asarray([c[1] for c in cases], dtype=object)
    got = entry._lev_dp(a, b)
    exp = [_brute_lev(x, y) for x, y in cases]
    assert got.tolist() == exp


def test_lev_dp_empty():
    assert entry._lev_dp(
        np.asarray([], dtype=object), np.asarray([], dtype=object)
    ).tolist() == []


def test_hilbert_beats_scanline_locality():
    """The wave-151 audit's premise: on a random lattice sample, Hilbert
    consecutive-key distances are no worse than row-major scanline ones
    in total."""
    from spatialindex_ray.kernels import hilbert as hbk

    rng = np.random.RandomState(3)
    x = rng.randint(0, 1024, size=4000).astype(np.int64)
    y = rng.randint(0, 1024, size=4000).astype(np.int64)

    def sum_d2(keys):
        o = np.argsort(keys, kind="stable")
        dx, dy = np.diff(x[o]), np.diff(y[o])
        return int((dx * dx + dy * dy).sum())

    h = sum_d2(hbk.hilbert_key(x, y, 10))
    s = sum_d2(y * 1024 + x)
    assert h < s


def test_str_pack_slice_starts_closed_form():
    """ranks r with r*S//n == s are exactly [ceil(s*n/S), ceil((s+1)*n/S))."""
    for n in (1, 7, 499, 500, 3001):
        S = entry.STR_S
        ranks = np.arange(n)
        sl = ranks * S // n
        for s in range(S):
            sel = np.flatnonzero(sl == s)
            lo = (s * n + S - 1) // S
            hi = ((s + 1) * n + S - 1) // S
            assert (len(sel) == 0 and lo >= hi) or (
                sel[0] == lo and sel[-1] == hi - 1
            )


def test_farthest_point_sample_matches_brute_greedy(ray_session, tmp_path):
    """_farthest_point_sample over a small documents.parquet equals a
    brute-force O(n*K) greedy written from its docstring: start at the
    minimum doc_id, then FPS_K-1 times take the point with the largest
    minimum squared distance to the chosen set, ties to the smallest
    doc_id."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.RandomState(161)
    ids = rng.choice(np.arange(1, 1_000_000, dtype=np.int64), 300, replace=False)
    pq.write_table(
        pa.table({"doc_id": pa.array(ids), "title": [f"d{i}" for i in ids]}),
        tmp_path / "documents.parquet",
        row_group_size=64,
    )
    got = entry._farthest_point_sample(str(tmp_path)).to_pylist()

    xs, ys = entry._fps_coords(ids)
    pts = {int(d): (int(x), int(y)) for d, x, y in zip(ids, xs, ys)}

    def d2(a, b):
        return (pts[a][0] - pts[b][0]) ** 2 + (pts[a][1] - pts[b][1]) ** 2

    chosen = [min(pts)]
    want = [(0, chosen[0], 0)]
    for step in range(1, entry.FPS_K):
        # largest distance to the chosen set; on a tie, the smallest doc_id
        far, neg_id = max((min(d2(d, c) for c in chosen), -d) for d in pts)
        chosen.append(-neg_id)
        want.append((step, -neg_id, far))
    assert [(r["step"], r["doc_id"], r["d2_to_set"]) for r in got] == want


def test_bizdays_formula_matches_calendar():
    """f(d) = weekdays in [0, d] under dow(x) = (x+3)%7 — brute check."""

    def f(d):
        full = (d + 1) // 7 * 5
        rem = (d + 1) % 7
        start = ((d + 1 - rem) + 3) % 7
        cnt = sum(1 for k in range(7) if ((start + k) % 7 < 5) and k < rem)
        return full + cnt

    for d in range(0, 60):
        brute = sum(1 for x in range(d + 1) if (x + 3) % 7 < 5)
        assert f(d) == brute


def test_pcsa_trailing_zero_block():
    """The shift-ladder tz in _pcsa_bitmaps matches a brute ctz."""
    vals = np.array(
        [1, 2, 3, 4, 8, 12, 1 << 20, (1 << 20) + (1 << 5), 7, 6],
        dtype=np.uint64,
    )
    rr = vals.copy()
    t = np.zeros(rr.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        m = (rr & ((np.uint64(1) << np.uint64(shift)) - np.uint64(1))) == 0
        t[m] += shift
        rr[m] >>= np.uint64(shift)
    tz = t
    brute = [int(v) and (int(v) & -int(v)).bit_length() - 1 for v in vals]
    assert tz.tolist() == brute
