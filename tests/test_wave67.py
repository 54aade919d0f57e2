"""Wave 67: DBSCAN labeling, lagged cross-corr, quadkeys, Markov backtest."""

import math
import sys
from pathlib import Path

import numpy as np
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import __ray_entry__ as entry  # noqa: E402
from spatialindex_ray import ops  # noqa: E402

SF = "/root/testdata/sf0.001"


def test_dbscan_label_brute(ray_session):
    out = entry._dbscan_label(SF).to_pandas()
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    ids = docs["doc_id"].to_numpy()
    lon, lat = ops.positions_from_id(ids)
    p = np.asarray(ops.xyz_from_lonlat(lon, lat))
    if p.shape[0] == 3 and p.shape[-1] != 3:
        p = p.T
    s = math.sin(entry.DBSCAN_R_DEG * 0.5 * math.pi / 180.0)
    thr = 4.0 * s * s
    d2 = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    adj = d2 <= thr
    core = adj.sum(axis=1) >= entry.DBSCAN_MINPTS
    # union-find over core-core edges
    lbl = {int(ids[i]): int(ids[i]) for i in np.flatnonzero(core)}

    def find(a):
        while lbl[a] != a:
            lbl[a] = lbl[lbl[a]]
            a = lbl[a]
        return a

    ci = np.flatnonzero(core)
    for i in ci:
        for j in ci:
            if adj[i, j]:
                ra, rb = find(int(ids[i])), find(int(ids[j]))
                if ra != rb:
                    lbl[max(ra, rb)] = min(ra, rb)
    want_core = {a: find(a) for a in lbl}
    got_core = out[out["role"] == 0].set_index("doc_id")["cluster_id"].to_dict()
    assert got_core == want_core
    # border: non-core with a core neighbor, min neighbor cluster
    want_border = {}
    for i in np.flatnonzero(~core):
        nb = [want_core[int(ids[j])] for j in np.flatnonzero(adj[i] & core)]
        if nb:
            want_border[int(ids[i])] = min(nb)
    got_border = out[out["role"] == 1].set_index("doc_id")["cluster_id"].to_dict()
    assert got_border == want_border


def test_cross_corr_brute(ray_session):
    out = entry._cross_corr_types(SF).to_pandas().set_index("lag")
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["event_type", "ts"])
    us = ev["ts"].astype("int64")
    day = (us // 86_400_000_000).to_numpy()
    a_days = day[ev["event_type"].to_numpy() == entry.EMD_TYPE_A]
    b_days = day[ev["event_type"].to_numpy() == entry.EMD_TYPE_B]
    for lag in range(entry.XCORR_MAX_LAG + 1):
        want = 0
        for d in np.unique(a_days):
            want += int((a_days == d).sum()) * int((b_days == d + lag).sum())
        assert int(out.loc[lag, "sxy"]) == want


def test_quadkey_reference_points(ray_session):
    # hand-checked Bing examples: digit interleave at level 3
    lon = np.array([0.0, 359.9999, 180.0])
    lat = np.array([0.0, 85.0, -85.0])
    lat_c = np.clip(lat, -85.05112878, 85.05112878)
    s = np.sin(lat_c * (math.pi / 180.0))
    x = lon / 360.0
    y = 0.5 - np.log((1.0 + s) / (1.0 - s)) / (4.0 * math.pi)
    n = 1 << entry.QK_LEVEL
    tx = np.clip(np.floor(x * n).astype(np.int64), 0, n - 1)
    ty = np.clip(np.floor(y * n).astype(np.int64), 0, n - 1)
    # lon=0,lat=0 -> x=0, y=0.5: first digit must be 2 (bottom-left quadrant)
    assert tx[0] == 0 and ty[0] == n // 2
    # lon wraps to the right edge, never past it
    assert tx[1] == n - 1
    out = entry._quadkey_encode(SF).to_pandas()
    assert (out["quadkey"].str.len() == entry.QK_LEVEL).all()
    assert out["quadkey"].str.fullmatch("[0-3]+").all()
    # encoder is deterministic per doc_id
    out2 = entry._quadkey_encode(SF).to_pandas()
    # the row index follows Ray's block order, so compare values only
    assert (
        out.sort_values("doc_id").reset_index(drop=True)
        .equals(out2.sort_values("doc_id").reset_index(drop=True))
    )


def test_markov_accuracy_brute(ray_session):
    out = entry._markov_accuracy(SF).to_pandas().set_index("src_type")
    ev = pd.read_parquet(f"{SF}/events.parquet")
    ev["us"] = ev["ts"].astype("int64")
    mid = (int(ev["us"].min()) + int(ev["us"].max())) // 2
    ev = ev.sort_values(["user_id", "us", "event_id"], kind="mergesort")
    pairs = []
    prev = None
    for r in ev.itertuples(index=False):
        if prev is not None and prev.user_id == r.user_id:
            pairs.append((prev.event_type, r.event_type, r.us <= mid))
        prev = r
    dfp = pd.DataFrame(pairs, columns=["src", "dst", "train"])
    tc = (
        dfp[dfp["train"]]
        .groupby(["src", "dst"])
        .size()
        .reset_index(name="n")
        .sort_values(["src", "n", "dst"], ascending=[True, False, True])
    )
    model = tc.drop_duplicates("src").set_index("src")["dst"].to_dict()
    evl = dfp[~dfp["train"]]
    for src, grp in evl.groupby("src"):
        assert int(out.loc[src, "n_eval"]) == len(grp)
        pred = model.get(src)
        want_hit = int((grp["dst"] == pred).sum()) if pred is not None else 0
        assert int(out.loc[src, "n_correct"]) == want_hit
        if pred is not None:
            assert out.loc[src, "predicted"] == pred
