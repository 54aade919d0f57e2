"""Tests of the benchmark's own logic (no Ray needed):

    python3 -m pytest benchmark/test_bench.py -q
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.dirname(HERE))

import inputs  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------- tail rule
@pytest.mark.parametrize(
    "n, want",
    [(9, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_needs_ten_samples_beyond(n, want):
    t = measure.tail(list(range(n)))
    assert (t[0] if t else None) == want
    if t:
        beyond = sum(x > t[1] for x in range(n))
        assert beyond >= 10
        assert t[2] == n


# ------------------------------------------------------ failure counting
def test_wrong_pair_count_is_flagged(tmp_path):
    w = workloads.JoinTiles(3, str(tmp_path))
    out = measure.Outcomes()
    good = dict(w.ref)
    bad = dict(w.ref, pairs=w.ref["pairs"] + 1)
    assert w.check(0, good, out)
    assert not w.check(1, bad, out)
    assert (out.attempted, out.failed) == (2, 1)
    assert out.failed_frac == 0.5
    assert "pairs" in out.messages[0]


def test_failed_frac_of_nothing_is_zero():
    assert measure.Outcomes().failed_frac == 0.0


# ----------------------------------------------------------- self time
def _span(i, start, end, parent=None, name="ops.x"):
    return {"id": i, "name": name, "parent": parent, "run": "r", "start": start, "end": end}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0, name="bench.pass"),
        _span(1, 1.0, 4.0, 0),
        _span(2, 3.0, 5.0, 0),  # overlaps span 1: covered union is 1..5
        _span(3, 7.0, 12.0, 0),  # runs past its parent: only 7..10 counts
        _span(4, 1.5, 2.0, 1),  # grandchild: counts against span 1 only
    ]
    st = measure.self_times(spans)
    assert st[0] == pytest.approx(10.0 - 4.0 - 3.0)
    assert st[1] == pytest.approx(3.0 - 0.5)
    assert st[4] == pytest.approx(0.5)
    layers = measure.layer_self_times(spans)
    assert layers["bench"] == pytest.approx(3.0)
    assert layers["ops"] == pytest.approx(2.5 + 2.0 + 5.0 + 0.5)


def test_tracer_nests_spans_and_records_run_id():
    tr = measure.Tracer("run-1")
    with tr.span("bench.a"):
        with tr.span("ops.b"):
            pass
    a, b = tr.spans
    assert b["parent"] == a["id"] and a["parent"] is None
    assert {a["run"], b["run"]} == {"run-1"}
    assert a["start"] <= b["start"] <= b["end"] <= a["end"]


# ------------------------------------------------------ seed determinism
def test_same_seed_same_inputs_and_references(tmp_path):
    a = inputs.make_pages(5, 500, 0.002)
    b = inputs.make_pages(5, 500, 0.002)
    c = inputs.make_pages(6, 500, 0.002)
    assert a.equals(b)
    assert not a.equals(c)
    for cls in (workloads.JoinTiles, workloads.EncodeScan, workloads.PlanSql):
        r1 = cls(5, str(tmp_path / "x")).references()
        r2 = cls(5, str(tmp_path / "y")).references()
        r3 = cls(6, str(tmp_path / "z")).references()
        assert r1 == r2, cls.name
        assert r1 != r3, cls.name


def test_plan_stream_keeps_its_mix_across_seeds():
    def mix(seed):
        cyc = inputs.plan_cycle(np.random.default_rng(seed))
        return sorted((q["region"].kind, q["mode"], q["level"]) for q in cyc)

    assert mix(1) == mix(2)


# --------------------------------------------------------- references
def test_pair_count_matches_brute_force():
    rng = np.random.default_rng(0)
    lon = rng.uniform(10, 12, 400)
    lat = rng.uniform(-1, 1, 400)
    xyz = inputs.unit_vectors(lon, lat)
    d2 = ((xyz[:, None, :] - xyz[None, :, :]) ** 2).sum(axis=2)
    s = np.sin(np.radians(0.1) / 2)
    assert inputs.pair_count(xyz, 0.1) == int((d2 <= 4 * s * s).sum())


def test_base4_rendering_round_trips():
    from spatialindex_ray.kernels import htm

    ids = htm.v3_id(inputs.unit_vectors([10.0, 200.0, 33.0], [5.0, -40.0, 80.0]), 12)
    assert [inputs.base4_to_id(int(htm.id_to_dec(i))) for i in ids] == list(ids)


@pytest.mark.parametrize("kind", ["cone", "polygon", "ellipse"])
def test_inside_samples_are_inside_the_engine_region(kind):
    from spatialindex_ray import geom

    rng = np.random.default_rng(1)
    for _ in range(5):
        r = inputs.random_region(rng, kind, 3.0)
        if kind == "cone":
            eng = geom.Cone(r.ra, r.dec, r.size)
        elif kind == "polygon":
            eng = geom.ConvexPolygon(r.vra, r.vdec)
        else:
            eng = geom.Ellipse.from_center(r.ra, r.dec, r.size, r.b, r.angle)
        pts = r.sample_inside(rng, 200)
        assert eng.mask(pts).all()
        assert r.contains(pts).all()
