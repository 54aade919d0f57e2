"""spatialindex_ray — a from-scratch Ray-Data-native spatial indexing,
spatial-join and tiling engine with the query capabilities of
Caltech-IPAC/SpatialIndex, rebuilt on ray.data.Dataset + vectorized NumPy
kernels over zero-copy Arrow batches.

Layout:
    kernels/   vectorized HTM / HEALPix / vector math (bit-exact vs reference)
    geom.py    sky regions (cone / convex polygon / ellipse) + exact predicates
    cover.py   region -> sorted cell-id range decomposition (the planner)
    sqlcompat. byte-identical index/geom SQL constraint rendering
    spatial_index.py  drop-in SpatialIndex Python API (cone_search/polygon_search)
    ops.py     Dataset -> Dataset stages (encode, semi-join, cell join, knn, tiles)
    pipelines. end-to-end pipeline builders + webpages synthesis
    state/     manifest / checkpoint / lineage helpers
"""

import os as _os
import sys as _sys

__version__ = "0.1.0"

# Keep glibc from mmap()ing large NumPy temporaries: mmap'd blocks are
# returned to the OS on free, so every vectorized batch re-faults fresh
# pages — measured 10-30x slowdowns under host memory pressure. Raising the
# mmap/trim thresholds keeps big buffers on the reusable heap, giving
# steady-state workers (Ray actor/task processes) stable throughput. Safe
# no-op where unavailable.
try:  # pragma: no cover - linux/glibc only
    import ctypes as _ctypes

    _libc = _ctypes.CDLL("libc.so.6")
    _libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
except Exception:
    pass

try:  # public API surface; kernels usable standalone during bootstrap
    from .spatial_index import SpatialIndex  # noqa: F401
except ImportError:  # pragma: no cover
    pass


def _udf_shipping(*modules) -> str:
    """How engine code reaches Ray workers: ``"by_name"`` or ``"by_value"``.

    By name, a pickled UDF names the engine functions it calls
    (``spatialindex_ray.ops...``) and each worker imports the package once;
    the encode closure pickles to under 1 KB. By value, cloudpickle copies
    the code of every engine module into every UDF (about 190 KB each) and
    the driver re-pickles it for every query. By value is therefore only
    the fallback for workers that cannot import the package:

    - Ray not initialized yet: the package root goes first on
      ``PYTHONPATH``, which the local cluster a later ``ray.init`` starts
      hands to every worker. A cluster that is already running does not
      see it: a driver that joins one must give its workers the package
      (``ray job submit --working-dir``, or an installed copy).
    - Ray already initialized (the ``__ray_entry__`` driver contract): one
      task asks a worker whether it finds the package. Only if it does not
      are the package and ``modules`` registered to pickle by value.

    Decided once per process, at the package's import; later calls return
    the same answer (and register ``modules`` by value under the fallback).
    """
    global _SHIPPING
    if _SHIPPING is None:
        _SHIPPING = _decide_shipping()
    if _SHIPPING == "by_value":
        from ray import cloudpickle

        for mod in (_sys.modules[__name__], *modules):
            cloudpickle.register_pickle_by_value(mod)
    return _SHIPPING


def _decide_shipping() -> str:
    try:
        import ray
    except ImportError:  # pragma: no cover - the planner API runs without Ray
        return "by_name"
    if not ray.is_initialized():
        root = _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__)))
        paths = [p for p in _os.environ.get("PYTHONPATH", "").split(_os.pathsep) if p]
        if root not in paths:
            _os.environ["PYTHONPATH"] = _os.pathsep.join([root, *paths])
        return "by_name"
    if ray.get_runtime_context().worker.mode == ray.WORKER_MODE:
        return "by_name"  # a worker that just imported the package by name

    def importable() -> bool:  # nested, so it pickles by value
        import importlib.util

        return importlib.util.find_spec("spatialindex_ray") is not None

    try:
        probe = ray.remote(num_cpus=0)(importable).remote()
        return "by_name" if ray.get(probe, timeout=120) else "by_value"
    except ray.exceptions.RayError:  # no answer proves nothing: fall back
        return "by_value"


_SHIPPING = None
_udf_shipping()
