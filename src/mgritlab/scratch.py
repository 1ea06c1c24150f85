"""Per-thread scratch buffers for the Runge-Kutta/WENO path.

A batched step of the WENO/RK operators needs megabytes of temporaries:
gathered and projected windows, eigenvector matrices, interface sides and
flux terms, Runge-Kutta stages. Allocated afresh on every call, the
allocator returns those pages to the operating system when they are freed
and page-faults them in again on the next call. The kernels take them from
here instead.

The store keeps one flat float64 (or bool) array per buffer name, grown to
the largest request seen and never shrunk, and hands out views of it at the
exact shape asked for. A function asks for all of its buffers at once, by a
layout function and a hashable key: layout(key) gives the (name, shape) or
(name, shape, dtype) of each buffer, and the tuple of views is cached under
(layout, key), so a call at a shape seen before costs one dictionary
lookup. Growing an array drops every cached view, since views of the
replaced array would no longer share memory with the others.

Buffers live until the thread ends. Their contents live only until the next
request for the same name: a function may hold its views while it runs and
calls others, as long as no two functions active at once use one name, and
nothing that outlives the call may be a view of a buffer. Every public
function of the package returns arrays of its own.

There is one store per thread, because MGRIT's worker threads run one
stepper on several slices of a batch at once; each store is shared by every
operator, level and model that runs in its thread.
"""
from __future__ import annotations

import math
import threading

import numpy as np


class _Store(threading.local):
    def __init__(self):
        self.arrays = {}  # name -> flat array
        self.views = {}   # (layout, key) -> tuple of views


_store = _Store()


def buffers(layout, key) -> tuple:
    """Views of this thread's buffers at the shapes layout(key) gives.

    Entries of one layout that share a name are laid out one after another
    in that name's array, so functions that never run at once can take
    several buffers each from one name.
    """
    store = _store
    try:
        return store.views[layout, key]
    except KeyError:
        pass
    entries = [(name, shape, np.dtype(dtype[0] if dtype else float))
               for name, shape, *dtype in layout(key)]
    sizes, dtypes = {}, {}
    for name, shape, dtype in entries:
        sizes[name] = sizes.get(name, 0) + math.prod(shape)
        dtypes[name] = dtype
    for name, size in sizes.items():
        flat = store.arrays.get(name)
        if flat is None or flat.size < size or flat.dtype != dtypes[name]:
            store.arrays[name] = np.empty(size, dtypes[name])
            store.views.clear()
    offsets = dict.fromkeys(sizes, 0)
    views = []
    for name, shape, _ in entries:
        start = offsets[name]
        offsets[name] = start + math.prod(shape)
        views.append(store.arrays[name][start:offsets[name]].reshape(shape))
    views = tuple(views)
    store.views[layout, key] = views
    return views


def _one_shape(key):
    names, shape = key
    return tuple((name, shape) for name in names)


def arrays(names: tuple, shape: tuple) -> tuple:
    """buffers() of one float shape, one for each of the given names."""
    return buffers(_one_shape, (names, shape))
