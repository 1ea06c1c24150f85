"""Per-thread scratch buffers of the Runge-Kutta/WENO and matched steps.

A batched step of the WENO/RK operators needs megabytes of temporaries:
gathered and projected windows, eigenvector matrices, interface sides and
flux terms, Runge-Kutta stages. Allocated afresh on every call, the
allocator returns those pages to the operating system when they are freed
and page-faults them in again on the next call. The kernels take them from
here instead.

The store keeps one flat float64 (or bool) array per buffer name, grown to
the largest request seen and never shrunk, and hands out views of it at the
exact shape asked for. `buffers` is its only entry point, and each kernel
call makes one lookup: it asks for every temporary of itself and of the
helpers it calls, by a layout function and a hashable key, and passes the
helpers their buffers as arguments. layout(key) gives the (name, shape) or
(name, shape, dtype) of each buffer, and the tuple of views, or what an
optional build function makes of it, is cached under (layout, key, build),
so a call at a shape seen before costs one dictionary lookup. Growing an
array drops every cached view, since views of the replaced array would no
longer share memory with the others.

Buffers live until the thread ends. Their contents live only until the next
request for the same name: a kernel may hold its views while it runs and
calls other kernels, as long as no two kernels active at once use one name,
and nothing that outlives the call may be a view of a buffer. A kernel
writes into the buffers it is passed as its `out`, and otherwise returns
arrays of its own, as every other public function of the package does.

There is one store per thread, because MGRIT's worker threads run one
stepper on several slices of a batch at once; each store is shared by every
operator, level and model that runs in its thread. Each of w workers takes
one slice, so its buffers are sized for about 1/w of a level's batch.
"""
from __future__ import annotations

import math
import threading

import numpy as np


class _Store(threading.local):
    def __init__(self):
        self.arrays = {}  # name -> flat array
        self.views = {}   # (layout, key, build) -> views or build(*views)


_store = _Store()


def buffers(layout, key, build=None) -> tuple:
    """Views of this thread's buffers shaped by layout(key), or build(*views).

    Entries of one layout that share a name are laid out one after another
    in that name's array, so functions that never run at once can take
    several buffers each from one name.
    """
    store = _store
    try:
        return store.views[layout, key, build]
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
    views = tuple(views) if build is None else build(*views)
    store.views[layout, key, build] = views
    return views

