"""Per-thread scratch buffers and bound plans of the Runge-Kutta/WENO and
matched steps.

A batched step of the WENO/RK operators needs megabytes of temporaries:
gathered and projected windows, eigenvector matrices, interface sides and
flux terms, Runge-Kutta stages. Allocated afresh on every call, the
allocator returns those pages to the operating system when they are freed
and page-faulted them in again on the next call. The kernels take them from
here instead.

The store keeps one flat float64 (or bool) array per buffer name, grown to
the largest request seen and never shrunk, and hands out views of it at the
exact shape asked for. `buffers` is its only entry point, and each kernel
call makes one lookup: it asks for every temporary of itself and of the
helpers it calls, by a layout function and a hashable key, and passes the
helpers their buffers as arguments. layout(key) gives the (name, shape) or
(name, shape, dtype) of each buffer. A view of one name at one offset,
shape and dtype is one object per thread, whichever layout asks for it.

At batch 1 a kernel spends as long in the interpreter, making views and
converting operands, as in its arithmetic, so each kernel takes a plan
bound to its key: an optional build function makes, from the views, every
view and operand its ufunc calls use, and the result is cached under
(layout, key, build). A call at a key seen before then costs one
dictionary lookup, and the kernel runs a flat sequence of ufunc calls. A
key holds everything its plan binds: the shape, and the window width or
degree whose tables it binds; model constants are 0-d operands of the
model, made once by its constructor. Growing an array drops every cached
view and plan, since views of the replaced array would no longer share
memory with the others.

A kernel's array arguments may lead its layout, under the names that its
callers keep them by, and are passed to `buffers` too. Where each is the
store's own view, as on a right-hand side, whose kernels pass each other
their buffers, the cached plan is returned; otherwise the plan is built
for this call, from the arguments and the store's views of the rest.
Arrays that are never the store's, such as a caller's field, are viewed
per call.

Buffers live until the thread ends. Their contents live only until the next
request for the same name: a kernel may hold its views while it runs and
calls other kernels, as long as no two kernels active at once use one name
for different things, and nothing that outlives the call may be a view of
a buffer. A kernel writes into the buffers it is passed as its `out`, and
otherwise returns arrays of its own, as every other public function of the
package does. No plan relies on what a buffer held before the call.

There is one store per thread, because MGRIT's worker threads run one
stepper on several slices of a batch at once; each store is shared by every
operator, level and model that runs in its thread. Each of w workers takes
one slice, so its buffers are sized for about 1/w of a level's batch.
"""
from __future__ import annotations

import math
import threading
from operator import is_

import numpy as np


class _Store(threading.local):
    def __init__(self):
        self.arrays = {}  # name -> flat array
        self.views = {}   # (name, start, shape, dtype) -> view
        self.plans = {}   # (layout, key, build) -> (views, build(*views))


_store = _Store()


def _views(store, layout, key) -> tuple:
    entries = [(name, tuple(shape), np.dtype(dtype[0] if dtype else float))
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
            store.plans.clear()
    offsets = dict.fromkeys(sizes, 0)
    views = []
    for name, shape, dtype in entries:
        start = offsets[name]
        offsets[name] = start + math.prod(shape)
        view = store.views.get((name, start, shape, dtype))
        if view is None:
            view = store.arrays[name][start:offsets[name]].reshape(shape)
            store.views[name, start, shape, dtype] = view
        views.append(view)
    return tuple(views)


def buffers(layout, key, build=None, *given):
    """Views of this thread's buffers shaped by layout(key), or
    build(*views), with given arrays in place of the leading views.

    Entries of one layout that share a name are laid out one after another
    in that name's array, so functions that never run at once can take
    several buffers each from one name. The result is cached unless a
    given array is not the store's own view.
    """
    try:
        views, plan = _store.plans[layout, key, build]
    except KeyError:
        views = _views(_store, layout, key)
        plan = views if build is None else build(*views)
        _store.plans[layout, key, build] = views, plan
    if given and not all(map(is_, given, views)):
        views = given + views[len(given):]
        return views if build is None else build(*views)
    return plan
