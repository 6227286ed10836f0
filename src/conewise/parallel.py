"""Index-chunked parallel map for realization sweeps.

Per-realization seeds are derived from the realization index, so results
are identical whatever the worker count or scheduling; chunks are
reassembled in index order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import InvalidSpecError


def map_index_chunks(fn, n_items: int, threads: int, chunk: int = 128):
    """Run ``fn(start, stop)`` over [0, n_items) and concatenate the results.

    ``fn`` returns one array or a tuple of arrays for its index range; the
    pieces are joined along axis 0 in index order.  ``threads`` is the number
    of worker processes (not threads: ``fn`` runs in a process pool and must
    be picklable); with 1, or with ``n_items <= chunk``, everything runs in
    the calling process.  An empty range raises :class:`InvalidSpecError`.
    """
    if n_items <= 0:
        raise InvalidSpecError(f"need at least one realization, got {n_items}")
    threads = max(1, int(threads))
    if threads == 1 or n_items <= chunk:
        return fn(0, n_items)
    ranges = [(s, min(s + chunk, n_items)) for s in range(0, n_items, chunk)]
    with ProcessPoolExecutor(max_workers=threads) as ex:
        parts = list(ex.map(fn, *zip(*ranges)))
    first = parts[0]
    if isinstance(first, tuple):
        return tuple(np.concatenate([p[i] for p in parts]) for i in range(len(first)))
    return np.concatenate(parts)
