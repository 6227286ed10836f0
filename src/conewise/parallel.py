"""Index-chunked parallel map for realization sweeps.

Per-realization seeds are derived from the realization index, so results
are identical whatever the worker count or scheduling; chunks are
reassembled in index order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import check_count


def map_index_chunks(fn, n_items: int, threads: int, chunk: int):
    """Run ``fn(start, stop)`` over [0, n_items) and concatenate the results.

    ``fn`` returns one array (plain or structured) for its index range; the
    pieces are joined along axis 0 in index order.  ``threads`` is the number
    of worker processes (not threads: ``fn`` runs in a process pool and must
    be picklable); with 1, or with ``n_items <= chunk``, everything runs in
    the calling process.  Every range starts at a multiple of ``chunk``, so
    a caller that draws in blocks passes its block size (or a multiple) and
    each worker draws whole blocks.  An ``n_items`` or a ``threads`` that is
    not an integer >= 1 raises :class:`InvalidSpecError` before ``fn`` runs.
    """
    check_count(n_items, 1, f"realization count must be an integer >= 1, got {n_items}")
    check_count(threads, 1, f"worker count must be an integer >= 1, got {threads}")
    if threads == 1 or n_items <= chunk:
        return fn(0, n_items)
    ranges = [(s, min(s + chunk, n_items)) for s in range(0, n_items, chunk)]
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return np.concatenate(list(ex.map(fn, *zip(*ranges))))
