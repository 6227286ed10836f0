import os

import numpy as np
import pytest

from conewise import InvalidSpecError
from conewise.parallel import map_index_chunks

RECORD = np.dtype([("start", np.int64), ("stop", np.int64), ("pid", np.int64)])


def range_record(start, stop):
    """One record per call: the index range and the process that ran it."""
    return np.array([(start, stop, os.getpid())], dtype=RECORD)


def squares(start, stop):
    """One structured row per index, so a misplaced piece shows."""
    out = np.zeros(stop - start, dtype=[("index", np.int64), ("square", np.int64)])
    out["index"] = np.arange(start, stop)
    out["square"] = out["index"] ** 2
    return out


def no_calls(start, stop):
    raise AssertionError("fn ran before the counts were checked")


class TestMapIndexChunks:
    def test_ranges_start_at_chunk_multiples_and_cover_in_order(self):
        calls = map_index_chunks(range_record, 10, 2, chunk=3)
        assert calls["start"].tolist() == [0, 3, 6, 9]
        assert calls["stop"].tolist() == [3, 6, 9, 10]
        assert np.all(calls["pid"] != os.getpid())  # the pieces ran in workers

    @pytest.mark.parametrize("n_items, threads", [(10, 1), (3, 2)], ids=["one-thread", "one-chunk"])
    def test_runs_in_calling_process(self, n_items, threads):
        # a lambda cannot be sent to a worker, so this passes only in process
        seen = []
        out = map_index_chunks(
            lambda a, b: seen.append((a, b)) or range_record(a, b), n_items, threads, chunk=3
        )
        assert seen == [(0, n_items)]
        assert out["pid"].tolist() == [os.getpid()]

    def test_structured_pieces_joined_in_index_order(self):
        out = map_index_chunks(squares, 11, 2, chunk=4)
        assert np.array_equal(out, squares(0, 11))

    @pytest.mark.parametrize("n_items", [2.0, 0])
    def test_bad_count_raises_before_any_call(self, n_items):
        with pytest.raises(InvalidSpecError, match=f"got {n_items}"):
            map_index_chunks(no_calls, n_items, 1, chunk=3)

    @pytest.mark.parametrize("threads", [0, -3, 2.7, 1.0])
    def test_bad_worker_count_raises_before_any_call(self, threads):
        # max(1, int(threads)) used to run 0 and -3 in process and 2.7 on two workers
        with pytest.raises(InvalidSpecError, match=f"worker count must be an integer >= 1, got {threads}"):
            map_index_chunks(no_calls, 10, threads, chunk=3)
