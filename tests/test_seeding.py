import numpy as np
import pytest

from conewise import InvalidSpecError, derive_seed, rng_from_seed, splitmix64


def test_splitmix_known_values():
    # standard SplitMix64 sequence seeded at 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(splitmix64(0)) != splitmix64(0)


def test_derive_seed_distinct_paths():
    seen = {derive_seed(42, i, j) for i in range(30) for j in range(30)}
    assert len(seen) == 900
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)


def test_derived_streams_do_not_collide():
    a = rng_from_seed(derive_seed(7, 0)).random(1000)
    b = rng_from_seed(derive_seed(7, 1)).random(1000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_rng_reproducible():
    x = rng_from_seed(99).standard_normal(16)
    y = rng_from_seed(99).standard_normal(16)
    assert np.array_equal(x, y)


def test_derive_seed_takes_numpy_integers():
    # index arrays yield NumPy integers; they fold exactly as Python ints do
    assert derive_seed(np.int64(42), np.int64(3), np.intp(1)) == derive_seed(42, 3, 1)
    assert derive_seed(np.uint64(2**63 + 5), np.int32(-1)) == derive_seed(2**63 + 5, -1)


def test_rng_takes_numpy_and_negative_integers():
    # a NumPy integer keys the same stream as the Python int; a negative seed
    # wraps modulo 2**64
    x = rng_from_seed(99).random(4)
    assert np.array_equal(rng_from_seed(np.int64(99)).random(4), x)
    assert np.array_equal(rng_from_seed(np.uint8(99)).random(4), x)
    assert np.array_equal(rng_from_seed(-1).random(4), rng_from_seed(2**64 - 1).random(4))
    assert derive_seed(-1, 3) == derive_seed(2**64 - 1, 3)


@pytest.mark.parametrize("index", [1.5, 1.0, True, np.bool_(True), "a", None])
def test_seed_path_entries_follow_the_seed_rule(index):
    # derive_seed(7, 1.5) and derive_seed(7, True) both gave derive_seed(7, 1),
    # and derive_seed(7, "a") raised a bare ValueError
    with pytest.raises(InvalidSpecError, match="seed must be an integer"):
        derive_seed(7, index)
    with pytest.raises(InvalidSpecError, match="seed must be an integer"):
        derive_seed(7, 2, index)


@pytest.mark.parametrize(
    "seed", [1.5, 1.0, np.float64(3.0), None, "5", np.array([1, 2]), True, False]
)
def test_non_integer_seed_raises(seed):
    for make in (rng_from_seed, derive_seed):
        with pytest.raises(InvalidSpecError, match="seed must be an integer"):
            make(seed)
