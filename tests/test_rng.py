import numpy as np
import pytest

from tiltlab.rng import SeededRng


def test_same_seed_same_stream():
    a = SeededRng(42).standard_normal(8)
    b = SeededRng(42).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_split_is_deterministic():
    a = SeededRng(42).split(3, 1).standard_normal(5)
    b = SeededRng(42).split(3, 1).standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_split_streams_differ():
    root = SeededRng(7)
    draws = [root.split(i).standard_normal(4) for i in range(6)]
    draws.append(SeededRng(7).standard_normal(4))
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_nested_split_equals_flat_path():
    a = SeededRng(9).split(1).split(2, 3).standard_normal(3)
    b = SeededRng(9, path=(1, 2, 3)).standard_normal(3)
    np.testing.assert_array_equal(a, b)


def test_consuming_parent_does_not_shift_children():
    root = SeededRng(11)
    root.standard_normal(100)
    a = root.split(0).standard_normal(3)
    b = SeededRng(11).split(0).standard_normal(3)
    np.testing.assert_array_equal(a, b)


def test_permutation_reproducible_and_complete():
    p = SeededRng(13).permutation(50)
    q = SeededRng(13).permutation(50)
    np.testing.assert_array_equal(p, q)
    assert sorted(p.tolist()) == list(range(50))


def test_uniform_bounds():
    x = SeededRng(17).uniform(2.0, 3.0, (1000,))
    assert x.min() >= 2.0 and x.max() < 3.0


def test_seed_range_validation():
    with pytest.raises(ValueError):
        SeededRng(-1)
    with pytest.raises(ValueError):
        SeededRng(2**64)

