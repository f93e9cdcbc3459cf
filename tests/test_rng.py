"""Counter-based noise: addressing, determinism, distribution sanity."""

from __future__ import annotations

import numpy as np
import pytest

from mfstop.rng import normals


def test_same_address_same_numbers():
    ids = np.arange(1000)
    a = normals(7, ids, step=3, d=2)
    b = normals(7, ids, step=3, d=2)
    assert np.array_equal(a, b)


def test_subset_sees_same_numbers():
    ids = np.arange(1000)
    full = normals(7, ids, step=5, d=1)
    sub = normals(7, ids[::7], step=5, d=1)
    assert np.array_equal(full[::7], sub)


def test_order_invariance():
    ids = np.arange(50)
    shuffled = ids[::-1].copy()
    a = normals(11, ids, step=0, d=3)
    b = normals(11, shuffled, step=0, d=3)
    assert np.array_equal(a, b[::-1])


def test_distinct_addresses_decorrelate():
    ids = np.arange(200)
    a = normals(1, ids, step=0, d=1)
    b = normals(1, ids, step=1, d=1)
    c = normals(2, ids, step=0, d=1)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    # crude correlation bound on 200 samples
    assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) < 0.25


def test_normal_moments():
    n = 200_000
    z = normals(123, np.arange(n), step=0, d=1).ravel()
    se_mean = 1.0 / np.sqrt(n)
    assert abs(z.mean()) < 4 * se_mean
    assert abs(z.var() - 1.0) < 4 * np.sqrt(2.0 / n)
    assert abs((z**3).mean()) < 4 * np.sqrt(15.0 / n)
    assert np.all(np.isfinite(z))


def test_d_columns_independent_addresses():
    z3 = normals(9, np.arange(100), step=4, d=3)
    z1 = normals(9, np.arange(100), step=4, d=1)
    # lower-d output is a prefix of higher-d output at the same address
    assert np.array_equal(z3[:, :1], z1)


def test_empty_particle_list():
    assert normals(0, np.arange(0), step=0, d=2).shape == (0, 2)


def test_large_particle_ids():
    ids = np.array([2**40, 2**40 + 1])
    z = normals(3, ids, step=0, d=1)
    assert np.all(np.isfinite(z))
    assert z[0, 0] != pytest.approx(z[1, 0])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "ids",
    [
        np.arange(0),
        np.arange(37),
        np.array([2**32 - 1, 2**32, 2**40 + 3, 2**63 + 5], dtype=np.uint64),
    ],
    ids=["no-ids", "small-ids", "wide-ids"],
)
def test_a_vector_of_steps_equals_stacked_per_step_calls(ids, d):
    steps = np.arange(5, 12)
    stacked = np.stack([normals(21, ids, int(k), d) for k in steps])
    vector = normals(21, ids, steps, d)
    assert vector.shape == (steps.size, ids.size, d)
    # bit for bit, so a -0.0 against 0.0 or a last-bit difference fails
    assert np.array_equal(vector.view(np.uint64), stacked.view(np.uint64))
    # any window of the steps is the same window of the whole
    assert np.array_equal(normals(21, ids, steps[2:5], d), vector[2:5])
    assert normals(21, ids, steps[:0], d).shape == (0, ids.size, d)


@pytest.mark.parametrize("step", [-1, 2**32, 2**64, np.array([0, 2**32]), np.array([-1, 3])])
def test_steps_outside_the_counter_word_are_refused(step):
    # the step fills one 32-bit counter word; masking it would alias step
    # 2^32 with step 0 and step -1 with step 2^32 - 1
    with pytest.raises(ValueError, match=r"noise steps must lie in \[0, 2\^32\)"):
        normals(3, np.arange(4), step, 1)


def test_the_last_step_of_the_counter_word_is_drawn():
    ids = np.arange(4)
    assert normals(3, ids, 2**32 - 1, 2).shape == (4, 2)
    assert not np.array_equal(normals(3, ids, 2**32 - 1, 1), normals(3, ids, 0, 1))


@pytest.mark.parametrize(
    "ids",
    [[1.5, 1.0], np.array([0.0, 1.0]), [-1, 2], np.array([-(2**40)]), np.array([True, False])],
    ids=["fraction", "whole-floats", "negative", "wide-negative", "bools"],
)
def test_ids_that_are_not_nonnegative_integers_are_refused(ids):
    # casting would truncate 1.5 onto id 1 and wrap id -1 onto id 2^64 - 1
    with pytest.raises(ValueError, match="particle ids must be nonnegative integers"):
        normals(1, ids, 0, 1)


def test_the_last_id_of_the_address_space_is_drawn():
    ids = np.array([2**64 - 1, 0], dtype=np.uint64)
    z = normals(1, ids, 0, 1)
    assert np.all(np.isfinite(z)) and z[0, 0] != z[1, 0]
