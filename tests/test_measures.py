"""Measure representation, stopping order, exact transport."""

from __future__ import annotations

import io
import itertools

import numpy as np
import pytest

from mfstop.measures import (
    StopMap,
    apply_stop,
    from_arrays,
    make_empirical,
    measure_from_csv,
    measure_to_csv,
    wasserstein,
)


def _random_measure(rng, n_atoms=5, d=1, all_stopped=False):
    xs = rng.normal(size=(n_atoms, d))
    flags = np.zeros(n_atoms) if all_stopped else rng.integers(0, 2, size=n_atoms)
    ws = rng.uniform(0.1, 1.0, size=n_atoms)
    ws = ws / ws.sum()
    return from_arrays(xs, flags, ws)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_make_empirical_single_atom_normalizes():
    m = make_empirical([(0.0, 1)])
    assert m.n_atoms == 1
    assert m.ws[0] == 1.0
    assert m.flags[0] == 1


def test_make_empirical_uniform_weights():
    m = make_empirical([(1.0, 1), (2.0, 0)])
    assert np.allclose(m.ws, [0.5, 0.5])


def test_make_empirical_normalization():
    m = make_empirical([(1.0, 1), (2.0, 0)], [2.0, 6.0])
    # canonical order puts the stopped atom first
    by_flag = {int(i): float(w) for i, w in zip(m.flags, m.ws)}
    assert by_flag[1] == pytest.approx(0.25)
    assert by_flag[0] == pytest.approx(0.75)


def test_make_empirical_rejects_bad_input():
    with pytest.raises(ValueError):
        make_empirical([])
    with pytest.raises(ValueError):
        make_empirical([(0.0, 1)], [0.0])
    with pytest.raises(ValueError):
        make_empirical([(0.0, 1), (1.0, 1)], [1.0, -2.0])


def test_duplicate_atoms_merge():
    m = make_empirical([(1.0, 1), (1.0 + 1e-13, 1), (2.0, 0)], [1, 1, 2])
    assert m.n_atoms == 2
    assert m.ws.sum() == pytest.approx(1.0, abs=1e-15)
    # a stopped and a running atom at one site stay apart
    m = make_empirical([(1.0, 0), (1.0, 1)], [1, 3])
    assert m.flags.tolist() == [0, 1] and m.ws.tolist() == [0.25, 0.75]


def test_measure_is_immutable():
    m = make_empirical([(0.0, 1), (1.0, 0)])
    with pytest.raises(ValueError):
        m.ws[0] = 0.7


# ---------------------------------------------------------------------------
# apply_stop / surviving_mass
# ---------------------------------------------------------------------------


def test_apply_stop_identity_map():
    rng = np.random.default_rng(0)
    m = _random_measure(rng)
    assert apply_stop(m, StopMap.constant(1.0)).allclose(m)


def test_apply_stop_full_stop_preserves_marginal():
    rng = np.random.default_rng(1)
    m = _random_measure(rng)
    m2 = apply_stop(m, StopMap.constant(0.0))
    assert m2.surviving_mass() == 0.0
    x1, w1 = m.x_marginal()
    x2, w2 = m2.x_marginal()
    assert np.allclose(x1, x2)
    assert np.allclose(w1, w2, atol=1e-15)


def test_apply_stop_forced_split():
    m = make_empirical([(0.0, 1), (1.0, 1)])
    p = StopMap(lambda x: x[:, 0], "callable")
    m2 = apply_stop(m, p)
    atoms = {(float(x[0]), int(i)): float(w) for x, i, w in zip(m2.xs, m2.flags, m2.ws)}
    assert atoms == {(0.0, 0): 0.5, (1.0, 1): 0.5}


@pytest.mark.parametrize(
    "build",
    [
        lambda: StopMap.threshold(float("nan")),
        lambda: StopMap.threshold(float("inf"), "above"),
        lambda: StopMap.logistic(float("nan"), 0.0),
        lambda: StopMap.logistic([1.0], float("-inf")),
        lambda: StopMap.tabular([0.0], [0.5, float("nan")]),
        lambda: StopMap.tabular([0.0], [0.5, 1.5]),
        lambda: StopMap.site_lookup([[0.0]], [float("nan")]),
        lambda: StopMap.site_lookup([[0.0]], [-0.5]),
        lambda: StopMap.site_lookup([[0.0]], [0.5], default=float("nan")),
        lambda: StopMap.site_lookup([[0.0]], [0.5], default=2.0),
    ],
)
def test_a_bad_stop_map_is_refused_when_it_is_built(build):
    with pytest.raises(ValueError):
        build()


def test_apply_stop_mass_conservation_tight():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = _random_measure(rng, n_atoms=8)
        p = StopMap.logistic(rng.normal(), rng.normal())
        m2 = apply_stop(m, p)
        assert abs(m2.ws.sum() - m.ws.sum()) <= 1e-12
        x1, w1 = m.x_marginal()
        x2, w2 = m2.x_marginal()
        assert np.allclose(x1, x2, atol=1e-12)
        assert np.allclose(w1, w2, atol=1e-12)


def test_apply_stop_composition():
    rng = np.random.default_rng(3)
    m = _random_measure(rng, n_atoms=6)
    p = StopMap.logistic(1.3, -0.2)
    q = StopMap.logistic(-0.7, 0.5)
    pq = StopMap(lambda x: p(x) * q(x), "callable")
    lhs = apply_stop(apply_stop(m, p), q)
    rhs = apply_stop(m, pq)
    assert lhs.allclose(rhs)


def test_surviving_mass_halving():
    rng = np.random.default_rng(4)
    m = _random_measure(rng)
    before = m.surviving_mass()
    after = apply_stop(m, StopMap.constant(0.5)).surviving_mass()
    assert after == pytest.approx(before / 2, abs=1e-14)


# ---------------------------------------------------------------------------
# wasserstein
# ---------------------------------------------------------------------------


def _brute_force_distance(m1, m2, order):
    """Enumerate permutation couplings; valid for equal-size uniform weights."""
    n = m1.n_atoms
    assert m2.n_atoms == n
    pts1 = [(m1.xs[k], float(m1.flags[k])) for k in range(n)]
    pts2 = [(m2.xs[k], float(m2.flags[k])) for k in range(n)]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = 0.0
        for a, b in enumerate(perm):
            dx = pts1[a][0] - pts2[b][0]
            di = pts1[a][1] - pts2[b][1]
            cost += (np.sqrt(float(dx @ dx) + di * di)) ** order / n
        best = min(best, cost)
    return best ** (1.0 / order)


def test_wasserstein_identity():
    rng = np.random.default_rng(8)
    m = _random_measure(rng)
    assert wasserstein(m, m, 2) == 0.0


def test_wasserstein_point_masses():
    m1 = make_empirical([(0.0, 1)])
    m2 = make_empirical([(3.0, 1)])
    assert wasserstein(m1, m2, 1) == pytest.approx(3.0, abs=1e-9)


def test_wasserstein_flag_distance():
    m1 = make_empirical([(0.0, 1)])
    m2 = make_empirical([(0.0, 0)])
    assert wasserstein(m1, m2, 2) == pytest.approx(1.0, abs=1e-9)


def test_wasserstein_matches_brute_force():
    rng = np.random.default_rng(9)
    for trial in range(8):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 3))
        m1 = from_arrays(
            rng.normal(size=(n, d)), rng.integers(0, 2, n), np.full(n, 1.0 / n)
        )
        m2 = from_arrays(
            rng.normal(size=(n, d)), rng.integers(0, 2, n), np.full(n, 1.0 / n)
        )
        for order in (1, 2):
            got = wasserstein(m1, m2, order)
            want = _brute_force_distance(m1, m2, order)
            assert got == pytest.approx(want, abs=1e-9), f"trial {trial} order {order}"


def test_wasserstein_cross_flag_can_beat_within_flag_pairing():
    # transport may cross flag classes when that is cheaper
    m1 = make_empirical([(0.0, 1), (100.0, 0)])
    m2 = make_empirical([(100.0, 1), (0.0, 0)])
    assert wasserstein(m1, m2, 1) == pytest.approx(1.0, abs=1e-9)


def test_wasserstein_sorted_fast_path_agrees_with_lp():
    rng = np.random.default_rng(10)
    n = 6
    m1 = from_arrays(rng.normal(size=(n, 1)), np.ones(n), np.full(n, 1.0 / n))
    m2 = from_arrays(rng.normal(size=(n, 1)), np.ones(n), np.full(n, 1.0 / n))
    fast = wasserstein(m1, m2, 1)
    want = _brute_force_distance(m1, m2, 1)
    assert fast == pytest.approx(want, abs=1e-12)


def test_wasserstein_metric_properties():
    rng = np.random.default_rng(11)
    ms = [_random_measure(rng, n_atoms=4) for _ in range(3)]
    d01 = wasserstein(ms[0], ms[1], 2)
    d10 = wasserstein(ms[1], ms[0], 2)
    d12 = wasserstein(ms[1], ms[2], 2)
    d02 = wasserstein(ms[0], ms[2], 2)
    assert d01 == pytest.approx(d10, abs=1e-9)
    assert d02 <= d01 + d12 + 1e-9


def test_wasserstein_size_guard():
    n = 600
    xs = np.linspace(0, 1, n)[:, None]
    m1 = from_arrays(xs, np.ones(n), np.full(n, 1.0 / n))
    m2 = from_arrays(xs + 0.5, np.zeros(n), np.full(n, 1.0 / n))
    with pytest.raises(ValueError):
        wasserstein(m1, m2, 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    m = _random_measure(rng, n_atoms=6, d=2)
    path = tmp_path / "m.csv"
    measure_to_csv(m, str(path))
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "x0,x1,i,w"
    m2 = measure_from_csv(str(path))
    assert m2.allclose(m, tol=0.0)  # repr round-trip is exact


def test_csv_rejects_wrong_header():
    with pytest.raises(ValueError):
        measure_from_csv(io.StringIO("a,b,c\n1,2,3\n"))
