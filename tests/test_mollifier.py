"""Grid projection and mollification of measure functionals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfstop.measures import make_empirical, wasserstein
from mfstop.mollifier import (
    MollifierParams,
    cutoff,
    mollify,
    monotonicity_probe,
    partition_weights,
    project_measure,
    sample_simplex,
    smoothstep,
)
from mfstop.util import rng_for

P2 = MollifierParams(n=2, z_samples=16)


def test_smoothstep_endpoints_and_symmetry():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(-3.0) == 0.0 and smoothstep(7.0) == 1.0
    t = np.linspace(0.0, 1.0, 1117)
    s = smoothstep(t)
    assert np.all(np.diff(s) >= 0.0)
    np.testing.assert_allclose(s + smoothstep(1.0 - t), 1.0, rtol=0.0, atol=1e-12)


def test_cutoff_plateau_and_slope_bound():
    for n in (2, 5):
        params = MollifierParams(n=n)
        xs = np.linspace(-2.0 * n, 2.0 * n, 20001)
        h = cutoff(xs, params)
        assert np.all(h[np.abs(xs) <= n] == 1.0)
        assert np.all(h[np.abs(xs) >= 1.5 * n] == 0.0)
        slope = np.abs(np.diff(h) / np.diff(xs))
        assert slope.max() <= 3.0 / n


def test_partition_sends_lattice_atoms_to_their_site():
    out = partition_weights([1.5], [1.0], P2)  # j = 3 at n = 2
    assert out[P2.j_max + 3] == 1.0
    assert out.sum() == 1.0


def test_partition_midpoint_splits_evenly():
    out = partition_weights([0.25], [2.0], P2)
    np.testing.assert_allclose(out[P2.j_max + 0], 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(out[P2.j_max + 1], 1.0, rtol=0.0, atol=1e-12)


def test_partition_far_mass_lands_on_origin():
    out = partition_weights([17.0, -40.0], [0.3, 0.7], P2)
    assert out[P2.j_max] == 1.0
    assert out.sum() == 1.0


def test_partition_support_is_two_neighbours_inside_the_plateau():
    out = partition_weights([0.8], [1.0], P2)  # cell j = 1
    hot = np.nonzero(out)[0] - P2.j_max
    assert set(hot) <= {1, 2}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_partition_preserves_mass(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 8))
    xs = rng.uniform(-6.0, 6.0, k)  # straddles the n=2 cutoff ramp
    ws = rng.random(k) + 0.01
    out = partition_weights(xs, ws, P2)
    assert abs(out.sum() - ws.sum()) <= 1e-12
    assert np.all(out >= 0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_simplex_draw_constraints(seed):
    params = MollifierParams(n=2)
    z = sample_simplex(params, rng_for(seed, "z"))
    nn = params.n_sites
    assert z.shape == (nn,)
    assert abs(z.sum()) <= 1e-15
    off_origin = np.delete(z, params.j_max)
    assert np.all(np.abs(off_origin) <= nn**-3.0)
    assert abs(z[params.j_max]) <= nn**-2.0


def test_point_mass_projection_dust_formula():
    params = MollifierParams(n=2)
    m = make_empirical([(1.5, 1)])
    proj = project_measure(m, np.zeros(params.n_sites), params)
    nn = params.n_sites
    lead = nn / (nn + 1.0)
    assert proj.n_atoms == nn
    assert np.all(proj.flags == 1)
    site = np.flatnonzero(np.isclose(proj.xs[:, 0], 1.5, atol=1e-12))
    assert site.size == 1
    np.testing.assert_allclose(
        proj.ws[site], lead * (1.0 + nn**-2.0), rtol=0.0, atol=1e-15
    )
    rest = np.delete(proj.ws, site)
    np.testing.assert_allclose(rest, lead * nn**-2.0, rtol=0.0, atol=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_projection_preserves_per_flag_mass(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    pts = [
        (float(x), int(i))
        for x, i in zip(rng.uniform(-4.0, 4.0, k), rng.integers(0, 2, k))
    ]
    m = make_empirical(pts, rng.random(k) + 0.05)
    z = sample_simplex(P2, rng_for(seed, "pf"))
    proj = project_measure(m, z, P2)
    assert abs(proj.ws.sum() - 1.0) <= 1e-12
    assert abs(proj.surviving_mass() - m.surviving_mass()) <= 1e-12
    lattice = proj.xs[:, 0] * P2.n
    np.testing.assert_allclose(lattice, np.round(lattice), rtol=0.0, atol=1e-12)


def test_projection_w1_error_shrinks_with_n():
    m = make_empirical([(-0.7, 1), (0.4, 0), (1.3, 1)], [0.3, 0.3, 0.4])
    errs = []
    for n in (2, 4, 8):
        params = MollifierParams(n=n)
        proj = project_measure(m, np.zeros(params.n_sites), params)
        errs.append(wasserstein(proj, m, order=1))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.2


def test_projection_second_moment_bound():
    m = make_empirical([(-1.8, 1), (0.2, 0), (1.6, 1)], [0.3, 0.4, 0.3])
    base = float((m.xs[:, 0] ** 2) @ m.ws)
    for n in (2, 4):
        params = MollifierParams(n=n)
        proj = project_measure(m, np.zeros(params.n_sites), params)
        second = float((proj.xs[:, 0] ** 2) @ proj.ws)
        assert second <= 2.0 * base + 1.0


def test_mollify_is_exact_for_constants_and_survivor_mass():
    m = make_empirical([(-0.5, 1), (0.8, 0), (1.1, 1)], [0.4, 0.3, 0.3])
    res = mollify(lambda mm: 3.25, m, P2, seed=0)
    assert res.value == 3.25 and res.stderr == 0.0
    res2 = mollify(lambda mm: mm.surviving_mass(), m, P2, seed=1)
    assert abs(res2.value - m.surviving_mass()) <= 1e-12
    assert res2.stderr <= 1e-12


def test_mollify_same_seed_reproduces():
    m = make_empirical([(0.3, 1), (-0.2, 0)], [0.6, 0.4])
    u = lambda mm: float(mm.xs[:, 0] @ mm.ws)
    a = mollify(u, m, P2, seed=9)
    b = mollify(u, m, P2, seed=9)
    assert a.value == b.value and a.stderr == b.stderr
    assert a.n_samples == P2.z_samples


def test_mollified_values_converge_for_lipschitz_functionals():
    rng = np.random.default_rng(7)
    family = []
    for _ in range(10):
        k = int(rng.integers(3, 7))
        pts = [
            (float(x), int(i))
            for x, i in zip(rng.uniform(-2.0, 2.0, k), rng.integers(0, 2, k))
        ]
        family.append(make_empirical(pts, rng.random(k) + 0.1))
    u_abs = lambda m: float(np.abs(m.xs[:, 0]) @ m.ws)
    u_pos = lambda m: float(np.maximum(m.xs[:, 0], 0.0) @ m.ws)
    for u in (u_abs, u_pos):
        gaps = []
        for n in (2, 4, 8, 16):
            params = MollifierParams(n=n, z_samples=16)
            worst = max(
                abs(mollify(u, m, params, seed=5).value - u(m)) for m in family
            )
            gaps.append(worst)
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[-1] < 0.1


def test_monotonicity_probe_is_clean_for_monotone_functionals():
    params = MollifierParams(n=2, z_samples=8)
    rep = monotonicity_probe(lambda m: m.surviving_mass(), params, trials=30, seed=3)
    assert rep.n_trials == 30
    assert rep.n_violations == 0 and rep.worst_gap == 0.0

    def gauss_survivor_mass(m):
        xs, ws = m.survivors()
        return float(np.exp(-(xs[:, 0] ** 2)) @ ws)

    rep2 = monotonicity_probe(gauss_survivor_mass, params, trials=30, seed=4)
    assert rep2.n_violations == 0


def test_monotonicity_probe_flags_an_antitone_functional():
    params = MollifierParams(n=2, z_samples=4)
    rep = monotonicity_probe(
        lambda m: 1.0 - m.surviving_mass(), params, trials=20, seed=5
    )
    assert rep.n_violations > 0
    assert rep.worst_gap > 1e-6


def test_parameter_validation():
    with pytest.raises(ValueError):
        MollifierParams(n=1)
    with pytest.raises(ValueError):
        MollifierParams(n=2, z_samples=0)
    for kw in (dict(n=2.5), dict(n=True), dict(n=2, z_samples=2.5), dict(n=2, z_samples=True)):
        with pytest.raises(ValueError, match="must be an integer"):
            MollifierParams(**kw)
    m = make_empirical([(0.0, 1)])
    with pytest.raises(ValueError, match="length"):
        project_measure(m, np.zeros(5), MollifierParams(n=2))
    flat = make_empirical([((0.0, 0.0), 1)])
    with pytest.raises(ValueError, match="one-dimensional"):
        project_measure(flat, np.zeros(17), MollifierParams(n=2))


def test_mollify_rejects_non_finite_values():
    m = make_empirical([(0.0, 1)])
    with pytest.raises(ValueError, match="non-finite"):
        mollify(lambda mm: float("nan"), m, MollifierParams(n=2, z_samples=2), seed=0)
