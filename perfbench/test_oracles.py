"""Tests of the benchmark's own references and operation lists.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench
"""

from itertools import islice

import pytest

import oracles
import workloads

PUT_ATOMS = [(0.6, 1, 0.3), (0.9, 1, 0.3), (1.1, 0, 0.2), (1.4, 1, 0.2)]
MV_ATOMS = [(0.2, 1, 0.5), (1.0, 1, 0.3), (1.8, 1, 0.2)]
ES_ATOMS = [(-0.5, 1, 0.25), (0.3, 1, 0.35), (1.2, 1, 0.4)]


def test_gaussian_put_of_one_atom():
    # 0.4 Phi(0.4) + phi(0.4) with Phi(0.4) = 0.6554217416, phi(0.4) = 0.3682701403
    assert oracles.bachelier_put(0.6, 1.0, 1.0, 1.0) == pytest.approx(0.6304388369, abs=1e-9)
    # at the money only the time value sigma sqrt(T) / sqrt(2 pi) is left
    assert oracles.bachelier_put(1.0, 1.0, 2.0, 0.25) == pytest.approx(0.3989422804, abs=1e-9)


def test_gaussian_put_aggregate_of_standard_put():
    # the stopped atom at 1.1 holds its payoff (1 - 1.1)+ = 0
    value = oracles.aggregate_put(PUT_ATOMS, 1.0, 1.0, 1.0)
    assert value == pytest.approx(0.37050, abs=5e-6)


def test_static_shortfall_of_shortfall_atoms():
    assert oracles.static_shortfall(ES_ATOMS, 0.5) == pytest.approx(1.02, abs=1e-12)
    assert oracles.static_shortfall(ES_ATOMS, 0.75) == pytest.approx(1.2, abs=1e-12)
    assert oracles.static_shortfall(ES_ATOMS, 0.9) == pytest.approx(1.2, abs=1e-12)
    # a tail reaching into the lowest atom: (0.4*1.2 + 0.35*0.3 - 0.05*0.5) / 0.8
    assert oracles.static_shortfall(ES_ATOMS, 0.2) == pytest.approx(0.7, abs=1e-12)


def test_mean_variance_reward_of_mean_variance_start_law():
    assert oracles.mean_variance_reward(MV_ATOMS, 1.0) == pytest.approx(0.5648, abs=1e-12)
    assert oracles.mean_variance_reward(MV_ATOMS, 0.0) == pytest.approx(0.76, abs=1e-12)


def test_references_read_the_catalog_atoms():
    from mfstop.catalog import build_instance

    def atoms(name):
        return workloads._atoms(build_instance(name).m0)

    flat = lambda rows: [v for row in sorted(rows, key=lambda a: (a[1], a[0])) for v in row]
    assert flat(atoms("standard_put")) == pytest.approx(flat(PUT_ATOMS))
    assert oracles.mean(atoms("attraction")) == pytest.approx(0.1, abs=1e-12)
    assert oracles.mean_variance_reward(atoms("mean_variance"), 1.0) == pytest.approx(0.5648)
    assert oracles.static_shortfall(atoms("shortfall"), 0.5) == pytest.approx(1.02)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_one_operation_list(workload):
    first = list(islice(workloads.rounds(workload, 7), 3))
    again = list(islice(workloads.rounds(workload, 7), 3))
    other = list(islice(workloads.rounds(workload, 8), 3))
    assert first == again
    assert first != other
    assert len({len(r) for r in first + other}) == 1


def test_search_rounds_hold_the_same_pool():
    key = lambda op: (op.args["config"], op.args["seed"])
    for seed in range(5):
        for ops in islice(workloads.rounds("search", seed), 2):
            assert sorted(map(key, ops)) == sorted(
                (c, s) for c in workloads.SEARCH_CONFIGS for s in workloads.SEARCH_SEEDS)


def test_known_fault_operation_does_not_depend_on_seed():
    faulty = {seed: [op for op in next(workloads.rounds("residual", seed)) if op.known_fault]
              for seed in range(10)}
    assert all(ops == faulty[0] for ops in faulty.values())
    assert len(faulty[0]) == 1


def test_drawn_laws_keep_probes_inside_their_noise_bucket():
    for seed in range(50):
        for op in next(workloads.rounds("residual", seed)):
            if op.known_fault:
                continue
            atoms = op.args["atoms"]
            assert sum(w for _, _, w in atoms) == pytest.approx(1.0)
            for x, _, _ in atoms:
                h = 1e-3 * (1.0 + abs(x))
                edge = workloads.NOISE_BUCKET * round(x / workloads.NOISE_BUCKET)
                assert abs(x - edge) > h


def test_harrell_davis_median():
    import run

    assert run.median_hd([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert run.median_hd([4.0, 1.0, 3.0, 2.0]) == pytest.approx(2.5)
    # a gap at the middle moves the estimate smoothly, not by the gap's width
    low, high = [1.0] * 10, [2.0] * 10
    assert run.median_hd(low + high) == pytest.approx(1.5)
    assert 1.5 < run.median_hd(low[:-1] + high + [2.0]) < 1.7
