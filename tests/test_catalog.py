"""Named benchmark instances and experiment configuration."""

import json

import numpy as np
import pytest

from mfstop.catalog import (
    ExperimentConfig,
    build_instance,
    coefficient_field,
    instance_names,
    load_experiment_config,
)
from mfstop.dynamics import MAX_NOISE_DOUBLES
from mfstop.measures import make_empirical


def test_every_named_instance_builds():
    names = instance_names()
    assert "standard_put" in names and "shortfall" in names
    for name in names:
        inst = build_instance(name)
        assert inst.name == name
        assert abs(inst.m0.ws.sum() - 1.0) <= 1e-12
        assert inst.problem.horizon > 0.0
        xs, ws = inst.m0.survivors()
        val = inst.problem.g(inst.m0.xs, inst.m0.ws)
        assert np.isfinite(val)


def test_unknown_instance_and_bad_params_raise():
    with pytest.raises(ValueError, match="unknown problem"):
        build_instance("nonexistent")
    with pytest.raises(ValueError, match="bad parameters"):
        build_instance("standard_put", bogus=3)
    with pytest.raises(ValueError):
        build_instance("shortfall", alpha=1.5)
    with pytest.raises(ValueError):
        build_instance("distortion", exponent=0.0)


@pytest.mark.parametrize("name", ["mean_variance", "mean_variance_gbm"])
@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_mean_variance_instances_refuse_a_non_finite_lam(name, lam):
    with pytest.raises(ValueError, match="lam must be finite"):
        build_instance(name, lam=lam)


def test_coefficient_field_families():
    const, uses_m = coefficient_field("constant", value=0.7)
    assert not uses_m
    assert np.allclose(const(0.0, np.array([[1.0], [2.0]]), None), 0.7)

    affine, _ = coefficient_field("affine", slope=-0.5, intercept=0.1)
    out = np.ravel(affine(0.0, np.array([[2.0]]), None))
    np.testing.assert_allclose(out, [-0.9])

    with pytest.raises(ValueError, match="unknown coefficient"):
        coefficient_field("fancy")
    with pytest.raises(ValueError):
        coefficient_field("constant", value=1.0, slope=2.0)


def test_attraction_drift_reads_the_measure():
    field, uses_m = coefficient_field("attraction", kappa=2.0)
    assert uses_m
    m = make_empirical([(0.0, 1), (2.0, 1), (5.0, 0)], [0.25, 0.25, 0.5])
    # survivor-weighted mean is 1.0; atoms are pulled toward it
    out = np.ravel(field(0.0, np.array([[0.0], [4.0]]), m))
    np.testing.assert_allclose(out, [2.0, -6.0])

    inst = build_instance("attraction")
    assert inst.problem.uses_measure


def test_experiment_config_validation():
    cfg = ExperimentConfig(problem="standard_put", seed=3)
    assert cfg.grid_n == 8 and cfg.trials == 20
    inst = cfg.instance()
    assert inst.name == "standard_put"

    with pytest.raises(ValueError, match="unknown problem"):
        ExperimentConfig(problem="wat", seed=0)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(problem="shortfall", seed=-1)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(problem="shortfall", seed=True)
    # seeds are read modulo 2^64, so 2^64 + 5 would silently rerun seed 5
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(problem="shortfall", seed=(1 << 64) + 5)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(problem="shortfall", seed=1 << 64)
    assert ExperimentConfig(problem="shortfall", seed=(1 << 64) - 1).seed == (1 << 64) - 1
    for bad in (5, 0, 2.5, True):
        with pytest.raises(ValueError, match="split_index"):
            ExperimentConfig(problem="shortfall", seed=0, grid_n=4, split_index=bad)
    with pytest.raises(ValueError, match="mollifier_n"):
        ExperimentConfig(problem="shortfall", seed=0, mollifier_n=1)
    with pytest.raises(ValueError, match="problem_params"):
        ExperimentConfig(problem="shortfall", seed=0, problem_params=[1])
    for bad in ([1], "0.9", None, True, float("nan"), float("inf"), 10**400, -(10**400)):
        with pytest.raises(ValueError, match="problem_params 'alpha' must be a finite number"):
            ExperimentConfig(problem="shortfall", seed=0, problem_params={"alpha": bad})
    assert ExperimentConfig(problem="mean_variance", seed=0, problem_params={"lam": 2}).instance()
    # the thread pools are gone; threads stays only so that old configs load
    assert ExperimentConfig(problem="shortfall", seed=0, threads=1).threads == 1
    with pytest.raises(ValueError, match="threads must be 1"):
        ExperimentConfig(problem="shortfall", seed=0, threads=2)

    d = ExperimentConfig(problem="shortfall", seed=0, split_index=4).as_dict()
    assert d["problem"] == "shortfall" and d["split_index"] == 4


def test_experiment_config_bounds_grid_n_by_the_noise_cap():
    # every particle subcommand draws grid_n x paths_per_atom doubles at least
    for grid_n, paths in ((10**21, 200), (1 << 20, 33), (2, (1 << 24) + 1)):
        with pytest.raises(ValueError, match="grid_n x paths_per_atom") as err:
            ExperimentConfig(problem="standard_put", seed=0, grid_n=grid_n, paths_per_atom=paths)
        assert "lower paths_per_atom or grid_n" in str(err.value)
    cfg = ExperimentConfig(problem="standard_put", seed=0, grid_n=1 << 20, paths_per_atom=32)
    assert cfg.grid_n * cfg.paths_per_atom == MAX_NOISE_DOUBLES


def test_load_experiment_config_errors(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_experiment_config(p)

    p.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match="object"):
        load_experiment_config(p)

    p.write_text(json.dumps({"problem": "shortfall"}))
    with pytest.raises(ValueError, match="seed"):
        load_experiment_config(p)

    p.write_text(json.dumps({"problem": "shortfall", "seed": (1 << 64) + 5}))
    with pytest.raises(ValueError, match="seed"):
        load_experiment_config(p)

    p.write_text(json.dumps({"problem": "shortfall", "seed": 1, "zzz": 2}))
    with pytest.raises(ValueError, match="unknown config field 'zzz'"):
        load_experiment_config(p)

    p.write_text(
        json.dumps(
            {
                "problem": "distortion",
                "seed": 11,
                "grid_n": 6,
                "problem_params": {"exponent": 0.5},
            }
        )
    )
    cfg = load_experiment_config(p)
    assert cfg.seed == 11 and cfg.grid_n == 6
    assert cfg.instance().params["exponent"] == 0.5


def test_truncated_gbm_instance_decays_fast_enough():
    inst = build_instance("mean_variance_gbm")
    assert inst.problem.truncated_horizon
    # drift strong enough that the state is near zero by the horizon
    b0 = -0.5
    assert b0 * inst.problem.horizon <= -3.0
