"""Command-line harness: exit codes, artifact envelopes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib.resources import files

import pytest

from mfstop import cli
from mfstop.measures import measure_from_csv

BUNDLED_PUT = str(files("mfstop").joinpath("configs", "standard_put.json"))


def _write_config(tmp_path, name="cfg.json", **overrides):
    payload = {
        "problem": "standard_put",
        "seed": 3,
        "grid_n": 4,
        "paths_per_atom": 40,
        "mollifier_n": 4,
        "z_samples": 32,
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _load_artifact(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_config_field_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"problem": "standard_put", "seed": 1, "zzz": 5}')
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "zzz" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "absent.json")]) == 1


def test_solve_without_config_exits_2(capsys):
    assert cli.main(["solve"]) == 2
    assert "config" in capsys.readouterr().err


def test_usage_error_exits_2():
    # argparse handles malformed flags itself
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["solve", "--seed", "-3"])
    assert excinfo.value.code == 2


def test_example_problem_mismatch_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, problem="mean_variance")
    assert cli.main(["example", "standard", "--config", path]) == 2
    assert "'problem'" in capsys.readouterr().err


def test_residual_time_out_of_range_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert cli.main(["residual", "--config", path, "--time", "99.0"]) == 2
    assert "time" in capsys.readouterr().err.lower()


def test_config_seed_beyond_u64_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, seed=(1 << 64) + 5)
    assert cli.main(["solve", "--config", path]) == 2
    assert "seed" in capsys.readouterr().err


def test_config_with_a_nan_lam_exits_2_on_load(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("mfstop.solver.solve_value", _raise(AssertionError("solver ran")))
    path = _write_config(tmp_path, problem="mean_variance", problem_params={"lam": float("nan")})
    assert cli.main(["solve", "--config", path]) == 2
    assert "lam" in capsys.readouterr().err


def test_threads_other_than_one_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    from mfstop import acceptance

    monkeypatch.setattr("mfstop.solver.solve_value", _raise(AssertionError("solver ran")))
    monkeypatch.setattr(acceptance, "run_all", _raise(AssertionError("acceptance ran")))
    path = _write_config(tmp_path)
    assert cli.main(["solve", "--config", path, "--threads", "2"]) == 2
    assert "threads must be 1" in capsys.readouterr().err
    assert cli.main(["solve", "--config", _write_config(tmp_path, "threads.json", threads=2)]) == 2
    assert "threads must be 1" in capsys.readouterr().err
    assert cli.main(["acceptance", "--threads", "2", "--quiet"]) == 2
    assert "threads must be 1" in capsys.readouterr().err


@pytest.mark.parametrize("split_index", [2.5, True])
def test_non_integer_split_index_exits_2(tmp_path, capsys, monkeypatch, split_index):
    monkeypatch.setattr("mfstop.solver.verify_dpp", _raise(AssertionError("verify_dpp ran")))
    path = _write_config(tmp_path, split_index=split_index)
    assert cli.main(["verify-dpp", "--config", path]) == 2
    assert "split_index" in capsys.readouterr().err


@pytest.mark.parametrize("problem", [["standard_put"], {"name": "standard_put"}],
                         ids=["list", "object"])
def test_non_string_problem_exits_2(tmp_path, capsys, problem):
    assert cli.main(["mollify", "--config", _write_config(tmp_path, problem=problem)]) == 2
    assert "unknown problem" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty"),
        ("x0,i,w\n0.5,1\n", "line 2 has 2 fields"),
        ("x0,i,w\n0.5,1,1.0,7\n", "line 2 has 4 fields"),
    ],
    ids=["empty", "short-row", "long-row"],
)
def test_malformed_measure_csv_exits_2(tmp_path, capsys, text, message):
    measure = tmp_path / "m.csv"
    measure.write_text(text)
    assert cli.main(["mollify", "--config", _write_config(tmp_path), "--measure", str(measure)]) == 2
    assert message in capsys.readouterr().err


def test_noise_cap_exits_2_before_any_draw(tmp_path, capsys, monkeypatch):
    import mfstop.rng

    monkeypatch.setattr(mfstop.rng, "normals", _raise(AssertionError("noise drawn")))
    # 4 atoms x 8 nodes x 2^20 paths is exactly the cap
    path = _write_config(tmp_path, grid_n=8, paths_per_atom=(1 << 20) + 1)
    for command in ("simulate", "solve"):
        assert cli.main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert "paths_per_atom" in err and "grid_n" in err


def test_grid_n_over_the_noise_cap_exits_2_at_once(tmp_path, capsys, monkeypatch):
    import mfstop.rng

    monkeypatch.setattr(mfstop.rng, "normals", _raise(AssertionError("noise drawn")))
    # nor is the never-stop policy over grid_n nodes built
    monkeypatch.setattr("mfstop.policy.Policy.never_stop", _raise(AssertionError("policy built")))
    path = _write_config(tmp_path, grid_n=10**21)
    assert cli.main(["simulate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "grid_n" in err and "paths_per_atom" in err


def _raise(exc):
    def handler(*args, **kwargs):
        raise exc

    return handler


def test_solver_failure_exits_4(tmp_path, capsys, monkeypatch):
    # the obstacle solver raises RuntimeError when it does not converge
    failure = "obstacle step did not settle within 481 policy iterations"
    monkeypatch.setattr("mfstop.pde.standard_os_pde", _raise(RuntimeError(failure)))
    path = _write_config(tmp_path)
    assert cli.main(["residual", "--config", path]) == 4
    err = capsys.readouterr().err
    assert "could not finish" in err and failure in err


def test_memory_exhaustion_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("mfstop.policy.run_policy", _raise(MemoryError()))
    path = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 4
    assert "MemoryError" in capsys.readouterr().err
    assert not (tmp_path / "out" / "simulate.json").exists()


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def test_simulate_writes_envelope_and_terminal_measure(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "run")
    assert cli.main(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 0

    payload = _load_artifact(out, "simulate.json")
    for key in ("subcommand", "config_sha256", "seed", "version", "runtime_ms"):
        assert key in payload
    assert payload["subcommand"] == "simulate"
    assert payload["seed"] == 3
    assert payload["n_paths"] == 4 * 40

    terminal = measure_from_csv(os.path.join(out, "simulate_terminal.csv"))
    assert abs(terminal.ws.sum() - 1.0) < 1e-9


def test_simulate_writes_every_artifact_atomically(tmp_path, monkeypatch):
    written = []
    dump = cli.dump_text_atomic

    def recording(path, text):
        written.append(os.path.basename(path))
        dump(path, text)

    monkeypatch.setattr(cli, "dump_text_atomic", recording)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", _write_config(tmp_path), "--out", str(out),
                     "--quiet"]) == 0
    assert sorted(written) == sorted(os.listdir(out)) == ["simulate.json", "simulate_terminal.csv"]


def test_repeat_run_same_seed_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert cli.main(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 0
        outs.append(out)

    def stable_lines(out_dir):
        with open(os.path.join(out_dir, "simulate.json")) as fh:
            return [ln for ln in fh if "runtime_ms" not in ln]

    assert stable_lines(outs[0]) == stable_lines(outs[1])
    csvs = [open(os.path.join(o, "simulate_terminal.csv"), "rb").read() for o in outs]
    assert csvs[0] == csvs[1]


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["simulate", "--config", cfg, "--out", out_a, "--quiet"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--seed", "99",
                     "--out", out_b, "--quiet"]) == 0
    a = _load_artifact(out_a, "simulate.json")
    b = _load_artifact(out_b, "simulate.json")
    assert a["seed"] == 3 and b["seed"] == 99
    assert a["value_never_stop"] != b["value_never_stop"]
    # seed is part of the effective config, so the hash moves with it
    assert a["config_sha256"] != b["config_sha256"]


def test_stdout_mode_prints_json(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert cli.main(["mollify", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["subcommand"] == "mollify"
    assert payload["value"] == pytest.approx(payload["raw_value"], abs=0.5)


# ---------------------------------------------------------------------------
# bundled configs and example tables
# ---------------------------------------------------------------------------


def test_solve_bundled_put_matches_aggregate_oracle(tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["solve", "--config", BUNDLED_PUT, "--out", out, "--quiet"]) == 0
    payload = _load_artifact(out, "solve.json")
    tol = max(0.02 * abs(payload["aggregate_oracle"]), 3.0 * payload["mc_stderr"])
    assert payload["abs_gap"] <= tol
    assert len(payload["policy"]["nodes"]) == 8


def _read_table(path):
    rows = []
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    assert header == ["parameter", "value", "oracle_value", "abs_gap", "stderr"]
    for ln in lines[1:]:
        cells = ln.split(",")
        rows.append({"parameter": cells[0],
                     **{k: float(v) for k, v in zip(header[1:], cells[1:])}})
    return rows


def test_example_distortion_table_matches_quadrature(tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["example", "distortion", "--out", out, "--quiet"]) == 0
    rows = _read_table(os.path.join(out, "example_distortion.csv"))
    assert len(rows) == 3
    for row in rows:
        assert row["abs_gap"] <= 1e-10


def test_example_table_embeds_config_hash(tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["example", "distortion", "--out", out, "--quiet"]) == 0
    with open(os.path.join(out, "example_distortion.csv")) as fh:
        head = [fh.readline() for _ in range(3)]
    assert head[0].startswith("# config_sha256=")
    assert head[1].startswith("# seed=")
    assert head[2].startswith("# version=")


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

STARTUP = """
import sys
from importlib.resources import files
import mfstop.cli
from mfstop.catalog import build_instance, instance_names, load_experiment_config
for path in sorted(files("mfstop").joinpath("configs").iterdir()):
    if path.name.endswith(".json"):
        load_experiment_config(str(path)).instance()
for name in instance_names():
    build_instance(name)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print("concurrent.futures" in sys.modules)
print(sorted(m for m in sys.modules if m.split(".")[0] == "mfstop"))
"""

# the mfstop modules the set-up path loads: a module added to it adds to the
# start-up of every CLI call
STARTUP_MODULES = [
    "mfstop", "mfstop.catalog", "mfstop.cli", "mfstop.dynamics", "mfstop.measures",
    "mfstop.pde", "mfstop.risk", "mfstop.rng", "mfstop.util",
]


def test_cli_import_and_catalog_builds_leave_scipy_unloaded():
    # scipy costs about half a second to import; only the transport LP needs
    # it, and it loads it when it runs. No code
    # path uses a thread pool, so concurrent.futures must not load either,
    # and the set-up path loads exactly the mfstop modules it loads today.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", STARTUP], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "False", repr(STARTUP_MODULES)]


@pytest.mark.parametrize(
    "argv",
    [["solve", "--config", BUNDLED_PUT], ["example", "es"]],
    ids=["solve-put", "example-es"],
)
def test_obstacle_routes_leave_scipy_unloaded(tmp_path, argv):
    # the obstacle sweep binds its LAPACK pair from numpy's own library
    code = (
        "import sys; from mfstop import cli; "
        f"assert cli.main({argv + ['--out', str(tmp_path), '--quiet']!r}) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_example_distortion_loads_only_the_set_up_modules(tmp_path):
    # the table needs no layer beyond the set-up path; its oracle lives in
    # risk, so no example loads the acceptance suite
    code = (
        "import sys; from mfstop import cli; "
        f"assert cli.main(['example', 'distortion', '--out', {str(tmp_path)!r}, '--quiet']) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mfstop'))"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == repr(STARTUP_MODULES)
    assert (tmp_path / "example_distortion.csv").exists()


def test_importing_the_cli_loads_no_layer_a_subcommand_runs():
    # each subcommand imports the layers it runs; dispatch and config
    # loading need none of them
    layers = ["mfstop." + name for name in ("solver", "policy", "calculus", "mollifier")]
    code = f"import sys, mfstop.cli; print([m for m in {layers!r} if m in sys.modules])"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
