"""Command line harness: one declarative config in, JSON/CSV artifacts out.

Subcommands map onto the library surface one-to-one. `simulate` runs the
never-stop dynamics, `solve` searches for the best stopping policy,
`verify-dpp` replays the two-stage consistency check, `residual` and
`mollify` operate on a measure (the instance's initial law unless a CSV is
given), `example` reproduces the benchmark tables as CSV, and `acceptance`
runs the pinned verification suite. Each subcommand imports the layers it
runs, so `import mfstop.cli` loads only what dispatch and config loading need.

Every JSON artifact embeds the sha256 of the resolved config, the seed, the
package version, and a runtime_ms field; reruns with equal seeds reproduce
the artifact byte for byte apart from runtime_ms. With --out the artifacts
are written atomically into the given directory, otherwise they go to
stdout. Exit codes: 0 success, 1 I/O failure, 2 validation failure, 3 a
tolerance failure inside `acceptance`, 4 the computation could not finish
(the obstacle or transport solver failed, or memory ran out). Validation
includes a cap checked before anything is allocated: at most
`dynamics.MAX_NOISE_DOUBLES` doubles of particle noise in one run or search.
`threads` (config field or `--threads`) must be 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .catalog import ExperimentConfig, build_instance, load_experiment_config
from .dynamics import TimeGrid
from .measures import measure_from_csv, measure_to_csv
from .util import check_threads, config_digest, dump_text_atomic

__all__ = ["main"]

_EXAMPLES = ("standard", "meanvar", "es", "distortion")

# which catalog instance each example table is built on
_EXAMPLE_PROBLEM = {
    "standard": "standard_put",
    "meanvar": "mean_variance",
    "es": "shortfall",
    "distortion": "distortion",
}


# ---------------------------------------------------------------------------
# config resolution and artifact plumbing
# ---------------------------------------------------------------------------


def _resolve_config(args, default_problem: str | None = None) -> ExperimentConfig:
    """Load the config file, or fall back to a default problem; apply flags."""
    if args.config is not None:
        cfg = load_experiment_config(args.config)
    elif default_problem is not None:
        cfg = ExperimentConfig(problem=default_problem, seed=0)
    else:
        raise ValueError("this subcommand needs a config file (pass --config)")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    return cfg


def _envelope(subcommand: str, cfg: ExperimentConfig, t0: float, body: dict) -> dict:
    return {
        "subcommand": subcommand,
        "config_sha256": config_digest(cfg.as_dict()),
        "seed": cfg.seed,
        "version": __version__,
        "runtime_ms": int(round((time.perf_counter() - t0) * 1000.0)),
        **body,
    }


def _emit_json(args, name: str, payload: dict) -> None:
    _emit_text(args, name, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_text(args, name: str, text: str) -> None:
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        dump_text_atomic(path, text)
        if not args.quiet:
            print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _value_table(rows: list[dict], cfg: ExperimentConfig) -> str:
    """CSV with the example columns, prefixed by identifying comment lines."""
    buf = io.StringIO()
    buf.write(f"# config_sha256={config_digest(cfg.as_dict())}\n")
    buf.write(f"# seed={cfg.seed}\n")
    buf.write(f"# version={__version__}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["parameter", "value", "oracle_value", "abs_gap", "stderr"])
    for r in rows:
        writer.writerow(
            [
                r["parameter"],
                repr(float(r["value"])),
                repr(float(r["oracle_value"])),
                repr(float(r["abs_gap"])),
                repr(float(r["stderr"])),
            ]
        )
    return buf.getvalue()


def _load_measure(args, inst):
    if getattr(args, "measure", None) is not None:
        return measure_from_csv(args.measure)
    return inst.m0


def _row(parameter: str, value: float, oracle: float, stderr: float) -> dict:
    return {
        "parameter": parameter,
        "value": float(value),
        "oracle_value": float(oracle),
        "abs_gap": abs(float(value) - float(oracle)),
        "stderr": float(stderr),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    from .policy import BOOTSTRAP_RESAMPLES, Policy, run_policy

    t0 = time.perf_counter()
    cfg = _resolve_config(args)
    inst = cfg.instance()
    grid = TimeGrid(cfg.grid_n, inst.problem.horizon)
    run = run_policy(
        inst.m0, inst.problem, grid, Policy.never_stop(grid.n).maps, cfg.paths_per_atom, cfg.seed
    )
    est = run.estimate(cfg.seed, BOOTSTRAP_RESAMPLES)
    terminal = run.particles.snapshot()
    xs, ws = terminal.x_marginal()
    body = {
        "problem": cfg.problem,
        "grid_n": cfg.grid_n,
        "paths_per_atom": cfg.paths_per_atom,
        "value_never_stop": est.value,
        "mc_stderr": est.mc_stderr,
        "n_paths": est.n_paths,
        "survivor_mass_mean": float(np.mean(run.survivor_mass)),
        "terminal_mean": float(xs[:, 0] @ ws),
        "terminal_second_moment": float(xs[:, 0] ** 2 @ ws),
    }
    if args.out is not None:
        buf = io.StringIO()
        measure_to_csv(terminal, buf)
        _emit_text(args, "simulate_terminal.csv", buf.getvalue())
        body["terminal_measure_csv"] = "simulate_terminal.csv"
    _emit_json(args, "simulate.json", _envelope("simulate", cfg, t0, body))
    return 0


def _cmd_solve(args) -> int:
    from .pde import aggregate_value, standard_os_pde
    from .policy import policy_to_json
    from .solver import SearchConfig, solve_value

    t0 = time.perf_counter()
    cfg = _resolve_config(args)
    inst = cfg.instance()
    grid = TimeGrid(cfg.grid_n, inst.problem.horizon)
    scfg = SearchConfig(paths_per_atom=cfg.paths_per_atom)
    result = solve_value(inst.m0, inst.problem, grid, scfg, seed=cfg.seed)
    body = {
        "problem": cfg.problem,
        "grid_n": cfg.grid_n,
        "value": result.estimate.value,
        "mc_stderr": result.estimate.mc_stderr,
        "n_paths": result.estimate.n_paths,
        "converged": result.converged,
        "n_evaluations": result.n_evaluations,
        "policy": json.loads(policy_to_json(result.policy)),
    }
    if inst.psi is not None and inst.pde_cfg is not None and not inst.problem.uses_measure:
        pde = standard_os_pde(inst.problem, inst.psi, inst.pde_cfg)
        oracle = aggregate_value(inst.m0, pde, inst.psi)
        body["aggregate_oracle"] = oracle
        body["abs_gap"] = abs(result.estimate.value - oracle)
    _emit_json(args, "solve.json", _envelope("solve", cfg, t0, body))
    return 0


def _cmd_verify_dpp(args) -> int:
    from .solver import SearchConfig, verify_dpp

    t0 = time.perf_counter()
    cfg = _resolve_config(args)
    inst = cfg.instance()
    grid = TimeGrid(cfg.grid_n, inst.problem.horizon)
    split = cfg.split_index if cfg.split_index is not None else max(1, cfg.grid_n // 2)
    scfg = SearchConfig(paths_per_atom=cfg.paths_per_atom)
    report = verify_dpp(inst.m0, inst.problem, grid, split, scfg, seed=cfg.seed)
    body = {"problem": cfg.problem, **asdict(report)}
    body["within_three_stderr"] = bool(
        abs(report.residual) <= 3.0 * report.combined_stderr + 1e-12
    )
    _emit_json(args, "dpp.json", _envelope("verify-dpp", cfg, t0, body))
    return 0


def _cmd_residual(args) -> int:
    from .calculus import BUMP_H, ResidualConfig, make_unstopped_functional, obstacle_residual
    from .pde import aggregate_value, standard_os_pde

    t0 = time.perf_counter()
    cfg = _resolve_config(args)
    inst = cfg.instance()
    problem = inst.problem
    m = _load_measure(args, inst)
    t = float(args.time)
    if not 0.0 <= t <= problem.horizon:
        raise ValueError(f"--time must lie in [0, {problem.horizon}]")

    if inst.psi is not None and inst.pde_cfg is not None and not problem.uses_measure:
        # one-particle reduction available: interrogate the aggregated surface
        pde = standard_os_pde(problem, inst.psi, inst.pde_cfg)
        u = lambda tt, mm: aggregate_value(mm, pde, inst.psi, t=tt)
        # the surface is piecewise linear in x, so probes must span a few cells
        h = 0.04
        route = "aggregate"
    else:
        # key the noise by m's atoms, so every probe around an atom shares its draws
        u = make_unstopped_functional(
            problem, paths_per_atom=cfg.paths_per_atom * 10, seed=cfg.seed, anchors=m.xs[:, 0]
        )
        h = BUMP_H
        route = "simulated"

    rcfg = ResidualConfig(n_stop_maps=cfg.trials, seed=cfg.seed, h=h)
    report = obstacle_residual(u, t, m, problem, rcfg)
    body = {"problem": cfg.problem, "route": route, "t": t, "n_atoms": m.n_atoms, **report}
    _emit_json(args, "residual.json", _envelope("residual", cfg, t0, body))
    return 0


def _cmd_mollify(args) -> int:
    from .mollifier import MollifierParams, mollify

    t0 = time.perf_counter()
    cfg = _resolve_config(args)
    inst = cfg.instance()
    m = _load_measure(args, inst)
    functional = lambda mm: inst.problem.terminal(*mm.x_marginal())
    params = MollifierParams(n=cfg.mollifier_n, z_samples=cfg.z_samples)
    result = mollify(functional, m, params, seed=cfg.seed)
    raw = functional(m)
    body = {
        "problem": cfg.problem,
        "n_atoms": m.n_atoms,
        "lattice_n": cfg.mollifier_n,
        "lattice_sites": params.n_sites,
        "z_samples": cfg.z_samples,
        "raw_value": raw,
        "value": result.value,
        "stderr": result.stderr,
        "abs_gap": abs(result.value - raw),
        "n_samples": result.n_samples,
    }
    _emit_json(args, "mollify.json", _envelope("mollify", cfg, t0, body))
    return 0


# ---------------------------------------------------------------------------
# example tables
# ---------------------------------------------------------------------------


def _example_standard(cfg: ExperimentConfig) -> list[dict]:
    from .pde import aggregate_value, standard_os_pde
    from .solver import SearchConfig, solve_value

    inst = build_instance("standard_put", **cfg.problem_params)
    pde = standard_os_pde(inst.problem, inst.psi, inst.pde_cfg)
    oracle = aggregate_value(inst.m0, pde, inst.psi)
    rows = []
    for n in (4, 8):
        grid = TimeGrid(n, inst.problem.horizon)
        scfg = SearchConfig(paths_per_atom=cfg.paths_per_atom)
        est, _ = solve_value(inst.m0, inst.problem, grid, scfg, seed=cfg.seed)
        rows.append(_row(f"grid_n={n}", est.value, oracle, est.mc_stderr))
    return rows


def _example_meanvar(cfg: ExperimentConfig, args) -> list[dict]:
    from .risk import mean_variance_dual, meanvar_alpha_star_path

    rows = []
    for lam in (0.0, 0.5, 1.0, 2.0):
        inst = build_instance("mean_variance", lam=lam)
        xs, ws = inst.m0.x_marginal()
        # martingale dynamics: waiting only spreads the law, so stopping at
        # once is optimal and the value collapses to the reward of m0
        oracle = inst.problem.terminal(xs, ws)
        dual = mean_variance_dual(inst.m0, inst.problem, lam, inst.pde_cfg)
        rows.append(_row(f"lam={lam:g}", dual.value, oracle, 0.0))

    inst = build_instance("mean_variance", lam=1.0)
    grid = TimeGrid(cfg.grid_n, inst.problem.horizon)
    t0 = time.perf_counter()
    path = meanvar_alpha_star_path(
        inst.m0, inst.problem, 1.0, inst.pde_cfg, grid,
        paths_per_atom=cfg.paths_per_atom, seed=cfg.seed,
    )
    alphas = [p["alpha_star"] for p in path]
    side = {
        "lam": 1.0,
        "checkpoints": path,
        "alpha_star_drift": float(max(alphas) - min(alphas)),
    }
    _emit_json(args, "example_meanvar_alpha_path.json",
               _envelope("example", cfg, t0, side))
    return rows


def _example_es(cfg: ExperimentConfig) -> list[dict]:
    from .risk import expected_shortfall, expected_shortfall_value

    rows = []
    for alpha in (0.5, 0.75, 0.9):
        inst = build_instance("shortfall", alpha=alpha)
        xs, ws = inst.m0.x_marginal()
        # martingale dynamics again: (x - beta)+ is convex, waiting raises
        # every beta-objective, so the reachable minimum is the current ES
        oracle = expected_shortfall(xs[:, 0], ws, alpha)
        res = expected_shortfall_value(inst.m0, inst.problem, alpha, inst.pde_cfg)
        rows.append(_row(f"alpha={alpha:g}", res.value, oracle, 0.0))
    return rows


def _example_distortion(cfg: ExperimentConfig) -> list[dict]:
    from .acceptance import quadrature_distortion
    from .risk import distortion_g

    inst = build_instance("distortion", **cfg.problem_params)
    xs, ws = inst.m0.x_marginal()
    rows = []
    for exponent in (0.5, 0.7, 0.9):
        phi = lambda u, e=exponent: np.power(np.asarray(u, dtype=float), e)
        value = distortion_g(inst.m0, phi, inst.psi)
        levels = np.asarray(inst.psi(xs[:, 0]), dtype=float)
        oracle = quadrature_distortion(levels, ws, phi)
        rows.append(_row(f"exponent={exponent:g}", value, oracle, 0.0))
    return rows


def _cmd_example(args) -> int:
    cfg = _resolve_config(args, default_problem=_EXAMPLE_PROBLEM[args.which])
    if cfg.problem != _EXAMPLE_PROBLEM[args.which]:
        raise ValueError(
            f"config field 'problem' is {cfg.problem!r} but example "
            f"'{args.which}' runs on {_EXAMPLE_PROBLEM[args.which]!r}"
        )
    if args.which == "standard":
        rows = _example_standard(cfg)
    elif args.which == "meanvar":
        rows = _example_meanvar(cfg, args)
    elif args.which == "es":
        rows = _example_es(cfg)
    else:
        rows = _example_distortion(cfg)
    _emit_text(args, f"example_{args.which}.csv", _value_table(rows, cfg))
    return 0


def _cmd_acceptance(args) -> int:
    from . import acceptance

    t0 = time.perf_counter()
    if args.threads is not None:
        check_threads(args.threads)
    results = acceptance.run_all(quiet=args.quiet)
    body = {
        "n_criteria": len(results),
        "n_passed": sum(r.passed for r in results),
        "criteria": [asdict(r) for r in results],
    }
    if args.out is not None:
        cfg = ExperimentConfig(problem="standard_put", seed=0)
        _emit_json(args, "acceptance.json", _envelope("acceptance", cfg, t0, body))
    ok = all(r.passed for r in results)
    if not args.quiet:
        print(f"{body['n_passed']}/{body['n_criteria']} criteria passed")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="experiment config (JSON)")
    common.add_argument("--seed", type=_u64, metavar="U64", help="override the config seed")
    common.add_argument("--out", metavar="DIR", help="directory for artifacts (default: stdout)")
    common.add_argument("--threads", type=int, metavar="K", help="must be 1 (kept for old scripts)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="mfstop",
        description="Particle laboratory for mean-field optimal stopping.",
        epilog="Sample configs ship inside the package under mfstop/configs/.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="never-stop dynamics: objective and terminal law")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("solve", parents=[common],
                       help="policy search for the stopping value")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("verify-dpp", parents=[common],
                       help="two-stage consistency check of the value")
    p.set_defaults(handler=_cmd_verify_dpp)

    p = sub.add_parser("residual", parents=[common],
                       help="obstacle-equation residual report at (t, m)")
    p.add_argument("--measure", metavar="CSV", help="measure file (default: initial law)")
    p.add_argument("--time", type=float, default=0.0, metavar="T", help="evaluation time")
    p.set_defaults(handler=_cmd_residual)

    p = sub.add_parser("mollify", parents=[common],
                       help="smoothed terminal reward of a measure")
    p.add_argument("--measure", metavar="CSV", help="measure file (default: initial law)")
    p.set_defaults(handler=_cmd_mollify)

    p = sub.add_parser("example", parents=[common],
                       help="benchmark value tables (CSV)")
    p.add_argument("which", choices=_EXAMPLES)
    p.set_defaults(handler=_cmd_example)

    p = sub.add_parser("acceptance", parents=[common],
                       help="run the pinned verification suite")
    p.set_defaults(handler=_cmd_acceptance)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, MemoryError) as exc:
        print(f"error: the computation could not finish ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
