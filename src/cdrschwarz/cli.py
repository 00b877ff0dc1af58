"""Command line interface.

Subcommands mirror the pipeline stages; all accept ``--config`` (defaults
apply when omitted), ``--out`` (overrides ``output.dir``), ``--seed``
(reserved; every stage is deterministic), and ``--lambda-grid`` (overrides
the monolithic regularization grid). Exit codes: 0 success, 2 configuration
error, 3 numerical failure (divergence, singular factorization, or a coupled
run with a window that did not converge; its outputs are still written).
"""

import argparse
import sys

import numpy as np

from . import driver
from .config import RunConfig, parse_config
from .errors import ConfigurationError, DivergenceError, FactorizationError


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="experiment configuration file "
                             "(omit for the default experiment)")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default: output.dir)")
    common.add_argument("--seed", type=int, default=None,
                        help="reserved; runs are deterministic")
    common.add_argument("--lambda-grid", metavar="L0,L1,...",
                        help="regularization grid for the monolithic "
                             "reduced model")
    parser = argparse.ArgumentParser(
        prog="cdrschwarz",
        description="Coupled finite element / reduced order subdomain "
                    "solver for the convection-diffusion-reaction equation")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run-fom", parents=[common],
                   help="monolithic finite element reference run")
    sub.add_parser("run-schwarz", parents=[common],
                   help="all-FE coupled run")
    sub.add_parser("train", parents=[common],
                   help="train per-subdomain reduced operators")
    sub.add_parser("run-hybrid", parents=[common],
                   help="coupled run with the configured model assignment")
    sub.add_parser("run-mono-opinf", parents=[common],
                   help="monolithic reduced model trained on the reference")
    sub.add_parser("compare", parents=[common],
                   help="run every model and report times and errors")
    return parser


def _load_config(args):
    if args.config is None:
        cfg = RunConfig().validate()
    else:
        cfg = parse_config(args.config)
    return cfg


def _parse_grid(text):
    if text is None:
        return None
    try:
        grid = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigurationError(f"bad lambda grid {text!r}") from None
    if not grid:
        raise ConfigurationError("lambda grid is empty")
    if any(not (np.isfinite(l) and l >= 0.0) for l in grid):
        raise ConfigurationError(f"lambda grid values must be >= 0: {text}")
    return grid


#: Coupled models of the comparison report; an unconverged one exits 3.
_COUPLED_MODELS = ("all-fe-dd", "hybrid-dd")

#: Message prefix naming the all-FE run whose snapshots train the operators.
_TRAINING_RUN = "training data run: "


def _iteration_summary(run):
    counts = np.bincount(np.minimum(run.iterations, 5), minlength=6)[1:]
    return (f"windows {run.iterations.shape[0]}, iterations "
            f"mean {float(np.mean(run.iterations)):.2f} / "
            f"max {int(np.max(run.iterations))}, windows by sweeps "
            f"1/2/3/4/5+: {'/'.join(str(c) for c in counts)}, "
            f"{'all converged' if run.converged else 'NOT ALL CONVERGED'}")


def _numerical_failure(message):
    print(f"numerical failure: {message}", file=sys.stderr)
    return 3


def _coupled_exit_code(run, prefix=""):
    """0, or 3 after naming the first unconverged window of ``run``."""
    if run.converged:
        return 0
    w = int(np.flatnonzero(~run.window_converged)[0])
    config = run.config
    t_end = (w + 1) * config.window_dt
    return _numerical_failure(
        f"{prefix}coupled window {w + 1} of {run.iterations.shape[0]} "
        f"(ending at t={t_end:g}) did not converge within max_iters = "
        f"{config.max_iters}")


def _dispatch(args):
    cfg = _load_config(args)
    out_dir = args.out if args.out is not None else cfg.out_dir
    grid = _parse_grid(args.lambda_grid)
    if args.command == "run-fom":
        result = driver.cmd_run_fom(cfg, out_dir=out_dir)
        print(f"monolithic reference: {cfg.nx}x{cfg.ny} mesh, "
              f"{result.trajectory.n_times} snapshots, solve "
              f"{result.timings['solve_seconds']:.3f}s, outputs in {out_dir}")
    elif args.command == "run-schwarz":
        run = driver.cmd_run_schwarz(cfg, out_dir=out_dir)
        print(f"all-FE coupled run: {_iteration_summary(run)}, solve "
              f"{run.timings['solve_seconds']:.3f}s, outputs in {out_dir}")
        return _coupled_exit_code(run)
    elif args.command == "train":
        result = driver.cmd_train(cfg, out_dir=out_dir)
        for i, item in sorted(result.trained.items()):
            fit = item.ops.fit
            print(f"subdomain {i + 1}: r={item.basis.r}, "
                  f"lambda={item.lam:g}, retained energy "
                  f"{item.energy:.12f}, max Re eig(Khat) "
                  f"{item.max_re_eig_khat:.6g}, D {fit.data_shape[0]}x"
                  f"{fit.data_shape[1]} of rank {fit.rank}, smallest kept "
                  f"singular value {fit.min_kept_over_cutoff:.3g}x the "
                  f"cutoff, fit residual {fit.residual:.3g}")
        print(f"training data run {result.timings['data_run_seconds']:.3f}s, "
              f"fitting {result.timings['train_seconds']:.3f}s, "
              f"operators in {out_dir}")
        return _coupled_exit_code(result.run, _TRAINING_RUN)
    elif args.command == "run-hybrid":
        trained, training = driver.hybrid_operators(cfg, out_dir)
        run = driver.cmd_run_hybrid(cfg, out_dir=out_dir, trained=trained)
        print(f"hybrid coupled run: {_iteration_summary(run)}, solve "
              f"{run.timings['solve_seconds']:.3f}s, outputs in {out_dir}")
        code = 0 if training is None else _coupled_exit_code(training.run,
                                                            _TRAINING_RUN)
        return max(code, _coupled_exit_code(run))
    elif args.command == "run-mono-opinf":
        result = driver.cmd_run_mono_opinf(cfg, out_dir=out_dir,
                                           lambda_grid=grid)
        status = "diverged" if result.diverged else "stable"
        print(f"monolithic reduced model: r={cfg.mono_r}, "
              f"lambda={result.lam:g} (grid of {len(result.grid)}), "
              f"{status}, solve {result.timings['solve_seconds']:.3f}s, "
              f"outputs in {out_dir}")
    else:
        report = driver.cmd_compare(cfg, out_dir=out_dir, lambda_grid=grid)
        print(report.to_text())
        print(f"report written to {out_dir}")
        code = _coupled_exit_code(report.training_run, _TRAINING_RUN)
        stalled = [m.name for m in report.models
                   if m.name in _COUPLED_MODELS and not m.converged]
        if stalled:
            code = _numerical_failure(
                f"coupled model(s) {', '.join(stalled)} did not converge "
                f"in every window")
        return code
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, FactorizationError) as exc:
        return _numerical_failure(exc)


if __name__ == "__main__":
    sys.exit(main())
