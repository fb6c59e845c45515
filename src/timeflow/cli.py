"""Command-line entry point.

Subcommands: train, density-grid, sample, invert-bench, universality,
gradcheck, roundtrip. Every run validates its configuration up front
(aggregating all problems into one message), writes its artifacts under
--out, and drops a manifest.json echoing the full configuration, the seed
and library versions, so a run can be reproduced exactly. CSV outputs are
UTF-8, comma-separated, '.' decimal, with a header row, and are
byte-identical across runs with the same configuration and seed.

Exit codes: 0 success, 2 usage error (argparse), 3 invalid configuration,
4 input/output error, 5 numeric failure (divergence or non-convergence).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import sys
from dataclasses import astuple

import numpy as np

from . import __version__
from .conditioner import init_net, net_eval, net_vjp
from .data import TOY_NAMES, load_csv, toy2d
from .flow import (
    build_flow,
    load_checkpoint,
    log_density,
    model_forward,
    model_inverse,
    randomize_parameters,
    sample,
    save_checkpoint,
)
from .integrands import Integrand, NonFiniteError
from .inversion import run_bench
from .scalarmap import DivergenceError, SolverConfig, forward, forward_vjp
from .training import TrainConfig, identity_nll, nll_and_grad, train

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_NUMERIC = 5

GRADCHECK_TOLERANCE = 1e-4


class ConfigError(ValueError):
    """Invalid run configuration; message lists every problem found."""


def _parse_list(args, dest, kind=float):
    """The comma list of flag `dest` as `kind` values; a malformed list is a ConfigError."""
    text = getattr(args, dest)
    try:
        return [kind(part) for part in str(text).split(",") if part.strip()]
    except ValueError:
        flag = "--" + dest.replace("_", "-")
        raise ConfigError(f"{flag} must be a comma list of {kind.__name__}s,"
                          f" got {text!r}") from None


def _preset_path(name):
    return os.path.join(os.path.dirname(__file__), "presets", f"{name}.json")


def _write_manifest(outdir, command, config, seed):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "timeflow": __version__,
        },
    }
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _require(errors, ok, message):
    if not ok:
        errors.append(message)


def _check(errors):
    if errors:
        raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(errors))


# --- train -----------------------------------------------------------------


def _load_dataset(spec, n, seed, split):
    if spec.startswith("toy:"):
        return toy2d(spec[4:], n=n, seed=seed, split_fractions=split)
    if spec.startswith("csv:"):
        return load_csv(spec[4:], split_fractions=split, seed=seed)
    raise ConfigError(f"dataset spec must be toy:<name> or csv:<path>, got {spec!r}")


def _cmd_train(args):
    errors = []
    split = tuple(_parse_list(args, "split"))
    _require(errors, len(split) == 3 and all(f >= 0 for f in split) and sum(split) <= 1 + 1e-9,
             f"--split must be three nonnegative fractions summing to <= 1, got {args.split}")
    _require(errors, args.layers >= 1, "--layers must be >= 1")
    _require(errors, args.epochs >= 0, "--epochs must be >= 0")
    _require(errors, args.batch_size >= 1, "--batch-size must be >= 1")
    _require(errors, args.lr > 0, "--lr must be > 0")
    _require(errors, 0 < args.lr_decay <= 1, "--lr-decay must lie in (0, 1]")
    _require(errors, args.solver_steps >= 1, "--solver-steps must be >= 1")
    _require(errors, args.patience >= 1, "--patience must be >= 1")
    hidden = tuple(_parse_list(args, "hidden", int))
    decay_epochs = tuple(_parse_list(args, "lr_decay_epochs", int))
    _require(errors, all(h >= 1 for h in hidden), "--hidden dims must be >= 1")
    if args.dataset.startswith("toy:"):
        _require(errors, args.dataset[4:] in TOY_NAMES,
                 f"unknown toy dataset {args.dataset[4:]!r}; choose from {TOY_NAMES}")
    _check(errors)

    dataset = _load_dataset(args.dataset, args.n, args.seed, split)
    if dataset.train.shape[0] == 0:
        size = f"--n {args.n}" if args.dataset.startswith("toy:") else f"{dataset.n} rows"
        raise ConfigError(f"--split {args.split} leaves no training rows of {size}")
    solver = SolverConfig(scheme=args.scheme, steps=args.solver_steps)
    model = build_flow(dataset.dim, n_layers=args.layers, kind=args.kind,
                       family=args.family, hidden_dims=hidden, solver=solver,
                       seed=args.seed)
    cfg = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.lr,
        lr_decay=args.lr_decay, lr_decay_epochs=decay_epochs,
        seed=args.seed, patience=args.patience,
    )
    model, history = train(model, dataset, cfg)

    save_checkpoint(model, os.path.join(args.out, "checkpoint.json"))
    _write_csv(os.path.join(args.out, "history.csv"),
               ["epoch", "train_nll", "val_nll"],
               [(rec.epoch, rec.train_nll, rec.val_nll) for rec in history])
    baseline = identity_nll(dataset.val if dataset.val.shape[0] else dataset.train)
    best = min((rec.val_nll for rec in history), default=baseline)
    print(f"trained {args.layers}-layer {args.kind} flow on {args.dataset}"
          f" ({dataset.n} rows, dim {dataset.dim})")
    print(f"best validation nll: {best:.4f} nats (identity baseline {baseline:.4f})")


def _cmd_density_grid(args):
    errors = []
    rng_pair = _parse_list(args, "range")
    _require(errors, len(rng_pair) == 2 and rng_pair[0] < rng_pair[1],
             f"--range must be 'lo,hi' with lo < hi, got {args.range}")
    _require(errors, args.grid >= 2, "--grid must be >= 2")
    _check(errors)
    model = load_checkpoint(args.checkpoint)
    if model.dim != 2:
        raise ConfigError(f"density-grid needs a 2-D model, checkpoint has dim {model.dim}")
    lo, hi = rng_pair
    axis = np.linspace(lo, hi, args.grid)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    # grid points outside the model's image have zero density: -inf rows
    logp = log_density(model, pts, divergence="-inf")
    _write_csv(os.path.join(args.out, "density.csv"), ["x", "y", "log_density"],
               [(float(p[0]), float(p[1]), float(l)) for p, l in zip(pts, logp)])
    outside = int(np.sum(np.isneginf(logp)))
    print(f"wrote {pts.shape[0]} grid log-densities to {args.out}/density.csv"
          + (f" ({outside} points outside the model image)" if outside else ""))


def _cmd_sample(args):
    errors = []
    _require(errors, args.n >= 1, "--n must be >= 1")
    _check(errors)
    model = load_checkpoint(args.checkpoint)
    # extreme base draws can leave a trained map's domain; drop them
    # rather than fail the whole run
    draws = sample(model, args.n, seed=args.seed, divergence="drop")
    if draws.shape[0] == 0:
        raise NonFiniteError("every base draw diverged through this model")
    header = [f"x{i}" for i in range(model.dim)]
    _write_csv(os.path.join(args.out, "samples.csv"), header,
               [tuple(float(v) for v in row) for row in draws])
    dropped = args.n - draws.shape[0]
    print(f"wrote {draws.shape[0]} samples of dim {model.dim} to"
          f" {args.out}/samples.csv"
          + (f" ({dropped} divergent draws dropped)" if dropped else ""))


def _cmd_invert_bench(args):
    errors = []
    coeffs = _parse_list(args, "coeffs")
    _require(errors, len(coeffs) == 3 and all(map(math.isfinite, coeffs)),
             f"--coeffs must be three finite values 'a,b,c', got {args.coeffs}")
    tolerances = _parse_list(args, "tolerances")
    _require(errors, tolerances and all(t > 0 for t in tolerances),
             "--tolerances must be positive values")
    _require(errors, args.n >= 1, "--n must be >= 1")
    _require(errors, args.solver_steps >= 1, "--solver-steps must be >= 1")
    _check(errors)
    report = run_bench(
        integrand=Integrand.quadratic(*coeffs), tolerances=tuple(tolerances),
        n_inputs=args.n, seed=args.seed, solver_steps=args.solver_steps,
    )
    _write_csv(os.path.join(args.out, "bench.csv"),
               ["tolerance", "method", "mean_steps", "failures"], map(astuple, report.rows))
    print(report.summary())


def _cmd_universality(args):
    errors = []
    scales = _parse_list(args, "s")
    _require(errors, len(scales) >= 4, "--s needs at least 4 scales to fit a rate")
    _require(errors, all(s > 0 for s in scales), f"--s scales must be > 0, got {args.s}")
    interval = _parse_list(args, "interval")
    _require(errors, len(interval) == 2 and interval[0] < interval[1],
             f"--interval must be 'lo,hi' with lo < hi, got {args.interval}")
    _require(errors, args.grid >= 2, "--grid must be >= 2")
    _require(errors, args.iterations >= 1, "--iterations must be >= 1")
    _require(errors, args.quad_nodes >= 2, "--quad-nodes must be >= 2")
    if args.target == "affine":
        _require(errors, args.alpha > 0, "--alpha must be > 0 for the affine target")
    _check(errors)

    from .approx import Kernel, MonotoneTarget, PicardConfig, convergence_study  # loads scipy

    if args.target == "affine":
        target = MonotoneTarget.affine(args.alpha, args.beta)
    elif args.target == "softplus":
        target = MonotoneTarget.softplus_shift()
    else:
        target = MonotoneTarget.arctan_blend()
    cfg = PicardConfig(iterations=args.iterations, quad_nodes=args.quad_nodes)
    study = convergence_study(target, tuple(interval), scales, Kernel(args.kernel),
                              cfg, grid_points=args.grid)
    _write_csv(os.path.join(args.out, "convergence.csv"),
               ["s", "inv_s", "sup_error", "log_error"], study.rows())
    print(study.summary())
    for flag in study.flags:
        print(f"note: {flag}")


def _worst_fd_error(arrays, grads, objective, step=1e-6):
    """Largest relative error of `grads` against central differences of
    `objective()`, perturbing each entry of `arrays` in place and back."""
    worst = 0.0
    for arr, grad in zip(arrays, grads):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + step
            up = objective()
            arr[idx] = keep - step
            dn = objective()
            arr[idx] = keep
            fd = (up - dn) / (2 * step)
            worst = max(worst, abs(grad[idx] - fd) / max(1.0, abs(fd)))
    return worst


def _cmd_gradcheck(args):
    rng = np.random.default_rng(args.seed)
    suites = []

    # scalar map: the sensitivities of cot_y * y + cot_l * log_deriv to x, a, b
    # and c against central differences
    worst_core = 0.0
    cases = 0
    while cases < 50:
        family = ("quadratic", "cubic", "sigmoid_affine")[cases % 3]
        a, b, c = rng.uniform(-0.8, 0.8, 3)
        x = rng.uniform(-1.5, 1.5)
        g = Integrand(family, a, b, c)
        cfg = SolverConfig(steps=16)
        try:
            cot_y, cot_l = rng.standard_normal(2)
            got = forward_vjp(g, cfg, x, cot_y, cot_l)
        except DivergenceError:
            continue
        point = np.array([x, a, b, c])

        def scalar_out():
            r = forward(Integrand(family, *point[1:]), cfg, point[0])
            return cot_y * r.y + cot_l * r.log_deriv

        worst_core = max(worst_core, _worst_fd_error(
            [point], [np.array([got.dx, *got.dparams])], scalar_out))
        cases += 1
    suites.append(("scalar_map_vjp", worst_core))

    # conditioner nets
    worst_net = 0.0
    for i in range(10):
        dims = [int(rng.integers(1, 4)), int(rng.integers(2, 8)), 3 * int(rng.integers(1, 3))]
        net = init_net(dims, seed=rng)
        for w in net.weights:  # randomize the zero-initialized output layer too
            w += 0.5 * rng.standard_normal(w.shape)
        x = rng.standard_normal(dims[0])
        cot = rng.standard_normal(dims[-1])
        dinput, dparams = net_vjp(net, x, cot)
        worst_net = max(worst_net, _worst_fd_error(
            [x] + net.param_arrays(), [dinput] + dparams,
            lambda: float(np.dot(cot, np.atleast_1d(net_eval(net, x))))))
    suites.append(("conditioner_vjp", worst_net))

    # full nll gradients on small models (sigmoid dynamics cannot blow up,
    # so the audit passes for any seed)
    worst_nll = 0.0
    for i in range(4):
        kind = "coupling" if i % 2 == 0 else "autoregressive"
        model = build_flow(2, n_layers=2, kind=kind, hidden_dims=(4,),
                           family="sigmoid_affine", solver=SolverConfig(steps=8),
                           seed=int(rng.integers(1 << 31)))
        randomize_parameters(model, seed=int(rng.integers(1 << 31)), scale=0.3)
        batch = rng.standard_normal((6, 2))
        _, grads = nll_and_grad(model, batch)
        worst_nll = max(worst_nll, _worst_fd_error(
            model.parameters(), grads, lambda: -float(np.mean(log_density(model, batch)))))
    suites.append(("nll_grad", worst_nll))

    _write_csv(os.path.join(args.out, "gradcheck.csv"),
               ["suite", "max_rel_error"], suites)
    overall = max(err for _, err in suites)
    for name, err in suites:
        print(f"{name}: max relative error {err:.3e}")
    print(f"overall max relative error: {overall:.3e}"
          f" (tolerance {GRADCHECK_TOLERANCE:g})")
    if overall >= GRADCHECK_TOLERANCE:
        raise NonFiniteError(f"gradient check failed: {overall:.3e} >= {GRADCHECK_TOLERANCE:g}")


def _cmd_roundtrip(args):
    errors = []
    _require(errors, args.dim >= 2, "--dim must be >= 2")
    _require(errors, args.layers >= 1, "--layers must be >= 1")
    _require(errors, args.n >= 1, "--n must be >= 1")
    _require(errors, args.tol > 0, "--tol must be > 0")
    _check(errors)
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint)
    else:
        model = build_flow(args.dim, n_layers=args.layers, kind=args.kind,
                           family=args.family, seed=args.seed)
        randomize_parameters(model, seed=args.seed, scale=0.4)
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.n, model.dim))
    y, _ = model_forward(model, x)
    back = model_inverse(model, y)
    err = float(np.max(np.abs(back - x)))
    _write_csv(os.path.join(args.out, "roundtrip.csv"),
               ["n", "max_abs_error", "tolerance"], [(args.n, err, args.tol)])
    print(f"round trip over {args.n} points: max |F^-1(F(x)) - x| = {err:.3e}"
          f" (tolerance {args.tol:g})")
    if err >= args.tol:
        raise NonFiniteError(f"round trip error {err:.3e} >= {args.tol:g}")


# --- parser ----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="timeflow",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_out):
        p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
        p.add_argument("--out", default=default_out,
                       help=f"output directory (default {default_out})")
        p.add_argument("--config", default=None,
                       help="JSON file of flag defaults; explicit flags win")

    p = sub.add_parser("train", help="fit a flow by maximum likelihood")
    p.add_argument("--dataset", default="toy:two_gaussians",
                   help="toy:<name> or csv:<path>")
    p.add_argument("--n", type=int, default=5000, help="toy dataset size")
    p.add_argument("--split", default="0.7,0.15,0.15")
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--kind", default="coupling",
                   choices=["coupling", "autoregressive"])
    p.add_argument("--family", default="quadratic",
                   choices=["quadratic", "cubic", "sigmoid_affine"])
    p.add_argument("--hidden", default="24", help="comma list of hidden widths")
    p.add_argument("--scheme", default="rk4", choices=["rk4"])
    p.add_argument("--solver-steps", type=int, default=16)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--lr-decay", type=float, default=0.5)
    p.add_argument("--lr-decay-epochs", default="15,30,45,60",
                   help="comma list of epochs")
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--preset", default=None,
                   help="named hyperparameter preset shipped with the package")
    common(p, "runs/train")

    p = sub.add_parser("density-grid", help="tabulate log-density on a 2-D grid")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--range", default="-8,8")
    p.add_argument("--grid", type=int, default=101)
    common(p, "runs/density-grid")

    p = sub.add_parser("sample", help="draw samples from a trained flow")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=1000)
    common(p, "runs/sample")

    p = sub.add_parser("invert-bench", help="bisection vs fixed-point step counts")
    p.add_argument("--coeffs", default="0.2,0.1,0.1",
                   help="quadratic integrand coefficients a,b,c")
    p.add_argument("--tolerances", default="1e-3,1e-4,1e-5,1e-6")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--solver-steps", type=int, default=16)
    common(p, "runs/invert-bench")

    p = sub.add_parser("universality", help="monotone-target approximation rates")
    p.add_argument("--target", default="affine",
                   choices=["affine", "softplus", "arctan"])
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--s", default="0.5,0.3333333333333333,0.25,0.2",
                   help="comma list of scales")
    p.add_argument("--kernel", default="constant", choices=["constant", "gaussian"])
    p.add_argument("--interval", default="-1,1")
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--quad-nodes", type=int, default=257)
    common(p, "runs/universality")

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    common(p, "runs/gradcheck")

    p = sub.add_parser("roundtrip", help="invertibility audit of a flow")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--kind", default="coupling",
                   choices=["coupling", "autoregressive"])
    p.add_argument("--family", default="sigmoid_affine",
                   choices=["quadratic", "cubic", "sigmoid_affine"],
                   help="sigmoid_affine dynamics cannot blow up, so random"
                        " audit models stay globally invertible")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    common(p, "runs/roundtrip")

    return parser


_COMMANDS = {
    "train": _cmd_train,
    "density-grid": _cmd_density_grid,
    "sample": _cmd_sample,
    "invert-bench": _cmd_invert_bench,
    "universality": _cmd_universality,
    "gradcheck": _cmd_gradcheck,
    "roundtrip": _cmd_roundtrip,
}


def _config_value(action, value):
    """`value` converted with its flag's type (str for a flag without one), or
    None if it does not convert. A string parses as argparse parses the flag's
    text; any other value must convert to an equal one, so 1 passes for a
    float flag, while 1.5 fails for an int flag and null or true fail everywhere."""
    try:
        converted = (action.type or str)(value)
    except (TypeError, ValueError, OverflowError):
        return None
    ok = isinstance(value, str) or (converted == value and not isinstance(value, bool))
    return converted if ok else None


def _apply_config_file(parser, argv):
    """Load --config JSON (and --preset for train) as parser defaults. Each file
    is one JSON object whose keys are the subcommand's flags; a value must
    convert with its flag's type and lie within its `choices`, as on the command line."""
    probe, _ = parser.parse_known_args(argv)
    preset = getattr(probe, "preset", None)
    paths = [_preset_path(preset)] if preset else []
    if paths and not os.path.exists(paths[0]):
        raise ConfigError(f"unknown preset {preset!r}")
    if getattr(probe, "config", None):
        paths.append(probe.config)
    defaults = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as err:  # not JSON, or not UTF-8 text
                raise ConfigError(f"{path}: not a JSON file: {err}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: a config file holds one JSON object")
        defaults.update(doc)
    command = parser._subparsers._group_actions[0].choices[probe.command]
    actions = {a.dest: a for a in command._actions}
    errors = []
    for key, value in sorted(defaults.items()):
        action = actions.get(key)
        defaults[key] = None if action is None else _config_value(action, value)
        if action is None:
            errors.append(f"unknown config key {key!r}")
        elif defaults[key] is None:
            errors.append(f"config key {key!r} must be of type"
                          f" {(action.type or str).__name__}, got {value!r}")
        elif action.choices and defaults[key] not in action.choices:
            errors.append(f"config key {key!r} must be one of {action.choices},"
                          f" got {value!r}")
    _check(errors)
    command.set_defaults(**defaults)


def run(argv=None) -> int:
    """Parse argv, execute the subcommand, return the process exit status."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        os.makedirs(args.out, exist_ok=True)
        _COMMANDS[args.command](args)
        config = {k: v for k, v in vars(args).items() if k not in ("command",)}
        _write_manifest(args.out, args.command, config, args.seed)
        return EXIT_OK
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(run())
