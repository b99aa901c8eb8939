"""Batch front door: run forward simulations, Laplace-plane scans, residue checks
and reconstructions from a flat config file, writing CSV/JSON artifacts.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.
All file writes are atomic (temp file + rename); repeated runs with the same
config and seed produce byte-identical output.

CSV formats
    state CSV   header ``t,re_u_1,im_u_1,...,re_u_K,im_u_K,re_v_1,...,im_v_K``
    flux CSV    header ``t,re_h,im_h``
    scan CSV    header ``re_s,im_s,re_value,im_value`` (jump scans store rho
                in the ``re_s`` column and 0 in ``im_s``)
JSON reports use the field names of the corresponding result dataclasses with
complex numbers as [re, im] pairs and keys in sorted order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import inverse as inv
from . import laplace as lap
from .config import ConfigError, ExperimentConfig, load_config, parse_integer
from .forward import FluxTrace, boundary_flux, solve
from .modes import AdmissibilityError, build_mode_table, check_separation
from .specfun import AccuracyError, DomainError

__all__ = ["main"]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _load(args) -> ExperimentConfig:
    import dataclasses

    with open(args.config) as fh:
        cfg = load_config(fh.read())
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(args.seed))
    return cfg


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _out(args, name: str) -> str:
    return os.path.join(args.out, name)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        cfg = _load(args)
        table = build_mode_table(cfg.model, cfg.K)
    except (ConfigError, AdmissibilityError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    sep = check_separation(table)
    report = {
        "admissible": True,
        "K": cfg.K,
        "root_bounds": list(cfg.model.root_bound_constants),
        "separation_applicable": sep.applicable,
        "separation_violations": [list(v) for v in sep.violations],
    }
    _say(args, json.dumps(report, sort_keys=True))
    return 0


def cmd_forward(args) -> int:
    from .forward import mode_estimate_constant

    cfg = _load(args)
    table = build_mode_table(cfg.model, cfg.K)
    grid = cfg.time_grid()
    traj = solve(cfg.model, table, cfg.phi, cfg.psi, cfg.source, grid)
    # the flux is the inverse problem's data, so it is sampled on the
    # config's observation grid; invert consumes this file directly
    obs = cfg.observation_grid()
    flux = boundary_flux(solve(cfg.model, table, cfg.phi, cfg.psi, cfg.source, obs), table)
    values = flux.values.copy()
    if cfg.noise > 0:
        rng = np.random.default_rng(cfg.seed)
        scale = cfg.noise * float(np.sqrt(np.mean(np.abs(values) ** 2)))
        values = values + scale * rng.standard_normal(values.size)

    header = ["t"]
    for name in ("u", "v"):
        for k in range(1, cfg.K + 1):
            header += [f"re_{name}_{k}", f"im_{name}_{k}"]
    rows = []
    for i, t in enumerate(grid):
        row = [t]
        for modes in (traj.u_modes, traj.v_modes):
            for k in range(cfg.K):
                row += [modes[k, i].real, modes[k, i].imag]
        rows.append(row)
    _atomic_write(_out(args, "state.csv"), _csv(header, rows))
    _atomic_write(
        _out(args, "flux.csv"),
        _csv(["t", "re_h", "im_h"], [[t, v.real, v.imag] for t, v in zip(flux.time_grid, values)]),
    )
    c0 = mode_estimate_constant(traj, cfg.phi, cfg.psi, cfg.source)
    _say(
        args,
        f"wrote state.csv ({grid.size} rows) and flux.csv ({values.size} rows) to {args.out}; "
        f"empirical mode-estimate constant c0 = {c0:.4f}",
    )
    return 0


def _grid_spec(spec, default: tuple[float, float, int]) -> np.ndarray:
    if spec is None:
        lo, hi, n = default
    else:
        bad = ConfigError(f"grid spec must be 'lo:hi:n' with n >= 1, got {spec!r}")
        try:
            lo, hi, n = str(spec).split(":")  # ValueError unless exactly three parts
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError:
            raise bad from None
        if n < 1:
            raise bad
    return np.linspace(lo, hi, n)


def _laplace_context(args) -> tuple[ExperimentConfig, lap.JumpContext]:
    cfg = _load(args)
    table = build_mode_table(cfg.model, cfg.K)
    return cfg, lap.make_jump_context(cfg.model, table, cfg.phi, cfg.psi, cfg.source)


def _write_scan(args, name: str, re_s, im_s: float, values) -> int:
    rows = [[re, im_s, val.real, val.imag] for re, val in zip(re_s, values)]
    _atomic_write(_out(args, name), _csv(["re_s", "im_s", "re_value", "im_value"], rows))
    _say(args, f"wrote {name} ({len(rows)} rows) to {args.out}")
    return 0


def cmd_laplace_scan(args) -> int:
    cfg, ctx = _laplace_context(args)
    res = _grid_spec(cfg.task.get("s_grid"), (0.5, 5.0, 10))
    ims = cfg.task["s_imag"]
    return _write_scan(args, "laplace_scan.csv", res, ims, lap.flux_transform(ctx, res + 1j * ims))


def cmd_jump_scan(args) -> int:
    cfg, ctx = _laplace_context(args)
    rhos = _grid_spec(cfg.task.get("rho_grid"), (0.5, 2.0, 10))
    return _write_scan(args, "jump_scan.csv", rhos, 0.0, lap.jump(ctx, rhos))


def cmd_residues(args) -> int:
    cfg, ctx = _laplace_context(args)
    modes_opt = cfg.task.get("modes")
    if modes_opt is None:
        modes = list(range(1, cfg.K + 1))
    else:
        # a scalar came parsed, a comma list as its text
        modes = [parse_integer(v, "task.modes") for v in str(modes_opt).split(",")]
    bad = [n for n in modes if not 1 <= n <= cfg.K]
    if bad:
        raise ConfigError(f"task.modes {bad} outside 1..disc.K = {cfg.K}")
    residue = inv.residue_ip2 if cfg.model.coupled else inv.residue_ip1
    reports = [residue(ctx, n).to_json_dict() for n in modes]
    _atomic_write(_out(args, "residues.json"), json.dumps(reports, sort_keys=True, indent=1) + "\n")
    _say(args, f"wrote residues.json ({len(reports)} reports) to {args.out}")
    return 0


def _read_flux_csv(path: str) -> FluxTrace:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:3] != ["t", "re_h", "im_h"]:
            raise ConfigError(f"flux CSV must start with header t,re_h,im_h, got {header}")
        ts, vs = [], []
        for line in fh:
            if not line.strip():
                continue
            t, re, im = line.split(",")[:3]
            ts.append(float(t))
            vs.append(complex(float(re), float(im)))
    return FluxTrace(time_grid=np.asarray(ts), values=np.asarray(vs))


def cmd_invert(args) -> int:
    cfg = _load(args)
    table = build_mode_table(cfg.model, cfg.K)
    data = _read_flux_csv(args.data)
    result = inv.lsq_reconstruct(data, cfg.model, table, cfg.degree, mu=cfg.task["mu"])
    _atomic_write(_out(args, "inversion.json"), result.to_json() + "\n")
    _say(
        args,
        f"wrote inversion.json (misfit {result.residual_norm:.3e}, "
        f"condition number {result.condition_number:.3e}) to {args.out}",
    )
    return 0


def cmd_specfun_check(args) -> int:
    from .selfcheck import specfun_identity_suite

    report = specfun_identity_suite()
    failures = [line for ok, line in report if not ok]
    for ok, line in report:
        _say(args, ("PASS " if ok else "FAIL ") + line)
    if failures:
        print(f"{len(failures)} identity check(s) failed", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracflux",
        description="coupled fractional-diffusion solver, Laplace-plane checks, and source identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("config", help="flat 'section.key = value' config file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None, help="override data.seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    common(sub.add_parser("validate", help="check admissibility inequalities and separation"))
    common(sub.add_parser("forward", help="solve the direct problem; write state.csv and flux.csv"))
    common(sub.add_parser("laplace-scan", help="sample the flux transform; write laplace_scan.csv"))
    common(sub.add_parser("jump-scan", help="sample the branch-cut jump; write jump_scan.csv"))
    common(sub.add_parser("residues", help="contour residues vs closed forms; write residues.json"))
    p_inv = sub.add_parser("invert", help="least-squares reconstruction from a flux CSV")
    p_inv.add_argument("config", help="flat 'section.key = value' config file")
    p_inv.add_argument("data", help="flux CSV file (t,re_h,im_h)")
    common(p_inv, config=False)
    common(sub.add_parser("specfun-check", help="special-function identity suite"), config=False)
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "forward": cmd_forward,
    "laplace-scan": cmd_laplace_scan,
    "jump-scan": cmd_jump_scan,
    "residues": cmd_residues,
    "invert": cmd_invert,
    "specfun-check": cmd_specfun_check,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, AdmissibilityError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, DomainError, inv.SeparationError, inv.GeometryError, lap.PoleLineError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
