"""Command-line front end with deterministic CSV/JSON output.

Subcommands: spectrum, scan, wavefunction, hermite-check, oracle-compare.
Every command emits one table either as CSV (fixed header, LF endings) or
as a JSON envelope {schema_version, command, params, columns, rows,
metadata}; numbers are printed with 17 significant digits so they
round-trip exactly.  Exit codes: 0 ok, 1 usage, 2 domain/window, 3 numeric
failure, 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

from . import __version__
from .errors import (
    DegenerateError,
    DiraclineError,
    DomainError,
    NonConvergence,
    StepError,
    TailError,
    WindowExhausted,
)
from . import oracle
from .diracmodel import (
    EnergySign,
    PotentialParams,
    assemble_coefficients,
    coordinates,
    energy_from_nu,
    normalize,
    sample_wavefunction,
)
from .quantize import (
    WINDOW_CAP,
    SignBranch,
    _nu_floor,
    condition_residual,
    condition_residual_deriv_form,
    hermite_root_table,
    paired_branch,
    spectrum,
)
from .specfun import Z_MAX

SCHEMA_VERSION = "3"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WINDOW = 2
EXIT_NUMERIC = 3
EXIT_MISMATCH = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _render_csv(record) -> str:
    lines = [",".join(record["columns"])]
    for row in record["rows"]:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _sanitize(obj):
    """Replace non-finite floats with null so the JSON stays strict."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _render_json(record) -> str:
    return json.dumps(_sanitize(record), indent=2) + "\n"


def _emit(record, args) -> None:
    text = _render_json(record) if args.format == "json" else _render_csv(record)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _record(command, params_echo, columns, rows, metadata, args):
    metadata = dict(metadata)
    metadata["tolerances"] = {"tol_energy": args.tol_energy}
    if not args.deterministic:
        metadata["timestamp"] = datetime.now(timezone.utc).isoformat()
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params_echo,
        "columns": list(columns),
        "rows": [list(r) for r in rows],
        "metadata": metadata,
    }


def _resolve_params(args) -> PotentialParams:
    has_alpha = args.alpha is not None
    has_m = getattr(args, "m", None) is not None
    has_g = getattr(args, "g", None) is not None
    if has_alpha and (has_m or has_g):
        raise _UsageError("give either --alpha or --m/--g, not both")
    if has_alpha:
        return PotentialParams.from_alpha(args.alpha, g=1.0)
    if has_m != has_g:
        raise _UsageError("--m and --g must be given together")
    if not has_m:
        raise _UsageError("either --alpha or --m/--g is required")
    return PotentialParams(m=args.m, g=args.g)


def _params_echo(params: PotentialParams):
    return {"alpha": params.alpha, "m": params.m, "g": params.g}


def _branch_from_flag(text: str) -> SignBranch:
    return SignBranch.PLUS if text == "plus" else SignBranch.MINUS


def _cmd_spectrum(args):
    if args.levels < 1:
        raise _UsageError("--levels must be >= 1")
    params = _resolve_params(args)
    roots = spectrum(params.alpha, args.levels)
    columns = ["index", "nu", "branch", "energy_plus", "energy_minus", "residual"]
    rows = []
    for idx, root in enumerate(roots, start=1):
        e = energy_from_nu(params, root.nu, EnergySign.POSITIVE, root.branch).energy
        rows.append((idx, root.nu, root.branch.value, e, -e, root.residual))
    meta = {
        "window": {"nu_floor": _nu_floor(params.alpha), "nu_max": WINDOW_CAP},
        "below_integer_window": [
            idx for idx, r in enumerate(roots, start=1) if r.below_integer_window
        ],
    }
    return _record("spectrum", _params_echo(params), columns, rows, meta, args), EXIT_OK


def _cmd_scan(args):
    if args.step <= 0.0:
        raise _UsageError("--step must be > 0")
    params = _resolve_params(args)
    branch = _branch_from_flag(args.branch)
    dual = paired_branch(branch)
    columns = ["nu", "residual_eq_ratio", "residual_eq_deriv", "sign_change"]
    rows = []
    if args.nu_max > args.nu_min:
        n = int(math.floor((args.nu_max - args.nu_min) / args.step + 1e-12))
        prev = None
        for i in range(n + 1):
            nu = args.nu_min + i * args.step
            if nu > args.nu_max:
                break
            r12 = condition_residual(nu, params.alpha, branch)
            r13 = condition_residual_deriv_form(nu, params.alpha, dual)
            flagged = prev is not None and prev * r12 < 0.0
            rows.append((nu, r12, r13, flagged))
            prev = r12
    meta = {
        "branch": branch.value,
        "derivative_form_branch": dual.value,
        "window": {"nu_min": args.nu_min, "nu_max": args.nu_max, "step": args.step},
    }
    return _record("scan", _params_echo(params), columns, rows, meta, args), EXIT_OK


def _cmd_wavefunction(args):
    if args.level < 1:
        raise _UsageError("--level must be >= 1")
    if args.dx <= 0.0 or args.x_max <= args.x_min:
        raise _UsageError("need dx > 0 and x_max > x_min")
    params = _resolve_params(args)
    for edge in (args.x_min, args.x_max):
        _, eta, _ = coordinates(params, edge)
        if abs(eta) > Z_MAX:
            raise StepError(
                f"grid point x={edge:g} maps to |eta|={abs(eta):g} > {Z_MAX:g}, "
                "outside the supported evaluation range"
            )
    roots = spectrum(params.alpha, args.level)
    root = roots[args.level - 1]
    sign = EnergySign.POSITIVE if args.energy_sign == "positive" else EnergySign.NEGATIVE
    level = energy_from_nu(params, root.nu, sign, root.branch)
    coeffs = assemble_coefficients(params, root, sign)
    norm_error = None
    if args.normalize:
        # the largest halfwidth L with eta_L = sqrt(2g)(m/g + L) <= Z_MAX
        widest = Z_MAX / math.sqrt(2.0 * params.g) - params.m / params.g
        auto = min(max(12.0 / math.sqrt(params.g), abs(args.x_min), args.x_max), widest)
        halfwidth = args.halfwidth if args.halfwidth is not None else auto
        coeffs, norm_error = normalize(params, coeffs, root, halfwidth)
    n = int(math.floor((args.x_max - args.x_min) / args.dx + 1e-12))
    grid = [args.x_min + i * args.dx for i in range(n + 1) if args.x_min + i * args.dx <= args.x_max]
    samples = sample_wavefunction(params, coeffs, root, grid)
    columns = ["x", "psi1", "psi2"]
    rows = [(s.x, s.psi1, s.psi2) for s in samples]
    meta = {
        "level": args.level,
        "nu": root.nu,
        "branch": root.branch.value,
        "energy": level.energy,
        "coefficients": {
            "c_plus": coeffs.c_plus,
            "d_plus": coeffs.d_plus,
            "c_minus": coeffs.c_minus,
            "d_minus": coeffs.d_minus,
        },
        "normalized": bool(args.normalize),
    }
    if norm_error is not None:
        meta["norm_error"] = norm_error
    return _record("wavefunction", _params_echo(params), columns, rows, meta, args), EXIT_OK


def _cmd_hermite_check(args):
    if args.n_max < 0 or args.n_max > 250:
        raise _UsageError("--n-max must be in [0, 250]")
    params = _resolve_params(args)
    rows, root_count, sign_changes = hermite_root_table(params.alpha, args.n_max)
    columns = ["n", "residual_plus", "residual_minus", "is_root"]
    meta = {
        "n_max": args.n_max,
        "root_count": root_count,
        "roots_at": [r[0] for r in rows if r[3]],
        "rescaled_sign_changes": sign_changes,
    }
    record = _record("hermite-check", _params_echo(params), columns, rows, meta, args)
    if args.format == "csv":
        print(
            f"hermite-check: {root_count} integer root(s) for n in [0, {args.n_max}]",
            file=sys.stderr,
        )
    return record, EXIT_OK


def _cmd_oracle_compare(args):
    if args.levels < 1:
        raise _UsageError("--levels must be >= 1")
    params = _resolve_params(args)
    roots = spectrum(params.alpha, args.levels)
    analytic = [
        energy_from_nu(params, r.nu, EnergySign.POSITIVE, r.branch).energy for r in roots
    ]
    cfg = oracle.default_config(params, e_max=analytic[-1] + 0.25 * math.sqrt(params.g))
    if args.x_max is not None or args.h is not None or args.e_step is not None:
        cfg = oracle.ShootingConfig(
            x_max=args.x_max if args.x_max is not None else cfg.x_max,
            h=args.h if args.h is not None else cfg.h,
            e_min=cfg.e_min,
            e_max=cfg.e_max,
            e_step=args.e_step if args.e_step is not None else cfg.e_step,
            tol=cfg.tol,
        )
    shot = oracle.eigenvalues(params, cfg.validated(params.g))
    columns = ["index", "energy_analytic", "energy_oracle", "abs_diff", "rel_diff", "within_tol"]
    rows = []
    any_fail = False
    for idx, e_a in enumerate(analytic, start=1):
        if idx - 1 < len(shot):
            e_o = shot[idx - 1].energy
            abs_diff = abs(e_a - e_o)
            rel_diff = abs_diff / abs(e_a)
            ok = rel_diff <= args.tol_energy
        else:
            e_o, abs_diff, rel_diff, ok = math.nan, math.nan, math.nan, False
        any_fail = any_fail or not ok
        rows.append((idx, e_a, e_o, abs_diff, rel_diff, ok))
    meta = {
        "shooting": {
            "x_max": cfg.x_max,
            "h": cfg.h,
            "e_min": cfg.e_min,
            "e_max": cfg.e_max,
            "e_step": cfg.e_step,
        },
        "all_within_tol": not any_fail,
    }
    record = _record("oracle-compare", _params_echo(params), columns, rows, meta, args)
    return record, (EXIT_MISMATCH if any_fail else EXIT_OK)


def _add_common(parser):
    parser.add_argument("--alpha", type=float, default=None, help="mass/sqrt(coupling); implies g=1")
    parser.add_argument("--m", type=float, default=None, help="fermion mass (natural units)")
    parser.add_argument("--g", type=float, default=None, help="linear coupling (mass^2)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--deterministic", action="store_true", help="suppress timestamps")
    parser.add_argument("--tol-energy", type=float, default=1e-4, dest="tol_energy")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diracline", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"diracline {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="lowest bound-state orders and energies")
    _add_common(p)
    p.add_argument("--levels", type=int, default=4)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("scan", help="matching-condition residuals on a nu grid")
    _add_common(p)
    p.add_argument("--branch", choices=("plus", "minus"), required=True)
    p.add_argument("--nu-min", type=float, required=True, dest="nu_min")
    p.add_argument("--nu-max", type=float, required=True, dest="nu_max")
    p.add_argument("--step", type=float, default=0.01)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("wavefunction", help="sample one bound state on a grid")
    _add_common(p)
    p.add_argument("--level", type=int, required=True, help="1-based level index")
    p.add_argument("--energy-sign", choices=("positive", "negative"), default="positive",
                   dest="energy_sign")
    p.add_argument("--x-min", type=float, default=-5.0, dest="x_min")
    p.add_argument("--x-max", type=float, default=5.0, dest="x_max")
    p.add_argument("--dx", type=float, default=0.01)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--halfwidth", type=float, default=None,
                   help="normalization domain halfwidth (default: auto)")
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("hermite-check", help="integer-order condition residual table")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=250, dest="n_max")
    p.set_defaults(func=_cmd_hermite_check)

    p = sub.add_parser("oracle-compare", help="analytic energies vs shooting oracle")
    _add_common(p)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--x-max", type=float, default=None, dest="x_max")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--e-step", type=float, default=None, dest="e_step")
    p.set_defaults(func=_cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        record, code = args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WindowExhausted, IndexError) as exc:
        print(f"error: no such level in the search window ({exc})", file=sys.stderr)
        return EXIT_WINDOW
    except (TailError, DegenerateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except (NonConvergence, StepError, OverflowError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except DiraclineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(record, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
