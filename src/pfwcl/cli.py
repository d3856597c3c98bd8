"""Command-line driver: reproducible batch runs with JSON config and CSV/JSON output.

Exit codes: 0 success, 2 configuration error (bad flags, config or arguments),
3 numerical failure (the failing operation is named on stderr).  Data goes to
stdout only with ``--output -``; diagnostics always go to stderr.  Identical
config (and seed) yields byte-identical output: floats are printed with 17
significant digits and the resolved config is echoed into the output header.

Each subcommand is declared once, in ``COMMANDS``.  A flag's dest is the
config ``params`` key it overrides.  Each handler imports the numeric modules
it runs, so a process loads only its subcommand's: ``validate`` loads
``formfactor`` and ``quadrature``, ``cutoff-scan`` ``cutoff`` and
``quadrature``, all on the standard library; ``energy`` and ``wiener-hopf``
add ``energy`` (and ``wienerhopf``, ``normalmodes``); ``fock`` loads
``fockdesk`` and ``normalmodes``; ``hermite-check`` loads ``hermite`` alone.
This module runs on the standard library: ``--help``, the params checks,
``validate`` and ``cutoff-scan`` load no numpy, which comes in with ``energy``,
``fockdesk`` or ``hermite``, below the checks.  Those run on numpy alone, and
no subcommand loads ``numpy.random`` or ``numpy.polynomial``: seeded draws come
from the standard library's ``random`` and Gauss-Legendre rules from ``quadrature``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

from .errors import NumericalError, QuadratureError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def fmt(value) -> str:
    """Deterministic cell formatting; floats at 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _parse_modes(text: str) -> list[tuple[float, float, float]]:
    modes = []
    for part in text.split(","):
        fields = [float(v) for v in part.split(":")]
        if len(fields) not in (2, 3):
            raise ValueError(f"mode {part!r} must look like omega:weight[:momentum]")
        modes.append(tuple(fields + [0.0] * (3 - len(fields))))
    return modes


#: params whose flag value is text to parse after argparse
_LIST_PARSERS = {"lambdas": _float_list, "T_ladder": _float_list,
                 "kappa_list": _float_list, "p_list": _float_list,
                 "modes": _parse_modes}

_CONFIG_KEYS = {"subcommand", "measure", "params", "format", "seed"}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config 'params' must be an object")
    return cfg


def _dest(option: str, kwargs: dict) -> str:
    return kwargs.get("dest", option.lstrip("-").replace("-", "_"))


def _resolve(args, **defaults) -> dict:
    """Merge file config and CLI flags into the fully-resolved run config.

    The subcommand's flags in ``COMMANDS`` name the params it accepts; a
    flag that is given overrides its param, and ``defaults`` fill the rest.
    """
    cfg = _load_config(args.config) if args.config else {}
    if cfg.get("subcommand", args.subcommand) != args.subcommand:
        raise ConfigError(
            f"config is for subcommand {cfg['subcommand']!r}, not {args.subcommand!r}")
    params = dict(cfg.get("params", {}))
    flags = {_dest(option, kwargs): option for option, kwargs in COMMANDS[args.subcommand][2]}
    unknown = set(params) - set(flags)
    if unknown:
        raise ConfigError(f"unknown params {sorted(unknown)} for {args.subcommand}")
    resolved = {
        "subcommand": args.subcommand,
        "measure": cfg.get("measure"),
        "params": params,
        "format": args.format or cfg.get("format", "csv"),
        "seed": args.seed if args.seed is not None else cfg.get("seed", 0),
    }
    if resolved["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {resolved['format']!r}")
    for key, option in flags.items():
        value = getattr(args, key)
        if value is None:
            continue
        if key in _LIST_PARSERS:
            try:
                value = _LIST_PARSERS[key](value)
            except ValueError as exc:
                raise ConfigError(f"{option}: {exc}") from exc
        params[key] = value
    for key, value in defaults.items():
        params.setdefault(key, value)
    return resolved


def _param(params: dict, key: str, convert):
    """``convert(params[key])``; a value it rejects is a ConfigError naming the field."""
    try:
        return convert(params[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"params.{key}: {exc}") from exc


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {number}")
    return number


def _nonnegative(value) -> float:
    number = _finite(value)
    if number < 0.0:
        raise ValueError(f"must be >= 0, got {number}")
    return number


def _coupling(value) -> float:
    """A kappa: >= 0, with kappa^2 a finite double."""
    number = _nonnegative(value)
    if not math.isfinite(number * number):
        raise ValueError(f"kappa^2 must be finite, got {number}")
    return number


def _horizons(values) -> list[float]:
    ladder = [_finite(v) for v in values]
    if not ladder or ladder[0] <= 0.0 or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"horizons must be > 0 and increasing, got {ladder}")
    return ladder


def _integer(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _unit_interval(value) -> float:
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise ValueError(f"must lie in [0, 1], got {number}")
    return number


def _measure_or_fail(resolved: dict):
    from .formfactor import measure_from_json

    if resolved["measure"] is None:
        raise ConfigError("a 'measure' object is required (JSON schema: docs/measure_schema.md)")
    return measure_from_json(resolved["measure"])


@contextlib.contextmanager
def _output(args):
    """The data stream: stdout for ``--output -``, else the named file."""
    if args.output == "-":
        yield sys.stdout
        return
    try:
        stream = open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output {args.output}: {exc}") from exc
    with stream:
        yield stream


def _write_rows(args, resolved: dict, columns, rows) -> None:
    """Write ``rows`` (dicts; may be a generator) as CSV or as one JSON document.

    CSV streams: the header goes out first and each row is flushed as soon as
    it is computed.  JSON collects the rows under the echoed config.
    """
    with _output(args) as out:
        if resolved["format"] == "json":
            table = [{c: row.get(c) for c in columns} for row in rows]
            json.dump({"config": resolved, "rows": table}, out, sort_keys=True, indent=1)
            out.write("\n")
        else:
            echo = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
            out.write(f"# config: {echo}\n" + ",".join(columns) + "\n")
            out.flush()
            for row in rows:
                out.write(",".join(fmt(row.get(c)) for c in columns) + "\n")
                out.flush()
        out.flush()


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_validate(args) -> int:
    resolved = _resolve(args)
    from .formfactor import moment_report

    ff = _measure_or_fail(resolved)
    report = moment_report(ff)
    # construction refuses a measure with M_{+1}, M_{-1} or M_{-2} infinite,
    # so every measure that gets here passes the integrability conditions
    row = {**dataclasses.asdict(report), "assumptions_pass": True, "failures": ""}
    _write_rows(args, resolved, list(row), [row])
    print(f"validate: m_eff={report.m_eff:.12g} ir_regular={report.ir_regular} "
          "assumptions=pass", file=sys.stderr)
    return EXIT_OK


def _cmd_energy(args) -> int:
    resolved = _resolve(args, kappa=1.0, p=0.0)
    params = resolved["params"]
    kappa, p = _param(params, "kappa", _coupling), _param(params, "p", _finite)
    from .energy import dipole_dispersion, ground_energy

    ff = _measure_or_fail(resolved)
    result = ground_energy(ff)
    ls = kappa * kappa * result.log_spectral     # = log_spectral_energy(ff, kappa)
    disp = dipole_dispersion(ff, kappa, p, cal_e=result.calE)
    row = {"kappa": kappa, "p": p, "calE": result.calE, "log_spectral": ls}
    _write_rows(args, resolved, list(row), [row])
    print(f"energy: calE={result.calE:.12g} log_spectral={ls:.12g} "
          f"dispersion(p={p},kappa={kappa})={disp:.12g} "
          f"quad_err~{result.estimated_abs_error:.1e}", file=sys.stderr)
    return EXIT_OK


def _cmd_cutoff_scan(args) -> int:
    resolved = _resolve(args)
    lambdas = resolved["params"].get("lambdas")
    if not lambdas:
        raise ConfigError("cutoff-scan needs --lambda or params.lambdas")
    lambdas = resolved["params"]["lambdas"] = _param(resolved["params"], "lambdas", _floats)
    if not all(0.0 < v < math.inf for v in lambdas):
        raise ConfigError(f"params.lambdas: cutoff values must be positive and finite, "
                          f"got {lambdas}")
    from .cutoff import cutoff_energy_3d, cutoff_split_I1_I2

    def rows():
        for lam in lambdas:
            e = cutoff_energy_3d(lam)
            i1, i2 = cutoff_split_I1_I2(lam) if lam > 1.0 else (None, None)
            yield {"lambda": lam, "kappa": 1.0, "p": 0.0, "calE": e,
                   "E_over_lambda_1p5": e / lam**1.5, "I1": i1, "I2": i2}

    _write_rows(args, resolved, ["lambda", "kappa", "p", "calE",
                                 "E_over_lambda_1p5", "I1", "I2"], rows())
    return EXIT_OK


def _cmd_wiener_hopf(args) -> int:
    resolved = _resolve(args, kappa=1.0, p=0.0)
    params = resolved["params"]
    kappa, p = _param(params, "kappa", _coupling), _param(params, "p", _finite)
    if params.get("T_ladder") is not None:
        ladder = _param(params, "T_ladder", _horizons)
    elif "T" in params:
        ladder = _param(params, "T", lambda T: _horizons([T]))
    else:
        raise ConfigError("wiener-hopf needs --T or --T-ladder")
    from . import wienerhopf
    from .energy import dipole_dispersion

    ff = _measure_or_fail(resolved)
    rows = wienerhopf.ak_convergence_report(ff, kappa, ladder)
    _write_rows(args, resolved, ["T", "n", "logdet_per_T", "ak_target", "ak_dev", "ak_B",
                                 "disc_err", "mass_fn", "mass_target", "mass_dev"], rows)
    if p != 0.0:
        rate = wienerhopf.vacuum_rate(ff, p, rows[-1]["logdet_per_T"], rows[-1]["mass_fn"])
        print(f"wiener-hopf: -(1/T) log vacuum_amplitude = {rate:.12g} vs "
              f"dipole dispersion {dipole_dispersion(ff, kappa, p):.12g}",
              file=sys.stderr)
    return EXIT_OK


def _cmd_fock(args) -> int:
    resolved = _resolve(args)
    params = resolved["params"]
    for key in ("modes", "ntot", "kappa_list", "p_list"):
        if key not in params:
            raise ConfigError(f"fock needs {key}")
    modes = _param(params, "modes", lambda ms: [tuple(_floats(m)) for m in ms])
    n_tot = _param(params, "ntot", _integer)
    eps = _param(params, "epsilon", _unit_interval) if "epsilon" in params else 1.0
    T = _param(params, "T", _nonnegative) if params.get("T") is not None else None
    if T is not None and eps != 1.0:
        raise ConfigError(f"params.epsilon: T needs epsilon = 1 (the semigroup residual "
                          f"is taken on the full fiber), got {eps!r}")
    kappas = _param(params, "kappa_list", _floats)
    ps = _param(params, "p_list", _floats)
    for name, key, values in (("kappa", "kappa_list", kappas), ("p", "p_list", ps)):
        bad = [v for v in values if not math.isfinite(v)]
        if bad:
            raise ConfigError(f"{name} must be finite, got {bad[0]} in params.{key}")
    if min(kappas, default=0.0) < 0.0:
        raise ConfigError(f"params.kappa_list: kappa must be >= 0, got {min(kappas)}")
    largest = max(kappas, default=0.0)
    if not math.isfinite(largest * largest):
        raise ConfigError(f"params.kappa_list: kappa^2 must be finite, got {largest}")
    from . import fockdesk

    basis = fockdesk.build_basis(modes, n_tot)
    ops = fockdesk.build_operators(basis)
    rows = fockdesk.wcl_scan(ops, kappas, ps, eps)
    if T is not None:
        for row in rows:
            # the row's E_p is the ground energy of the semigroup's H_kappa(p, 1)
            row["semigroup_res"] = fockdesk.semigroup_wcl_residual(
                ops, row["kappa"], row["p"], T, lam0=row["E_p"])
    _write_rows(args, resolved, ["kappa", "p", "epsilon", "E_p", "E_0", "gap",
                                 "target", "gap_dev", "E0_dev", "semigroup_res",
                                 "top_shell"], rows)
    return EXIT_OK


def _cmd_hermite_check(args) -> int:
    resolved = _resolve(args)
    seed = resolved["seed"]
    try:
        seed = _integer(seed)
        if seed < 0:
            raise ValueError
    except (TypeError, ValueError):
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}") from None
    from .hermite import invariant_suite

    checks = invariant_suite(seed)
    all_pass = all(c["passed"] for c in checks)
    report = {"config": resolved, "checks": checks, "passed": all_pass}
    with _output(args) as out:
        json.dump(report, out, sort_keys=True, indent=1, default=fmt)
        out.write("\n")
        out.flush()
    if not all_pass:
        failed = [c["name"] for c in checks if not c["passed"]]
        print(f"hermite-check: FAILED {failed}", file=sys.stderr)
        return EXIT_NUMERICAL
    print("hermite-check: all checks passed", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------

_KAPPA = ("--kappa", {"type": float})
_P = ("--p", {"type": float})
_T = ("--T", {"type": float})

#: subcommand -> (handler, help, flags), in ``--help`` order.  A flag is its
#: option string and argparse keywords; its dest is the params key it sets.
COMMANDS = {
    "validate": (_cmd_validate, "moment report and assumption check", ()),
    "energy": (_cmd_energy, "ground energy and log-spectral value", (_KAPPA, _P)),
    "cutoff-scan": (_cmd_cutoff_scan, "d=3 sharp-cutoff energy asymptotics", (
        ("--lambda", {"dest": "lambdas", "metavar": "LAM",
                      "help": "comma-separated cutoff values"}),)),
    "wiener-hopf": (_cmd_wiener_hopf, "truncated Wiener-Hopf determinant study", (
        _T, _KAPPA, _P,
        ("--T-ladder", {"help": "comma-separated increasing horizons"}))),
    "fock": (_cmd_fock, "truncated Fock-space weak-coupling scan", (
        ("--modes", {"help": "omega:weight:momentum, comma-separated"}),
        ("--ntot", {"type": int}), ("--kappa-list", {}), ("--p-list", {}),
        ("--epsilon", {"type": float}), _T)),
    "hermite-check": (_cmd_hermite_check, "Hermite-polynomial invariant suite", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfwcl",
        description="Spectral quantities of the Pauli-Fierz model in its "
                    "weak-coupling scaling: reproducible batch computations.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON run configuration")
        sp.add_argument("--output", default="-",
                        help="output path; '-' writes data to stdout (default)")
        sp.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv)")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed for randomized checks")
        for option, kwargs in flags:
            sp.add_argument(option, **kwargs)
    return parser


def _numerical_errors() -> tuple:
    """Exit-3 exceptions; numpy's LinAlgError (a ValueError) once numpy is loaded."""
    numpy = sys.modules.get("numpy")
    lapack = () if numpy is None else (numpy.linalg.LinAlgError,)
    return (QuadratureError, NumericalError, OverflowError, *lapack)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.subcommand][0](args)
    except _numerical_errors() as exc:
        print(f"{args.subcommand}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # ConfigError, MeasureError and BasisSizeError are ValueErrors, as is
        # every argument check a computation makes
        print(f"{args.subcommand}: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
