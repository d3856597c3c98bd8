"""Command-line driver: reproducible batch runs with JSON config and CSV/JSON output.

Exit codes: 0 success, 2 configuration error (bad flags, config or arguments),
3 numerical failure (the failing operation is named on stderr).  A stdout
closed early (``| head``) is no failure: ``main`` points it at the null device,
so the final flush stays silent, and exits 0 unless ``run`` returned 2 or 3.
Data goes to stdout only with ``--output -``; diagnostics always go to stderr.
Identical config (and seed) yields byte-identical output on one Python minor
version: floats are printed with 17 significant digits and the resolved config
is echoed into the header.  From 3.12 on the built-in ``sum`` of floats is
compensated (Neumaier summation), so ``energy``'s kernel rounds differently
there than on 3.10 and 3.11.  ``energy``, ``cutoff-scan`` and ``wiener-hopf``
refuse a row with an infinite or NaN cell (exit 3, naming the column).

Each subcommand is declared once, in ``COMMANDS``, with its params: a param's
flag dest is its config ``params`` key, and one rule of ``params`` serves flag
text and config value alike, so a refusal names ``params.<key>`` and the echo
is the same typed config either way; the library checks its arguments with the
same rules, and ``fock`` applies ``full_fiber`` (``T`` needs ``epsilon = 1``)
before numpy loads.  A handler writes the rows the library returns.  Besides
``errors`` and ``params`` a process loads only its subcommand's numeric
modules: ``validate`` loads ``formfactor`` and ``quadrature``, ``energy`` adds
``energy``, ``cutoff-scan`` loads ``cutoff`` and ``quadrature``, and
``hermite-check`` ``hermite`` and ``jacobi``, all on the standard library;
``wiener-hopf`` adds ``wienerhopf`` and ``normalmodes`` to ``formfactor``, and
``fock`` loads ``fockdesk``, ``normalmodes`` and ``jacobi``.  numpy loads only
for these two, which factor kernels or apply operators over a measure's rule or
a Fock basis, and never for ``--help`` or a params or measure refusal:
``wiener-hopf`` builds its measure before it imports numpy, so the memory that
compiling and building it used is free again when numpy loads.  None loads
``numpy.random`` or ``numpy.polynomial``: seeded draws come from the standard
library's ``random`` and Gauss-Legendre rules from ``quadrature``.  Only
``wiener-hopf`` and ``fock``, whose numeric modules declare dataclasses, load
``dataclasses``; numpy has loaded the ``inspect``, ``ast``, ``dis`` and
``tokenize`` it imports, so it adds only itself and ``copy``.  A launch whose
first argument names a subcommand builds only that subparser; its usage line
still names every subcommand, so help and errors print what the full parser
prints.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from .errors import NumericalError, QuadratureError
from .params import (checked, count, coupling, finite, full_fiber, integer, ladder, list_of,
                     mode, momentum, nonnegative, positive, unit_interval)

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


def _formats(subcommand: str) -> tuple:       # its output formats, default first
    return ("json",) if subcommand == "hermite-check" else ("csv", "json")


def _resolve(args) -> dict:
    """Merge file config and CLI flags into the fully-resolved run config.

    The subcommand's params in ``COMMANDS`` name the keys it accepts.  Each
    value (and the seed), from its flag, else the config, else the default, goes
    through its rule in ``params`` and is written back converted, so the echo is
    the same typed config whichever way a value came in.
    """
    cfg = _load_config(args.config) if args.config else {}
    if cfg.get("subcommand", args.subcommand) != args.subcommand:
        raise ConfigError(
            f"config is for subcommand {cfg['subcommand']!r}, not {args.subcommand!r}")
    params = dict(cfg.get("params", {}))
    formats = _formats(args.subcommand)
    spec = {_dest(option, kwargs): (option, convert, default)
            for option, kwargs, convert, default in COMMANDS[args.subcommand][2]}
    unknown = set(params) - set(spec)
    if unknown:
        raise ConfigError(f"unknown params {sorted(unknown)} for {args.subcommand}")
    resolved = {
        "subcommand": args.subcommand,
        "measure": cfg.get("measure"),
        "params": params,
        "format": args.format or cfg.get("format", formats[0]),
        "seed": args.seed if args.seed is not None else cfg.get("seed", 0),
    }
    if resolved["format"] not in formats:
        raise ConfigError(f"format must be {' or '.join(formats)}, got {resolved['format']!r}")
    try:
        resolved["seed"] = seed = integer(resolved["seed"])
    except (TypeError, ValueError):
        seed = -1
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {resolved['seed']!r}")
    for key, (option, convert, default) in spec.items():
        value = getattr(args, key)
        if value is None:
            value = default if params.get(key) is None else params[key]
        if value is REQUIRED:
            raise ConfigError(f"{args.subcommand} needs {option} or params.{key}")
        if value is None:
            params.pop(key, None)
            continue
        params[key] = checked(f"params.{key}", convert, value)
    return resolved


def _measure_or_fail(resolved: dict):
    from .formfactor import measure_from_json

    if resolved["measure"] is None:
        raise ConfigError("a 'measure' object is required (JSON schema: docs/measure_schema.md)")
    return measure_from_json(resolved["measure"])


def _finite_row(row: dict) -> dict:
    """``row``, or a NumericalError naming its non-finite columns (JSON has no
    inf or nan, and a CSV row with them is no result either)."""
    bad = [f"{c} = {v}" for c, v in row.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise NumericalError("non-finite output: " + ", ".join(bad))
    return row


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
    row = {**report._asdict(), "assumptions_pass": True, "failures": ""}
    _write_rows(args, resolved, list(row), [row])
    print(f"validate: m_eff={report.m_eff:.12g} ir_regular={report.ir_regular} "
          "assumptions=pass", file=sys.stderr)
    return EXIT_OK


def _cmd_energy(args) -> int:
    resolved = _resolve(args)
    kappa, p = resolved["params"]["kappa"], resolved["params"]["p"]
    ff = _measure_or_fail(resolved)     # the whole run is on the standard library
    from .energy import dipole_dispersion, ground_energy, log_spectral_energy

    result = ground_energy(ff)
    ls, disp = log_spectral_energy(ff, kappa), dipole_dispersion(ff, kappa, p)
    row = {"kappa": kappa, "p": p, "calE": result.calE, "log_spectral": ls}
    _write_rows(args, resolved, list(row), [_finite_row(row)])
    print(f"energy: calE={result.calE:.12g} log_spectral={ls:.12g} "
          f"dispersion(p={p},kappa={kappa})={disp:.12g} "
          f"quad_err~{result.estimated_abs_error:.1e}", file=sys.stderr)
    return EXIT_OK


def _cmd_cutoff_scan(args) -> int:
    resolved = _resolve(args)
    from .cutoff import cutoff_energy_3d, cutoff_split_I1_I2

    def rows():
        for lam in resolved["params"]["lambdas"]:
            try:
                e = cutoff_energy_3d(lam)
                i1, i2 = cutoff_split_I1_I2(lam) if lam > 1.0 else (None, None)
            except ArithmeticError as exc:      # the integrand divides by zero
                raise NumericalError(f"cutoff quadrature at Lambda = {lam}: {exc}") from exc
            yield _finite_row({"lambda": lam, "kappa": 1.0, "p": 0.0, "calE": e,
                               "E_over_lambda_1p5": e / lam**1.5, "I1": i1, "I2": i2})

    _write_rows(args, resolved, ["lambda", "kappa", "p", "calE",
                                 "E_over_lambda_1p5", "I1", "I2"], rows())
    return EXIT_OK


def _cmd_wiener_hopf(args) -> int:
    resolved = _resolve(args)
    params = resolved["params"]
    if ("T" in params) == ("T_ladder" in params):
        raise ConfigError("wiener-hopf needs --T or --T-ladder"
                          + (", not both" if "T" in params else ""))
    ff = _measure_or_fail(resolved)     # on the standard library, before numpy loads
    from . import wienerhopf

    rows = [_finite_row(row) for row in wienerhopf.ak_convergence_report(
        ff, params["kappa"], params.get("T_ladder") or [params["T"]])]
    _write_rows(args, resolved, ["T", "n", "logdet_per_T", "ak_target", "ak_dev", "ak_B",
                                 "disc_err", "mass_fn", "mass_target", "mass_dev"], rows)
    p = params["p"]
    if p != 0.0:
        last = rows[-1]
        rate = wienerhopf.vacuum_rate(ff, p, last["logdet_per_T"], last["mass_fn"])
        # at the T -> inf targets: p^2/(2 m_eff) + kappa^2 calE
        limit = wienerhopf.vacuum_rate(ff, p, last["ak_target"], last["mass_target"])
        print(f"wiener-hopf: -(1/T) log vacuum_amplitude = {rate:.12g} vs "
              f"dipole dispersion {limit:.12g}", file=sys.stderr)
    return EXIT_OK


def _cmd_fock(args) -> int:
    resolved = _resolve(args)
    params = resolved["params"]
    if "T" in params:
        checked("params.epsilon", full_fiber, params["epsilon"])
    from . import fockdesk

    basis = fockdesk.build_basis(params["modes"], params["ntot"])
    rows = fockdesk.wcl_scan(basis, params["kappa_list"], params["p_list"],
                             params["epsilon"], params.get("T"))
    _write_rows(args, resolved, list(rows[0]), rows)
    return EXIT_OK


def _cmd_hermite_check(args) -> int:
    resolved = _resolve(args)
    from .hermite import invariant_suite

    checks = invariant_suite(resolved["seed"])
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

#: a param without a default: the run needs its flag or config key
REQUIRED = object()

_KAPPA = ("--kappa", {}, coupling, 1.0)
_P = ("--p", {}, momentum, 0.0)

#: subcommand -> (handler, help, params), in ``--help`` order.  A param is its
#: option string, argparse keywords, rule and default (a value, REQUIRED,
#: or None: may stay absent); its dest is its config ``params`` key.
COMMANDS = {
    "validate": (_cmd_validate, "moment report and assumption check", ()),
    "energy": (_cmd_energy, "ground energy and log-spectral value", (_KAPPA, _P)),
    "cutoff-scan": (_cmd_cutoff_scan, "d=3 sharp-cutoff energy asymptotics", (
        ("--lambda", {"dest": "lambdas", "metavar": "LAM",
                      "help": "comma-separated cutoff values"}, list_of(positive), REQUIRED),)),
    "wiener-hopf": (_cmd_wiener_hopf, "truncated Wiener-Hopf determinant study", (
        ("--T", {}, positive, None), _KAPPA, _P,
        ("--T-ladder", {"help": "comma-separated increasing horizons"}, ladder, None))),
    "fock": (_cmd_fock, "truncated Fock-space weak-coupling scan", (
        ("--modes", {"help": "omega:weight:momentum, comma-separated"},
         list_of(mode), REQUIRED),
        ("--ntot", {}, count, REQUIRED), ("--kappa-list", {}, list_of(coupling), REQUIRED),
        ("--p-list", {}, list_of(finite), REQUIRED),
        ("--epsilon", {}, unit_interval, 1.0), ("--T", {}, nonnegative, None))),
    "hermite-check": (_cmd_hermite_check, "Hermite-polynomial invariant suite", ()),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The ``pfwcl`` parser; given ``only``, with that one subparser.

    The one-subparser parser names every subcommand in its usage line, so it
    prints what the full parser prints for any command line that starts with
    ``only``.
    """
    parser = argparse.ArgumentParser(
        prog="pfwcl",
        description="Spectral quantities of the Pauli-Fierz model in its "
                    "weak-coupling scaling: reproducible batch computations.")
    # a metavar would rename the action in the full parser's own errors
    # ("argument subcommand: invalid choice"), which the fast path never meets
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in COMMANDS if only is None else (only,):
        _, help_text, flags = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON run configuration")
        sp.add_argument("--output", default="-",
                        help="output path; '-' writes data to stdout (default)")
        sp.add_argument("--format", choices=("csv", "json"), default=None,
                        help=f"output format (default {_formats(name)[0]})")
        sp.add_argument("--seed", default=None,
                        help="seed for randomized checks")
        for option, kwargs, _, _ in flags:
            sp.add_argument(option, **kwargs)
    return parser


def _numerical_failures() -> tuple:
    """Exit-3 exceptions; numpy's LinAlgError (a ValueError) once numpy is loaded."""
    numpy = sys.modules.get("numpy")
    lapack = () if numpy is None else (numpy.linalg.LinAlgError,)
    return (QuadratureError, NumericalError, ArithmeticError, *lapack)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a process runs one subcommand, so it builds only that subparser
    only = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        return COMMANDS[args.subcommand][0](args)
    except _numerical_failures() as exc:
        print(f"{args.subcommand}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # ConfigError, MeasureError and BasisSizeError are ValueErrors, as is
        # every argument check a computation makes
        print(f"{args.subcommand}: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    code = EXIT_OK
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:                 # the reader closed stdout early
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
