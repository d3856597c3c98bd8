"""Command-line driver: reproducible batch runs with JSON config and CSV/JSON output.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (the failing
operation is named on stderr).  Data goes to stdout only with ``--output -``;
diagnostics always go to stderr.  Identical config (and seed) yields
byte-identical output: floats are printed with 17 significant digits and the
resolved config is echoed into the output header.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import fockdesk, hermite, wienerhopf
from .energy import (cutoff_energy_3d, cutoff_split_I1_I2, dipole_dispersion,
                     ground_energy, log_spectral_energy)
from .errors import BasisSizeError, MeasureError, NumericalError, QuadratureError
from .formfactor import measure_from_json, moment_report, validate_assumptions

SUBCOMMANDS = ("energy", "cutoff-scan", "wiener-hopf", "fock", "hermite-check", "validate")

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


def _echo_config(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


class RowWriter:
    """Streams scan rows to CSV (row-by-row flush) or collects them for JSON."""

    def __init__(self, stream, fmt_kind: str, columns, config: dict):
        self.stream = stream
        self.kind = fmt_kind
        self.columns = list(columns)
        self.config = config
        self.rows = []
        if self.kind == "csv":
            self.stream.write(f"# config: {_echo_config(config)}\n")
            self.stream.write(",".join(self.columns) + "\n")
            self.stream.flush()

    def write_row(self, row: dict):
        if self.kind == "csv":
            self.stream.write(",".join(fmt(row.get(c)) for c in self.columns) + "\n")
            self.stream.flush()
        else:
            self.rows.append({c: row.get(c) for c in self.columns})

    def finish(self):
        if self.kind == "json":
            json.dump({"config": self.config, "rows": self.rows},
                      self.stream, sort_keys=True, indent=1)
            self.stream.write("\n")
            self.stream.flush()


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects a comma-separated float list, got {text!r}") from exc


def _parse_modes(text: str) -> list[tuple[float, float, float]]:
    modes = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) not in (2, 3):
            raise ConfigError(f"mode {part!r} must look like omega:weight[:momentum]")
        try:
            omega, weight = float(fields[0]), float(fields[1])
            q = float(fields[2]) if len(fields) == 3 else 0.0
        except ValueError as exc:
            raise ConfigError(f"non-numeric mode entry {part!r}") from exc
        modes.append((omega, weight, q))
    if not modes:
        raise ConfigError("at least one mode is required")
    return modes


_CONFIG_KEYS = {"subcommand", "measure", "params", "output", "format", "seed"}


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


def _resolve(args, allowed_params: set) -> dict:
    """Merge file config and CLI flags into the fully-resolved run config."""
    cfg = _load_config(args.config) if args.config else {}
    if cfg.get("subcommand", args.subcommand) != args.subcommand:
        raise ConfigError(
            f"config is for subcommand {cfg['subcommand']!r}, not {args.subcommand!r}")
    params = dict(cfg.get("params", {}))
    unknown = set(params) - allowed_params
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
    return resolved


def _measure_or_fail(resolved: dict):
    if resolved["measure"] is None:
        raise ConfigError("a 'measure' object is required (JSON schema: docs/measure_schema.md)")
    return measure_from_json(resolved["measure"])


def _open_output(args):
    if args.output == "-" or args.output is None:
        return sys.stdout, False
    return open(args.output, "w", encoding="utf-8"), True


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_validate(args) -> int:
    resolved = _resolve(args, set())
    ff = _measure_or_fail(resolved)
    report = moment_report(ff)
    assumptions = validate_assumptions(ff)
    stream, close = _open_output(args)
    try:
        writer = RowWriter(stream, resolved["format"],
                           ["m_plus1", "m_minus1", "m_minus2", "m_minus3",
                            "ir_regular", "delta_m", "m_eff", "assumptions_pass",
                            "failures"],
                           resolved)
        writer.write_row({
            "m_plus1": report.m_plus1, "m_minus1": report.m_minus1,
            "m_minus2": report.m_minus2, "m_minus3": report.m_minus3,
            "ir_regular": report.ir_regular, "delta_m": report.delta_m,
            "m_eff": report.m_eff, "assumptions_pass": assumptions.passed,
            "failures": ";".join(assumptions.failures),
        })
        writer.finish()
    finally:
        if close:
            stream.close()
    print(f"validate: m_eff={report.m_eff:.12g} ir_regular={report.ir_regular} "
          f"assumptions={'pass' if assumptions.passed else 'FAIL'}", file=sys.stderr)
    return EXIT_OK


def _cmd_energy(args) -> int:
    resolved = _resolve(args, {"kappa", "p"})
    params = resolved["params"]
    if args.kappa is not None:
        params["kappa"] = args.kappa
    if args.p is not None:
        params["p"] = args.p
    params.setdefault("kappa", 1.0)
    params.setdefault("p", 0.0)
    ff = _measure_or_fail(resolved)
    kappa, p = float(params["kappa"]), float(params["p"])
    result = ground_energy(ff)
    ls = log_spectral_energy(ff, kappa)
    disp = dipole_dispersion(ff, kappa, p)
    stream, close = _open_output(args)
    try:
        writer = RowWriter(stream, resolved["format"],
                           ["kappa", "p", "calE", "log_spectral"], resolved)
        writer.write_row({"kappa": kappa, "p": p, "calE": result.calE,
                          "log_spectral": ls})
        writer.finish()
    finally:
        if close:
            stream.close()
    print(f"energy: calE={result.calE:.12g} log_spectral={ls:.12g} "
          f"dispersion(p={p},kappa={kappa})={disp:.12g} "
          f"quad_err~{result.estimated_abs_error:.1e}", file=sys.stderr)
    return EXIT_OK


def _cmd_cutoff_scan(args) -> int:
    resolved = _resolve(args, {"lambdas"})
    if args.lam is not None:
        resolved["params"]["lambdas"] = _parse_float_list(args.lam, "--lambda")
    lambdas = resolved["params"].get("lambdas")
    if not lambdas:
        raise ConfigError("cutoff-scan needs --lambda or params.lambdas")
    lambdas = [float(v) for v in lambdas]
    if any(v <= 0 for v in lambdas):
        raise ConfigError("cutoff values must be positive")
    resolved["params"]["lambdas"] = lambdas

    stream, close = _open_output(args)
    try:
        writer = RowWriter(stream, resolved["format"],
                           ["lambda", "kappa", "p", "calE",
                            "E_over_lambda_1p5", "I1", "I2"], resolved)
        for lam in lambdas:
            e = cutoff_energy_3d(lam)
            row = {"lambda": lam, "kappa": 1.0, "p": 0.0, "calE": e,
                   "E_over_lambda_1p5": e / lam**1.5, "I1": None, "I2": None}
            if lam > 1.0:
                row["I1"], row["I2"] = cutoff_split_I1_I2(lam)
            writer.write_row(row)
        writer.finish()
    finally:
        if close:
            stream.close()
    return EXIT_OK


def _cmd_wiener_hopf(args) -> int:
    resolved = _resolve(args, {"T", "nodes", "kappa", "p", "T_ladder"})
    params = resolved["params"]
    if args.T is not None:
        params["T"] = args.T
    if args.nodes is not None:
        params["nodes"] = args.nodes
    if args.kappa is not None:
        params["kappa"] = args.kappa
    if args.p is not None:
        params["p"] = args.p
    if args.T_ladder is not None:
        params["T_ladder"] = _parse_float_list(args.T_ladder, "--T-ladder")
    params.setdefault("kappa", 1.0)
    params.setdefault("p", 0.0)
    ff = _measure_or_fail(resolved)
    kappa = float(params["kappa"])
    p = float(params["p"])
    nodes = int(params["nodes"]) if "nodes" in params else None
    ladder = params.get("T_ladder")
    if ladder is None:
        if "T" not in params:
            raise ConfigError("wiener-hopf needs --T or --T-ladder")
        ladder = [float(params["T"])]
    ladder = [float(v) for v in ladder]

    rows = wienerhopf.ak_convergence_report(ff, kappa, ladder, nodes)
    stream, close = _open_output(args)
    try:
        writer = RowWriter(stream, resolved["format"],
                           ["T", "n", "logdet_per_T", "ak_target", "ak_dev",
                            "mass_fn", "mass_target", "mass_dev"], resolved)
        for row in rows:
            writer.write_row(row)
        writer.finish()
    finally:
        if close:
            stream.close()
    if p != 0.0:
        T = ladder[-1]
        va = wienerhopf.vacuum_amplitude(ff, kappa, p, T, nodes)
        rate = -math.log(va) / T
        print(f"wiener-hopf: -(1/T) log vacuum_amplitude = {rate:.12g} vs "
              f"dipole dispersion {dipole_dispersion(ff, kappa, p):.12g}",
              file=sys.stderr)
    return EXIT_OK


def _cmd_fock(args) -> int:
    resolved = _resolve(args, {"modes", "ntot", "kappa_list", "p_list", "epsilon", "T"})
    params = resolved["params"]
    if args.modes is not None:
        params["modes"] = _parse_modes(args.modes)
    if args.ntot is not None:
        params["ntot"] = args.ntot
    if args.kappa_list is not None:
        params["kappa_list"] = _parse_float_list(args.kappa_list, "--kappa-list")
    if args.p_list is not None:
        params["p_list"] = _parse_float_list(args.p_list, "--p-list")
    if args.epsilon is not None:
        params["epsilon"] = args.epsilon
    if args.T is not None:
        params["T"] = args.T
    for key in ("modes", "ntot", "kappa_list", "p_list"):
        if key not in params:
            raise ConfigError(f"fock needs {key}")
    modes = [tuple(float(x) for x in m) for m in params["modes"]]
    eps = float(params.get("epsilon", 1.0))
    T = params.get("T")
    basis = fockdesk.build_basis(modes, int(params["ntot"]))
    ops = fockdesk.build_operators(basis)
    kappas = [float(v) for v in params["kappa_list"]]
    ps = [float(v) for v in params["p_list"]]
    rows = fockdesk.wcl_scan(ops, kappas, ps, eps)
    if T is not None:
        for row in rows:
            row["semigroup_res"] = fockdesk.semigroup_wcl_residual(
                ops, row["kappa"], row["p"], float(T))
    stream, close = _open_output(args)
    try:
        writer = RowWriter(stream, resolved["format"],
                           ["kappa", "p", "epsilon", "E_p", "E_0", "gap",
                            "target", "gap_dev", "E0_dev", "semigroup_res"],
                           resolved)
        for row in rows:
            writer.write_row(row)
        writer.finish()
    finally:
        if close:
            stream.close()
    return EXIT_OK


def _hermite_checks(seed: int) -> list[dict]:
    checks = []
    res = hermite.generating_function_residual(0.5, 0.3, 0.7, 60)
    checks.append({"name": "generating_function_residual", "value": res,
                   "threshold": 1e-12, "passed": res <= 1e-12})

    grid_ok = True
    worst = None
    for n in range(0, 41):
        for a in (0.25, 1.0, 4.0):
            for x in np.arange(-5.0, 5.0 + 1e-9, 0.1):
                if not hermite.bound_check(n, a, float(x)):
                    grid_ok = False
                    worst = (n, a, float(x))
    checks.append({"name": "bound_grid", "value": None if grid_ok else list(worst),
                   "threshold": None, "passed": grid_ok})

    worst_rel = 0.0
    for n in (0, 1, 5, 17, 33, 48, 60):
        for a in (0.25, 1.0, 3.5, 10.0):
            for x in (-10.0, -4.4, -1.0, 0.0, 0.3, 2.9, 7.7, 10.0):
                r = hermite.hermite(n, a, x)
                e = hermite.hermite_explicit(n, a, x)
                worst_rel = max(worst_rel,
                                abs(r - e) / max(abs(r), abs(e), 1e-300))
    checks.append({"name": "recurrence_vs_explicit", "value": worst_rel,
                   "threshold": 1e-12, "passed": worst_rel <= 1e-12})

    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((8, 8))
    S = 0.5 * (raw + raw.T)
    radius = float(np.max(np.abs(np.linalg.eigvalsh(S))))
    S *= 2.0 / radius
    phi = rng.standard_normal(8)
    res_op = hermite.generating_operator_residual(S, 0.25, 0.4, phi, 80)
    checks.append({"name": "generating_operator_residual", "value": res_op,
                   "threshold": 1e-10, "passed": res_op <= 1e-10})
    return checks


def _cmd_hermite_check(args) -> int:
    resolved = _resolve(args, set())
    checks = _hermite_checks(int(resolved["seed"]))
    all_pass = all(c["passed"] for c in checks)
    report = {"config": resolved, "checks": checks, "passed": all_pass}
    stream, close = _open_output(args)
    try:
        json.dump(report, stream, sort_keys=True, indent=1, default=fmt)
        stream.write("\n")
        stream.flush()
    finally:
        if close:
            stream.close()
    if not all_pass:
        failed = [c["name"] for c in checks if not c["passed"]]
        print(f"hermite-check: FAILED {failed}", file=sys.stderr)
        return EXIT_NUMERICAL
    print("hermite-check: all checks passed", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfwcl",
        description="Spectral quantities of the Pauli-Fierz model in its "
                    "weak-coupling scaling: reproducible batch computations.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON run configuration")
        sp.add_argument("--output", default="-",
                        help="output path; '-' writes data to stdout (default)")
        sp.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv)")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed for randomized checks")

    sp = sub.add_parser("validate", help="moment report and assumption check")
    common(sp)

    sp = sub.add_parser("energy", help="ground energy and log-spectral value")
    common(sp)
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--p", type=float)

    sp = sub.add_parser("cutoff-scan", help="d=3 sharp-cutoff energy asymptotics")
    common(sp)
    sp.add_argument("--lambda", dest="lam", help="comma-separated cutoff values")

    sp = sub.add_parser("wiener-hopf", help="truncated Wiener-Hopf determinant study")
    common(sp)
    sp.add_argument("--T", type=float)
    sp.add_argument("--nodes", type=int)
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--p", type=float)
    sp.add_argument("--T-ladder", dest="T_ladder",
                    help="comma-separated increasing horizons")

    sp = sub.add_parser("fock", help="truncated Fock-space weak-coupling scan")
    common(sp)
    sp.add_argument("--modes", help="omega:weight:momentum, comma-separated")
    sp.add_argument("--ntot", type=int)
    sp.add_argument("--kappa-list", dest="kappa_list")
    sp.add_argument("--p-list", dest="p_list")
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--T", type=float)

    sp = sub.add_parser("hermite-check", help="Hermite-polynomial invariant suite")
    common(sp)
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "energy": _cmd_energy,
    "cutoff-scan": _cmd_cutoff_scan,
    "wiener-hopf": _cmd_wiener_hopf,
    "fock": _cmd_fock,
    "hermite-check": _cmd_hermite_check,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.subcommand]
    try:
        return handler(args)
    except (ConfigError, MeasureError, BasisSizeError) as exc:
        print(f"{args.subcommand}: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, NumericalError, OverflowError) as exc:
        print(f"{args.subcommand}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
