"""Output checks against exact oracles; a job that fails one counts in ``failed``.

Each check returns a list of problems (empty when the output is right).  The
cross-job checks (an ``energy`` calE against the ``cutoff-scan`` row for the
same Lambda) charge the problem to the ``energy`` job.
"""

from __future__ import annotations

import json
import math

#: the atom ladder's max |logdet/T - L_exact/T| today is 1.74e-4 at the default
#: 40 nodes per unit T (the O(h^2) Nystrom kink error); a discretisation that
#: loses more than a quarter of that accuracy fails the benchmark.
WH_LOGDET_ERR_CAP = 2.2e-4

CUTOFF_BRACKET = (math.sqrt(2.0 * math.pi / 3.0), math.sqrt(2.0 * math.pi))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def atom_logdet_exact(omega: float, weight: float, kappa: float, T: float) -> float:
    """Closed-form log det(1 + kappa^2 C_T) of the single-atom kernel."""
    a = kappa * kappa * omega
    b = math.sqrt(a * a + kappa * kappa * weight * a / omega)
    return ((b - a) * T + math.log((a + b) ** 2 / (4.0 * a * b))
            + math.log1p(-((b - a) / (b + a)) ** 2 * math.exp(-2.0 * b * T)))


def wh_logdet_err(rows, ref_atom) -> float:
    """Max over the ladder rungs of |logdet_per_T - L_exact / T|."""
    omega, weight, kappa = ref_atom
    return max(abs(r["logdet_per_T"] - atom_logdet_exact(omega, weight, kappa, r["T"]) / r["T"])
               for r in rows)


def _mass_in_unit_interval(rows) -> list:
    return [f"mass_fn {r['mass_fn']!r} outside (0, 1] at T={r['T']}"
            for r in rows if not 0.0 < r["mass_fn"] <= 1.0]


def _check_validate(job, out) -> list:
    row = out["rows"][0]
    want = 1.0 + (2.0 / 3.0) * job.expect["m_minus2"]
    problems = []
    if _rel(row["m_eff"], want) > 1e-9:
        problems.append(f"m_eff {row['m_eff']!r} != closed form {want!r}")
    if not row["assumptions_pass"]:
        problems.append("assumption check failed")
    return problems


def _check_energy(job, out) -> list:
    row = out["rows"][0]
    problems = []
    kappa, cal_e = row["kappa"], row["calE"]
    identity = 2.0 * kappa * kappa / job.expect["d_eff"] * cal_e
    if _rel(row["log_spectral"], identity) > 1e-8:
        problems.append(f"log_spectral {row['log_spectral']!r} != (2 kappa^2/d) calE {identity!r}")
    if "calE" in job.expect and _rel(cal_e, job.expect["calE"]) > 1e-9:
        problems.append(f"atom calE {cal_e!r} != {job.expect['calE']!r}")
    return problems


def _check_cutoff_scan(job, out) -> list:
    rows = out["rows"]
    biggest = max(rows, key=lambda r: r["lambda"])
    lo, hi = CUTOFF_BRACKET
    if not lo <= biggest["E_over_lambda_1p5"] <= hi:
        return [f"E/Lambda^1.5 {biggest['E_over_lambda_1p5']!r} at Lambda={biggest['lambda']!r} "
                f"outside [{lo:.5f}, {hi:.5f}]"]
    return []


def _check_hermite(job, out) -> list:
    return [] if out["passed"] else ["hermite-check reports failure"]


def _check_wiener_hopf(job, out) -> list:
    rows = out["rows"]
    problems = _mass_in_unit_interval(rows)
    if "ref_atom" in job.expect:
        err = wh_logdet_err(rows, job.expect["ref_atom"])
        if not err <= WH_LOGDET_ERR_CAP:
            problems.append(f"wh_logdet_err {err:.3e} above cap {WH_LOGDET_ERR_CAP:.1e}")
    if "ak_rel" in job.expect:
        last = rows[-1]
        rel = abs(last["ak_dev"]) / abs(last["ak_target"])
        if not rel < job.expect["ak_rel"]:
            problems.append(f"|ak_dev|/ak_target {rel:.3e} at T={last['T']} "
                            f"not below {job.expect['ak_rel']}")
    return problems


def _check_fock(job, out) -> list:
    rows = out["rows"]
    problems = [f"E_0 {r['E_0']!r} > E_p {r['E_p']!r} + 1e-6 at kappa={r['kappa']!r} p={r['p']!r}"
                for r in rows if r["E_0"] > r["E_p"] + 1e-6]
    if job.expect["epsilon"] == 0.0:
        gaps = [r["gap"] for r in rows if r["p"] != 0.0]
        if max(gaps) - min(gaps) > 1e-8:
            problems.append(f"dipole gap spread {max(gaps) - min(gaps):.3e} above 1e-8")
    if job.expect.get("semigroup"):
        res = [r["semigroup_res"] for r in sorted(rows, key=lambda r: r["kappa"])]
        if not all(a > b for a, b in zip(res[:-1], res[1:])):
            problems.append(f"semigroup residual not decreasing in kappa: {res}")
    return problems


_CHECKS = {"validate": _check_validate, "energy": _check_energy,
           "cutoff-scan": _check_cutoff_scan, "hermite-check": _check_hermite,
           "wiener-hopf": _check_wiener_hopf, "fock": _check_fock}


def check_outputs(jobs, outputs: dict) -> tuple[dict, dict]:
    """Check one pass of a job list.

    ``outputs`` maps a job name to its data output (bytes) or to None when the
    job exited non-zero.  Returns ``(problems, facts)``: problems per job name
    (only failing jobs appear) and the measured ``wh_logdet_err`` if the pass
    ran the reference atom ladder.
    """
    problems, facts, parsed = {}, {}, {}
    for job in jobs:
        blob = outputs.get(job.name)
        if blob is None:
            problems[job.name] = ["job exited non-zero"]
            continue
        try:
            parsed[job.name] = json.loads(blob)
            found = _CHECKS[job.subcommand](job, parsed[job.name])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            problems[job.name] = found
        if "ref_atom" in job.expect and job.name in parsed:
            facts["wh_logdet_err"] = wh_logdet_err(parsed[job.name]["rows"],
                                                   job.expect["ref_atom"])
    scan = next((parsed.get(j.name) for j in jobs if j.subcommand == "cutoff-scan"), None)
    if scan is not None:
        by_lambda = {r["lambda"]: r["calE"] for r in scan["rows"]}
        for job in jobs:
            cutoff = job.expect.get("cutoff")
            if job.subcommand != "energy" or cutoff is None or job.name not in parsed:
                continue
            cal_e = parsed[job.name]["rows"][0]["calE"]
            other = by_lambda.get(cutoff)
            if other is None or _rel(cal_e, other) > 1e-6:
                problems.setdefault(job.name, []).append(
                    f"calE {cal_e!r} vs cutoff-scan {other!r} at Lambda={cutoff!r}")
    return problems, facts


#: two outputs of one job whose numbers differ by no more than this (relative
#: to max(1, |value|)) agree.  It is the Lanczos residual tolerance of
#: ``fockdesk.ground_energy``: scipy's ``eigsh`` draws its start vector from OS
#: entropy, so the Lanczos path is not byte-deterministic across runs.
REPEAT_TOL = 1e-9


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}/{key}")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}/{i}")
    else:
        yield path, obj


def compare_outputs(first: bytes, second: bytes) -> float | None:
    """Largest scaled difference between two data outputs of one job.

    Returns 0.0 for byte-identical outputs, None when they differ in
    structure, in a non-numeric value or by more than REPEAT_TOL.
    """
    if first == second:
        return 0.0
    try:
        a, b = list(_leaves(json.loads(first))), list(_leaves(json.loads(second)))
    except ValueError:
        return None
    worst = 0.0
    if [p for p, _ in a] != [p for p, _ in b]:
        return None
    for (_, x), (_, y) in zip(a, b):
        if not (isinstance(x, float) and isinstance(y, float)):
            if x != y:
                return None
            continue
        worst = max(worst, abs(x - y) / max(1.0, abs(x), abs(y)))
    return worst if worst <= REPEAT_TOL else None
