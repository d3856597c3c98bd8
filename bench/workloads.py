"""Seeded job lists for the three benchmark workloads.

A job is one ``pfwcl`` CLI invocation: a subcommand, its flags and, where it
needs a measure, a config file the job list writes before it runs.  The seed
moves input values only (measure parameters, the Lambda list, kappa/p values
and mode momenta).  Work sizes stay fixed: ladder rungs, node densities, basis
dimensions and the number of Lambda values, so two seeds do the same amount of
work up to the adaptive quadrature's response to slightly different inputs.

Why each workload (which layers it stresses):

- ``spectral``: ten short jobs, almost all ``quadrature`` under ``energy`` and
  ``formfactor``, plus ``hermite`` and per-process setup.  No Wiener-Hopf or
  Fock linear algebra.
- ``wiener_hopf``: three T-ladders.  The reference atom ladder is bound by
  dense factorisation (n reaches 3200) and carries the exact log-determinant
  oracle; the continuum ladders spend their time sampling rho through
  ``energy.measure_integral``.
- ``fock``: the two-mode model on both sides of ``fockdesk.DENSE_DIM_LIMIT``
  (dim 1953 dense, dim 4186 Lanczos) plus one semigroup scan; no quadrature.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("spectral", "wiener_hopf", "fock")

#: the reference atom of the Wiener-Hopf oracle: (omega, W, kappa)
REF_ATOM = (1.0, 3.0, 1.0)
REF_LADDER = (10.0, 20.0, 40.0, 80.0)
CONTINUUM_LADDER = (5.0, 10.0, 20.0)
FOCK_MODES = ((1.0, 1.0), (2.0, 2.0))      # (omega, W); momenta are seeded
FOCK_NTOT_DENSE = 61                       # dim 1953 <= DENSE_DIM_LIMIT
FOCK_NTOT_LANCZOS = 90                     # dim 4186 >  DENSE_DIM_LIMIT
CUTOFF_SCAN_SIZE = 40


@dataclass
class Job:
    """One CLI invocation and what its output check needs to know."""

    name: str
    subcommand: str
    flags: list
    config: dict | None = None
    expect: dict = field(default_factory=dict)

    def argv(self, workdir: str) -> list:
        argv = [self.subcommand] + [str(f) for f in self.flags] + ["--format", "json"]
        if self.config is not None:
            argv += ["--config", os.path.join(workdir, f"{self.name}.json")]
        return argv


def _measure(dimension: int, profile: dict) -> dict:
    return {"measure": {"dimension": dimension, "profile": profile}}


def _jitter(rng: random.Random, centre: float, rel: float) -> float:
    return centre * rng.uniform(1.0 - rel, 1.0 + rel)


def _spectral(rng: random.Random) -> list:
    lam = _jitter(rng, 1.0, 0.1)
    lam_big = _jitter(rng, 1e4, 0.1)
    sigma = _jitter(rng, 1.0, 0.1)
    radii = [0.25 + 0.4 * i + rng.uniform(-0.05, 0.05) for i in range(5)]
    values = [0.0] + [rng.uniform(0.5, 1.0) for _ in range(3)] + [0.0]
    omega = rng.uniform(0.5, 2.0)
    # W = 1 + 2 omega makes the single-atom Bogoliubov energy exactly 1/2
    atom = {"type": "point_masses", "atoms": [[omega, 1.0 + 2.0 * omega]]}
    sharp = {"type": "sharp", "lambda": lam}
    gauss = {"type": "gaussian", "sigma": sigma}
    table = {"type": "tabulated", "points": [[r, v] for r, v in zip(radii, values)]}

    jobs = [
        Job("validate_sharp", "validate", [], _measure(3, sharp),
            {"m_minus2": 4.0 * math.pi * lam}),
        Job("validate_gaussian", "validate", [], _measure(3, gauss),
            {"m_minus2": 2.0 * math.pi**1.5 * sigma}),
        Job("validate_tabulated", "validate", [], _measure(3, table),
            {"m_minus2": tabulated_m_minus2(radii, values)}),
    ]
    energy_cases = [("sharp", sharp, lam), ("gaussian", gauss, None), ("tabulated", table, None),
                    ("sharp_big", {"type": "sharp", "lambda": lam_big}, lam_big),
                    ("atom", atom, None)]
    for label, profile, cutoff in energy_cases:
        kappa = rng.uniform(0.5, 2.0)
        p = rng.uniform(0.0, 1.0)
        # discrete measures use the per-component convention, d_eff = 1
        expect = {"d_eff": 1 if label == "atom" else 3, "cutoff": cutoff}
        if label == "atom":
            expect["calE"] = 0.5
        jobs.append(Job(f"energy_{label}", "energy", ["--kappa", repr(kappa), "--p", repr(p)],
                        _measure(3, profile), expect))
    grid = [10.0 ** (-2.0 + 8.0 * i / (CUTOFF_SCAN_SIZE - 3))
            for i in range(CUTOFF_SCAN_SIZE - 2)]
    lambdas = sorted([_jitter(rng, v, 0.05) for v in grid] + [lam, lam_big])
    jobs.append(Job("cutoff_scan", "cutoff-scan", [], {"params": {"lambdas": lambdas}}))
    jobs.append(Job("hermite_check", "hermite-check", ["--seed", rng.randrange(2**31)]))
    return jobs


def tabulated_m_minus2(radii, values) -> float:
    """M_{-2} in d = 3 of a piecewise-linear phi, in closed form:
    4 pi sum over segments of (b - a)(phi_a^2 + phi_a phi_b + phi_b^2) / 3."""
    total = 0.0
    for a, b, fa, fb in zip(radii[:-1], radii[1:], values[:-1], values[1:]):
        total += (b - a) * (fa * fa + fa * fb + fb * fb) / 3.0
    return 4.0 * math.pi * total


def _ladder_flags(ladder, kappa: float) -> list:
    return ["--T-ladder", ",".join(repr(t) for t in ladder), "--kappa", repr(kappa)]


def _wiener_hopf(rng: random.Random) -> list:
    omega, weight, kappa = REF_ATOM
    atom = {"type": "point_masses", "atoms": [[omega, weight]]}
    gauss = {"type": "gaussian", "sigma": _jitter(rng, 1.0, 0.1)}
    sharp = {"type": "sharp", "lambda": _jitter(rng, 1.0, 0.1)}
    kappa_g = _jitter(rng, 1.0, 0.1)
    kappa_s = _jitter(rng, 1.0, 0.1)
    p = rng.uniform(0.1, 0.5)
    return [
        Job("wh_atom", "wiener-hopf", _ladder_flags(REF_LADDER, kappa),
            _measure(3, atom), {"ref_atom": REF_ATOM}),
        Job("wh_gaussian", "wiener-hopf", _ladder_flags(CONTINUUM_LADDER, kappa_g),
            _measure(3, gauss), {"ak_rel": 0.05}),
        Job("wh_sharp_p", "wiener-hopf",
            _ladder_flags(CONTINUUM_LADDER, kappa_s) + ["--p", repr(p)],
            _measure(3, sharp)),
    ]


def _fock(rng: random.Random) -> list:
    momenta = (rng.uniform(0.5, 0.7), -rng.uniform(0.5, 0.7))
    modes = ",".join(f"{w!r}:{W!r}:{q!r}" for (w, W), q in zip(FOCK_MODES, momenta))
    kappas = [_jitter(rng, k, 0.05) for k in (1.0, 2.0, 4.0, 8.0)]
    p = rng.uniform(0.15, 0.25)
    kappa_list = ",".join(repr(k) for k in kappas)
    p_list = f"0.0,{p!r}"
    jobs = []
    for ntot in (FOCK_NTOT_DENSE, FOCK_NTOT_LANCZOS):
        for eps in (1.0, 0.0):
            jobs.append(Job(f"fock_n{ntot}_eps{int(eps)}", "fock",
                            ["--modes", modes, "--ntot", ntot, "--kappa-list", kappa_list,
                             "--p-list", p_list, "--epsilon", repr(eps)],
                            expect={"epsilon": eps}))
    jobs.append(Job("fock_semigroup", "fock",
                    ["--modes", modes, "--ntot", FOCK_NTOT_DENSE,
                     "--kappa-list", ",".join(repr(k) for k in kappas[:2]),
                     "--p-list", repr(p), "--epsilon", "1.0", "--T", "1.0"],
                    expect={"epsilon": 1.0, "semigroup": True}))
    return jobs


_BUILDERS = {"spectral": _spectral, "wiener_hopf": _wiener_hopf, "fock": _fock}


def make_jobs(workload: str, seed: int) -> list:
    """The workload's job list for ``seed``; the same seed gives the same jobs."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def write_configs(jobs, workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for job in jobs:
        if job.config is not None:
            with open(os.path.join(workdir, f"{job.name}.json"), "w", encoding="utf-8") as fh:
                json.dump(job.config, fh, sort_keys=True)


def subcommands(jobs) -> list:
    return sorted({job.subcommand for job in jobs})
