"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here; the heavyweight two-mode scans are shared
through session fixtures in conftest.py.
"""

import json
import math
import time

import numpy as np

from pfwcl import fockdesk, wienerhopf
from pfwcl.cli import run as cli_run
from pfwcl.cutoff import cutoff_energy_3d, cutoff_split_I1_I2
from pfwcl.energy import ground_energy, log_spectral_energy
from pfwcl.hermite import (bound_check, generating_function_residual,
                           generating_operator_residual)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_five_way_energy_agreement(pm_atom):
    t0 = time.time()
    a = ground_energy(pm_atom).calE
    b = 0.5 * log_spectral_energy(pm_atom, 1.0)
    c = fockdesk.bogoliubov_energy([(1.0, 3.0)])
    basis = fockdesk.build_basis([(1.0, 3.0, 0.0)], 60)
    d = fockdesk.ground_state(fockdesk.fiber_hamiltonian(basis, 1.0, 0.0, 0.0))[0]
    e = wienerhopf.log_det(pm_atom, 1.0, 40.0) / 40.0
    elapsed = time.time() - t0

    ok_abc = all(abs(v - 0.5) <= 1e-9 * 0.5 for v in (a, b, c))
    ok_d = abs(d - 0.5) <= 1e-6
    ok_e = abs(e - 1.0) <= 0.02
    ok_time = elapsed < 60.0
    report(1, ok_abc and ok_d and ok_e and ok_time,
           f"G-quad={a:.12f} log-spec/2={b:.12f} bogoliubov={c:.12f} "
           f"fock(60)={d:.9f} logdet/T={e:.6f} [{elapsed:.1f}s]")


def test_criterion_2_mass_functional_ladder(pm_atom):
    t0 = time.time()
    devs = []
    for T in (10.0, 20.0, 40.0):
        devs.append(abs(wienerhopf.mass_functional(pm_atom, 1.0, T) - 0.25))
    elapsed = time.time() - t0
    ok = (devs[2] <= 0.02) and (devs[2] <= 0.5 * devs[0]) and elapsed < 60.0
    report(2, ok,
           f"|mass-0.25| at T=10/20/40: {devs[0]:.5f}/{devs[1]:.5f}/{devs[2]:.5f} "
           f"[{elapsed:.1f}s]")


def test_criterion_3_ahiezer_kac_identity(gauss1, cutoff1):
    worst = 0.0
    for ff in (gauss1, cutoff1):
        cal_e = ground_energy(ff).calE
        for kappa in (1.0, 2.0):
            lhs = log_spectral_energy(ff, kappa)
            rhs = (2.0 * kappa**2 / 3.0) * cal_e   # (kappa^2/pi) int G
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    report(3, worst <= 1e-8, f"worst relative identity defect {worst:.2e}")


def test_criterion_4_cutoff_asymptotics(cutoff1):
    ratio = cutoff_energy_3d(1e6) / 1e6**1.5
    ok_bracket = 1.44720 <= ratio <= 2.50663
    e1 = cutoff_energy_3d(1.0)
    g1 = ground_energy(cutoff1).calE
    ok_cross = abs(e1 - g1) <= 1e-6 * abs(g1)
    tail4 = cutoff_split_I1_I2(1e4)[1] / math.sqrt(1e4)
    tail6 = cutoff_split_I1_I2(1e6)[1] / math.sqrt(1e6)
    ok_tail = tail6 < tail4
    report(4, ok_bracket and ok_cross and ok_tail,
           f"E(1e6)/L^1.5={ratio:.5f} in [1.44720,2.50663]; "
           f"|E(1)-calE|/calE={abs(e1 - g1) / g1:.2e}; "
           f"I2/sqrt(L): {tail4:.5f}->{tail6:.5f}")


def test_criterion_5_kappa_squared_scaling(pm_atom, cutoff1, gauss1):
    worst = 0.0
    for ff in (pm_atom, cutoff1, gauss1):
        base = log_spectral_energy(ff, 1.0)
        for kappa in (2.0, 3.0):
            val = log_spectral_energy(ff, kappa)
            worst = max(worst, abs(val - kappa**2 * base) / abs(kappa**2 * base))
    report(5, worst <= 1e-10, f"worst relative scaling defect {worst:.2e}")


def test_criterion_6_wcl_effective_mass_trend(two_mode_scan_eps1,
                                              two_mode_scan_eps0):
    target = 0.2**2 / 5.0
    devs = [abs(r["gap"] - target) for r in two_mode_scan_eps1 if r["p"] == 0.2]
    ok_trend = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    gaps0 = [r["gap"] for r in two_mode_scan_eps0 if r["p"] == 0.2]
    spread = max(gaps0) - min(gaps0)
    ok_dipole = spread <= 1e-8
    report(6, ok_trend and ok_dipole,
           f"|gap-p^2/5| along kappa=1,2,4,8: "
           + "/".join(f"{d:.2e}" for d in devs)
           + f"; dipole-row spread {spread:.2e}")


def test_criterion_7_semigroup_residual_trend(two_mode_basis):
    t0 = time.time()
    res = [fockdesk.semigroup_wcl_residual(two_mode_basis, kappa, 0.2, 1.0)
           for kappa in (1.0, 2.0, 4.0)]
    elapsed = time.time() - t0
    ok = res[0] > res[1] > res[2] and elapsed < 300.0
    report(7, ok,
           "residual along kappa=1,2,4: "
           + "/".join(f"{r:.4f}" for r in res) + f" [{elapsed:.1f}s]")


def test_criterion_8_hermite_suite():
    gen = generating_function_residual(0.5, 0.3, 0.7, 60)
    ok_gen = gen <= 1e-12
    xs = np.arange(-5.0, 5.0 + 1e-9, 0.1)
    ok_bound = all(bound_check(n, a, float(x))
                   for n in range(41) for a in (0.25, 1.0, 4.0) for x in xs)
    rng = np.random.default_rng(20240517)
    raw = rng.standard_normal((8, 8))
    S = 0.5 * (raw + raw.T)
    S *= 2.0 / float(np.max(np.abs(np.linalg.eigvalsh(S))))
    phi = rng.standard_normal(8)
    op_res = generating_operator_residual(S, 0.25, 0.4, phi, 80)
    ok_op = op_res <= 1e-10
    report(8, ok_gen and ok_bound and ok_op,
           f"genfunc={gen:.2e} bound_grid={'ok' if ok_bound else 'violated'} "
           f"genop={op_res:.2e}")


def test_criterion_9_diamagnetic_property(two_mode_scan_eps1,
                                          two_mode_scan_eps0):
    worst = max(r["E_0"] - r["E_p"]
                for r in two_mode_scan_eps1 + two_mode_scan_eps0)
    report(9, worst <= 1e-6, f"max E_0 - E_p over the scan grid {worst:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "pm.json"
    cfg.write_text(json.dumps({
        "measure": {"dimension": 3,
                    "profile": {"type": "point_masses",
                                "atoms": [{"omega": 1.0, "weight": 3.0}]}}}))
    blobs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = cli_run(["wiener-hopf", "--config", str(cfg), "--T-ladder",
                        "5,10", "--output", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    report(10, blobs[0] == blobs[1],
           f"two runs, {len(blobs[0])} bytes each, byte-identical="
           f"{blobs[0] == blobs[1]}")
