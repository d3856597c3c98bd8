"""Normal modes of diag(lam^2) + v v^T: one numpy solver for the Fock desk and
the Wiener-Hopf realization.  The mu_i^2 interlace the lam_i^2 and solve
1 + sum_j v_j^2 / (lam_j^2 - mu^2) = 0 (Golub 1973).  Each root is bisected as
its distance s to the nearer pole lam_k^2 (Bunch, Nielsen and Sorensen 1978), so
lam_j^2 - mu^2 = (lam_j - lam_k)(lam_j + lam_k) -+ s and mu - lam cancel nothing;
the eigenvectors follow from the same differences (Gu and Eisenstat 1994).
"""

import numpy as np


def merged(atoms):
    """(lam, w) of (lam, w) pairs over the distinct lam, increasing: equal lam sum
    their w, and w = 0 pairs drop."""
    total = {}
    for lam, w in atoms:
        total[lam] = total.get(lam, 0.0) + w
    lam = sorted(k for k in total if total[k] > 0.0)
    return np.array(lam), np.array([total[k] for k in lam])


def secular_roots(lam, v2):
    """(mu, d = mu - lam, gap[j, i] = lam_j^2 - mu_i^2) for increasing lam > 0, v2 > 0."""
    n, diff = len(lam), (lam[:, None] - lam) * (lam[:, None] + lam)
    lo, hi = np.zeros(n), 0.5 * np.append(-np.diag(diff, 1), 2.0 * np.sum(v2))
    up = np.append(1.0 + (v2[:, None] / (diff - hi)).sum(axis=0)[:-1] > 0.0, True)
    sign, diff = np.where(up, 1.0, -1.0), diff[:, np.where(up, 0, 1) + np.arange(n)]
    while np.count_nonzero(np.where(lo < (mid := 0.5 * (lo + hi)), mid < hi, False)):
        below = sign * (1.0 + (v2[:, None] / (diff - sign * mid)).sum(axis=0)) > 0.0
        lo, hi = np.where(below, lo, mid), np.where(below, mid, hi)
    gap = diff - sign * hi
    mu = np.sqrt(lam * lam - np.diagonal(gap))
    return mu, -np.diagonal(gap) / (mu + lam), gap


def secular_vectors(lam, v, gap):
    """Orthonormal eigenvectors Q[:, i], of mu_i^2, from ``secular_roots``'s gap."""
    diff = (lam[:, None] - lam) * (lam[:, None] + lam) - np.eye(len(lam))
    Q = np.copysign(np.sqrt(np.prod(gap / diff, axis=1)), v)[:, None] / gap
    return Q / np.linalg.norm(Q, axis=0)
