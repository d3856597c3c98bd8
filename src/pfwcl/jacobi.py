"""Eigenpairs of a small symmetric matrix by the cyclic Jacobi method, in Python
floats.  It makes no LAPACK or BLAS call, whose first use costs a process about
1 MB of resident memory (one 3 x 3 ``numpy.linalg.eigh``), and its bytes do not
depend on a BLAS thread count.  On such matrices Jacobi is at least as accurate
as QR (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).
"""

import math

from .errors import NumericalError

_EPS = 2.0 ** -52
MAX_SWEEPS = 50


def jacobi_eigh(rows):
    """(values, vectors) of the symmetric matrix ``rows`` (nested lists of
    floats; only the lower triangle is read): values ascending and vectors[i]
    the unit eigenvector of values[i].

    Each rotation uses Rutishauser's update: a_pq is set to exactly 0 and the
    diagonal moves by t a_pq.  An entry is left alone once |a_pq| <=
    eps sqrt(|a_pp a_qq|), and the sweeps stop after one with no rotation.
    Raises NumericalError on a non-finite entry or after MAX_SWEEPS sweeps.
    """
    n = len(rows)
    a = [[float(rows[max(i, j)][min(i, j)]) for j in range(n)] for i in range(n)]
    if not all(map(math.isfinite, (x for row in a for x in row))):
        raise NumericalError("Jacobi eigensolver: non-finite matrix entry")
    d = [a[i][i] for i in range(n)]
    v = [[float(i == j) for j in range(n)] for i in range(n)]    # v[i]: vector i
    for _ in range(MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= _EPS * math.sqrt(abs(d[p])) * math.sqrt(abs(d[q])):
                    continue
                rotated = True
                theta = (0.5 * d[q] - 0.5 * d[p]) / apq       # d[q] - d[p] may overflow
                t = (0.5 / theta if abs(theta) > 1e150            # theta^2 would overflow
                     else math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0)))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s, tau = t * c, t * c / (1.0 + c)
                d[p] -= t * apq
                d[q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for j in range(n):
                    if j != p and j != q:
                        g, h = a[j][p], a[j][q]
                        a[j][p] = a[p][j] = g - s * (h + g * tau)
                        a[j][q] = a[q][j] = h + s * (g - h * tau)
                vp, vq = v[p], v[q]
                for k in range(n):
                    g, h = vp[k], vq[k]
                    vp[k], vq[k] = g - s * (h + g * tau), h + s * (g - h * tau)
        if not rotated:
            order = sorted(range(n), key=d.__getitem__)
            return [d[i] for i in order], [v[i] for i in order]
    raise NumericalError(f"Jacobi eigensolver: no convergence in {MAX_SWEEPS} sweeps")
