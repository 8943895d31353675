"""The subgradient of log kappa(D M D) with respect to the diagonal D."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .linalg import SymMatrix, NotPositiveDefiniteError


def logcond_subgradient(m: SymMatrix, d) -> np.ndarray:
    """A subgradient of d -> log kappa(D M D) at the diagonal d.

    Uses vv^T in the subdifferential of lambda_max (and uu^T for
    lambda_min) through the chain rule on D M D:
    g_i = 2 v_i (M D v)_i / lambda_max - 2 u_i (M D u)_i / lambda_min.
    Eigenvalue ties are broken by the first eigenvector returned.
    """
    d = np.asarray(d, dtype=float)
    m_arr = m.mat
    dmd = d[:, None] * m_arr * d[None, :]
    w, vecs = scipy.linalg.eigh(0.5 * (dmd + dmd.T))
    lmin, u, lmax, v = float(w[0]), vecs[:, 0], float(w[-1]), vecs[:, -1]
    if lmin <= 0:
        raise NotPositiveDefiniteError("D M D is not positive definite")
    mdv = m_arr @ (d * v)
    mdu = m_arr @ (d * u)
    return 2.0 * v * mdv / lmax - 2.0 * u * mdu / lmin
