"""Independent reference values that every benchmark operation is checked against."""

from __future__ import annotations

import numpy as np

# Metric constant of the default normalization (k = auto), which makes
# g = identity at the origin of every exponential chart.
DEFAULT_K = 2.0

LAMBDA_TOL = 1e-6   # scan Einstein constant, absolute; today's gap is <= 4e-9
VERDICT_TOL = 1e-6  # tolerance handed to the sphere verdicts, the CLI default
G_TOL = 1e-10       # metric entries, absolute; today's gap is <= 7e-16
# Sphere verdicts: relative error of Lambda and the relative Ricci residual.
# Near the corners of the sampling box (polar angles 0.3 from a pole) the
# metric is ill-conditioned and the finite-difference hierarchy loses
# digits: at the worst corner of S^7 the Ricci residual is 9.3e-5 and Lambda
# is off by 1.6e-5 of itself.  The gate sits above that worst case; verdicts
# that miss their own 1e-6 with Lambda inside the gate are counted by
# check.flag_false_fail, and check.residual_max shows the largest residual.
SPHERE_LAMBDA_TOL = 1e-4
SPHERE_RICCI_TOL = 1e-3


def killing_lambda(f: np.ndarray) -> float:
    """Einstein constant of the bi-invariant metric from structure constants.

    With ``[X_a, X_b] = f_abc X_c`` in an orthonormal basis the Killing form is
    ``B_ab = f_aec f_bce`` and ``Ric = -B/4 = 2 Lambda g`` with ``g = I``, so
    ``Lambda = -B_aa / 8``.  The form must be a multiple of the identity.
    """
    b = np.einsum("aec,bce->ab", f, f)
    diag = float(np.mean(np.diag(b)))
    if not np.allclose(b, diag * np.eye(len(b)), atol=1e-12):
        raise ValueError("Killing form is not a multiple of the identity in this basis")
    return -diag / 8.0


def killing_lambda_closed_form(family: str, n: int) -> float:
    """su(n): n/8, so(n): (n - 2)/16, sp(n): (n + 1)/8."""
    return {"SU": n / 8.0, "SO": (n - 2) / 16.0, "Sp": (n + 1) / 8.0}[family]


def sphere_lambda(n_ambient: int) -> float:
    """Unit S^(N-1) has Ric = (N - 2) g = 2 Lambda g."""
    return (n_ambient - 2) / 2.0


def exp_chart_metric(generators: np.ndarray, theta: np.ndarray, k: float = DEFAULT_K) -> np.ndarray:
    """g_ab = k Re Tr(w_a^dag w_b) with w_a = U^-1 dU_a from scipy's expm_frechet.

    ``expm_frechet`` (Al-Mohy & Higham 2009) gives exp(A) and its Frechet
    derivative along each generator, independently of lieforge's kernel.
    """
    from scipy.linalg import expm_frechet

    a = np.einsum("a,aij->ij", theta, generators)
    omegas = []
    for x in generators:
        u, du = expm_frechet(a, x)
        omegas.append(np.linalg.solve(u, du))
    w = np.stack(omegas)
    return k * np.real(np.einsum("aji,bji->ab", w.conj(), w))
