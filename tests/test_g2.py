"""The paper's metric beyond the classical catalog: the exceptional g2,
which is Einstein with the Killing value, and two bi-invariant controls:
u(n), not Einstein, and su(2) + su(2) acting on C^2 (x) C^a + C^2 (x) C^b,
Einstein only at a = b.  All are test-side GroupSpecs."""

import hashlib

import numpy as np
import pytest

from conftest import killing_lambda
from lieforge.catalog import GRAM_CONSTANT, GroupSpec, make_group
from lieforge.curvature import einstein_check, sample_safe_points
from lieforge.metric import metric_field

# Bryant's 3-form phi = e123 + e145 + e167 + e246 - e257 - e347 - e356, 0-based
_FANO = [(0, 1, 2, 1), (0, 3, 4, 1), (0, 5, 6, 1), (1, 3, 5, 1), (1, 4, 6, -1), (2, 3, 6, -1),
         (2, 4, 5, -1)]


def bryant_phi() -> np.ndarray:
    phi = np.zeros((7, 7, 7))
    for a, b, c, s in _FANO:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            phi[i, j, k], phi[j, i, k] = s, -s
    return phi


def g2_spec() -> GroupSpec:
    """For each a, A_i = phi_abc (E_bc - E_cb) over the three Fano pairs
    b < c through a; g2 keeps A_0 - A_1 and A_0 + A_1 - 2 A_2, normalized
    to Tr(X^dag X) = 1/2."""
    phi, gens = bryant_phi(), []
    for a in range(7):
        b, c = np.nonzero(np.triu(phi[a]))
        pair = np.zeros((3, 7, 7))
        pair[np.arange(3), b, c], pair[np.arange(3), c, b] = phi[a, b, c], -phi[a, b, c]
        gens += [pair[0] - pair[1], pair[0] + pair[1] - 2.0 * pair[2]]
    x = np.array(gens, dtype=complex)
    x *= np.sqrt(GRAM_CONSTANT / np.einsum("aij,aij->a", x.conj(), x).real)[:, None, None]
    x.setflags(write=False)
    return GroupSpec(family="G2", n=2, generators=x, name="g2")


def u_spec(n: int) -> GroupSpec:
    """u(n): su(n) and the centre, i I / sqrt(2n)."""
    x = np.concatenate([make_group("su", n).generators, (1j / np.sqrt(2 * n)) * np.eye(n)[None]])
    x.setflags(write=False)
    return GroupSpec(family="U", n=n, generators=x, name=f"u{n}")


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def su2_pair_spec(a: int, b: int) -> GroupSpec:
    """su(2) + su(2) as (i/2) sigma_k (x) I_a + 0 and 0 + (i/2) sigma_k (x) I_b,
    normalized to Tr(X^dag X) = 1/2: the trace form weights the factors a : b."""
    n = 2 * (a + b)
    x = np.zeros((6, n, n), dtype=complex)
    for k, sigma in enumerate(0.5j * _PAULI):
        x[k, :2 * a, :2 * a] = np.kron(sigma, np.eye(a))
        x[3 + k, 2 * a:, 2 * a:] = np.kron(sigma, np.eye(b))
    x *= np.sqrt(GRAM_CONSTANT / np.einsum("aij,aij->a", x.conj(), x).real)[:, None, None]
    x.setflags(write=False)
    return GroupSpec(family="SU2xSU2", n=n, generators=x, name=f"su2xsu2-{a}-{b}")


def verdict(spec):
    field = metric_field(spec, "exp", 2.0)
    return einstein_check(field, sample_safe_points(field, 20, np.random.default_rng(0)), 1e-6)


def test_g2_basis_annihilates_phi_and_is_orthogonal():
    phi, x = bryant_phi(), g2_spec().generators.real
    action = (np.einsum("mia,ibc->mabc", x, phi) + np.einsum("mib,aic->mabc", x, phi)
              + np.einsum("mic,abi->mabc", x, phi))
    assert np.abs(action).max() == 0.0
    gram = np.einsum("aij,bij->ab", x, x)
    assert np.array_equal(gram, np.diag(gram.diagonal()))
    assert np.abs(gram.diagonal() - GRAM_CONSTANT).max() < 1e-15


def test_g2_is_einstein_with_the_killing_lambda():
    # Lambda = h^v / (8 iota): dual Coxeter number 4, Dynkin index 2 in 7 x 7 matrices
    spec = g2_spec()
    assert killing_lambda(spec.structure) == pytest.approx(0.25, abs=1e-12)
    v = verdict(spec)
    assert v.passed and abs(v.lambda_hat - 0.25) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_u_n_is_bi_invariant_but_not_einstein(n):
    # Ric vanishes on the centre while g does not
    v = verdict(u_spec(n))
    assert not v.passed and v.failure.startswith("residual") and v.residual > 0.1


def test_g2_generators_are_pinned():
    # sha256 of the Fano-line basis, signed zeros included, as the catalog's pin
    digest = hashlib.sha256(g2_spec().generators.tobytes()).hexdigest()
    assert digest == "ccace4ca4826a14b9560a9508a1347fb41cc843d43a8c504966ee451b88eab0b"


@pytest.mark.parametrize("b", [1, 2, 3])
def test_weighted_su2_pair_is_einstein_only_at_equal_weights(b):
    # one algebra, three metrics: the factors' Killing values 1/4 and 1/(4b)
    # average to lambda_hat = (1 + 1/b) / 8, and the residual is their
    # difference (1 - 1/b) / 4, so the verdict reads the metric
    v = verdict(su2_pair_spec(1, b))
    assert abs(v.lambda_hat - (1 + 1 / b) / 8) <= 1e-12
    assert abs(v.residual - (1 - 1 / b) / 4) <= 1e-12
    assert v.passed == (b == 1)
    if b > 1:
        assert v.failure.startswith("residual")
