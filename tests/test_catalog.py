import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from conftest import killing_lambda
from lieforge import catalog
from lieforge.catalog import (
    GRAM_CONSTANT,
    GroupSpec,
    make_group,
    parse_group_name,
    structure_constants,
)
import lieforge.errors
from lieforge.errors import InvalidInputError
from oracles import expm, symplectic_form

CATALOG = [("su", 2), ("su", 3), ("so", 3), ("so", 4), ("so", 5), ("sp", 1), ("sp", 2)]


def levi_civita():
    eps = np.zeros((3, 3, 3))
    for p in itertools.permutations(range(3)):
        eps[p] = np.sign(np.linalg.det(np.eye(3)[list(p)]))
    return eps


@pytest.mark.parametrize("family,n,dim,size", [
    ("su", 2, 3, 2),
    ("su", 3, 8, 3),
    ("so", 3, 3, 3),
    ("so", 4, 6, 4),
    ("so", 5, 10, 5),
    ("sp", 1, 3, 2),
    ("sp", 2, 10, 4),
])
def test_dimensions(family, n, dim, size):
    spec = make_group(family, n)
    assert spec.dim == dim
    assert spec.matrix_size == size
    assert len(spec.generators) == dim


@pytest.mark.parametrize("family,n", CATALOG)
def test_generators_antihermitian(family, n):
    x = make_group(family, n).generators
    assert np.abs(x + np.swapaxes(x.conj(), -1, -2)).max() < 1e-14


@pytest.mark.parametrize("family,n", CATALOG)
def test_gram_normalization(family, n):
    spec = make_group(family, n)
    gram = np.einsum("aji,bji->ab", spec.generators.conj(), spec.generators)
    assert np.abs(gram - GRAM_CONSTANT * np.eye(spec.dim)).max() < 1e-12


@pytest.mark.parametrize("family,n", CATALOG)
def test_generators_exponentiate_into_group(family, n):
    spec = make_group(family, n)
    for x in spec.generators:
        u = expm(x)
        n_mat = spec.matrix_size
        assert np.linalg.norm(u.conj().T @ u - np.eye(n_mat)) < 1e-12
        if family == "so":
            assert np.abs(u.imag).max() < 1e-10
        if family == "sp":
            j = symplectic_form(n)
            assert np.abs(u.T @ j @ u - j).max() < 1e-10


def test_su2_structure_constants_are_minus_epsilon():
    f = structure_constants(make_group("su", 2)).f
    # commutator oracle on the 2x2 generators directly
    x = make_group("su", 2).generators
    for a, b in itertools.product(range(3), repeat=2):
        comm = x[a] @ x[b] - x[b] @ x[a]
        rebuilt = sum(f[a, b, c] * x[c] for c in range(3))
        assert np.abs(comm - rebuilt).max() < 1e-13
    assert np.abs(np.abs(f) - np.abs(levi_civita())).max() < 1e-13
    assert np.abs(f + levi_civita()).max() < 1e-13


def test_su3_cartan_pair_commutes():
    spec = make_group("su", 3)
    f = structure_constants(spec).f
    # the two diagonal generators close the Cartan subalgebra
    diag = [a for a in range(spec.dim)
            if np.abs(spec.generators[a] - np.diag(np.diag(spec.generators[a]))).max() < 1e-15]
    assert len(diag) == 2
    a, b = diag
    assert np.abs(f[a, b]).max() < 1e-13


@pytest.mark.parametrize("family,n", [("su", n) for n in range(2, 7)]
                         + [("so", n) for n in range(3, 9)]
                         + [("sp", n) for n in range(1, 5)])
def test_antisymmetry_and_jacobi(family, n):
    # f is antisymmetric in every pair because the basis is orthonormal for
    # the Ad-invariant trace form; so ad_theta is skew, which the exp-chart
    # metric's psi(ad^2) form relies on
    f = structure_constants(make_group(family, n)).f
    for axes in ((0, 1), (1, 2), (0, 2)):
        assert np.abs(f + np.swapaxes(f, *axes)).max() <= 1e-14
    jac = (
        np.einsum("abe,ecd->abcd", f, f)
        + np.einsum("bce,ead->abcd", f, f)
        + np.einsum("cae,ebd->abcd", f, f)
    )
    assert np.abs(jac).max() < 1e-10


def test_su3_jacobi_triple_commutator_brute_force():
    x = make_group("su", 3).generators
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = rng.integers(0, len(x), 3)

        def comm(p, q):
            return p @ q - q @ p

        res = comm(comm(x[a], x[b]), x[c]) + comm(comm(x[b], x[c]), x[a]) \
            + comm(comm(x[c], x[a]), x[b])
        assert np.abs(res).max() < 1e-10


@pytest.mark.parametrize("family,n", [("su", 1), ("so", 2), ("sp", 0)])
def test_unsupported_rank(family, n):
    with pytest.raises(InvalidInputError):
        make_group(family, n)


@pytest.mark.parametrize("n", [3.0, "3", True, 3.5, None])
def test_make_group_rejects_a_non_integer_size(n):
    # su3 is cached under the key 3, which 3.0 and True's 1 would hash like;
    # so41 is never built, so its check cannot lean on the cache either
    make_group("su", 3)
    for family in ("su", "so"):
        with pytest.raises(InvalidInputError, match="integer"):
            make_group(family, 41.0 if family == "so" and n == 3.0 else n)


def test_make_group_takes_a_numpy_integer():
    spec = make_group("su", np.int64(3))
    assert spec is make_group("su", 3) and type(spec.n) is int


def test_unknown_family():
    with pytest.raises(InvalidInputError):
        make_group("g2", 2)


@pytest.mark.parametrize("name,family,n", [
    ("su2", "SU", 2), ("so4", "SO", 4), ("sp1", "Sp", 1),
])
def test_parse_group_name(name, family, n):
    spec = parse_group_name(name)
    assert spec.family == family
    assert spec.n == n
    assert spec.name == name


@pytest.mark.parametrize("bad", ["SU(2)", "e8", "su", "2su", ""])
def test_parse_group_name_rejects(bad):
    with pytest.raises(InvalidInputError):
        parse_group_name(bad)


def test_make_group_is_shared_and_read_only():
    spec = make_group("so", 4)
    assert make_group("SO", 4) is spec
    assert parse_group_name("so4") is spec
    assert not spec.generators.flags.writeable
    with pytest.raises(ValueError):
        spec.generators[0, 0, 0] = 1.0


def test_structure_constants_cached_on_spec():
    spec = make_group("sp", 2)
    f = structure_constants(spec).f
    assert f is spec.structure
    assert not f.flags.writeable
    # the cached tensor rebuilds every commutator
    x = spec.generators
    comm = np.einsum("aij,bjk->abik", x, x) - np.einsum("bij,ajk->abik", x, x)
    assert np.abs(comm - np.einsum("abc,cij->abij", f, x)).max() < 1e-13


def test_structure_build_is_budgeted(monkeypatch):
    # the products X_a X_b (d^2 n^2 complex), conj(X) (d n^2), T and f (d^3
    # real each) and 2 KiB for array headers: a fresh spec asks for that, its
    # build stays inside it, and from su3 up the ask is within 10% of the peak
    for family, n, asked in [("su", 2, 3248), ("su", 3, 20608), ("so", 5, 62048)]:
        spec = make_group(family, n)
        monkeypatch.setattr(lieforge.errors, "ALLOC_BUDGET_BYTES", asked - 1)
        with pytest.raises(InvalidInputError, match=f"{spec.name} structure constants"):
            GroupSpec(*spec).structure
        monkeypatch.setattr(lieforge.errors, "ALLOC_BUDGET_BYTES", asked)
        fresh = GroupSpec(*spec)
        tracemalloc.start()
        try:
            f = fresh.structure
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(f, spec.structure) and peak <= asked
        assert spec.dim < 8 or asked <= 1.1 * peak


def test_generators_are_pinned_bitwise():
    # sha256 of su2..su12, so3..so13 and sp1..sp9, signed zeros included
    h = hashlib.sha256()
    for family, ns in (("su", range(2, 13)), ("so", range(3, 14)), ("sp", range(1, 10))):
        for n in ns:
            h.update(make_group(family, n).generators.tobytes())
    assert h.hexdigest() == "24550df134ac2d69cbd9c86e8ec9c2f4aeb31f534cea33ca7a4648f72ef42d73"


def test_generator_build_is_budgeted(monkeypatch):
    # two (dim, n, n) complex stacks, X and |X|^2 with its temporary while
    # normalizing, and 8 KiB for small arrays and headers: the build fails one
    # byte under that ask, stays inside it, and from so10 up is within 10% of it
    for family, n, asked in [("SU", 2, 8576), ("Sp", 3, 32384), ("SO", 10, 152192),
                             ("SO", 20, 2440192)]:
        monkeypatch.setattr(lieforge.errors, "ALLOC_BUDGET_BYTES", asked - 1)
        with pytest.raises(InvalidInputError, match=re.escape(f"the {family}({n}) generators")):
            catalog._build_group.__wrapped__(family, n)
        monkeypatch.setattr(lieforge.errors, "ALLOC_BUDGET_BYTES", asked)
        tracemalloc.start()
        try:
            spec = catalog._build_group.__wrapped__(family, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(spec.generators, make_group(family, n).generators)
        assert peak <= asked and (n < 10 or asked <= 1.1 * peak)


@pytest.mark.parametrize("family,n,expected", [
    ("su", 2, 2 / 8), ("su", 3, 3 / 8), ("su", 4, 4 / 8),
    ("so", 3, 1 / 16), ("so", 4, 2 / 16), ("so", 5, 3 / 16), ("so", 6, 4 / 16),
    ("sp", 1, 2 / 8), ("sp", 2, 3 / 8), ("sp", 3, 4 / 8),
])
def test_killing_lambda_closed_forms(family, n, expected):
    # su(n): n/8, so(n): (n - 2)/16, sp(n): (n + 1)/8
    assert killing_lambda(structure_constants(make_group(family, n)).f) == pytest.approx(expected, abs=1e-13)
