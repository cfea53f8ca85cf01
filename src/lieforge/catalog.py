"""Algebra bases for the classical families su(n), so(n), sp(n).

Every stored generator X_a is anti-Hermitian and normalized so that
Tr(X_a^dag X_b) = (1/2) delta_ab.  With the metric constant k = 2 this makes
the group metric equal the identity at the origin of the exponential chart
for every family, so Einstein constants are comparable across a scan.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, check_alloc

GRAM_CONSTANT = 0.5


@dataclass(frozen=True)
class GroupSpec:
    family: str  # "SU" | "SO" | "Sp"
    n: int
    matrix_size: int
    dim: int
    generators: np.ndarray  # (dim, matrix_size, matrix_size), complex
    name: str = field(default="")

    def __post_init__(self):
        if not self.name:
            object.__setattr__(self, "name", f"{self.family.lower()}{self.n}")

    @functools.cached_property
    def structure(self) -> np.ndarray:
        """f[a, b, c] with [X_a, X_b] = sum_c f_abc X_c, computed on first use
        as f = Re(T_abc - T_bac) / (1/2) with T_abc = Tr(X_c^dag X_a X_b): one
        batched product X_a X_b and one (d^2 x n^2)(n^2 x d) product.  The
        build peaks at those products and conj(X), 16 d n^2 (d + 1) + 16 d^3
        bytes, less than the budget check asks for."""
        d, n2 = self.dim, self.matrix_size ** 2
        check_alloc(16 * d * d * max(3 * n2, n2 + 2 * d) + 8 * d ** 3,
                    f"the {self.name} structure constants")
        x = self.generators
        t = ((x[:, None] @ x).reshape(d * d, n2) @ x.conj().reshape(d, n2).T).real
        t = t.reshape(d, d, d)
        f = (t - t.swapaxes(0, 1)) / GRAM_CONSTANT
        f.setflags(write=False)
        return f


@dataclass(frozen=True)
class StructureConstants:
    """f[a, b, c] defined by [X_a, X_b] = sum_c f_abc X_c."""

    f: np.ndarray


def _normalize(x: np.ndarray) -> np.ndarray:
    scale = np.sqrt(GRAM_CONSTANT / np.real(np.trace(x.conj().T @ x)))
    return x * scale


def _gell_mann(n: int) -> list[np.ndarray]:
    """Generalized Gell-Mann matrices (Hermitian, Tr(l_a l_b) = 2 delta_ab)."""
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            mats.append(sym)
            asym = np.zeros((n, n), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            mats.append(asym)
    for l in range(1, n):
        diag = np.zeros((n, n), dtype=complex)
        for m in range(l):
            diag[m, m] = 1.0
        diag[l, l] = -l
        mats.append(diag * np.sqrt(2.0 / (l * (l + 1))))
    return mats


def _su_generators(n: int) -> list[np.ndarray]:
    return [0.5j * lam for lam in _gell_mann(n)]


def _so_generators(n: int) -> list[np.ndarray]:
    gens = []
    for j in range(n):
        for k in range(j + 1, n):
            x = np.zeros((n, n), dtype=complex)
            x[j, k] = 0.5
            x[k, j] = -0.5
            gens.append(x)
    return gens


def _sp_generators(n: int) -> list[np.ndarray]:
    """Compact symplectic algebra sp(n) = u(2n) intersect sp(2n, C).

    Block form X = [[A, B], [-conj(B), conj(A)]] with A anti-Hermitian and
    B complex symmetric, acting on C^{2n}.
    """
    def embed_a(a):
        x = np.zeros((2 * n, 2 * n), dtype=complex)
        x[:n, :n] = a
        x[n:, n:] = a.conj()
        return x

    def embed_b(b):
        x = np.zeros((2 * n, 2 * n), dtype=complex)
        x[:n, n:] = b
        x[n:, :n] = -b.conj()
        return x

    gens = []
    for j in range(n):
        a = np.zeros((n, n), dtype=complex)
        a[j, j] = 1j
        gens.append(embed_a(a))
    for j in range(n):
        for k in range(j + 1, n):
            a = np.zeros((n, n), dtype=complex)
            a[j, k] = 1.0
            a[k, j] = -1.0
            gens.append(embed_a(a))
            a = np.zeros((n, n), dtype=complex)
            a[j, k] = 1j
            a[k, j] = 1j
            gens.append(embed_a(a))
    for j in range(n):
        for k in range(j, n):
            b = np.zeros((n, n), dtype=complex)
            b[j, k] = b[k, j] = 1.0
            gens.append(embed_b(b))
            b = np.zeros((n, n), dtype=complex)
            b[j, k] = b[k, j] = 1j
            gens.append(embed_b(b))
    return gens


_FAMILIES = {
    "SU": dict(min_n=2, dim=lambda n: n * n - 1, size=lambda n: n, build=_su_generators),
    "SO": dict(min_n=3, dim=lambda n: n * (n - 1) // 2, size=lambda n: n, build=_so_generators),
    "Sp": dict(min_n=1, dim=lambda n: n * (2 * n + 1), size=lambda n: 2 * n, build=_sp_generators),
}


def make_group(family: str, n: int) -> GroupSpec:
    """The algebra basis for one classical group, built once per (family, n).

    Every caller shares the returned spec; its arrays are read-only.
    """
    fam = {"su": "SU", "so": "SO", "sp": "Sp"}.get(family.lower())
    if fam is None:
        raise InvalidInputError(f"unknown group family {family!r}")
    return _build_group(fam, n)


@functools.lru_cache(maxsize=64)
def _build_group(fam: str, n: int) -> GroupSpec:
    info = _FAMILIES[fam]
    if n < info["min_n"]:
        raise InvalidInputError(f"{fam}({n}) not supported: need n >= {info['min_n']}")
    dim = info["dim"](n)
    check_alloc(16 * dim * info["size"](n) ** 2, f"the {fam}({n}) generators")
    gens = np.stack([_normalize(x) for x in info["build"](n)])
    if len(gens) != dim:
        raise AssertionError(f"generator count {len(gens)} != dim {dim} for {fam}({n})")
    gens.setflags(write=False)
    return GroupSpec(family=fam, n=n, matrix_size=info["size"](n), dim=dim, generators=gens)


_NAME_RE = re.compile(r"^(su|so|sp)(\d+)$")


def parse_group_name(name: str) -> GroupSpec:
    """Parse CLI group names of the form su2, so4, sp1."""
    m = _NAME_RE.match(name.strip().lower())
    if not m:
        raise InvalidInputError(
            f"bad group name {name!r}: expected e.g. su2, so3, sp1"
        )
    try:
        n = int(m.group(2))
    except ValueError:  # past Python's limit on digits converted to an int
        raise InvalidInputError(f"group size in {name[:12]!r}... has too many digits") from None
    return make_group(m.group(1), n)


def structure_constants(spec: GroupSpec) -> StructureConstants:
    """f_abc from commutators projected on the orthogonal generator basis."""
    return StructureConstants(f=spec.structure)
