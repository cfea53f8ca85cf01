"""Algebra bases for the classical families su(n), so(n), sp(n).

Every stored generator X_a is anti-Hermitian and normalized so that
Tr(X_a^dag X_b) = (1/2) delta_ab.  With the metric constant k = 2 this makes
the group metric equal the identity at the origin of the exponential chart
for every family, so Einstein constants are comparable across a scan.
"""

import functools
import re
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, check_alloc

GRAM_CONSTANT = 0.5


class _GroupFields(NamedTuple):
    family: str  # "SU" | "SO" | "Sp"
    n: int
    generators: np.ndarray  # (dim, matrix_size, matrix_size), complex
    name: str = ""


class GroupSpec(_GroupFields):
    """Hashed by identity (one spec per (family, n)), with a __dict__ to cache ``structure``;
    ``dim`` and ``matrix_size`` are read from the generators' shape."""
    __hash__, __eq__, __ne__ = object.__hash__, object.__eq__, object.__ne__
    dim = property(lambda self: self.generators.shape[0])
    matrix_size = property(lambda self: self.generators.shape[1])

    def __new__(cls, family, n, generators, name=""):
        return super().__new__(cls, family, n, generators, name or f"{family.lower()}{n}")

    @functools.cached_property
    def structure(self) -> np.ndarray:
        """f[a, b, c] with [X_a, X_b] = sum_c f_abc X_c, computed on first use
        as f = Re(T_abc - T_bac) / (1/2) with T_abc = Tr(X_c^dag X_a X_b): one
        batched product X_a X_b and one (d^2 x n^2)(n^2 x d) product.  The
        build peaks at those products and conj(X), 16 d n^2 (d + 1) + 16 d^3
        bytes, plus array headers: about 1 KB, for which the budget check
        asks 2 KiB."""
        d, n2 = self.dim, self.matrix_size ** 2
        check_alloc(16 * d * n2 * (d + 1) + 16 * d ** 3 + 2048,
                    f"the {self.name} structure constants")
        x = self.generators
        t = ((x[:, None] @ x).reshape(d * d, n2) @ x.conj().reshape(d, n2).T).real
        t = t.reshape(d, d, d)
        f = (t - t.swapaxes(0, 1)) / GRAM_CONSTANT
        f.setflags(write=False)
        return f


class StructureConstants(NamedTuple):
    """f[a, b, c] defined by [X_a, X_b] = sum_c f_abc X_c."""

    f: np.ndarray


def _normalize(x: np.ndarray) -> np.ndarray:
    """Scale a stack (p, n, n) in place to Tr(X^dag X) = GRAM_CONSTANT per matrix, the
    trace summed as X^dag X's is: |x_ij|^2 over i, then along the diagonal as complex
    numbers.  |x|^2 and its temporary, half the stack each, go before x is scaled."""
    a = x.real * x.real
    a += x.imag * x.imag
    col = np.zeros(a.shape[:2], complex)
    np.add.reduce(a, 1, out=col.real)
    scale = np.sqrt(GRAM_CONSTANT / np.add.reduce(col, 1).real)
    del a, col
    x *= scale[:, None, None]
    return x


def _units(n: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit matrices E_jk with k >= j + offset, row-major, as one complex
    stack (p, n, n), and their transposes."""
    j, k = np.triu_indices(n, offset)
    e = np.zeros((len(j), n, n), dtype=complex)
    e[np.arange(len(j)), j, k] = 1.0
    return e, e.swapaxes(1, 2)


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_0, b_0, a_1, b_1, ...: two stacks interleaved."""
    return np.stack([a, b], axis=1).reshape((-1,) + a.shape[1:])


def _su_generators(n: int) -> np.ndarray:
    """(i/2) times the generalized Gell-Mann matrices in one zeroed stack: the
    symmetric and antisymmetric pair of each j < k, then the n - 1 diagonal ones."""
    j, k = np.triu_indices(n, 1)
    x, r = np.zeros((n * n - 1, n, n), dtype=complex), 2 * np.arange(len(j))
    x[r, j, k] = x[r, k, j] = 0.5j                # (i/2) (E_jk + E_kj)
    x[r + 1, j, k], x[r + 1, k, j] = 0.5, -0.5    # (i/2) (-i E_jk + i E_kj)
    l, m = np.arange(1, n)[:, None], np.arange(n)
    diag = ((m < l) - l * (m == l)) * np.sqrt(2 / (l * (l + 1)))
    x[2 * len(j):].reshape(n - 1, n * n)[:, ::n + 1] = 0.5j * diag
    return x


def _so_generators(n: int) -> np.ndarray:
    j, k = np.triu_indices(n, 1)
    x, r = np.zeros((len(j), n, n), dtype=complex), np.arange(len(j))
    x[r, j, k], x[r, k, j] = 0.5, -0.5  # (E_jk - E_kj) / 2 for each j < k
    return x


def _sp_generators(n: int) -> np.ndarray:
    """Compact symplectic algebra sp(n) = u(2n) intersect sp(2n, C).

    Block form X = [[A, B], [-conj(B), conj(A)]] with A anti-Hermitian and
    B complex symmetric, acting on C^{2n}.
    """
    e, et = _units(n, 1)
    s = np.add(*_units(n, 0))  # S_jk, j <= k; the normalization takes S_jj = 2 E_jj to one unit
    diag = np.eye(n)[:, :, None] * np.eye(n)  # [j] = E_jj
    a = np.concatenate([1j * diag, _pairs(e - et, 1j * (e + et))])
    b = _pairs(s, 1j * s)
    x = np.zeros((len(a) + len(b), 2 * n, 2 * n), dtype=complex)
    x[:len(a), :n, :n], x[:len(a), n:, n:] = a, a.conj()
    x[len(a):, :n, n:], x[len(a):, n:, :n] = b, -b.conj()
    return x


_FAMILIES = {
    "SU": dict(min_n=2, dim=lambda n: n * n - 1, size=lambda n: n, build=_su_generators),
    "SO": dict(min_n=3, dim=lambda n: n * (n - 1) // 2, size=lambda n: n, build=_so_generators),
    "Sp": dict(min_n=1, dim=lambda n: n * (2 * n + 1), size=lambda n: 2 * n, build=_sp_generators),
}


def make_group(family: str, n: int) -> GroupSpec:
    """The algebra basis for one classical group, built once per (family, n), n an
    int or numpy integer, not bool.  Every caller shares the returned spec; its
    arrays are read-only."""
    fam = {"su": "SU", "so": "SO", "sp": "Sp"}.get(family.lower())
    if fam is None:
        raise InvalidInputError(f"unknown group family {family!r}")
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):  # 3.0 would hit su3's key
        raise InvalidInputError(f"group size must be an integer, got {n!r}")
    return _build_group(fam, int(n))


@functools.lru_cache(maxsize=64)
def _build_group(fam: str, n: int) -> GroupSpec:
    info = _FAMILIES[fam]
    if n < info["min_n"]:
        raise InvalidInputError(f"{fam}({n}) not supported: need n >= {info['min_n']}")
    dim = info["dim"](n)
    # the peak: x beside |x|^2 and its temporary in _normalize, two complex stacks
    check_alloc(32 * dim * info["size"](n) ** 2 + 8192, f"the {fam}({n}) generators")
    gens = _normalize(info["build"](n))
    gens.setflags(write=False)
    return GroupSpec(family=fam, n=n, generators=gens)


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
