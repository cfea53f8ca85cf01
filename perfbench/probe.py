"""Fixed machine-speed probe used to correct timings for host drift.

The host's speed drifts by up to 1.8x between one 5 s window and the next,
and process CPU time drifts with it, so raw seconds do not repeat.  Each
short unit of work is bracketed by a probe: a fixed piece of work that
belongs to the benchmark, never to lieforge, so that no change to lieforge
can change the probe.  A unit's corrected time is
``raw * probe_ref / probe_now``, where ``probe_now`` is the mean of the
readings before and after the unit and ``probe_ref`` is a constant fixed in
``BENCHMARK.json``.

Different kinds of work slow down by different amounts when the host is
busy, so each workload's probe mixes components that resemble its own work.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

import numpy as np

_PROBE_SEED = 20170221
_NAME_RE = re.compile(r"^(su|so|sp)(\d+)$")


@dataclass(frozen=True)
class _Tag:
    name: str
    size: int
    values: np.ndarray


def _dual_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    value = a[:, :1] @ b[:, :1]
    parts = a[:, :1] @ b[:, 1:] + a[:, 1:] @ b[:, :1]
    return np.concatenate([value, parts], axis=1)


class Probe:
    """Fixed work whose duration tracks the host's current speed.

    Components:
      ``stack``  -- a Pade-like chain of dual products and a batched solve
                    on a small stack of 5x5 complex matrices;
      ``stream`` -- one dual product on a stack of 9 MB, beyond the core's
                    private caches like the stencil batches of the larger
                    groups, so it slows when other tenants crowd the shared
                    cache;
      ``dual``   -- elementwise sin/cos/product on per-point partial arrays,
                    then a Gram einsum;
      ``interp`` -- interpreter-bound single-point work: regex parsing,
                    matrices built in Python loops, frozen dataclasses and
                    tiny linear algebra calls.
    """

    COMPONENTS = ("stack", "stream", "dual", "interp")

    def __init__(self, mix: dict[str, int]):
        unknown = set(mix) - set(self.COMPONENTS)
        if unknown:
            raise ValueError(f"unknown probe components {sorted(unknown)}")
        self.mix = dict(mix)
        rng = np.random.default_rng(_PROBE_SEED)

        def cstack(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self._small = 0.2 * cstack(48, 11, 5, 5)
        self._wide = 0.2 * cstack(2048, 11, 5, 5)
        self._eye = np.zeros((48, 11, 5, 5), dtype=complex)
        self._eye[:, 0] = np.eye(5)
        self._angles = rng.uniform(0.3, 2.8, (1500, 7))
        self._points = rng.uniform(-0.4, 0.4, (40, 5, 5))

    # -- components -------------------------------------------------------

    def _stack(self):
        a = self._small
        a2 = _dual_product(a, a)
        a4 = _dual_product(a2, a2)
        a6 = _dual_product(a2, a4)
        u = _dual_product(a, _dual_product(a6, a6 + a4) + a2 + self._eye)
        v = _dual_product(a6, a6 + a2) + a4 + self._eye
        x0 = np.linalg.solve((v - u)[:, 0], (v + u)[:, 0])
        parts = np.linalg.solve((v - u)[:, None, 0], (v + u)[:, 1:] - (v - u)[:, 1:] @ x0[:, None])
        return x0, parts

    def _stream(self):
        return _dual_product(self._wide, self._wide)

    def _dual(self):
        t = self._angles
        d = t.shape[1]
        seed = np.broadcast_to(np.eye(d), t.shape + (d,))
        val, part = np.ones(len(t)), np.zeros((len(t), d))
        cols = []
        for a in range(d):
            s, c = np.sin(t[:, a]), np.cos(t[:, a])
            cols.append((val * c, part * c[:, None] - (val * s)[:, None] * seed[:, a]))
            part = part * s[:, None] + val[:, None] * c[:, None] * seed[:, a]
            val = val * s
        jac = np.stack([p for _, p in cols], axis=1)
        return np.einsum("mia,mib->mab", jac, jac)

    def _interp(self):
        total = 0.0
        for i, x in enumerate(self._points):
            m = _NAME_RE.match(f"SU{2 + i % 3}".strip().lower())
            n = int(m.group(2))
            mats = []
            for j in range(n):
                for k in range(j + 1, n):
                    e = np.zeros((n, n), dtype=complex)
                    e[j, k], e[k, j] = 0.5, -0.5
                    mats.append(e * np.sqrt(0.5 / np.real(np.trace(e.conj().T @ e))))
            gens = np.stack(mats)
            tag = _Tag(name=m.group(0), size=n, values=np.atleast_2d(np.asarray(x[0], dtype=float)))
            g = x.T @ x + np.eye(5)
            total += float(np.linalg.cond(g)) + float(np.linalg.inv(g)[0, 0])
            total += float(np.real(np.einsum("aij,bji->ab", gens.conj(), gens)).trace())
            total += tag.size
        return total

    # -- measurement ------------------------------------------------------

    def measure(self) -> float:
        """Seconds taken by one run of the whole mix."""
        start = time.perf_counter()
        for name, reps in self.mix.items():
            fn = getattr(self, "_" + name)
            for _ in range(reps):
                fn()
        return time.perf_counter() - start


def corrected(raw: float, probe_now: float, probe_ref: float) -> float:
    """Raw seconds rescaled to the speed at which the probe takes ``probe_ref``."""
    if probe_now <= 0 or probe_ref <= 0:
        raise ValueError("probe readings must be positive")
    return raw * probe_ref / probe_now


class Meter:
    """Brackets units of work with probe readings and corrects their times.

    The reading taken after one unit serves as the reading before the next,
    so each unit costs one probe run.  When a tracer is attached, the spans
    recorded during a unit are weighted with that unit's correction.
    """

    def __init__(self, probe: Probe, probe_ref: float, tracer=None):
        self.probe = probe
        self.probe_ref = probe_ref
        self.tracer = tracer
        self.readings: list[float] = []
        self._last = self._read()

    def _read(self) -> float:
        p = self.probe.measure()
        self.readings.append(p)
        return p

    def start(self):
        return self._last, len(self.tracer.spans) if self.tracer else 0

    def stop(self, token) -> float:
        """Take the after-reading; return the unit's correction factor."""
        before, first_span = token
        self._last = self._read()
        factor = corrected(1.0, 0.5 * (before + self._last), self.probe_ref)
        if self.tracer:
            for span in self.tracer.spans[first_span:]:
                span.weight = factor
        return factor

    def time(self, fn):
        """Run ``fn()`` as one unit; return (result, raw seconds, factor)."""
        token = self.start()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        return result, raw, self.stop(token)
