"""Seeded Gaussian sampling: dense factorizations, circulant embedding, moving-average split.

A dense plan multiplies white noise by a covariance factor.  A torus plan
draws real white noise w on a torus around the box and returns the moving
average irfftn(rfftn(w) * f) on the box: the circulant plan has one filter,
the half-spectrum of sqrt_spectrum; the split X = X1 + X2 has two, the near
and far parts of that moving average, applied to the same w.

The torus grows until its spectrum is nonnegative up to roundoff (Wood & Chan
1994, Dietrich & Newsam 1997): for each padding of ``PADDINGS`` (2, then 4)
each axis is the box extent times the padding, rounded up first to a 5-smooth
size (``scipy.fft.next_fast_len``) and then to a power of two, and the first of
these tori whose clipped spectral fraction is at most ``SPECTRUM_CLIP_LIMIT``
is kept.  The candidates grow along every axis, so no box gets a larger torus
than the power of two alone would give it.

Reproducibility contract: every replicate's noise comes from a counter-based
Philox stream keyed by (base_seed, replicate), so the row of replicate r in
plan.draw_batch(replicates) is a pure function of the plan and r, independent
of the other rows, evaluation order and thread count.  A batch builds one
Philox generator and re-keys it for each replicate (key (base_seed,
replicate), counter 0, empty buffer); being counter-based, the re-keyed
generator gives exactly the stream of a fresh generator with that key.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.fft import next_fast_len

from .errors import EmbeddingError, InputError, ModelError, ParameterError
from .kernels import Point, cov_of_offsets, repair_psd

DENSE_FACTOR_TOL = 1e-8
SPECTRUM_CLIP_LIMIT = 1e-6
# torus extent over box extent, tried in order; each FFT block holds
# CirculantPlan._FFT_BLOCK replicates of the whole torus, so no larger
PADDINGS = (2, 4)
_UINT64 = 0xFFFFFFFFFFFFFFFF


def _noise(base_seed: int, replicates, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal noise of ``shape`` per replicate, stacked; row k keyed by (base_seed, replicates[k])."""
    try:
        reps = [operator.index(r) for r in replicates]
    except TypeError:
        raise ParameterError("replicate indices must be integers") from None
    if reps and (min(reps) < 0 or max(reps) > _UINT64):
        raise ParameterError(f"replicate indices must lie in [0, 2**64), got {min(reps)}..{max(reps)}")
    out = np.empty((len(reps),) + shape)
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    key = [base_seed & _UINT64, 0]
    # the state of Philox(key=key): counter 0, empty buffer
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for k, r in enumerate(reps):
        key[1] = r
        bits.state = state
        gen.standard_normal(out=out[k])
    return out


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:16]


def _integers(xs) -> bool:
    return isinstance(xs, (tuple, list)) and all(
        isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in xs)


@dataclass(frozen=True)
class Grid:
    """Rectangular box of lattice sites with a physical spacing."""

    shape: tuple[int, ...]
    spacing: float = 1.0
    origin: tuple[int, ...] | None = None

    def __post_init__(self):
        if not (_integers(self.shape) and self.shape and min(self.shape) > 0):
            raise InputError(f"grid shape must be a nonempty list of positive integers, got {self.shape!r}")
        if not (isinstance(self.spacing, numbers.Real) and math.isfinite(self.spacing) and self.spacing > 0):
            raise InputError(f"grid spacing must be a finite number > 0, got {self.spacing!r}")
        if self.origin is not None and not (_integers(self.origin) and len(self.origin) == len(self.shape)):
            raise InputError(f"grid origin must hold {len(self.shape)} integers, got {self.origin!r}")
        object.__setattr__(self, "shape", tuple(map(int, self.shape)))
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "origin", None if self.origin is None else tuple(map(int, self.origin)))

    def sites(self) -> list[Point]:
        lo = self.origin or (0,) * len(self.shape)
        return list(itertools.product(*(range(o, o + s) for o, s in zip(lo, self.shape))))


class SamplerPlan:
    """Common facade: point index map, seeded draws, covariance access."""

    mode: str
    points: tuple[Point, ...]
    index: dict[Point, int]
    base_seed: int
    fingerprint: str

    @property
    def npoints(self) -> int:
        return len(self.points)

    def draw_batch(self, replicates: Iterable[int]) -> np.ndarray:
        raise NotImplementedError

    def cov_block(self, pts1, pts2) -> np.ndarray:
        raise NotImplementedError

    def max_abs_cov(self) -> float:
        raise NotImplementedError

    def _fingerprint(self, *draw_inputs) -> str:
        """Cache key: the plan type, seed and index map plus what else fixes the draws."""
        return _digest(type(self).__name__, self.base_seed, self.points, *draw_inputs)


class DensePlan(SamplerPlan):
    mode = "dense-factor"

    def __init__(self, cov: np.ndarray, factor: np.ndarray, base_seed: int, points):
        self.cov = cov
        self.factor = factor
        self.base_seed = int(base_seed)
        self.points = tuple(points)
        self.index = {p: i for i, p in enumerate(self.points)}
        self.fingerprint = self._fingerprint(factor)

    def _apply(self, z: np.ndarray) -> np.ndarray:
        """factor @ z for each row z: one stacked gemv, bit-identical to the per-row
        product (a gemm ``z @ factor.T`` rounds differently)."""
        return (self.factor @ z[..., None])[..., 0]

    def draw_batch(self, replicates) -> np.ndarray:
        return self._apply(_noise(self.base_seed, replicates, self.factor.shape[1:]))

    def draw_pair_batch(self, replicates) -> tuple[np.ndarray, np.ndarray]:
        """Two independent copies per replicate from one stream (X, X')."""
        z = _noise(self.base_seed, replicates, (2,) + self.factor.shape[1:])
        return self._apply(z[:, 0]), self._apply(z[:, 1])

    def cov_block(self, pts1, pts2) -> np.ndarray:
        i = [self.index[tuple(p)] for p in pts1]
        j = [self.index[tuple(p)] for p in pts2]
        return self.cov[np.ix_(i, j)]

    def max_abs_cov(self) -> float:
        return float(np.abs(self.cov).max())


def plan_dense(cov: np.ndarray, base_seed: int, points=None) -> DensePlan:
    """Factor a covariance matrix for seeded sampling.

    The factor L has columns ordered by descending eigenvalue with zero
    columns on degenerate directions, so LL^T reproduces the repaired matrix
    to machine precision and samples lie in the column space of the input.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise InputError("covariance must be a square matrix")
    if not np.allclose(cov, cov.T, atol=0, rtol=0):
        raise InputError("covariance must be exactly symmetric")
    rep, _ = repair_psd(cov)
    w, v = np.linalg.eigh(rep)
    order = np.argsort(-w, kind="stable")
    w, v = np.clip(w[order], 0.0, None), v[:, order]
    # sign convention: largest-magnitude entry of each column positive
    for k in range(v.shape[1]):
        j = np.argmax(np.abs(v[:, k]))
        if v[j, k] < 0:
            v[:, k] = -v[:, k]
    factor = v * np.sqrt(w)
    err = np.abs(factor @ factor.T - rep).max()
    if err > DENSE_FACTOR_TOL * max(1.0, np.abs(rep).max()):
        raise ModelError(f"factorization residual {err:.2e} above tolerance")
    if points is None:
        points = [(i,) for i in range(cov.shape[0])]
    return DensePlan(rep, factor, base_seed, [tuple(p) if not np.isscalar(p) else (p,) for p in points])


def _torus_offsets(grid: Grid, torus_shape) -> np.ndarray:
    """Torus-metric displacement of every torus site from the origin, shape torus_shape + (d,)."""
    axes = [np.minimum(np.arange(m), m - np.arange(m)) * grid.spacing for m in torus_shape]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


class CirculantPlan(SamplerPlan):
    """Stationary field on a box, embedded in a torus: real white noise on the
    torus filtered by the half-spectrum of ``sqrt_spectrum``."""

    mode = "circulant"
    _FFT_BLOCK = 512  # replicates per FFT batch, bounds the transient working set

    def __init__(self, model, grid: Grid, torus_shape, sqrt_spectrum, clipped_fraction, base_seed):
        self.model = model
        self.grid = grid
        self.torus_shape = tuple(torus_shape)
        self.sqrt_spectrum = sqrt_spectrum
        self.clipped_fraction = float(clipped_fraction)
        self.base_seed = int(base_seed)
        self.points = tuple(grid.sites())
        self.index = {p: i for i, p in enumerate(self.points)}
        self._set_filters(sqrt_spectrum[..., : self.torus_shape[-1] // 2 + 1])

    def _set_filters(self, *filters) -> None:
        """The draw loop's rfftn-domain filters; with seed, points and torus shape they fix the draws."""
        self._filters = filters
        self.fingerprint = self._fingerprint(self.torus_shape, *filters)

    def _filter_noise(self, replicates) -> list[np.ndarray]:
        """Box values of irfftn(rfftn(w) * f) for each filter f, all from one noise w per replicate."""
        reps = list(replicates)
        shape = self.torus_shape
        axes = tuple(range(1, len(shape) + 1))
        outs = [np.empty((len(reps), self.npoints)) for _ in self._filters]
        for lo in range(0, len(reps), self._FFT_BLOCK):
            block = reps[lo : lo + self._FFT_BLOCK]
            w = _noise(self.base_seed, block, shape)
            wf = np.fft.rfftn(w, axes=axes)
            for out, f in zip(outs, self._filters):
                out[lo : lo + len(block)] = self._box_irfftn(wf * f).reshape(len(block), -1)
        return outs

    def _box_irfftn(self, a: np.ndarray) -> np.ndarray:
        """irfftn(a, s=torus_shape, axes=1..d)[box], inverting only the rows the box keeps.

        irfftn runs ifft over the leading axes in order, then irfft over the
        last; each line transform is independent of the others, so dropping
        the rows outside the box after each axis leaves the box bit-identical.
        """
        for ax, s in enumerate(self.grid.shape[:-1], start=1):
            a = np.fft.ifft(a, axis=ax)[(slice(None),) * ax + (slice(0, s),)]
        return np.fft.irfft(a, n=self.torus_shape[-1], axis=-1)[..., : self.grid.shape[-1]]

    def draw_batch(self, replicates) -> np.ndarray:
        return self._filter_noise(replicates)[0]

    def cov_block(self, pts1, pts2) -> np.ndarray:
        a = np.asarray(list(pts1), dtype=float)
        b = np.asarray(list(pts2), dtype=float)
        diffs = (a[:, None, :] - b[None, :, :]) * self.grid.spacing
        flat = cov_of_offsets(self.model, diffs.reshape(-1, diffs.shape[-1]))
        return flat.reshape(len(a), len(b))

    def max_abs_cov(self) -> float:
        # stationary PSD kernel: the diagonal dominates every entry
        return float(cov_of_offsets(self.model, np.zeros((1, self.model.dim)))[0])


def _torus_candidates(shape: tuple[int, ...]):
    """(padding, torus shape) in the order tried: per padding the 5-smooth torus, then the power of two."""
    for padding in PADDINGS:
        smooth = tuple(next_fast_len(s * padding, real=True) for s in shape)
        pow2 = tuple(int(2 ** math.ceil(math.log2(max(2, s * padding)))) for s in shape)
        for torus_shape in dict.fromkeys((smooth, pow2)):
            yield padding, torus_shape


def plan_circulant(model, grid: Grid, base_seed: int) -> CirculantPlan:
    """Embed a stationary model on the first torus of ``_torus_candidates`` whose spectrum
    clips at most ``SPECTRUM_CLIP_LIMIT`` of its mass; EmbeddingError if none does."""
    if not model.stationary:
        raise ModelError("circulant embedding requires a stationary model")
    if len(grid.shape) != model.dim:
        raise InputError(f"grid dimension {len(grid.shape)} != model dimension {model.dim}")
    for padding, torus_shape in _torus_candidates(grid.shape):
        offsets = _torus_offsets(grid, torus_shape).reshape(-1, model.dim)
        lam = np.fft.fftn(cov_of_offsets(model, offsets).reshape(torus_shape)).real
        neg = abs(float(lam[lam < 0].sum()))  # +0.0, not -0.0, when nothing is clipped
        tot = float(np.abs(lam).sum())
        frac = neg / tot if tot > 0 else 0.0
        if frac <= SPECTRUM_CLIP_LIMIT:
            return CirculantPlan(model, grid, torus_shape, np.sqrt(np.clip(lam, 0.0, None)), frac, base_seed)
    raise EmbeddingError(f"circulant spectrum has clipped mass fraction {frac:.3e} > "
                         f"{SPECTRUM_CLIP_LIMIT:.0e} at padding {padding}, the largest tried")


class DecomposedPlan(CirculantPlan):
    """Moving-average split X = X1 + X2 from a shared white noise.

    q is the inverse Fourier square root of the grid spectrum; q1 keeps the
    kernel within the truncation radius (torus metric), q2 the remainder.
    X1 restricted to sets separated by more than twice the radius is
    independent across the sets; sigma2 = sum of q2^2 bounds Var[X2(i)].
    """

    def __init__(self, base: CirculantPlan, radius: float):
        super().__init__(base.model, base.grid, base.torus_shape, base.sqrt_spectrum,
                         base.clipped_fraction, base.base_seed)
        self.radius = float(radius)
        q = np.fft.ifftn(self.sqrt_spectrum).real
        near = np.sqrt((_torus_offsets(self.grid, self.torus_shape) ** 2).sum(axis=-1)) <= self.radius
        self.q_near = np.where(near, q, 0.0)
        self.q_far = np.where(near, 0.0, q)
        self.sigma2 = float((self.q_far**2).sum())
        self._set_filters(np.fft.rfftn(self.q_near), np.fft.rfftn(self.q_far))

    def draw_split_batch(self, replicates) -> tuple[np.ndarray, np.ndarray]:
        return tuple(self._filter_noise(replicates))

    def draw_batch(self, replicates) -> np.ndarray:
        x1, x2 = self.draw_split_batch(replicates)
        return x1 + x2


def plan_decomposed(model, grid: Grid, radius: float, base_seed: int) -> DecomposedPlan:
    if model.family not in ("bargmann_fock", "cauchy"):
        raise ParameterError("moving-average decomposition supports bargmann_fock and cauchy")
    if radius < grid.spacing:
        raise ParameterError(f"truncation radius {radius} smaller than one grid cell {grid.spacing}")
    base = plan_circulant(model, grid, base_seed)
    return DecomposedPlan(base, radius)


# ---------------------------------------------------------------------------
# field snapshot format: one JSON header line, then row-major little-endian f8


def write_snapshot(path, values: np.ndarray, grid: Grid, seed: int, replicate: int, family: str) -> None:
    header = {
        "family": family,
        "grid_shape": list(grid.shape),
        "spacing": grid.spacing,
        "seed": int(seed),
        "replicate": int(replicate),
        "dtype": "<f8",
        "order": "row-major",
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_snapshot(path) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        values = np.frombuffer(fh.read(), dtype="<f8")
    return header, values
