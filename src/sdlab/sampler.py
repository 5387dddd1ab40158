"""Seeded Gaussian sampling: dense factorizations, circulant embedding, moving-average split.

A dense plan multiplies white noise by a covariance factor.  A torus plan
returns moving averages of white noise on a torus around the box, two
replicates per complex transform: complex white noise eta, taken as Fourier
coefficients on the N-site torus, times sqrt(N) times a filter's full spectrum
F, inverted on the box, has real and imaginary parts that are two independent
moving averages by F's real kernel (sqrt(N) ifftn(eta) is circular complex
white noise).  The circulant plan has one filter, sqrt_spectrum; the split
X = X1 + X2 has two, the near and far parts of that moving average, applied to
the same eta.

Every plan draws through ``draw_batch(replicates, cols=None)``: all of its
columns, or the columns ``cols`` (mc asks for the union of its events'
supports).  When the cost rule ``_restriction_wins`` holds, a torus plan
draws no torus noise there: the filters' moving averages at ``cols`` are a
Gaussian vector whose covariance the filters fix, and the plan draws it
densely, its restriction's factor applied to one normal per filter and
column, not one per torus site.  That is the exact law of the FFT draw at
those columns.  Else it keeps the FFT draw.  A draw without ``cols`` (``sdlab
sample``, a full box) is always the FFT draw of the whole box.

The torus is the smallest that is exact on the box (Wood & Chan 1994, Dietrich
& Newsam 1997; Gneiting et al. 2006).  The first candidate takes, axis by axis,
the first 5-smooth size (``scipy.fft.next_fast_len``) from the box extent up
whose wrap error, the largest |K(min(h, T - h)) - K(h)| over the box lags h, is
at most ``SPECTRUM_CLIP_LIMIT`` * K(0).  A Gaussian kernel at spacing 0.5 puts
its 32^2 crossing box on 45^2, where a slowly decaying one needs twice the box.
Then for each padding of ``PADDINGS`` (2, then 4) each axis is the box extent
times the padding, rounded up first to a 5-smooth size and then to a power of
two; these wrap no box lag.  The first candidate whose clipped spectral fraction
is at most ``SPECTRUM_CLIP_LIMIT`` is kept, so no box gets a larger torus than
the power of two alone would give it, and the plan's covariance at every box lag
is the kernel's to within SPECTRUM_CLIP_LIMIT * K(0) (the wrap) plus c / (1 - 2c)
* K(0) for the clipped fraction c (the spectrum).

Reproducibility contract: the row of replicate r in plan.draw_batch(replicates,
cols) is a pure function of the plan, the column list and r, independent of the
other rows, evaluation order and thread count (the cost rule reads only the plan
and the column list).  Noise comes from counter-based Philox streams (Salmon et
al., SC '11) in two layouts:

- A factor draw, a factor applied to white noise (a dense plan, or a torus
  plan's restriction at ``cols``), reads the stream of its replicate's block of
  ``BANK_ROWS``: block b = r // BANK_ROWS is keyed (base_seed, b) with counter
  word 3 set to 1, and fills its (BANK_ROWS, width) normals column by column,
  so row i's first k normals are stream positions j * BANK_ROWS + i for j < k,
  whatever the width.  One key serves 256 replicates.
- An FFT draw reads one stream per pair: replicates 2k and 2k + 1 are the real
  and imaginary parts of pair k, whose noise is the stream keyed (base_seed, k)
  with counter 0, its normals the interleaved real and imaginary parts.  A
  batch re-keys one Philox generator for each pair, which gives exactly the
  stream of a fresh generator with that key.  The counter word 3 keeps the two
  layouts' streams disjoint.

Every plan draws a batch by its runs within one block, so a draw of several
blocks (mc asks for chunks of whole blocks) is its blocks' draws stacked: each
factor draw is one stacked gemv per block, each FFT draw transforms one block's
pairs at a time (a block holds whole pairs), and each block is cut to ``cols``
as it is drawn, so a draw of many blocks holds them at ``cols`` only.  Dense plans read their noise from a
per-process bank, so plans that share a seed draw each block once: block
(base_seed, b) is kept at the widest width asked of it so far; a narrower
request slices it, a wider one redraws it.  Slicing rests on the prefix property of the stream: its first k
normals do not depend on how many are drawn (the ziggurat consumes the stream
sequentially, its rejection branch included), and the column-major fill makes
each row's first k normals a prefix of the block's stream.  A torus restriction reads its
blocks the same way but not through the bank: its wider blocks would stay for
the life of the process and push out the blocks the dense plans share.  The
bank, mc's threshold cache and each torus plan's restriction factors are each a
``_Store`` of read-only arrays, bounded at ``BANK_BYTES``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.fft import next_fast_len

from .errors import EmbeddingError, InputError, ModelError, ParameterError
from .kernels import Point, _as_point, _gate_factor, _symmetrized, cov_of_offsets, repair_psd

DENSE_FACTOR_TOL = 1e-8
SPECTRUM_CLIP_LIMIT = 1e-6
# torus extent over box extent, tried in order; each draw block holds
# BANK_ROWS replicates of the whole torus, so no larger
PADDINGS = (2, 4)
_UINT64 = 0xFFFFFFFFFFFFFFFF
BANK_ROWS = 256  # replicates per draw block, in the noise bank and in every factor draw; mc draws whole blocks
# 16 MiB holds the `sdlab verify` default n = 1e5 at up to 20 normals per
# replicate (a pair draw on 10 sites), so every dense plan of one seed re-reads
# the streams the first one drew; mc's threshold cache has the same bound
BANK_BYTES = 16 * 2**20


def _replicate_indices(replicates) -> range | list[int]:
    """The indices checked to be integers in [0, 2**64): a range as given, anything else as a list."""
    if isinstance(replicates, range):
        reps, ends = replicates, (replicates[0], replicates[-1]) if replicates else ()
    else:
        try:
            reps = ends = [operator.index(r) for r in replicates]
        except TypeError:
            raise ParameterError("replicate indices must be integers") from None
    if ends and (min(ends) < 0 or max(ends) > _UINT64):
        raise ParameterError(f"replicate indices must lie in [0, 2**64), got {min(ends)}..{max(ends)}")
    return reps


def _pair_noise(base_seed: int, pairs, shape: tuple[int, ...]) -> np.ndarray:
    """Complex white noise of ``shape`` per pair, stacked: row k's real and imaginary parts are
    the interleaved standard normals of the Philox stream keyed (base_seed, pairs[k]), counter 0.
    The FFT draws' streams: a factor draw reads ``_block_noise``."""
    out = np.empty((len(pairs),) + shape, dtype=complex)
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    key = [base_seed & _UINT64, 0]
    # the state of Philox(key=key): counter 0, empty buffer
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for k, p in enumerate(pairs):
        key[1] = int(p)
        bits.state = state
        gen.standard_normal(out=out[k].view(float))
    return out


def _pair_rows(reps: range | list[int], lo: int, hi: int):
    """The pairs of a run's replicates reps[lo:hi], in order, and where their parts go: replicate
    r is part r % 2 of pair r // 2.  Returns (pairs, (dst, src) of the real parts, (dst, src) of
    the imaginary parts): output row dst[i] takes part src[i] of the pairs' draw."""
    r = np.fromiter(reps[lo:hi], dtype=np.uint64, count=hi - lo)
    pairs, inv = np.unique(r // 2, return_inverse=True)
    odd = (r % 2).astype(bool)
    return pairs, (lo + np.flatnonzero(~odd), inv[~odd]), (lo + np.flatnonzero(odd), inv[odd])


def _runs(reps: range | list[int]):
    """(lo, hi, rows) per run of consecutive positions whose replicates (checked
    indices) lie in one block: rows holds reps[lo:hi] as offsets in that block.
    A step-1 range (how mc asks for its chunks of whole blocks) is cut at the block
    edges arithmetically, one run per block; other replicate lists are scanned."""
    if not reps:
        return
    if isinstance(reps, range) and reps.step == 1:
        lo = 0
        while lo < len(reps):
            first = reps[lo] % BANK_ROWS
            hi = min(len(reps), lo + BANK_ROWS - first)
            yield lo, hi, np.arange(first, first + hi - lo, dtype=np.intp)
            lo = hi
        return
    reps = np.fromiter(reps, dtype=np.uint64, count=len(reps))
    blocks = reps // BANK_ROWS
    cuts = [0, *(np.flatnonzero(blocks[1:] != blocks[:-1]) + 1).tolist(), len(reps)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        yield lo, hi, (reps[lo:hi] % BANK_ROWS).astype(np.intp)


class _Store:
    """Read-only arrays by key, shared by every caller; least recently used entries go
    beyond ``max_bytes``, and an array larger than that is handed back and not kept."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.lock = threading.RLock()  # reentrant: a caller holding it may still call clear()
        self._entries: OrderedDict = OrderedDict()
        self._nbytes = 0

    def get(self, key):
        with self.lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            return self._entries.get(key)

    def put(self, key, arr: np.ndarray) -> np.ndarray:
        arr.flags.writeable = False
        with self.lock:
            old = self._entries.pop(key, None)
            self._nbytes -= 0 if old is None else old.nbytes
            if arr.nbytes <= self.max_bytes:
                self._entries[key] = arr
                self._nbytes += arr.nbytes
            while self._nbytes > self.max_bytes:
                self._nbytes -= self._entries.popitem(last=False)[1].nbytes
        return arr

    def clear(self) -> None:
        with self.lock:
            self._entries.clear()
            self._nbytes = 0


def _block_noise(base_seed: int, b: int, width: int) -> np.ndarray:
    """The (BANK_ROWS, width) normals of replicates b*BANK_ROWS .. (b+1)*BANK_ROWS - 1 for a
    factor draw: one Philox stream keyed (base_seed, b), counter [0, 0, 0, 1], drawn as
    (width, BANK_ROWS) and transposed, so each row's first k normals do not depend on width."""
    bits = np.random.Philox(key=np.array([base_seed & _UINT64, b], dtype=np.uint64), counter=[0, 0, 0, 1])
    return np.random.Generator(bits).standard_normal((width, BANK_ROWS)).T


_BANK = _Store(BANK_BYTES)


def _bank_block(base_seed: int, b: int, width: int) -> np.ndarray:
    """``_block_noise`` of block b, at least ``width`` columns, shared by the dense plans."""
    blk = _BANK.get((base_seed, b))
    if blk is None or blk.shape[1] < width:
        blk = _BANK.put((base_seed, b), _block_noise(base_seed, b, width))
    return blk


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


# The most sites a grid, an event box or a lattice ball may span.  A plan's points and
# index take about 132 bytes a site (tracemalloc, 512^2 grid), so 2**24 sites is about
# 2.2 GB before any draw, and one BANK_ROWS-replicate draw block of them is 32 GiB.
MAX_SITES = 2**24


def _check_sites(what: str, extents) -> None:
    """InputError when a box of these extents spans more than MAX_SITES sites; callers check
    before they build anything per site."""
    sites = math.prod(extents)
    if sites > MAX_SITES:
        raise InputError(f"{what} spans {sites} sites, more than MAX_SITES = {MAX_SITES}")


@dataclass(frozen=True)
class Grid:
    """Rectangular box of lattice sites with a physical spacing."""

    shape: tuple[int, ...]
    spacing: float = 1.0
    origin: tuple[int, ...] | None = None

    def __post_init__(self):
        if not (_integers(self.shape) and self.shape and min(self.shape) > 0):
            raise InputError(f"grid shape must be a nonempty list of positive integers, got {self.shape!r}")
        _check_sites("grid", self.shape)
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


def _columns(index: dict, pts) -> np.ndarray:
    """The plan columns of ``pts`` through a plan's index map; InputError for a site it does not cover."""
    try:
        return np.array([index[tuple(p)] for p in pts], dtype=np.intp)
    except KeyError as exc:
        raise InputError(f"sample does not cover support site {exc.args[0]}") from None


def _check_columns(cols, m: int) -> np.ndarray:
    """Column indices of a plan with ``m`` columns as an index array; InputError for anything else."""
    cols = np.asarray(cols)
    if cols.ndim != 1 or not (cols.dtype.kind in "iu" and (cols.size == 0 or 0 <= cols.min() <= cols.max() < m)):
        raise InputError(f"columns must be a list of integers in [0, {m})")
    return cols.astype(np.intp)


# The restriction draws faster than the FFT draw on every support of at most
# RESTRICTION_COLUMNS_PER_LOG2 x log2(torus size) columns (447 to 494 on the tori below), and
# about as fast at 500 columns on a 48^2 torus and at 600 to 700 on 72^2 and 16^3 (the sweep
# in BENCH_43.json, one BLAS thread, two replicates per complex transform)
RESTRICTION_COLUMNS_PER_LOG2 = 40


def _restriction_wins(columns: int, torus_size: int) -> bool:
    """The cost rule of a torus support draw: the dense restriction with ``columns`` columns
    (filters x sites) beats the FFTs, and its factor fits the bound of the plan's cache."""
    return columns <= RESTRICTION_COLUMNS_PER_LOG2 * math.log2(torus_size) and 8 * columns**2 <= BANK_BYTES


def _apply(factor: np.ndarray, z: np.ndarray) -> np.ndarray:
    """factor @ z for each row z: one stacked gemv, bit-identical to the per-row
    product (a gemm ``z @ factor.T`` rounds differently)."""
    return (factor @ z[..., None])[..., 0]


class SamplerPlan:
    """Common facade: point index map, seeded draws, covariance access."""

    mode: str
    fingerprint: str

    def __init__(self, base_seed: int, points: Iterable[Point]):
        if not _integers((base_seed,)):  # a negative seed keys the streams modulo 2**64
            raise ParameterError(f"seed must be an integer, got {base_seed!r}")
        self.base_seed: int = int(base_seed)
        self.points: tuple[Point, ...] = tuple(points)
        self.index: dict[Point, int] = {p: i for i, p in enumerate(self.points)}

    def draw_batch(self, replicates: Iterable[int], cols=None) -> np.ndarray:
        """One row per replicate: the field at every plan column, or at columns ``cols`` in that order."""
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
        super().__init__(base_seed, points)
        self.fingerprint = self._fingerprint(factor)

    def _draws(self, replicates, copies: int, cols=None) -> list[np.ndarray]:
        """``copies`` independent draws per replicate: copy c applies the factor to
        normals c*m .. (c+1)*m - 1 of the replicate's row of its block, read from the bank,
        at every column, or at columns ``cols`` in that order."""
        m = self.factor.shape[1]
        reps = _replicate_indices(replicates)
        at = slice(None) if cols is None else _check_columns(cols, m)
        outs = [np.empty((len(reps), m if cols is None else len(at))) for _ in range(copies)]
        for lo, hi, rows in _runs(reps):
            z = _bank_block(self.base_seed, reps[lo] // BANK_ROWS, copies * m)[rows]
            for c, out in enumerate(outs):
                out[lo:hi] = _apply(self.factor, z[:, c * m : (c + 1) * m])[:, at]
        return outs

    def draw_batch(self, replicates, cols=None) -> np.ndarray:
        return self._draws(replicates, 1, cols)[0]

    def draw_pair_batch(self, replicates) -> tuple[np.ndarray, np.ndarray]:
        """Two independent copies per replicate from one stream (X, X')."""
        return tuple(self._draws(replicates, 2))

    def cov_block(self, pts1, pts2) -> np.ndarray:
        return self.cov[np.ix_(_columns(self.index, pts1), _columns(self.index, pts2))]

    def max_abs_cov(self) -> float:
        return float(np.abs(self.cov).max())


def plan_dense(cov: np.ndarray, base_seed: int, points=None) -> DensePlan:
    """Factor a covariance matrix for seeded sampling.

    The factor L has columns ordered by descending eigenvalue with zero
    columns on degenerate directions and zero rows on sites of variance 0,
    so LL^T reproduces the repaired matrix to machine precision and samples
    lie in the column space of the input.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise InputError("covariance must be a square matrix")
    if not np.allclose(cov, cov.T, atol=0, rtol=0):
        raise InputError("covariance must be exactly symmetric")
    # a build_cov_matrix matrix has passed the gate: not gated again, and the Cholesky factor the
    # gate kept for it is dropped, since eigh's factor serves the draws
    rep = cov if _gate_factor(cov, take=True) is not None else repair_psd(cov)[0]
    w, v = np.linalg.eigh(rep)
    order = np.argsort(-w, kind="stable")
    w, v = np.clip(w[order], 0.0, None), v[:, order]
    # sign convention: largest-magnitude entry of each column positive
    v = v * np.where(v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])] < 0, -1.0, 1.0)
    factor = v * np.sqrt(w)
    # a PSD matrix with K_ii = 0 has row i zero: the site is a.s. 0, not eigh's roundoff
    factor[np.diag(rep) == 0.0] = 0.0
    err = np.abs(factor @ factor.T - rep).max()
    if err > DENSE_FACTOR_TOL * max(1.0, np.abs(rep).max()):
        raise ModelError(f"factorization residual {err:.2e} above tolerance")
    if points is None:
        points = [(i,) for i in range(cov.shape[0])]
    return DensePlan(rep, factor, base_seed, [_as_point(p) for p in points])


def _torus_offsets(grid: Grid, torus_shape, extent=None) -> np.ndarray:
    """Torus-metric displacement from the origin of every torus site, or of the sites of the
    ``extent`` box at the torus corner; shape torus_shape (or extent) + (d,)."""
    axes = [np.minimum(np.arange(e), m - np.arange(e)) * grid.spacing
            for e, m in zip(extent or torus_shape, torus_shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


class CirculantPlan(SamplerPlan):
    """Stationary field on a box, embedded in a torus: white noise on the torus
    filtered by ``sqrt_spectrum``."""

    mode = "circulant"

    def __init__(self, model, grid: Grid, torus_shape, sqrt_spectrum, clipped_fraction, base_seed):
        self.model = model
        self.grid = grid
        self.torus_shape = tuple(torus_shape)
        self.sqrt_spectrum = sqrt_spectrum
        self.clipped_fraction = float(clipped_fraction)
        super().__init__(base_seed, grid.sites())
        self._set_filters(*self._kernel_spectra())

    def _kernel_spectra(self) -> tuple[tuple, tuple]:
        """(half-spectra, full spectra) of the filters' real kernels: here the one filter, sqrt_spectrum."""
        return (self.sqrt_spectrum[..., : self.torus_shape[-1] // 2 + 1],), (self.sqrt_spectrum,)

    def _set_filters(self, halves, spectra) -> None:
        """The filters, given twice as the same real kernels' spectra: ``_filters``, the half-spectra,
        which the restriction reads, and ``_spectra``, sqrt(N) times the full spectra, which the FFT
        draw reads.  With seed, points and torus shape the half-spectra fix the draws."""
        self._filters = tuple(halves)
        self._spectra = tuple(math.sqrt(g.size) * g for g in spectra)
        self.fingerprint = self._fingerprint(self.torus_shape, *self._filters)
        self._restrictions = _Store(BANK_BYTES)  # factors of support draws, by column list

    def _filter_noise(self, replicates, cols=None) -> list[np.ndarray]:
        """Per filter, the moving average of white noise by its real-space kernel, one row per
        replicate, at every box site or at the sites of columns ``cols``: from the filters' joint
        law at ``cols``, its ``_restriction`` factor applied to each replicate's block normals, when
        ``_restriction_wins``; else the FFT draw, Re (r even) or Im (r odd) of ifftn(eta * G) on the
        box for pair r // 2's complex noise eta and each of ``_spectra``, G = sqrt(N) times the
        filter's full spectrum.  Each run of replicates in one block draws its pairs once."""
        reps = _replicate_indices(replicates)
        if cols is not None:
            cols = _check_columns(cols, len(self.points))
            if _restriction_wins(len(self._filters) * len(cols), math.prod(self.torus_shape)):
                factor = self._restriction(cols)
                x = np.empty((len(reps), factor.shape[0]))
                for lo, hi, rows in _runs(reps):
                    z = _block_noise(self.base_seed, reps[lo] // BANK_ROWS, factor.shape[1])[rows]
                    x[lo:hi] = _apply(factor, z)
                return np.split(x, len(self._filters), axis=1)
        at = None if cols is None else (slice(None),) + np.unravel_index(cols, self.grid.shape)
        outs = [np.empty((len(reps), len(self.points) if at is None else len(cols))) for _ in self._spectra]
        for lo, hi, _ in _runs(reps):
            pairs, re, im = _pair_rows(reps, lo, hi)
            eta = _pair_noise(self.base_seed, pairs, self.torus_shape)
            for k, (out, g) in enumerate(zip(outs, self._spectra)):
                # the last filter multiplies the noise in place
                z = self._box_ifftn(np.multiply(eta, g, out=eta if k == len(outs) - 1 else None))
                z = z.reshape(len(pairs), -1) if at is None else z[at]
                out[re[0]] = z.real[re[1]]
                out[im[0]] = z.imag[im[1]]
        return outs

    def _box_ifftn(self, a: np.ndarray) -> np.ndarray:
        """ifftn(a, axes=1..d)[box], inverting only the rows the box keeps.

        ifftn runs ifft over the axes from the last to the first; each line
        transform is independent of the others, so dropping the rows outside
        the box after each axis leaves the box bit-identical.
        """
        for ax in range(len(self.grid.shape), 0, -1):
            # the last axis is transformed in place: the draw hands over a temporary of its own
            a = np.fft.ifft(a, axis=ax, out=a if ax == a.ndim - 1 else None)
            a = a[(slice(None),) * ax + (slice(0, self.grid.shape[ax - 1]),)]
        return a

    def _restriction(self, cols: np.ndarray) -> np.ndarray:
        """The ``plan_dense`` factor of the filters' moving averages at ``cols``, built once per column list.

        Filters a and b average one noise into fields whose covariance at lag h is
        c_ab(h) = irfftn(f_a * conj(f_b))(h), the lag taken mod the torus; so the entry of
        (filter a, column i) and (filter b, column j) is c_ab(s_i - s_j), s_i being column i's
        site in the box.  Rows run filter-major, as the draw is split.
        """
        key = cols.tobytes()
        factor = self._restrictions.get(key)
        if factor is None:
            s = np.unravel_index(cols, self.grid.shape)
            lag = np.ravel_multi_index(tuple((a[:, None] - a[None, :]) % t for a, t in zip(s, self.torus_shape)),
                                       self.torus_shape)
            cov = np.block([[np.fft.irfftn(fa * fb.conj(), s=self.torus_shape, axes=range(len(self.torus_shape)))
                             .ravel()[lag] for fb in self._filters] for fa in self._filters])
            factor = self._restrictions.put(key, plan_dense(_symmetrized(cov), self.base_seed).factor)
        return factor

    def draw_batch(self, replicates, cols=None) -> np.ndarray:
        return self._filter_noise(replicates, cols)[0]

    def cov_block(self, pts1, pts2) -> np.ndarray:
        a = np.asarray(list(pts1), dtype=float)
        b = np.asarray(list(pts2), dtype=float)
        diffs = (a[:, None, :] - b[None, :, :]) * self.grid.spacing
        flat = cov_of_offsets(self.model, diffs.reshape(-1, diffs.shape[-1]))
        return flat.reshape(len(a), len(b))

    def max_abs_cov(self) -> float:
        # stationary PSD kernel: the diagonal dominates every entry
        return float(cov_of_offsets(self.model, np.zeros((1, self.model.dim)))[0])


def _smallest_torus(model, grid: Grid, floor) -> tuple[int, ...]:
    """Axis by axis, the first 5-smooth extent from ``floor`` up whose wrap error is at most
    ``SPECTRUM_CLIP_LIMIT`` * K(0): the largest |K(min(h, T - h)) - K(h)| over the box lags h,
    on the whole lag grid, with the axes before it at their chosen extents and those after it
    at twice the box.  Twice the box wraps no lag, so every search ends by then, and the last
    axis's test is the whole torus's wrap error.  The stationary kernels read no lag's signs,
    so the lags h >= 0 are all of them.  The kernel is evaluated once, k = K(h) at the box
    lags: a torus at least the box wraps h to min(h, T - h), itself a box lag, so each
    candidate's covariance is gathered from k."""
    torus = [2 * n for n in grid.shape]  # wraps no box lag
    k = cov_of_offsets(model, _torus_offsets(grid, torus, grid.shape).reshape(-1, model.dim)).reshape(grid.shape)
    lags = [np.arange(n) for n in grid.shape]

    def wrapped(torus):  # the torus covariance K(min(h, T - h)) at the box lags h
        return k[np.ix_(*(np.minimum(h, t - h) for h, t in zip(lags, torus)))]

    for i, lo in enumerate(floor):
        torus[i] = next_fast_len(lo, real=True)
        while np.abs(wrapped(torus) - k).max() > SPECTRUM_CLIP_LIMIT * k.flat[0]:
            torus[i] = next_fast_len(torus[i] + 1, real=True)
    return tuple(torus)


def _torus_candidates(model, grid: Grid, floor) -> dict[tuple[int, ...], int | None]:
    """Torus shape -> padding, in the order tried: the smallest exact torus (padding None), then
    per padding the 5-smooth torus and the power of two, which wrap no box lag."""
    candidates = {_smallest_torus(model, grid, floor): None}
    for padding in PADDINGS:
        candidates.setdefault(tuple(next_fast_len(s * padding, real=True) for s in grid.shape), padding)
        candidates.setdefault(tuple(int(2 ** math.ceil(math.log2(max(2, s * padding)))) for s in grid.shape),
                              padding)
    return candidates


def plan_circulant(model, grid: Grid, base_seed: int, margin: float = 0.0) -> CirculantPlan:
    """Embed a stationary model on the first torus of ``_torus_candidates`` whose spectrum
    clips at most ``SPECTRUM_CLIP_LIMIT`` of its mass; EmbeddingError if none does.  Each
    torus axis extends at least ``margin`` (field units) beyond the box, or to twice the box."""
    if not model.stationary:
        raise ModelError("circulant embedding requires a stationary model")
    if len(grid.shape) != model.dim:
        raise InputError(f"grid dimension {len(grid.shape)} != model dimension {model.dim}")
    floor = [math.ceil(min(n + margin / grid.spacing, 2 * n)) for n in grid.shape]
    for torus_shape, padding in _torus_candidates(model, grid, floor).items():
        offsets = _torus_offsets(grid, torus_shape).reshape(-1, model.dim)
        lam = np.fft.fftn(cov_of_offsets(model, offsets).reshape(torus_shape)).real
        neg = abs(float(lam[lam < 0].sum()))  # +0.0, not -0.0, when nothing is clipped
        tot = float(np.abs(lam).sum())
        if not math.isfinite(tot):
            raise ModelError(f"circulant spectrum is not finite on the {torus_shape} torus")
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
        self.radius = float(radius)
        q = np.fft.ifftn(base.sqrt_spectrum).real
        near = np.sqrt((_torus_offsets(base.grid, base.torus_shape) ** 2).sum(axis=-1)) <= self.radius
        self.q_near = np.where(near, q, 0.0)
        self.q_far = np.where(near, 0.0, q)
        self.sigma2 = float((self.q_far**2).sum())
        super().__init__(base.model, base.grid, base.torus_shape, base.sqrt_spectrum,
                         base.clipped_fraction, base.base_seed)

    def _kernel_spectra(self) -> tuple[tuple, tuple]:
        qs = (self.q_near, self.q_far)
        return tuple(np.fft.rfftn(q) for q in qs), tuple(np.fft.fftn(q) for q in qs)

    def draw_split_batch(self, replicates, cols=None) -> tuple[np.ndarray, np.ndarray]:
        return tuple(self._filter_noise(replicates, cols))

    def draw_batch(self, replicates, cols=None) -> np.ndarray:
        x1, x2 = self.draw_split_batch(replicates, cols)
        return x1 + x2


def plan_decomposed(model, grid: Grid, radius: float, base_seed: int) -> DecomposedPlan:
    if model.family not in ("bargmann_fock", "cauchy"):
        raise ParameterError("moving-average decomposition supports bargmann_fock and cauchy")
    if not radius >= grid.spacing:  # written so that NaN fails
        raise ParameterError(f"truncation radius {radius} is not at least one grid cell {grid.spacing}")
    # X1 is independent across sets more than 2 radius apart in the torus metric; each
    # torus axis at least the box plus 2 radius (or twice the box) makes the box metric agree
    return DecomposedPlan(plan_circulant(model, grid, base_seed, margin=2 * radius), radius)


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
