"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: exhaustive path
enumeration and breadth-first search instead of batched labelling, mpmath
special functions instead of scipy, grid search and Frank-Wolfe with away
steps instead of the active-set capacity solve, a fresh Philox generator per replicate instead of one re-keyed generator,
a fresh generator per block read at stream positions j * 256 + i instead of a transposed block,
row-wise ``np.unique(axis=0)`` and per-row Bessel factors instead of integer
row keys and one Bessel table, the kernel on all n^2 point pairs instead of
once per distinct displacement, the power-of-two torus of each padding
instead of the 5-smooth torus tried before it, trial division and every signed
box lag instead of ``next_fast_len`` and the lags h >= 0 for the smallest
exact torus, bisection over every replicate's
sorted values instead of a path lower bound and one confirming labelling,
a torus plan's kernels summed against one noise per torus site instead of
the cross-spectra of its filters, the bivariate normal cdf's regression form
in x instead of the fixed rule in theta = asin r, ``np.histogram2d`` over
+-inf-padded midpoint edges and a pairwise comparison with every midpoint
instead of one ``searchsorted`` count table for the Hoeffding integral.
"""

from __future__ import annotations

import itertools
from collections import deque

import mpmath as mp
import numpy as np
from scipy import ndimage, special
from scipy.fft import next_fast_len

from sdlab import kernels, measures, sampler
from sdlab.errors import InputError

mp.mp.dps = 30


def philox_normals(base_seed: int, replicate: int, shape) -> np.ndarray:
    """One replicate's standard normal noise of ``shape``, keyed by (base_seed, replicate)."""
    key = np.array([np.uint64(base_seed & 0xFFFFFFFFFFFFFFFF), np.uint64(replicate)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)


def block_normals(base_seed: int, b: int, width: int) -> np.ndarray:
    """Block b's factor-draw noise, (256, width): entry (i, j) is normal j * 256 + i of a fresh
    Philox keyed (base_seed, b) at counter [0, 0, 0, 1]."""
    key = np.array([np.uint64(base_seed & 0xFFFFFFFFFFFFFFFF), np.uint64(b)], dtype=np.uint64)
    flat = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, 1])).standard_normal(256 * width)
    i, j = np.meshgrid(np.arange(256), np.arange(width), indexing="ij")
    return flat[j * 256 + i]


def block_row_normals(base_seed: int, replicate: int, width: int) -> np.ndarray:
    """Replicate ``replicate``'s row of ``block_normals``: its first ``width`` factor-draw normals."""
    return block_normals(base_seed, replicate // 256, width)[replicate % 256]


def hoeffding_box_integral(t1: np.ndarray, t2: np.ndarray, bins: int) -> float:
    """The double integral of F12 - F1 F2 over [min t1, max t1] x [min t2, max t2] as a sum at
    ``bins`` midpoints per axis, each replicate counted by ``np.histogram2d`` between the
    midpoints, with -inf and inf as the outer edges."""
    n = len(t1)
    u_lo, u_hi, v_lo, v_hi = t1.min(), t1.max(), t2.min(), t2.max()
    mu = u_lo + (np.arange(bins) + 0.5) * (u_hi - u_lo) / bins
    mv = v_lo + (np.arange(bins) + 0.5) * (v_hi - v_lo) / bins
    eu = np.concatenate(([-np.inf], mu, [np.inf]))
    ev = np.concatenate(([-np.inf], mv, [np.inf]))
    counts, _, _ = np.histogram2d(t1, t2, bins=(eu, ev))
    F = counts.cumsum(axis=0).cumsum(axis=1) / n  # F[i, j]: the share with t1 < mu[i] and t2 < mv[j]
    integrand = F[:-1, :-1] - np.outer(F[:-1, -1], F[-1, :-1])
    return float(integrand.sum() * ((u_hi - u_lo) / bins) * ((v_hi - v_lo) / bins))


def hoeffding_bins(t: np.ndarray, bins: int) -> np.ndarray:
    """Each replicate's count of the ``bins`` midpoints of [min t, max t] at or below it."""
    mid = t.min() + (np.arange(bins) + 0.5) * (t.max() - t.min()) / bins
    return (t[:, None] >= mid[None, :]).sum(axis=1)


def clipped_fraction(model, torus, spacing: float) -> float:
    """The share of the spectrum's absolute mass below zero, for the kernel wrapped on ``torus``."""
    axes = [np.minimum(np.arange(m), m - np.arange(m)) * spacing for m in torus]
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(torus))
    lam = np.fft.fftn(kernels.cov_of_offsets(model, offsets).reshape(torus)).real
    return -lam[lam < 0].sum() / np.abs(lam).sum()


def pow2_torus(model, shape, spacing: float, clip_limit: float) -> tuple[int, ...] | None:
    """The power-of-two torus rule: each box axis times a padding of 2, then 4, rounded up
    to a power of two; the first torus whose spectrum clips at most ``clip_limit`` of its
    mass, or None."""
    for padding in (2, 4):
        torus = tuple(int(2 ** np.ceil(np.log2(s * padding))) for s in shape)
        if clipped_fraction(model, torus, spacing) <= clip_limit:
            return torus
    return None


def _five_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def smallest_exact_torus(model, shape, spacing: float, limit: float) -> tuple[int, ...] | None:
    """The smallest exact torus by brute force, or None if its spectrum clips more than ``limit``.

    Axis by axis, with the axes before it at their chosen sizes and those after it not wrapped,
    the first 5-smooth size T from the box extent up at which every signed box lag h keeps its
    kernel value: |K(min(h mod T, T - h mod T)) - K(h)| <= limit * K(0).
    """
    lags = np.stack(np.meshgrid(*(np.arange(1 - n, n) for n in shape), indexing="ij"), axis=-1)
    lags = lags.reshape(-1, len(shape))
    k = kernels.cov_of_offsets(model, lags * spacing)
    k0 = kernels.cov_of_offsets(model, np.zeros((1, len(shape))))[0]
    torus = [None] * len(shape)  # None: not wrapped
    for i, n in enumerate(shape):
        for t in itertools.count(n):
            if not _five_smooth(t):
                continue
            torus[i] = t
            wrapped = np.abs(lags).astype(float)
            for j, m in enumerate(torus):
                if m is not None:
                    r = lags[:, j] % m
                    wrapped[:, j] = np.minimum(r, m - r)
            if np.abs(kernels.cov_of_offsets(model, wrapped * spacing) - k).max() <= limit * k0:
                break
    return tuple(torus) if clipped_fraction(model, torus, spacing) <= limit else None


def smallest_torus_per_candidate(model, grid, floor) -> tuple[int, ...]:
    """``sampler._smallest_torus`` with the kernel evaluated afresh at every candidate torus T,
    K(min(h, T - h)) over the box lags h, instead of gathered from one evaluation at the box lags."""

    def box_cov(torus):
        return kernels.cov_of_offsets(model, sampler._torus_offsets(grid, torus, grid.shape).reshape(-1, model.dim))

    torus = [2 * n for n in grid.shape]
    k = box_cov(torus)
    for i, lo in enumerate(floor):
        torus[i] = next_fast_len(lo, real=True)
        while np.abs(box_cov(torus) - k).max() > sampler.SPECTRUM_CLIP_LIMIT * k[0]:
            torus[i] = next_fast_len(torus[i] + 1, real=True)
    return tuple(torus)


def torus_support_cov(plan, cols, spatial=None) -> np.ndarray:
    """The covariance of a torus plan's moving averages at the box columns ``cols``, filter-major,
    as Q^T Q for the matrix Q that sums one noise per torus site into them: Q[y, f * m + j] =
    k_f(s_j - y), the lag taken mod the torus, with k_f = irfftn(f) (or the torus-shaped
    real-space kernels ``spatial``) and s_j column j's site relative to the grid origin (the
    box sits at the torus corner)."""
    torus = plan.torus_shape
    y = np.indices(torus).reshape(len(torus), -1, 1)
    s = np.unravel_index(cols, plan.grid.shape)
    lag = np.ravel_multi_index(tuple((sj - yj) % t for sj, yj, t in zip(s, y, torus)), torus)
    if spatial is None:
        spatial = [np.fft.irfftn(f, s=torus, axes=range(len(torus))) for f in plan._filters]
    q = np.concatenate([k.ravel()[lag] for k in spatial], axis=1)
    return q.T @ q


def green_reference(offsets, d: int) -> np.ndarray:
    """GFF K(0, offset) for an (m, d) offset array, deduplicated by ``np.unique(axis=0)``,
    with ``ive`` evaluated per row, coordinate and node, each row reduced on its own."""
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    canon = np.sort(np.abs(np.round(offsets).astype(np.int64)), axis=1)
    uniq, inverse = np.unique(canon, axis=0, return_inverse=True)
    a = np.abs(uniq.astype(float))  # (m, d)
    body, tail = ((np.prod(special.ive(a[:, :, None], s[None, None, :] / d), axis=1) * w).sum(axis=1)
                  for s, w in kernels._GREEN_RULES)
    return (body + tail)[inverse.ravel()]


def cov_matrix_reference(model, points) -> np.ndarray:
    """A stationary model's covariance matrix by the pairwise assembly: ``cov_of_offsets`` on
    all n^2 displacement rows, symmetrized, through ``repair_psd``; the same input checks as
    ``kernels.build_cov_matrix``."""
    pts = [kernels._as_point(p) for p in points]
    if not pts:
        raise InputError("point set is empty")
    if len(set(pts)) != len(pts):
        raise InputError("points must be distinct")
    n = len(pts)
    arr = np.asarray(pts, dtype=float)
    diffs = arr[:, None, :] - arr[None, :, :]
    m = kernels.cov_of_offsets(model, diffs.reshape(n * n, -1)).reshape(n, n)
    return kernels.repair_psd(0.5 * (m + m.T))[0]


def enumerate_maximin(values: np.ndarray, src: set, snk: set, edges: dict) -> float:
    """Max over source-sink lattice paths of the min site value, by DFS.

    ``values`` indexed by local site id; ``edges`` maps id -> neighbor ids.
    """
    best = -np.inf

    def dfs(node, visited, cur_min):
        nonlocal best
        cur_min = min(cur_min, values[node])
        if cur_min <= best:
            return  # cannot improve
        if node in snk:
            best = max(best, cur_min)
            return
        for nxt in edges[node]:
            if nxt not in visited:
                dfs(nxt, visited | {nxt}, cur_min)

    for s in src:
        dfs(s, {s}, np.inf)
    return best


def bisection_thresholds(ce, values_matrix: np.ndarray) -> np.ndarray:
    """Crossing thresholds of a compiled crossing event by bisection alone.

    Every replicate bisects on the index into its sorted values, keeping a
    crossing at ``ordered[lo]`` and none at ``ordered[hi]``, with one
    ``ndimage.label`` call over the whole stack per step.
    """
    vals = values_matrix[:, ce.cols]
    reps = vals.shape[0]
    box = np.full((reps,) + ce.shape, -np.inf)
    box.reshape(reps, -1)[:, ce.flat] = vals
    ordered = np.sort(vals, axis=1)
    rows = np.arange(reps)
    lo = np.zeros(reps, dtype=np.intp)
    hi = np.full(reps, vals.shape[1], dtype=np.intp)
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        u = ordered[rows, mid].reshape((reps,) + (1,) * len(ce.shape))
        labels, count = ndimage.label(box >= u, ce.structure)
        on_src = np.zeros(count + 1, dtype=bool)
        on_src[labels[:, ce.src]] = True
        on_src[0] = False
        crossed = on_src[labels[:, ce.snk]].any(axis=1)
        lo = np.where(crossed, mid, lo)
        hi = np.where(crossed, hi, mid)
    return ce.level - ordered[rows, lo]


def grid_maximin(field2d: np.ndarray, axis: int = 0) -> float:
    """Brute-force bottleneck value for a full-box crossing along ``axis``."""
    shape = field2d.shape
    points = list(itertools.product(*(range(s) for s in shape)))
    src = [p for p in points if p[axis] == 0]
    snk = [p for p in points if p[axis] == shape[axis] - 1]
    return support_maximin([field2d[p] for p in points], points, src, snk)


def support_maximin(values, points, src, snk) -> float:
    """Bottleneck value between the sites ``src`` and ``snk`` on the graph
    whose vertices are ``points`` and whose edges join points one unit apart
    in one coordinate.  ``values[k]`` is the field at ``points[k]``.
    """
    ids = {tuple(p): k for k, p in enumerate(points)}
    edges = {k: [] for k in ids.values()}
    for p, k in ids.items():
        for ax in range(len(p)):
            for step in (-1, 1):
                q = p[:ax] + (p[ax] + step,) + p[ax + 1:]
                if q in ids:
                    edges[k].append(ids[q])
    return enumerate_maximin(np.asarray(values, dtype=float), {ids[tuple(p)] for p in src},
                             {ids[tuple(p)] for p in snk}, edges)


def annulus_ends(points, center, r_inner: float) -> tuple[list, list]:
    """Sources and sinks of an annulus crossing on the lattice ball ``points``:
    the sites within ``r_inner`` of ``center``, and the sites with a nearest
    neighbor outside the ball.
    """
    ball = {tuple(p) for p in points}
    src = [p for p in ball if sum((a - c) ** 2 for a, c in zip(p, center)) <= r_inner**2]
    snk = [p for p in ball
           if any(p[:ax] + (p[ax] + step,) + p[ax + 1:] not in ball
                  for ax in range(len(p)) for step in (-1, 1))]
    return src, snk


def box_crossing_occurs(values, points, lo, hi, axis: int, level: float = 0.0) -> bool:
    """Breadth-first search through the sites with value >= level, from the
    ``lo`` face to the ``hi`` face of the box along ``axis``.

    ``values[k]`` is the field at ``points[k]``; neighbors differ by one in one
    coordinate and both lie in the box.
    """
    active = {tuple(p) for p, v in zip(points, values) if v >= level}
    frontier = deque(p for p in active if p[axis] == lo[axis])
    seen = set(frontier)
    while frontier:
        p = frontier.popleft()
        if p[axis] == hi[axis]:
            return True
        for ax in range(len(p)):
            for step in (-1, 1):
                q = p[:ax] + (p[ax] + step,) + p[ax + 1:]
                if q in active and q not in seen and all(a <= c <= b for a, c, b in zip(lo, q, hi)):
                    seen.add(q)
                    frontier.append(q)
    return False


def bessel_j_mp(nu: float, x: float) -> float:
    return float(mp.besselj(nu, x))


def std_cdf_mp(x: float) -> float:
    return float(mp.ncdf(x))


def gaussian_tail_mp(u: float) -> mp.mpf:
    return mp.erfc(mp.mpf(u) / mp.sqrt(2)) / 2


def neg_bound_exponent_mp(kappa: float, u: float) -> float:
    k, uu = mp.mpf(str(kappa)), mp.mpf(str(u))
    r = gaussian_tail_mp(uu) - gaussian_tail_mp(uu * (1 - k)) ** 2
    return float(-mp.log(r) / (k**2 * uu**2))


def bvn_mp(rho: float, u: float, v: float) -> float:
    """Bivariate normal cdf by 30-digit mpmath quadrature of the regression form.

    P[Z1 <= u, Z2 <= v] = int_{-inf}^u phi(x) Phi((v - rho x) / sqrt(1 - rho^2)) dx.  Near
    |rho| = 1 the factor Phi(...) is a near-step at x = v / rho, of width sqrt(1 - rho^2) / |rho|,
    so the interval is split there and the step becomes an endpoint of both pieces.
    """
    rho_, u_, v_ = mp.mpf(rho), mp.mpf(u), mp.mpf(v)
    if rho_ == 0:
        return float(mp.ncdf(u_) * mp.ncdf(v_))
    if abs(rho_) == 1:
        if rho_ == 1:
            return float(mp.ncdf(min(u_, v_)))
        return float(max(0, mp.ncdf(u_) + mp.ncdf(v_) - 1))
    om, step = mp.sqrt(1 - rho_**2), v_ / rho_
    points = [-mp.inf, step, u_] if step < u_ else [-mp.inf, u_]
    return float(mp.quad(lambda x: mp.npdf(x) * mp.ncdf((v_ - rho_ * x) / om), points))


def watson_g3_origin() -> float:
    """Closed form of the d=3 random-walk Green's function at the origin."""
    return float(
        mp.sqrt(6) / (32 * mp.pi**3)
        * mp.gamma(mp.mpf(1) / 24) * mp.gamma(mp.mpf(5) / 24)
        * mp.gamma(mp.mpf(7) / 24) * mp.gamma(mp.mpf(11) / 24)
    )


def capacity_2pt_oracle(r: float, npts: int = 2_000_001) -> float:
    """Grid search over mu = (t, 1-t) for the 2-point capacity."""
    t = np.linspace(0.0, 1.0, npts)
    energy = t**2 + (1 - t) ** 2 + 2 * r * t * (1 - t)
    return float(1.0 / energy.min())


def capacity_fw_oracle(K, I=None, tol: float = 1e-10, max_iter: int = 200_000) -> measures.CapacityResult:
    """Capacity by Frank-Wolfe with away steps and exact line search.

    Starts at the vertex of least variance and stops when the duality gap
    2(mu^T A mu - min_i (A mu)_i) is at most tol * max(energy, 1e-300), or
    when the energy falls below ``measures.CAP_INFINITE_ENERGY`` (infinite
    capacity), or after ``max_iter`` iterations (``converged=False``).
    """
    K = np.asarray(K, dtype=float)
    idx = np.arange(len(K)) if I is None else np.asarray(list(I), dtype=np.intp)
    A = K[np.ix_(idx, idx)]
    A, _ = kernels.repair_psd(0.5 * (A + A.T))
    floor = measures.CAP_INFINITE_ENERGY
    m = A.shape[0]
    if m == 1:
        e = float(A[0, 0])
        return measures.CapacityResult(np.inf if e < floor else 1.0 / e, np.array([1.0]), e, 0.0, 0, True,
                                       e < floor)
    start = int(np.argmin(np.diag(A)))
    mu = np.zeros(m)
    mu[start] = 1.0
    Amu = A[:, start].copy()
    for it in range(1, max_iter + 1):
        grad = 2.0 * Amu
        energy = float(mu @ Amu)
        s = int(np.argmin(grad))
        fw_gap = float(grad @ mu - grad[s])
        if fw_gap <= tol * max(energy, 1e-300) or energy < floor:
            return measures.CapacityResult(np.inf if energy < floor else 1.0 / energy, mu, energy, fw_gap,
                                           it - 1, True, energy < floor)
        support = np.nonzero(mu > 0)[0]
        a = int(support[np.argmax(grad[support])])
        away_gap = float(grad[a] - grad @ mu)
        if fw_gap >= away_gap:
            direction = -mu.copy()
            direction[s] += 1.0
            Ad = A[:, s] - Amu
            gamma_max = 1.0
        else:
            direction = mu.copy()
            direction[a] -= 1.0
            Ad = Amu - A[:, a]
            gamma_max = mu[a] / (1.0 - mu[a]) if mu[a] < 1.0 else 1.0
        denom = float(direction @ Ad)
        slope = float(grad @ direction)
        gamma = gamma_max if denom <= 0 else min(gamma_max, max(0.0, -slope / (2.0 * denom)))
        if gamma <= 0:
            return measures.CapacityResult(1.0 / energy, mu, energy, fw_gap, it, False)
        mu = mu + gamma * direction
        np.clip(mu, 0.0, None, out=mu)
        mu /= mu.sum()
        Amu = Amu + gamma * Ad
        if it % 256 == 0:  # refresh accumulated roundoff
            Amu = A @ mu
    energy = float(mu @ Amu)
    fw_gap = float(2.0 * (Amu @ mu - Amu.min()))
    return measures.CapacityResult(1.0 / energy if energy > floor else np.inf, mu, energy, fw_gap, max_iter,
                                   False, energy < floor)
