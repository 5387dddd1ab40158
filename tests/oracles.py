"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: exhaustive path
enumeration and breadth-first search instead of batched labelling, mpmath
special functions instead of scipy, grid search instead of Frank-Wolfe.
"""

from __future__ import annotations

import itertools
from collections import deque

import mpmath as mp
import numpy as np

mp.mp.dps = 30


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
    """Bivariate normal cdf by 1-d mpmath quadrature of the regression form."""
    rho_, u_, v_ = mp.mpf(str(rho)), mp.mpf(str(u)), mp.mpf(str(v))
    if abs(rho_) == 1:
        if rho_ == 1:
            return float(mp.ncdf(min(u_, v_)))
        return float(max(0, mp.ncdf(u_) + mp.ncdf(v_) - 1))
    om = mp.sqrt(1 - rho_**2)
    return float(mp.quad(lambda x: mp.npdf(x) * mp.ncdf((v_ - rho_ * x) / om), [-mp.inf, u_]))


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
