"""Increasing events on lattice boxes and their threshold random variables.

Connectivity is nearest-neighbor (2d adjacency) on Z^d.  Thresholds follow the
orientation {X + u in A} = {T_A(X) <= u}: crossing events store the negated
maximin (bottleneck) value, computed by descending-order union-find insertion
with ties broken by site index.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import InputError, SpecError
from .kernels import Point
from .sampler import FieldSample


def _norm_sites(sites) -> tuple[Point, ...]:
    out = []
    for s in sites:
        out.append((int(s),) if np.isscalar(s) else tuple(int(c) for c in s))
    return tuple(out)


@dataclass(frozen=True)
class AllAbove:
    """Every site of a fixed index set lies in the excursion set {X >= level}."""

    sites: tuple[Point, ...]
    level: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sites", _norm_sites(self.sites))

    @property
    def support(self) -> tuple[Point, ...]:
        return self.sites


@dataclass(frozen=True)
class AnyAbove:
    """At least one site of the index set lies in {X >= level}."""

    sites: tuple[Point, ...]
    level: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sites", _norm_sites(self.sites))

    @property
    def support(self) -> tuple[Point, ...]:
        return self.sites


@dataclass(frozen=True)
class BoxCrossing:
    """Lattice path in {X >= level} joining the two opposite faces along ``axis``."""

    lo: Point
    hi: Point  # inclusive corner
    axis: int = 0
    level: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(int(c) for c in self.lo))
        object.__setattr__(self, "hi", tuple(int(c) for c in self.hi))
        if len(self.lo) != len(self.hi):
            raise InputError("box corners must have equal dimension")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise InputError("box must have lo <= hi")
        if not (0 <= self.axis < len(self.lo)):
            raise InputError("axis outside box dimension")

    @property
    def support(self) -> tuple[Point, ...]:
        ranges = [range(a, b + 1) for a, b in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*ranges, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)
        return tuple(tuple(int(v) for v in row) for row in coords)


@dataclass(frozen=True)
class AnnulusCrossing:
    """Component of {X >= level} joining center+B(r_inner) to center+bd B(r_outer).

    The inner ball and outer sphere are rendered as lattice site sets by
    Euclidean rounding; r_inner = 0 gives the one-arm event from the center.
    """

    center: Point
    r_inner: float
    r_outer: float
    level: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(int(c) for c in self.center))
        if self.r_outer <= self.r_inner:
            raise InputError("outer radius must exceed inner radius")

    def _ball_sites(self) -> np.ndarray:
        c = np.asarray(self.center)
        m = int(np.ceil(self.r_outer))
        ranges = [np.arange(v - m, v + m + 1) for v in c]
        mesh = np.meshgrid(*ranges, indexing="ij")
        coords = np.stack([g.ravel() for g in mesh], axis=1)
        d2 = ((coords - c) ** 2).sum(axis=1)
        return coords[d2 <= self.r_outer**2]

    @property
    def support(self) -> tuple[Point, ...]:
        return tuple(tuple(int(v) for v in row) for row in self._ball_sites())


EventSpec = AllAbove | AnyAbove | BoxCrossing | AnnulusCrossing


# ---------------------------------------------------------------------------
# serialization (CLI configs)

_KINDS = {"all_above": AllAbove, "any_above": AnyAbove, "box_crossing": BoxCrossing, "annulus_crossing": AnnulusCrossing}


def _plain(v):
    return [_plain(x) for x in v] if isinstance(v, tuple) else v


def _tupled(v):
    return tuple(_tupled(x) for x in v) if isinstance(v, list) else v


def event_to_dict(spec: EventSpec) -> dict:
    kind = next((k for k, cls in _KINDS.items() if type(spec) is cls), None)
    if kind is None:
        raise InputError(f"unknown event type {type(spec)!r}")
    return {"kind": kind, **{f.name: _plain(getattr(spec, f.name)) for f in fields(spec)}}


def event_from_dict(d: dict) -> EventSpec:
    if not isinstance(d, dict):
        raise InputError(f"event must be a JSON object, got {d!r}")
    kind = d.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InputError(f"unknown event kind {kind!r}; valid: {', '.join(_KINDS)}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(d) - set(names) - {"kind"})
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
    if unknown or missing:
        raise InputError(f"{kind} event has unknown keys {unknown} or lacks keys {missing}; "
                         f"valid keys: kind, {', '.join(names)}")
    try:
        return cls(**{k: _tupled(v) for k, v in d.items() if k != "kind"})
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed {kind} event: {exc}") from None


# ---------------------------------------------------------------------------
# union-find (call-local scratch, no shared state)


class _UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


class CompiledEvent:
    """Event bound to a plan's index map for fast repeated evaluation."""

    def __init__(self, spec: EventSpec, index):
        self.spec = spec
        support = spec.support
        if len(support) == 0:
            raise SpecError("event has empty support")
        try:
            self.cols = np.array([index[p] for p in support], dtype=np.intp)
        except KeyError as exc:
            raise InputError(f"sample does not cover support site {exc.args[0]}") from None
        self.level = spec.level
        self.kind = type(spec).__name__
        if isinstance(spec, (AllAbove, AnyAbove)):
            self.crossing = False
            return
        self.crossing = True
        local = {p: i for i, p in enumerate(support)}
        edges = []
        dim = len(support[0])
        for p, i in local.items():
            for ax in range(dim):
                q = p[:ax] + (p[ax] + 1,) + p[ax + 1 :]
                j = local.get(q)
                if j is not None:
                    edges.append((i, j))
        self.edges_by_site: list[list[int]] = [[] for _ in support]
        for i, j in edges:
            self.edges_by_site[i].append(j)
            self.edges_by_site[j].append(i)
        if isinstance(spec, BoxCrossing):
            src = [i for p, i in local.items() if p[spec.axis] == spec.lo[spec.axis]]
            snk = [i for p, i in local.items() if p[spec.axis] == spec.hi[spec.axis]]
        else:
            c = np.asarray(spec.center, dtype=float)
            arr = np.asarray(support, dtype=float)
            d2 = ((arr - c) ** 2).sum(axis=1)
            src = list(np.nonzero(d2 <= spec.r_inner**2)[0])
            # sink: inner vertex boundary of the discretized outer ball
            snk = []
            for p, i in local.items():
                for ax in range(dim):
                    for step in (-1, 1):
                        q = p[:ax] + (p[ax] + step,) + p[ax + 1 :]
                        if q not in local:
                            snk.append(i)
                            break
                    else:
                        continue
                    break
        if not src or not snk:
            raise SpecError("crossing event has an empty source or sink face")
        self.src = np.array(sorted(set(int(i) for i in src)), dtype=np.intp)
        self.snk = np.array(sorted(set(int(i) for i in snk)), dtype=np.intp)

    # -- single-sample queries ------------------------------------------------

    def occurs(self, values: np.ndarray) -> bool:
        return self.threshold(values) <= 0

    def threshold(self, values: np.ndarray) -> float:
        vals = values[self.cols]
        if self.kind == "AllAbove":
            return float(self.level - vals.min())
        if self.kind == "AnyAbove":
            return float(self.level - vals.max())
        return float(self.level - self._maximin(vals))

    def _maximin(self, vals: np.ndarray) -> float:
        """Largest u such that {vals >= u} contains a source-sink path."""
        n = len(vals)
        order = np.argsort(-vals, kind="stable")  # ties resolved by site index
        uf = _UnionFind(n + 2)
        SRC, SNK = n, n + 1
        active = np.zeros(n, dtype=bool)
        is_src = np.zeros(n, dtype=bool)
        is_snk = np.zeros(n, dtype=bool)
        is_src[self.src] = True
        is_snk[self.snk] = True
        edges = self.edges_by_site
        find, union = uf.find, uf.union
        for pos in range(n):
            i = int(order[pos])
            active[i] = True
            for j in edges[i]:
                if active[j]:
                    union(i, j)
            if is_src[i]:
                union(i, SRC)
            if is_snk[i]:
                union(i, SNK)
            # ties: insert the whole equal-value block before testing
            if pos + 1 < n and vals[order[pos + 1]] == vals[i]:
                continue
            if find(SRC) == find(SNK):
                return float(vals[i])
        raise SpecError("no crossing exists even with every site active")

    def thresholds_batch(self, values_matrix: np.ndarray) -> np.ndarray:
        vals = values_matrix[:, self.cols]
        if self.kind == "AllAbove":
            return self.level - vals.min(axis=1)
        if self.kind == "AnyAbove":
            return self.level - vals.max(axis=1)
        out = np.empty(vals.shape[0])
        for r in range(vals.shape[0]):
            out[r] = self.level - self._maximin(vals[r])
        return out


def compile_event(spec: EventSpec, index) -> CompiledEvent:
    return CompiledEvent(spec, index)


def _resolve(sample, index=None) -> tuple[np.ndarray, dict]:
    if isinstance(sample, FieldSample):
        return np.asarray(sample.values, dtype=float), sample.index
    if index is None:
        raise InputError("plain arrays need an explicit index map")
    return np.asarray(sample, dtype=float), index


def occurs(spec: EventSpec, sample, index=None) -> bool:
    """Does the event hold on {sample >= level} with lattice connectivity?"""
    values, idx = _resolve(sample, index)
    return compile_event(spec, idx).occurs(values)


def threshold(spec: EventSpec, sample, index=None) -> float:
    """T with occurs(spec shifted by u) iff T <= u.

    For AllAbove this is level - min over the support; for crossings it is
    level minus the maximin (bottleneck) value over source-sink paths.
    Raises SpecError for structurally degenerate specifications.
    """
    values, idx = _resolve(sample, index)
    return compile_event(spec, idx).threshold(values)
