"""Synthetic viewer-mesh events with office clustering.

Viewers sit in offices and join a live event over time following one of
three arrival patterns. Each present viewer keeps up to ``degree_cap``
connections, building them gradually (``growth_rate`` new links per
snapshot), prefers same-office peers, and occasionally swaps its weakest
link for a stronger candidate. Pair capacities (raw weights) are drawn
once per pair: same-office pairs from the high-throughput distribution,
cross-office pairs from the low one. Everything is deterministic under
the config seed.
"""
from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_numbers
from .graphs import RawEvent

Array = np.ndarray

ARRIVALS = ("front_loaded", "burst", "gradual")

# Floor keeping truncated normal draws strictly positive.
MIN_RAW_WEIGHT = 1e-6


@dataclass(frozen=True)
class SimConfig:
    """Generator knobs; defaults describe a small four-office event."""

    offices: int = 4
    viewers: int = 80
    snapshots: int = 8
    arrival: str = "front_loaded"
    intra_bw: tuple[float, float] = (100.0, 10.0)
    inter_bw: tuple[float, float] = (10.0, 2.0)
    degree_cap: int = 16
    growth_rate: int = 2
    rewire_prob: float = 0.15
    departure_prob: float = 0.0
    same_office_bias: float = 0.8
    seed: int = 0

    def __post_init__(self):
        check_numbers(self, {"offices": 1, "viewers": None, "snapshots": 2, "degree_cap": 1,
                             "growth_rate": 1, "seed": 0},
                      {"rewire_prob": "unit", "departure_prob": "unit",
                       "same_office_bias": "unit"})
        if self.viewers < self.offices:
            raise ConfigError(f"need at least one viewer per office, got "
                              f"{self.viewers} viewers for {self.offices} offices")
        if self.arrival not in ARRIVALS:
            raise ConfigError(f"arrival must be one of {ARRIVALS}, got {self.arrival!r}")
        for name in ("intra_bw", "inter_bw"):
            pair = getattr(self, name)
            numeric = (isinstance(pair, (tuple, list)) and len(pair) == 2
                       and all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                               for x in pair))
            if not (numeric and 0 < pair[0] < math.inf and 0 <= pair[1] < math.inf):
                raise ConfigError(f"{name} needs a positive finite mean and a non-negative "
                                  f"finite spread, got {pair!r}")


def _spread(total: int, slots: int) -> list[int]:
    """Split ``total`` over ``slots`` as evenly as possible, remainder first."""
    if slots <= 0:
        return []
    base, extra = divmod(total, slots)
    return [base + (1 if i < extra else 0) for i in range(slots)]


def arrival_counts(cfg: SimConfig) -> list[int]:
    """How many viewers join at each snapshot. Integer-exact contracts:

    - front_loaded: at least 60% join at snapshot 0;
    - burst: at least 40% join during snapshots 1-2;
    - gradual: joins spread evenly across all snapshots.
    """
    v, k = cfg.viewers, cfg.snapshots
    if cfg.arrival == "front_loaded":
        first = -((-3 * v) // 5)  # ceil(0.6 v)
        return [first] + _spread(v - first, k - 1)
    if cfg.arrival == "burst":
        first = (v + 2) // 5  # round(0.2 v)
        burst_slots = min(2, k - 1)
        burst_total = min(-((-2 * v) // 5), v - first)  # ceil(0.4 v)
        counts = [first] + _spread(burst_total, burst_slots)
        rest = v - first - burst_total
        tail_slots = k - 1 - burst_slots
        if tail_slots > 0:
            counts += _spread(rest, tail_slots)
        else:
            counts[-1] += rest
        return counts
    return _spread(v, k)


class _IdTrees:
    """A set of viewer ids as Fenwick trees (Fenwick, "A new data
    structure for cumulative frequency tables", 1994): one tree per office
    and one over all offices, each counting members by id. Adding or
    removing a viewer and finding the k-th member in ascending id order
    take O(log v)."""

    def __init__(self, office: list[int], offices: int):
        # A power of two, so that a descent never steps past the end.
        size = 1 << (len(office) - 1).bit_length()
        self.office = office
        self.trees = [[0] * (size + 1) for _ in range(offices)]
        self.every = [0] * (size + 1)
        self.counts = [0] * offices
        self.total = 0

    def add(self, x: int, delta: int) -> None:
        """Count viewer ``x`` ``delta`` more times: 1 adds it, -1 removes it."""
        o = self.office[x]
        tree, every = self.trees[o], self.every
        self.counts[o] += delta
        self.total += delta
        i, size = x + 1, len(every) - 1
        while i <= size:
            tree[i] += delta
            every[i] += delta
            i += i & -i

    def select(self, o: int, mine: bool, k: int, skip: list[int]) -> int:
        """The k-th (from 0) member in ascending id order among those in
        office ``o`` if ``mine``, else among those outside it, passing over
        the members listed in ``skip`` (ascending, all in that pool)."""
        tree, every = self.trees[o], self.every
        pos = passed = 0
        step = (len(every) - 1) >> 1
        last = len(skip)
        # Descend to the longest prefix of ids 0..pos-1 holding at most k
        # pool members; tree position i covers ids i - (i & -i) .. i - 1.
        while step:
            nxt = pos + step
            count = tree[nxt] if mine else every[nxt] - tree[nxt]
            ahead = passed
            if ahead < last and skip[ahead] < nxt:
                ahead = bisect_left(skip, nxt, ahead)
                count -= ahead - passed
            if count <= k:
                k -= count
                pos, passed = nxt, ahead
            step >>= 1
        return pos


def simulate_event(cfg: SimConfig) -> RawEvent:
    """Generate one event; weights are raw (caller normalizes)."""
    rng = np.random.default_rng(cfg.seed)
    v, cap = cfg.viewers, cfg.degree_cap

    # Balanced office assignment over a shuffled viewer order, so every
    # office is populated whenever viewers >= offices.
    office_of = np.empty(v, dtype=np.intp)
    office_of[rng.permutation(v)] = np.arange(v) % cfg.offices
    office = office_of.tolist()

    counts = arrival_counts(cfg)
    joins_at = np.empty(v, dtype=np.intp)
    order = rng.permutation(v)
    start = 0
    for k, c in enumerate(counts):
        joins_at[order[start:start + c]] = k
        start += c
    joined = joins_at.tolist()

    # A pair (lo, hi) of viewers, lo < hi, is keyed by lo * v + hi, so
    # that sorting keys sorts pairs.
    pair_weight: dict[int, float] = {}

    def weight_of(u: int, w: int) -> float:
        key = u * v + w if u < w else w * v + u
        if key not in pair_weight:
            loc, spread = cfg.intra_bw if office[u] == office[w] else cfg.inter_bw
            pair_weight[key] = max(float(rng.normal(loc, spread)), MIN_RAW_WEIGHT)
        return pair_weight[key]

    # State kept across the whole run, so that a pick never scans the
    # viewers: who is present, each viewer's degree (always len(adj[u])),
    # the present viewers and those of them under the degree cap.
    adj: dict[int, dict[int, float]] = {u: {} for u in range(v)}
    present = np.zeros(v, dtype=bool)
    degree = [0] * v
    # The current links as edge tuples, by pair key.
    links: dict[int, tuple[int, int, float]] = {}
    attending = _IdTrees(office, cfg.offices)
    open_ = _IdTrees(office, cfg.offices)

    def link(u: int, w: int) -> None:
        wt = weight_of(u, w)
        adj[u][w] = wt
        adj[w][u] = wt
        lo, hi = (u, w) if u < w else (w, u)
        links[lo * v + hi] = (lo, hi, wt)
        for x in (u, w):
            degree[x] += 1
            if degree[x] == cap:
                open_.add(x, -1)

    def unlink(u: int, w: int) -> None:
        del adj[u][w]
        del adj[w][u]
        del links[u * v + w if u < w else w * v + u]
        for x in (u, w):
            if degree[x] == cap:
                open_.add(x, 1)
            degree[x] -= 1

    def pick_partner(u: int, capped: bool) -> int | None:
        """Choose a partner for u with the same-office preference: any
        present viewer other than u and its neighbours, and, if ``capped``,
        only one still under the degree cap. Candidates are taken in
        ascending id order, and the draws are those of a pick from the
        full list of candidates: ``rng.random()`` only when both office
        pools are non-empty, then an index into the chosen pool.

        The pool sizes are tree counts minus u and its eligible
        neighbours, and one tree descent that passes over those turns the
        drawn index into an id. A pick costs O(log v + degree_cap) steps
        (each descent step bisects the at most degree_cap + 1 skipped
        ids), where a pick from full-length masks cost O(v)."""
        ids = open_ if capped else attending
        o = office[u]
        skip_same: list[int] = []
        skip_other: list[int] = []
        for x in sorted((u, *adj[u])):  # all present
            if not capped or degree[x] < cap:
                (skip_same if office[x] == o else skip_other).append(x)
        same = ids.counts[o] - len(skip_same)
        other = ids.total - ids.counts[o] - len(skip_other)
        if same and (not other or rng.random() < cfg.same_office_bias):
            mine, size, skip = True, same, skip_same
        elif other:
            mine, size, skip = False, other, skip_other
        else:
            return None
        return ids.select(o, mine, int(rng.integers(0, size)), skip)

    snapshots: list[tuple[tuple[int, int, float], ...]] = []
    for k in range(cfg.snapshots):
        for u in np.flatnonzero(joins_at == k).tolist():
            present[u] = True
            attending.add(u, 1)
            open_.add(u, 1)

        if cfg.departure_prob > 0.0 and k > 0:
            leaving = [u for u in np.flatnonzero(present).tolist()
                       if joined[u] < k and rng.random() < cfg.departure_prob]
            for u in leaving:
                for w in list(adj[u]):
                    unlink(u, w)
                present[u] = False
                attending.add(u, -1)
                open_.add(u, -1)

        # Rewiring: swap the weakest link for a strictly stronger candidate.
        if cfg.rewire_prob > 0.0:
            for u in np.flatnonzero(present).tolist():
                if not adj[u] or rng.random() >= cfg.rewire_prob:
                    continue
                weakest, w_min = min(adj[u].items(), key=lambda kv: (kv[1], kv[0]))
                cand = pick_partner(u, capped=True)
                if cand is not None and weight_of(u, cand) > w_min:
                    unlink(u, weakest)
                    link(u, cand)

        # Growth: each viewer initiates at most growth_rate new links per
        # snapshot, staying within the degree cap, so the mesh densifies
        # over the whole event instead of saturating at arrival. A
        # completely unconnected viewer may ignore partners' caps so that
        # no present viewer stays isolated (when at least two are present).
        for u in np.flatnonzero(present).tolist():
            budget = cfg.growth_rate
            while budget > 0 and degree[u] < cap:
                cand = pick_partner(u, capped=True)
                if cand is None and not adj[u]:
                    cand = pick_partner(u, capped=False)
                if cand is None:
                    break
                link(u, cand)
                budget -= 1

        snapshots.append(tuple(map(links.__getitem__, sorted(links))))

    pattern = cfg.arrival.replace("_", "-")
    name = f"sim-{pattern}-o{cfg.offices}-v{v}-s{cfg.seed}"
    return RawEvent(name=name, snapshots=tuple(snapshots))


def describe_event(event: RawEvent) -> list[tuple[int, int, int]]:
    """Per-snapshot (index, node count, edge count) of a raw event."""
    if not isinstance(event, RawEvent):
        raise ConfigError(f"describe_event needs a RawEvent, got {type(event).__name__}")
    return [(k, event.node_count(k), len(edges)) for k, edges in enumerate(event.snapshots)]
