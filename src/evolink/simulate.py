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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import EventSequence, RawEvent

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
        if self.offices < 1:
            raise ConfigError(f"offices must be >= 1, got {self.offices}")
        if self.viewers < self.offices:
            raise ConfigError(f"need at least one viewer per office, got "
                              f"{self.viewers} viewers for {self.offices} offices")
        if self.snapshots < 2:
            raise ConfigError(f"snapshots must be >= 2, got {self.snapshots}")
        if self.arrival not in ARRIVALS:
            raise ConfigError(f"arrival must be one of {ARRIVALS}, got {self.arrival!r}")
        for name, (loc, spread) in (("intra_bw", self.intra_bw), ("inter_bw", self.inter_bw)):
            if loc <= 0 or spread < 0:
                raise ConfigError(f"{name} needs a positive mean and non-negative "
                                  f"spread, got {(loc, spread)}")
        if self.degree_cap < 1:
            raise ConfigError(f"degree_cap must be >= 1, got {self.degree_cap}")
        if self.growth_rate < 1:
            raise ConfigError(f"growth_rate must be >= 1, got {self.growth_rate}")
        if not 0.0 <= self.rewire_prob <= 1.0:
            raise ConfigError(f"rewire_prob must be in [0, 1], got {self.rewire_prob}")
        if not 0.0 <= self.departure_prob <= 1.0:
            raise ConfigError(f"departure_prob must be in [0, 1], got {self.departure_prob}")
        if not 0.0 <= self.same_office_bias <= 1.0:
            raise ConfigError(f"same_office_bias must be in [0, 1], got "
                              f"{self.same_office_bias}")


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


def simulate_event(cfg: SimConfig) -> RawEvent:
    """Generate one event; weights are raw (caller normalizes)."""
    rng = np.random.default_rng(cfg.seed)
    v = cfg.viewers

    # Balanced office assignment over a shuffled viewer order, so every
    # office is populated whenever viewers >= offices.
    office = np.empty(v, dtype=np.intp)
    office[rng.permutation(v)] = np.arange(v) % cfg.offices

    counts = arrival_counts(cfg)
    joins_at = np.empty(v, dtype=np.intp)
    order = rng.permutation(v)
    start = 0
    for k, c in enumerate(counts):
        joins_at[order[start:start + c]] = k
        start += c

    pair_weight: dict[tuple[int, int], float] = {}

    def weight_of(u: int, w: int) -> float:
        key = (u, w) if u < w else (w, u)
        if key not in pair_weight:
            loc, spread = cfg.intra_bw if office[u] == office[w] else cfg.inter_bw
            pair_weight[key] = max(float(rng.normal(loc, spread)), MIN_RAW_WEIGHT)
        return pair_weight[key]

    # State kept across the whole run, so that a pick never rescans the
    # viewers: who is present, each viewer's degree (always len(adj[u])),
    # and which viewers sit in each office.
    adj: dict[int, dict[int, float]] = {u: {} for u in range(v)}
    present = np.zeros(v, dtype=bool)
    degree = np.zeros(v, dtype=np.intp)
    in_office = [office == o for o in range(cfg.offices)]

    def link(u: int, w: int) -> None:
        wt = weight_of(u, w)
        adj[u][w] = wt
        adj[w][u] = wt
        degree[u] += 1
        degree[w] += 1

    def unlink(u: int, w: int) -> None:
        del adj[u][w]
        del adj[w][u]
        degree[u] -= 1
        degree[w] -= 1

    def pick_partner(u: int, capped: bool) -> int | None:
        """Choose a partner for u with the same-office preference: any
        present viewer other than u and its neighbours, and, if ``capped``,
        only one still under the degree cap. Candidates are taken in
        ascending id order."""
        eligible = present & (degree < cfg.degree_cap) if capped else present.copy()
        eligible[u] = False
        eligible[np.fromiter(adj[u], dtype=np.intp, count=len(adj[u]))] = False
        mine = eligible & in_office[office[u]]
        same = np.flatnonzero(mine)
        other = np.flatnonzero(eligible ^ mine)
        if same.size and (not other.size or rng.random() < cfg.same_office_bias):
            pool = same
        elif other.size:
            pool = other
        else:
            return None
        return int(pool[rng.integers(0, len(pool))])

    snapshots: list[tuple[tuple[int, int, float], ...]] = []
    for k in range(cfg.snapshots):
        present[joins_at == k] = True

        if cfg.departure_prob > 0.0 and k > 0:
            leaving = [u for u in np.flatnonzero(present).tolist()
                       if joins_at[u] < k and rng.random() < cfg.departure_prob]
            for u in leaving:
                for w in list(adj[u]):
                    unlink(u, w)
                present[u] = False

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
            while budget > 0 and degree[u] < cfg.degree_cap:
                cand = pick_partner(u, capped=True)
                if cand is None and not adj[u]:
                    cand = pick_partner(u, capped=False)
                if cand is None:
                    break
                link(u, cand)
                budget -= 1

        edges = sorted((u, w, adj[u][w]) for u in np.flatnonzero(present).tolist()
                       for w in adj[u] if u < w)
        snapshots.append(tuple(edges))

    pattern = cfg.arrival.replace("_", "-")
    name = f"sim-{pattern}-o{cfg.offices}-v{v}-s{cfg.seed}"
    return RawEvent(name=name, snapshots=tuple(snapshots))


def describe_event(event) -> list[tuple[int, int, int]]:
    """Per-snapshot (index, node count, edge count) for raw or normalized events."""
    rows: list[tuple[int, int, int]] = []
    if isinstance(event, RawEvent):
        for k, edges in enumerate(event.snapshots):
            rows.append((k, event.node_count(k), len(edges)))
    elif isinstance(event, EventSequence):
        for g in event.snapshots:
            rows.append((g.index, g.n, len(g.edges)))
    else:
        raise ConfigError(f"cannot describe a {type(event).__name__}")
    return rows
