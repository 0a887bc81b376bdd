"""Simulator tests: determinism, arrival contracts, structural invariants,
and golden digests that pin every generated event bit for bit."""
import hashlib

import numpy as np
import pytest

from evolink.errors import ConfigError
from evolink.graphs import RawEvent, normalize_weights
from evolink.simulate import (
    ARRIVALS,
    SimConfig,
    arrival_counts,
    describe_event,
    simulate_event,
)


def degrees(snapshot):
    d = {}
    for u, v, _ in snapshot:
        d[u] = d.get(u, 0) + 1
        d[v] = d.get(v, 0) + 1
    return d


def snapshot_nodes(snapshot):
    return {u for u, _, _ in snapshot} | {v for _, v, _ in snapshot}


# -- config ------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(offices=0),
    dict(viewers=3, offices=4),
    dict(snapshots=1),
    dict(arrival="trickle"),
    dict(intra_bw=(0.0, 1.0)),
    dict(inter_bw=(5.0, -1.0)),
    dict(degree_cap=0),
    dict(growth_rate=0),
    dict(rewire_prob=1.5),
    dict(departure_prob=-0.1),
    dict(same_office_bias=2.0),
])
def test_config_rejects(bad):
    with pytest.raises(ConfigError):
        SimConfig(**bad)


# -- arrivals ----------------------------------------------------------------

@pytest.mark.parametrize("arrival", ARRIVALS)
@pytest.mark.parametrize("viewers,snapshots", [(10, 2), (37, 5), (80, 8), (201, 12)])
def test_arrival_counts_cover_every_viewer(arrival, viewers, snapshots):
    cfg = SimConfig(offices=2, viewers=viewers, snapshots=snapshots, arrival=arrival)
    counts = arrival_counts(cfg)
    assert len(counts) == snapshots
    assert sum(counts) == viewers
    assert all(c >= 0 for c in counts)


def test_front_loaded_majority_joins_first():
    for viewers in (10, 33, 80, 99):
        cfg = SimConfig(offices=2, viewers=viewers, snapshots=6,
                        arrival="front_loaded")
        counts = arrival_counts(cfg)
        assert counts[0] * 5 >= viewers * 3  # >= 60%


def test_burst_concentrates_in_early_middle():
    for viewers in (20, 80, 123):
        cfg = SimConfig(offices=2, viewers=viewers, snapshots=8, arrival="burst")
        counts = arrival_counts(cfg)
        assert (counts[1] + counts[2]) * 5 >= viewers * 2  # >= 40%
        assert counts[0] < counts[1] + counts[2]


def test_gradual_is_even():
    cfg = SimConfig(offices=2, viewers=80, snapshots=8, arrival="gradual")
    counts = arrival_counts(cfg)
    assert max(counts) - min(counts) <= 1


# -- structure ---------------------------------------------------------------

def test_simulation_is_deterministic():
    cfg = SimConfig(viewers=40, snapshots=5, seed=9)
    assert simulate_event(cfg) == simulate_event(cfg)
    other = simulate_event(SimConfig(viewers=40, snapshots=5, seed=10))
    assert simulate_event(cfg) != other


def test_degree_cap_never_exceeded():
    cfg = SimConfig(viewers=30, snapshots=6, degree_cap=4, growth_rate=3, seed=1)
    event = simulate_event(cfg)
    for snap in event.snapshots:
        assert max(degrees(snap).values()) <= 4


def test_growth_budget_bounds_new_links():
    """Each present viewer initiates at most growth_rate links plus one
    rewire swap per snapshot. Swaps replace a pair, so the edge count can
    only grow through the growth budget."""
    cfg = SimConfig(viewers=40, snapshots=7, growth_rate=2, seed=3)
    event = simulate_event(cfg)
    prev: set[tuple[int, int]] = set()
    for snap in event.snapshots:
        pairs = {(u, v) for u, v, _ in snap}
        present = len(snapshot_nodes(snap))
        assert len(pairs) - len(prev) <= cfg.growth_rate * present
        assert len(pairs - prev) <= (cfg.growth_rate + 1) * present
        prev = pairs


def test_mesh_densifies_over_time():
    cfg = SimConfig(viewers=60, snapshots=8, seed=0)
    event = simulate_event(cfg)
    edge_counts = [len(s) for s in event.snapshots]
    assert edge_counts[-1] > edge_counts[0]


def test_no_isolated_present_viewer():
    cfg = SimConfig(viewers=50, snapshots=6, arrival="gradual", seed=4)
    event = simulate_event(cfg)
    seen: set[int] = set()
    for snap in event.snapshots:
        seen |= snapshot_nodes(snap)
        # every viewer that has ever joined still carries at least one link
        assert snapshot_nodes(snap) == seen


def test_presence_is_monotone_without_departures():
    cfg = SimConfig(viewers=45, snapshots=6, arrival="burst", seed=2)
    event = simulate_event(cfg)
    prev: set[int] = set()
    for snap in event.snapshots:
        nodes = snapshot_nodes(snap)
        assert prev <= nodes
        prev = nodes
    assert len(prev) == 45


def test_departures_remove_links():
    cfg = SimConfig(viewers=40, snapshots=8, departure_prob=0.3, seed=5)
    event = simulate_event(cfg)
    sizes = [len(snapshot_nodes(s)) for s in event.snapshots]
    assert min(sizes[1:]) < 40  # somebody actually left


def test_same_office_assortativity():
    """With bias 0.8 and fatter intra bandwidth, most links stay inside
    an office."""
    cfg = SimConfig(offices=4, viewers=80, snapshots=8, seed=0)
    event = simulate_event(cfg)
    # reconstruct office assignment the way the simulator draws it
    rng = np.random.default_rng(cfg.seed)
    office = np.empty(80, dtype=np.intp)
    office[rng.permutation(80)] = np.arange(80) % 4
    last = event.snapshots[-1]
    intra = sum(1 for u, v, _ in last if office[u] == office[v])
    assert intra > len(last) / 2


def test_intra_weights_dominate_inter():
    cfg = SimConfig(offices=2, viewers=30, snapshots=5, seed=7)
    event = simulate_event(cfg)
    rng = np.random.default_rng(cfg.seed)
    office = np.empty(30, dtype=np.intp)
    office[rng.permutation(30)] = np.arange(30) % 2
    intra, inter = [], []
    for u, v, w in event.snapshots[-1]:
        (intra if office[u] == office[v] else inter).append(w)
    assert intra and inter
    assert np.mean(intra) > np.mean(inter)


def test_weights_positive_and_stable_per_pair():
    cfg = SimConfig(viewers=35, snapshots=6, seed=8)
    event = simulate_event(cfg)
    seen: dict[tuple[int, int], float] = {}
    for snap in event.snapshots:
        for u, v, w in snap:
            assert w > 0
            assert seen.setdefault((u, v), w) == w


def test_simulated_event_normalizes_cleanly():
    cfg = SimConfig(viewers=40, snapshots=6, seed=11)
    event = normalize_weights(simulate_event(cfg))
    assert event.n_global == 40
    assert len(event.snapshots) == 6
    rows = describe_event(event)
    assert [r[0] for r in rows] == list(range(6))
    assert rows[-1][1] == 40


def test_event_name_encodes_shape():
    cfg = SimConfig(offices=3, viewers=21, snapshots=4, arrival="burst", seed=6)
    event = simulate_event(cfg)
    assert event.name == "sim-burst-o3-v21-s6"


def test_describe_event_raw_and_rejects_junk():
    raw = simulate_event(SimConfig(viewers=12, snapshots=3, offices=2))
    rows = describe_event(raw)
    assert len(rows) == 3
    with pytest.raises(ConfigError):
        describe_event([("not", "an", "event")])


# -- golden output -----------------------------------------------------------
#
# sha256 of repr(simulate_event(cfg)). The digests were taken from the
# rescanning simulator that sorted the present viewers on every pick; any
# change to the draws, their order or the candidate order changes them.

def event_digest(cfg: SimConfig) -> str:
    return hashlib.sha256(repr(simulate_event(cfg)).encode()).hexdigest()


GOLDEN = {
    "desk": (SimConfig(offices=4, viewers=80, snapshots=8, arrival="front_loaded", seed=3),
             "78369e1986851650763d20bc5975fe41a647e186219bd529b830d8cd0e9aaa9c"),
    "cli-pipeline": (SimConfig(offices=4, viewers=320, snapshots=8, seed=0),
                     "5deb3ad9e8d08b2028289f41b86aff06f7b87421d1134501d757e9d25370042c"),
    "viewers-1000": (SimConfig(offices=4, viewers=1000, snapshots=8, seed=0),
                     "9d8ab900f4815c90d00756b54372abf9e33979a4c5a8052ffefc1c19f13b955f"),
    "departures": (SimConfig(viewers=60, snapshots=8, departure_prob=0.3, seed=5),
                   "6d138ea05112fe0f355621e2c1234cf7731a418e8b060c3ff8fde0b00d4bf452"),
    "no-rewire": (SimConfig(viewers=50, snapshots=6, arrival="burst", rewire_prob=0.0,
                            seed=7),
                  "e8cf913b544689b2154fbd9cf82229b4b66b5120d04490d2a1b688078dc1b77c"),
    "always-rewire": (SimConfig(viewers=50, snapshots=6, arrival="gradual", rewire_prob=1.0,
                                departure_prob=0.1, seed=8),
                      "c00052dc063e94d4fc1aaf22004f53a990e2ad5e68c07ac834f7dbc8378adc1a"),
    "no-office-bias": (SimConfig(offices=3, viewers=45, same_office_bias=0.0, seed=9),
                       "e9044561dd4267de4d378862fbd7af0ec56c4117dfb324e0f59e5537b3d71b69"),
    "full-office-bias": (SimConfig(offices=3, viewers=45, same_office_bias=1.0, seed=10),
                         "a0a9e9dda956e0eae884df9b6883f16aa3ae1a7e5e7ccbd930f42c701b57fefa"),
    "degree-cap-1": (SimConfig(viewers=30, degree_cap=1, growth_rate=3, seed=11),
                     "9f5b06881c6f52233d8d6c623b409d50267f36fcb6fa4bae5318578301ff4fa7"),
    "one-office": (SimConfig(offices=1, viewers=40, departure_prob=0.2, seed=12),
                   "8638055b12dd3ea97b67dcd75ef9f3761b89063e444b8556b7ad7c0f45e58c0a"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_event(name):
    cfg, digest = GOLDEN[name]
    assert event_digest(cfg) == digest


def test_golden_protocol_hygiene_events():
    """The 50 events of acceptance criterion 8, hashed together."""
    arrivals = ("front_loaded", "burst", "gradual")
    digests = "".join(
        event_digest(SimConfig(offices=2 + i % 3, viewers=24 + (i % 4) * 8, snapshots=5,
                               arrival=arrivals[i % 3], rewire_prob=0.1 * (i % 2), seed=i))
        for i in range(50))
    assert hashlib.sha256(digests.encode()).hexdigest() == \
        "57130ba38b036f716a94c0b745c08c594621b603ff8db8108baf582c1c10b314"


def test_large_event_with_departures_and_rewiring():
    """2000 viewers in six offices, with departures and rewiring: the degree
    bookkeeping holds at scale. Present viewers always carry a link, so a
    viewer that drops out of a snapshot has left and never comes back."""
    cfg = SimConfig(offices=6, viewers=2000, snapshots=8, arrival="burst",
                    rewire_prob=0.3, departure_prob=0.05, seed=21)
    event = simulate_event(cfg)
    assert hashlib.sha256(repr(event).encode()).hexdigest() == \
        "ec9ebc59e711c269474989a91c27a891b8a4dac9b6c9d00972a3836e0d603c98"
    seen: set[int] = set()
    gone: set[int] = set()
    prev: set[int] = set()
    for snap in event.snapshots:
        pairs = [(u, v) for u, v, _ in snap]
        assert all(u < v for u, v in pairs)  # no self-loop, one orientation
        assert len(set(pairs)) == len(pairs)
        assert max(degrees(snap).values()) <= cfg.degree_cap
        nodes = snapshot_nodes(snap)
        assert not nodes & gone
        gone |= prev - nodes
        seen |= nodes
        prev = nodes
    assert gone  # somebody left
    assert seen == set(range(cfg.viewers))
