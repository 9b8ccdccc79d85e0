import numpy as np

from csa_floor.decoder import peel
from csa_floor.distributions import ChannelModel, validate
from csa_floor.frame_model import FrameConfig, FrameGraph, UserRecord, sample_frame


def graph_from_slots(n, *slot_sets, degrees=None):
    users = []
    for i, slots in enumerate(slot_sets):
        deg = degrees[i] if degrees else len(slots)
        users.append(UserRecord(original_degree=deg, slots=frozenset(slots)))
    return FrameGraph(n=n, users=tuple(users))


def random_graphs(count, seed, max_m=12, max_n=16):
    """Mixed-degree random frames, erasures included."""
    rng = np.random.default_rng(seed)
    dists = [
        validate([0, 0, 1.0]),
        validate([0, 0.3, 0.4, 0.3]),
        validate([0.1, 0.2, 0.4, 0.2, 0.1]),
        validate([0, 0, 0.5, 0.3, 0, 0, 0, 0, 0.2]),
    ]
    for _ in range(count):
        dist = dists[int(rng.integers(len(dists)))]
        n = int(rng.integers(max(dist.max_support_degree(), 4), max_n))
        m = int(rng.integers(1, max_m))
        eps = float(rng.choice([0.0, 0.15, 0.4]))
        cfg = FrameConfig(m=m, n=n, dist=dist, channel=ChannelModel(eps))
        yield sample_frame(cfg, rng), rng


class TestPeelExamples:
    def test_single_user_resolved(self):
        out = peel(graph_from_slots(3, {0}))
        assert out.resolved == (True,)
        assert out.residual.users == ()

    def test_two_users_same_pair_unresolved(self):
        out = peel(graph_from_slots(5, {1, 2}, {1, 2}))
        assert out.resolved == (False, False)
        assert len(out.residual.users) == 2

    def test_chain_peels_completely(self):
        out = peel(graph_from_slots(5, {1, 2}, {2, 3}))
        assert out.resolved == (True, True)

    def test_degree0_never_resolved(self):
        out = peel(graph_from_slots(5, set(), {0}))
        assert out.resolved == (False, True)

    def test_empty_graph(self):
        out = peel(FrameGraph(n=4, users=()))
        assert out.resolved == ()


class TestPeelProperties:
    def test_order_independence(self):
        for graph, rng in random_graphs(400, seed=11):
            baseline = peel(graph).resolved
            for _ in range(4):
                assert peel(graph, rng=rng).resolved == baseline

    def test_residual_has_no_singleton_slot(self):
        for graph, _ in random_graphs(400, seed=12):
            residual = peel(graph).residual
            occupancy = {}
            for u in residual.users:
                for s in u.slots:
                    occupancy[s] = occupancy.get(s, 0) + 1
            assert all(c >= 2 for c in occupancy.values())

    def test_removing_unresolved_user_only_grows_resolved_set(self):
        checked = 0
        for graph, _ in random_graphs(500, seed=13):
            out = peel(graph)
            victims = [i for i, r in enumerate(out.resolved) if not r]
            if not victims:
                continue
            victim = victims[0]
            reduced = FrameGraph(
                n=graph.n,
                users=tuple(u for i, u in enumerate(graph.users) if i != victim),
            )
            reduced_out = peel(reduced)
            kept = [r for i, r in enumerate(out.resolved) if i != victim]
            for before, after in zip(kept, reduced_out.resolved):
                assert after or not before  # resolved set can only grow
            checked += 1
        assert checked > 50

    def test_lone_degree1_users_resolved(self):
        out = peel(graph_from_slots(6, {0}, {3}, {5}))
        assert out.resolved == (True, True, True)
