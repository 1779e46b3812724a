import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contraction_lab as cl
from contraction_lab.contraction import TAG_CONSTANTS
from contraction_lab.search import (
    BATCH_CAP,
    SearchConfig,
    counterexample_search,
)
from helpers import (random_metric, random_self_map, random_semimetric, random_ultrametric,
                     reference_search)

SEARCH_PHIS = st.sampled_from([
    cl.additive(), cl.maximum(), cl.bscaled(1.5), cl.bscaled(2.0),
    *(cl.power(q) for q in (0.5, 0.7, 1.5, 3.0)),
    cl.custom("(u^1.3+v^1.3)^(1/1.3)"), cl.custom("1/(u*v)"),
])
# constants on both sides of each principle's gate
SEARCH_KINDS = st.sampled_from(sorted(TAG_CONSTANTS.items())).flatmap(
    lambda item: st.fixed_dictionaries(
        {name: st.sampled_from([0.0, 0.2, 0.3, 0.45, 0.6, 0.9, 1.1]) for name in item[1]}
    ).map(lambda constants: cl.ContractionKind(item[0], **constants)))


class TestGenerators:
    def test_semimetric_axioms(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            space = random_semimetric(rng, int(rng.integers(3, 9)))
            d = space.dist
            assert np.allclose(d, d.T)
            assert np.all(np.diag(d) == 0.0)
            off = d[~np.eye(space.size, dtype=bool)]
            assert np.all(off > 0.0)
            assert d.max() == pytest.approx(1.0)

    def test_metric_satisfies_triangle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            space = random_metric(rng, int(rng.integers(3, 9)))
            assert cl.triangle_report(space, cl.additive()).count == 0

    def test_ultrametric_satisfies_strong_triangle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            space = random_ultrametric(rng, int(rng.integers(3, 9)))
            assert cl.triangle_report(space, cl.maximum()).count == 0

    def test_draws_are_unchanged(self):
        rng = np.random.default_rng(3)
        space = random_semimetric(rng, 3)
        assert space.labels == ("p0", "p1", "p2")
        assert space.dist.tolist() == [[0.0, 1.0, 0.2603881952138356],
                                       [1.0, 0.0, 0.7427684273210006],
                                       [0.2603881952138356, 0.7427684273210006, 0.0]]
        assert [random_self_map(rng, size).images for size in (3, 4, 5)] == [
            (0, 0, 0), (1, 1, 1, 3), (1, 1, 3, 3, 3)]
        # forty more draws, every map style among them
        rng = np.random.default_rng(11)
        draws = []
        for _ in range(40):
            size = int(rng.integers(3, 9))
            draws.append([random_semimetric(rng, size).to_json(),
                          random_self_map(rng, size).to_json()])
        digest = hashlib.sha256(json.dumps(draws).encode()).hexdigest()
        assert digest == "364889cd10c18ca0357a95e244abfe3ac1d4f81ef052b0f1aff85c36b555a11a"

    def test_one_point_spaces_are_valid(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for make in (random_semimetric, random_metric):
                space = make(np.random.default_rng(0), 1)
                assert space.labels == ("p0",) and space.dist.tolist() == [[0.0]], make

    def test_self_map_stays_in_range(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            size = int(rng.integers(3, 9))
            mapping = random_self_map(rng, size)
            assert len(mapping.images) == size
            assert all(0 <= i < size for i in mapping.images)


class TestSearchConfig:
    KIND = cl.ContractionKind("bianchini", beta=0.5)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            SearchConfig(cl.additive(), self.KIND, budget=0)

    @pytest.mark.parametrize("fields, message", [
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
        ({"seed": True}, "seed must be a non-negative integer, got True"),
        ({"budget": 2.5}, "budget must be an integer >= 1, got 2.5"),
        ({"budget": True}, "budget must be an integer >= 1, got True"),
        ({"budget": np.int64(0)}, f"budget must be an integer >= 1, got {np.int64(0)!r}"),
        ({"budget": -10**5000}, "budget must be an integer >= 1, got <int of 5001 digits>"),
    ])
    def test_budget_and_seed_name_their_field(self, fields, message):
        with pytest.raises(ValueError) as caught:
            SearchConfig(cl.additive(), self.KIND, **{"budget": 3, **fields})
        assert str(caught.value) == message

    def test_numpy_integers_are_kept_as_int(self):
        config = SearchConfig(cl.additive(), self.KIND, budget=np.int32(3), seed=np.int64(7))
        assert type(config.budget) is int and type(config.seed) is int
        reply = counterexample_search(config).to_json()
        assert (type(reply["budget"]), type(reply["seed"])) == (int, int)
        assert json.loads(json.dumps(reply)) == reply


class TestCounterexampleSearch:
    def blocked_config(self, budget=150, seed=5):
        # the partial principle needs a finite chain constant; bscaled K=2
        # at rate 0.6 has none, so every satisfying instance is a finding
        return SearchConfig(
            cl.bscaled(2.0),
            cl.ContractionKind("partial", alpha=0.3, beta=0.3),
            budget=budget,
            seed=seed,
        )

    def test_blocked_principle_yields_findings(self):
        result = counterexample_search(self.blocked_config())
        assert result.examined == 150
        assert result.satisfied >= len(result.findings) > 0
        for finding in result.findings:
            assert finding.failed_hypotheses == ("chain_bound_finite",)
            assert finding.bound == "unavailable"
            assert finding.picard
            for outcome in finding.picard:
                assert set(outcome) == {"start", "stop_reason", "limit", "steps"}

    def test_finding_indices_strictly_increase(self):
        result = counterexample_search(self.blocked_config())
        indices = [f.index for f in result.findings]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)

    def test_applicable_principle_yields_no_findings(self):
        config = SearchConfig(
            cl.additive(),
            cl.ContractionKind("partial", alpha=0.3, beta=0.3),
            budget=100,
            seed=3,
        )
        result = counterexample_search(config)
        assert result.findings == ()
        assert result.satisfied > 0

    def test_cb_on_max_yields_no_findings(self):
        config = SearchConfig(
            cl.maximum(),
            cl.ContractionKind("chatterjea_bianchini", beta=0.6),
            budget=100,
            seed=9,
        )
        result = counterexample_search(config)
        assert result.findings == ()
        assert result.satisfied > 0

    def test_search_is_deterministic(self):
        a = counterexample_search(self.blocked_config()).to_json()
        b = counterexample_search(self.blocked_config()).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_result_json_is_serializable(self):
        result = counterexample_search(self.blocked_config(budget=60))
        payload = result.to_json()
        text = json.dumps(payload, sort_keys=True)
        assert json.loads(text) == payload
        assert set(payload) == {
            "phi",
            "kind",
            "budget",
            "seed",
            "examined",
            "satisfied",
            "findings",
        }

    def test_seed_changes_the_stream(self):
        base = counterexample_search(self.blocked_config(seed=5))
        other = counterexample_search(self.blocked_config(seed=6))
        assert base.to_json() != other.to_json()

    @settings(max_examples=60, deadline=None, database=None)
    @given(phi=SEARCH_PHIS, kind=SEARCH_KINDS, budget=st.integers(1, 2 * BATCH_CAP + 8),
           seed=st.integers(0, 2**63))
    def test_batched_search_matches_the_instance_loop(self, phi, kind, budget, seed):
        config = SearchConfig(phi, kind, budget, seed)
        batched, reference = counterexample_search(config), reference_search(config)
        assert json.dumps(batched.to_json()) == json.dumps(reference.to_json())

    def test_memory_does_not_grow_with_the_budget(self):
        # an applicable configuration: every instance is drawn and checked,
        # none becomes a finding
        def peak(budget):
            config = SearchConfig(cl.additive(), cl.ContractionKind("partial", alpha=0.3, beta=0.3),
                                  budget, seed=3)
            tracemalloc.start()
            try:
                assert counterexample_search(config).findings == ()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # fill the applicability caches
        assert peak(8 * BATCH_CAP) <= 1.5 * peak(BATCH_CAP)
