import json

import numpy as np
import pytest

import contraction_lab as cl
from contraction_lab.search import (
    SearchConfig,
    counterexample_search,
    random_metric,
    random_self_map,
    random_semimetric,
    random_ultrametric,
)


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

    def test_self_map_stays_in_range(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            size = int(rng.integers(3, 9))
            mapping = random_self_map(rng, size)
            assert len(mapping.images) == size
            assert all(0 <= i < size for i in mapping.images)


class TestSearchConfig:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            SearchConfig(cl.additive(), cl.ContractionKind("bianchini", beta=0.5), budget=0)


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
