"""Tests for minimization-context snapshots and the toggle vocabulary."""

import pytest

from repro.boolfunc.function import BoolFunc
from repro.core.pseudocube import Pseudocube
from repro.delta import DeltaIndex, build_context, toggle_points, warm_record_for
from repro.delta import context as context_module
from repro.engine import Job
from repro.engine.ladder import ladder_for
from repro.kernels.coverage import masks_and_costs
from repro.minimize.exact import minimize_spp
from repro.trie.partition_trie import PartitionTrie

FUNC = BoolFunc(3, frozenset({0, 1, 3, 6}), frozenset({5}))


def _context(func=FUNC, **kwargs):
    result = minimize_spp(func)
    return build_context(func, result, **kwargs)


class TestBuildContext:
    def test_snapshot_matches_direct_mask_pass(self):
        ctx = _context()
        assert ctx is not None
        assert ctx.rows == sorted(FUNC.on_set)
        masks, costs = masks_and_costs(ctx.rows, ctx.candidates)
        assert ctx.masks == masks
        assert ctx.costs == costs

    def test_snapshot_records_solver_parameters(self):
        result = minimize_spp(FUNC, covering="exact")
        ctx = build_context(
            FUNC, result, covering="exact", max_pseudoproducts=50_000
        )
        assert ctx.covering == "exact"
        assert ctx.max_pseudoproducts == 50_000
        assert ctx.form == result.form
        assert ctx.cost == result.num_literals
        assert ctx.covering_optimal == result.covering_optimal

    def test_affine_fast_path_has_no_context(self):
        """{0,3,5,6} is an affine subspace: minimize_spp returns the
        single-pseudocube fast path with no generation, so there is no
        candidate stream to snapshot."""
        func = BoolFunc(3, frozenset({0, 3, 5, 6}))
        result = minimize_spp(func)
        assert result.generation is None
        assert build_context(func, result) is None

    def test_oversized_generation_refused(self):
        result = minimize_spp(FUNC)
        assert build_context(FUNC, result, max_candidates=1) is None

    def test_truncated_generation_refused(self):
        result = minimize_spp(FUNC, max_pseudoproducts=3, on_limit="stop")
        assert result.generation.truncated
        assert build_context(FUNC, result) is None

    def test_staleness_detected_on_trie_mutation(self):
        """A context has no trie and cannot go stale: it owns a copy of
        the candidate stream, so growing the source generation after
        capture leaves its candidates and masks as captured."""
        result = minimize_spp(FUNC)
        ctx = build_context(FUNC, result)
        captured = list(result.generation.eppps)
        extra = Pseudocube.from_point(3, 2)
        result.generation.eppps.append(extra)
        assert not hasattr(ctx, "trie") and not hasattr(ctx, "is_stale")
        assert ctx.candidates == captured
        masks, costs = masks_and_costs(ctx.rows, captured)
        assert ctx.masks == masks
        assert ctx.costs == costs

    def test_capture_is_lazy(self, monkeypatch):
        """Capture keeps the candidate stream and builds no trie; the
        mask pass runs once, on the context's first warm use."""
        calls = []

        def counting(rows, candidates):
            calls.append(len(candidates))
            return masks_and_costs(rows, candidates)

        monkeypatch.setattr(context_module, "masks_and_costs", counting)
        tries = []
        real_init = PartitionTrie.__init__

        def counting_init(self):
            tries.append(self)
            real_init(self)

        monkeypatch.setattr(PartitionTrie, "__init__", counting_init)
        index = DeltaIndex()
        job = Job(FUNC, method="exact")
        index.observe(job, ladder_for(job)[0], minimize_spp(FUNC), {"truncated": False})
        assert len(index) == 1
        assert calls == [] and tries == []
        edited = Job(toggle_points(FUNC, [0]), method="exact")
        first = warm_record_for(edited, index)
        assert first is not None
        assert len(calls) == 1
        second = warm_record_for(edited, index)
        assert second is not None and second["form"] == first["form"]
        assert len(calls) == 1
        assert tries == []


class TestTogglePoints:
    def test_on_point_moves_to_dc(self):
        out = toggle_points(FUNC, [0])
        assert 0 not in out.on_set
        assert 0 in out.dc_set

    def test_dc_point_moves_to_on(self):
        out = toggle_points(FUNC, [5])
        assert 5 in out.on_set
        assert 5 not in out.dc_set

    def test_off_point_joins_on_set(self):
        out = toggle_points(FUNC, [7])
        assert 7 in out.on_set
        assert out.care_set != FUNC.care_set

    def test_care_preserving_round_trip(self):
        assert toggle_points(toggle_points(FUNC, [0, 5]), [0, 5]) == FUNC

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            toggle_points(FUNC, [8])
        with pytest.raises(ValueError):
            toggle_points(FUNC, [-1])
