"""Tests for warm re-minimization: patch parity, equivalence, fallbacks."""

import pytest

from repro.boolfunc.function import BoolFunc
from repro.core.pseudocube import Pseudocube
from repro.delta import (
    DeltaIneligible,
    build_context,
    eligibility,
    reminimize,
    toggle_points,
    warm_minimize,
)
from repro.delta.reminimize import _patched_rows_and_masks
from repro.kernels.coverage import masks_and_costs
from repro.minimize.exact import minimize_spp
from repro.verify import verify_form

FUNC = BoolFunc(4, frozenset({0, 1, 3, 6, 9, 12, 14}), frozenset({5, 10}))


def _context(func=FUNC, covering="greedy"):
    result = minimize_spp(func, covering=covering)
    ctx = build_context(func, result, covering=covering)
    assert ctx is not None
    return ctx


class TestPatchParity:
    """The bit-surgered masks must equal a from-scratch mask pass."""

    @pytest.mark.parametrize(
        "toggles",
        [
            [0],  # one on-point retired
            [5],  # one dc point promoted (row appended)
            [0, 5],  # one of each
            [0, 1, 5, 10],  # several of each
            [],  # empty diff
        ],
    )
    def test_patched_masks_match_cold_pass(self, toggles):
        ctx = _context()
        edited = toggle_points(FUNC, toggles)
        rows, masks = _patched_rows_and_masks(ctx, edited, None)
        want_masks, _ = masks_and_costs(sorted(edited.on_set), ctx.candidates)
        assert rows == sorted(edited.on_set)
        assert masks == want_masks


class TestWarmEqualsCold:
    @pytest.mark.parametrize("covering", ["greedy", "exact"])
    @pytest.mark.parametrize("toggles", [[0], [5], [0, 5], [1, 3, 5]])
    def test_warm_form_is_bit_identical_to_cold(self, covering, toggles):
        ctx = _context(covering=covering)
        edited = toggle_points(FUNC, toggles)
        warm = warm_minimize(ctx, edited)
        cold = minimize_spp(edited, covering=covering)
        assert warm.form == cold.form
        assert warm.covering_optimal == cold.covering_optimal
        assert verify_form(warm.form, edited)

    def test_empty_diff_returns_base_form(self):
        ctx = _context()
        warm = warm_minimize(ctx, FUNC)
        assert warm.form == ctx.form

    def test_warm_result_charges_no_generation_time(self):
        ctx = _context()
        warm = warm_minimize(ctx, toggle_points(FUNC, [0]))
        assert warm.generation is None
        assert warm.seconds_generation == 0.0


class TestEligibility:
    def test_dimension_changed(self):
        ctx = _context()
        other = BoolFunc(3, frozenset({0, 1}))
        assert eligibility(ctx, other) == "dimension-changed"

    def test_care_set_changed(self):
        ctx = _context()
        edited = toggle_points(FUNC, [7])  # off→on grows the care set
        assert eligibility(ctx, edited) == "care-set-changed"

    def test_edit_at_threshold_is_warm(self):
        ctx = _context()
        edited = toggle_points(FUNC, [0, 5])  # symmetric diff of 2
        assert eligibility(ctx, edited, max_edit=2) is None

    def test_edit_past_threshold_goes_cold(self):
        ctx = _context()
        edited = toggle_points(FUNC, [0, 1, 5])  # symmetric diff of 3
        assert eligibility(ctx, edited, max_edit=2) == "edit-too-large"

    def test_context_stale(self):
        """There is no context-stale reason: growing the source
        generation after capture leaves the context warm-eligible, and
        the warm form still equals the cold one."""
        result = minimize_spp(FUNC)
        ctx = build_context(FUNC, result)
        result.generation.eppps.append(Pseudocube.from_point(4, 2))
        edited = toggle_points(FUNC, [0])
        assert eligibility(ctx, edited) is None
        assert warm_minimize(ctx, edited).form == minimize_spp(edited).form

    def test_warm_minimize_raises_on_ineligible(self):
        ctx = _context()
        with pytest.raises(DeltaIneligible) as exc:
            warm_minimize(ctx, toggle_points(FUNC, [7]))
        assert exc.value.reason == "care-set-changed"


class TestReminimize:
    def test_warm_path_reported(self):
        ctx = _context()
        out = reminimize(ctx, toggle_points(FUNC, [0, 5]))
        assert out.warm
        assert out.reason == "warm"
        assert out.edit_size == 2

    def test_cold_fallback_still_verifies(self):
        ctx = _context()
        edited = toggle_points(FUNC, [7])
        out = reminimize(ctx, edited)
        assert not out.warm
        assert out.reason == "care-set-changed"
        assert verify_form(out.result.form, edited)
        cold = minimize_spp(edited, covering=ctx.covering)
        assert out.result.form == cold.form

    def test_empty_onset_edit(self):
        """Toggling every on-point to dc leaves an empty on-set; the
        warm path must reproduce minimize_spp's trivial empty form."""
        ctx = _context(BoolFunc(3, frozenset({1, 2}), frozenset({4})))
        edited = toggle_points(ctx.func, [1, 2])
        assert not edited.on_set
        warm = warm_minimize(ctx, edited)
        cold = minimize_spp(edited)
        assert warm.form == cold.form
        assert warm.form.num_literals == 0
