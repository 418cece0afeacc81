"""Minimization context snapshots.

A :class:`MinimizationContext` captures everything a completed exact
minimization learned that is reusable for a near-duplicate function:

* the EPPP candidate list **in generation order** (order matters —
  greedy covering is order-sensitive, and bit-identical warm results
  depend on replaying the exact same column stream);
* the base cover and the solver parameters that produced it, so the
  cold fallback can mirror them exactly.

Capture is lazy: the pre-drop coverage masks and costs over the base
row list (candidates that covered nothing for the base on-set keep
their positions — they may start covering rows after an edit) are
computed on the context's first warm use and cached on it, so a solve
that is never edited pays no mask pass.

Snapshots are only built from *untruncated* generations: a capped
generation's candidate stream is an artifact of where the cap landed,
not of the function, so nothing about it transfers to an edit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from repro.boolfunc.function import BoolFunc
from repro.core.pseudocube import Pseudocube
from repro.core.spp_form import SppForm
from repro.kernels.coverage import masks_and_costs
from repro.minimize.exact import SppResult

__all__ = ["MinimizationContext", "build_context", "toggle_points"]

# Contexts beyond this many candidates hold more memory, and pay a
# larger mask pass on their first warm use, than the warm path saves on
# typical service functions.
MAX_CONTEXT_CANDIDATES = 100_000


@dataclass
class MinimizationContext:
    """Reusable state of one completed exact SPP minimization."""

    func: BoolFunc
    candidates: list[Pseudocube]
    form: SppForm
    covering: str
    covering_optimal: bool
    backend: str
    max_pseudoproducts: int | None
    generation_comparisons: int

    @property
    def cost(self) -> int:
        return self.form.num_literals

    @property
    def care_set(self) -> frozenset[int]:
        return self.func.care_set

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @cached_property
    def rows(self) -> list[int]:
        """The base on-set in covering-row order."""
        return sorted(self.func.on_set)

    @cached_property
    def _mask_pass(self) -> tuple[list[int], list[int]]:
        # Two threads racing on the first build compute the same value.
        return masks_and_costs(self.rows, self.candidates)

    @property
    def masks(self) -> list[int]:
        """Per-candidate coverage masks over :attr:`rows`, before the
        zero-mask drop."""
        return self._mask_pass[0]

    @property
    def costs(self) -> list[int]:
        """Per-candidate literal costs, in candidate order."""
        return self._mask_pass[1]


def build_context(
    func: BoolFunc,
    result: SppResult,
    *,
    covering: str = "greedy",
    backend: str = "index",
    max_pseudoproducts: int | None = None,
    max_candidates: int = MAX_CONTEXT_CANDIDATES,
) -> MinimizationContext | None:
    """Snapshot a cold minimization, or None when nothing transfers.

    Returns None for generation-free results (empty on-set, affine
    fast path — a cold re-solve of those is already trivial), for
    truncated generations (the candidate stream is cap-shaped, not
    function-shaped), and for candidate lists past ``max_candidates``.
    """
    generation = result.generation
    if generation is None or generation.truncated:
        return None
    candidates = list(generation.eppps)
    if not candidates or len(candidates) > max_candidates:
        return None
    return MinimizationContext(
        func=func,
        candidates=candidates,
        form=result.form,
        covering=covering,
        covering_optimal=result.covering_optimal,
        backend=backend,
        max_pseudoproducts=max_pseudoproducts,
        generation_comparisons=generation.total_comparisons,
    )


def toggle_points(func: BoolFunc, toggles: Iterable[int]) -> BoolFunc:
    """Apply point toggles: on→dc, dc→on, off→on.

    This is the edit vocabulary of the ``"delta"`` request form.  An
    on↔dc toggle preserves the care set (the warm-path sweet spot); an
    off→on toggle grows it and will route to the cold path.
    """
    on = set(func.on_set)
    dc = set(func.dc_set)
    space = 1 << func.n
    for p in toggles:
        if not 0 <= p < space:
            raise ValueError(f"toggle point {p} outside B^{func.n}")
        if p in on:
            on.discard(p)
            dc.add(p)
        elif p in dc:
            dc.discard(p)
            on.add(p)
        else:
            on.add(p)
    return BoolFunc(func.n, frozenset(on), frozenset(dc))
