"""Via-layer benchmark clips (paper Section 4.1, Table 1).

2 um x 2 um windows containing 70 nm x 70 nm vias; the training suite has
11 clips with 2-5 vias and the test suite the 13 clips V1..V13 with via
counts [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 6, 6] — matching Table 1's
"Via #" column (sum 58).  Placement is rejection-sampled with a deterministic
per-clip seed; SRAFs are inserted rule-based before OPC, as the paper does
with Calibre.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VIA_CLIP_NM, VIA_SIZE_NM
from repro.errors import DataError
from repro.geometry.layout import Clip
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.sraf import insert_srafs

VIA_TEST_COUNTS: tuple[int, ...] = (2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 6, 6)
"""Via count per test clip V1..V13 (Table 1)."""

VIA_TRAIN_COUNTS: tuple[int, ...] = (2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5)
"""Via counts for the 11 training clips (paper: 2 to 5 vias)."""

_MARGIN_NM = 350.0
"""Keep vias away from the window border (SRAF + optical-ambit room)."""

_MIN_CENTER_SPACING_NM = 250.0
"""Minimum via centre-to-centre distance."""

_ATTEMPTS_PER_PLACEMENT = 10_000
"""Draws one placement may take before it counts as stuck (an early via
can block the rest of a small placement square)."""

_MAX_PLACEMENTS = 20
"""Placements tried, each from empty, before the clip is declared
unplaceable."""


def generate_via_clip(
    name: str,
    n_vias: int,
    seed: int,
    clip_nm: float = VIA_CLIP_NM,
    via_nm: float = VIA_SIZE_NM,
    with_srafs: bool = True,
) -> Clip:
    """One deterministic via clip with rejection-sampled placement.

    A placement stuck for ``_ATTEMPTS_PER_PLACEMENT`` draws restarts from
    empty, drawing on from the same generator, so a clip whose first
    placement succeeds is unchanged by the restart rule.
    """
    if n_vias < 1:
        raise DataError(f"need at least one via, got {n_vias}")
    rng = np.random.default_rng(seed)
    low = _MARGIN_NM
    high = clip_nm - _MARGIN_NM
    if high - low < _MIN_CENTER_SPACING_NM:
        raise DataError(f"clip too small for margins: {clip_nm} nm")

    centers: list[tuple[float, float]] = []
    attempts = 0
    placements = 1
    while len(centers) < n_vias:
        attempts += 1
        if attempts > _ATTEMPTS_PER_PLACEMENT:
            if placements == _MAX_PLACEMENTS:
                raise DataError(
                    f"could not place {n_vias} vias in {clip_nm} nm clip "
                    f"(seed {seed})"
                )
            centers = []
            attempts = 1
            placements += 1
        # Snap to a 2 nm grid so geometry stays integer-friendly.
        cx = float(rng.integers(int(low / 2), int(high / 2) + 1) * 2)
        cy = float(rng.integers(int(low / 2), int(high / 2) + 1) * 2)
        if all(
            np.hypot(cx - ox, cy - oy) >= _MIN_CENTER_SPACING_NM
            for ox, oy in centers
        ):
            centers.append((cx, cy))

    targets = tuple(
        Polygon.from_rect(Rect.square(cx, cy, via_nm)) for cx, cy in centers
    )
    clip = Clip(
        name=name,
        bbox=Rect(0, 0, clip_nm, clip_nm),
        targets=targets,
        layer="via",
        metadata={"seed": seed, "n_vias": n_vias},
    )
    return insert_srafs(clip) if with_srafs else clip


def via_train_suite(base_seed: int = 1300, with_srafs: bool = True) -> list[Clip]:
    """The 11 training clips (via counts 2..5)."""
    return [
        generate_via_clip(f"T{i + 1}", count, seed=base_seed + i, with_srafs=with_srafs)
        for i, count in enumerate(VIA_TRAIN_COUNTS)
    ]


def via_test_suite(base_seed: int = 2600, with_srafs: bool = True) -> list[Clip]:
    """The 13 test clips V1..V13 with Table 1's via counts."""
    return [
        generate_via_clip(f"V{i + 1}", count, seed=base_seed + i, with_srafs=with_srafs)
        for i, count in enumerate(VIA_TEST_COUNTS)
    ]
