"""Hypothesis property: ``describe_image`` equals its slow reference.

``reference_describe.py`` holds the describer as it was when region sizes
came from ``ndimage.sum_labels`` and centroids from
``ndimage.center_of_mass``.  Grey and colour images of random sizes, noise
and blocky scenes (large regions, ties in size), describe to equal
fields.

CI runs this file again under ``--hypothesis-profile=deep``.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.media.describe import describe_image
from repro.media.images import collaboration_scene

from .reference_describe import describe_image as reference_describe_image

# explicit settings would shadow --hypothesis-profile=deep, so tier-1's
# budget steps aside when a larger profile is loaded
BUDGET = settings() if settings().max_examples > 100 else settings(max_examples=60, deadline=None)


@st.composite
def images(draw):
    h, w = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    shape = (h, w, 3) if draw(st.booleans()) else (h, w)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(0, 256, size=shape).astype(np.uint8)
    # blocks: a few flat rectangles, so regions are large and sizes tie
    img = np.full(shape, draw(st.integers(0, 255)), dtype=np.uint8)
    for _ in range(draw(st.integers(0, 6))):
        r, c = rng.integers(0, h), rng.integers(0, w)
        img[r : r + rng.integers(1, h + 1), c : c + rng.integers(1, w + 1)] = rng.integers(0, 256)
    return img


def fields(description):
    return dataclasses.astuple(description)


@BUDGET
@given(images(), st.integers(1, 6))
def test_describe_image_matches_reference(image, max_regions):
    assert fields(describe_image(image, max_regions)) == fields(reference_describe_image(image, max_regions))


def test_scenes_match_reference():
    for h, w in ((64, 64), (32, 48), (48, 32)):
        scene = collaboration_scene(h, w)
        assert fields(describe_image(scene)) == fields(reference_describe_image(scene))
