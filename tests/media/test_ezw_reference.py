"""The shipped (level-vectorised) EZW coder against the reference coder.

``reference_ezw.py`` walks one coefficient and one bit at a time; the
shipped coder must produce the same streams and the same reconstructions,
bit for bit — from encoder streams at any truncation and from payloads no
encoder would write.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.media import ezw
from repro.media.ezw import EzwEncoded
from repro.media.images import collaboration_scene
from repro.media.wavelet import haar_dwt2

from . import reference_ezw as reference

SIDES = (8, 16, 32, 64, 128)


@st.composite
def coefficient_arrays(draw):
    """Haar coefficients of a random uint8 or float image, with their depth."""
    h, w = draw(st.sampled_from(SIDES)), draw(st.sampled_from(SIDES))
    levels = draw(st.integers(1, min(5, int(np.log2(min(h, w))))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("uint8", "smooth", "float", "sparse")))
    if kind == "uint8":
        image = rng.integers(0, 256, (h, w)).astype(np.uint8)
    elif kind == "smooth":  # natural-ish content: deep zerotrees
        image = collaboration_scene(max(h, 32), max(w, 32), seed=int(rng.integers(2**31)))[:h, :w]
    elif kind == "float":
        image = rng.normal(0.0, 10.0 ** rng.integers(-2, 4), (h, w))
    else:
        image = rng.normal(0.0, 40.0, (h, w)) * (rng.random((h, w)) < 0.05)
    return haar_dwt2(np.asarray(image, dtype=float), levels), levels


def budgets(draw, coeffs, levels):
    full = reference.ezw_encode(coeffs, levels)
    choice = draw(st.sampled_from((None, 1, 2, 3, "random")))
    if choice == "random":
        choice = draw(st.integers(0, full.payload_bits + 8))
    return full, choice


def assert_same_decode(encoded: EzwEncoded) -> None:
    np.testing.assert_array_equal(ezw.ezw_decode(encoded), reference.ezw_decode(encoded))


class TestEncoderMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_streams_equal_field_by_field(self, data):
        coeffs, levels = data.draw(coefficient_arrays())
        full, max_bits = budgets(data.draw, coeffs, levels)
        want = full if max_bits is None else reference.ezw_encode(coeffs, levels, max_bits=max_bits)
        got = ezw.ezw_encode(coeffs, levels, max_bits=max_bits)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        if max_bits is not None and want.payload_bits:
            # the symbol that crosses the budget is written whole
            assert got.payload_bits <= max(max_bits, 0) + 2


class TestDecoderMatchesReference:
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_every_truncation_of_an_encoder_stream(self, data):
        coeffs, levels = data.draw(coefficient_arrays())
        encoded = ezw.ezw_encode(coeffs, levels, max_bits=data.draw(st.sampled_from((None, 200, 2000))))
        total = encoded.payload_bits
        if total <= 256:
            cuts = range(total + 1)
        else:  # long stream: both ends densely, the middle sampled
            cuts = sorted(
                {*range(24), *range(total - 12, total + 1)}
                | set(data.draw(st.lists(st.integers(0, total), min_size=12, max_size=12)))
            )
        for bits in cuts:
            assert_same_decode(encoded.truncated(bits))

    @settings(max_examples=150, deadline=None)
    @given(
        shape_levels=st.sampled_from([((8, 8), 1), ((8, 8), 3), ((16, 16), 2), ((16, 32), 4), ((32, 32), 5)]),
        payload=st.one_of(
            st.binary(max_size=96),
            st.lists(st.sampled_from([0x00, 0xFF, 0xDB, 0x6D, 0xB6, 0x92]), max_size=96).map(bytes),
        ),
        t0_exp=st.integers(-4, 40),
        slack=st.integers(-9, 40),
    )
    def test_arbitrary_payloads_never_raise(self, shape_levels, payload, t0_exp, slack):
        shape, levels = shape_levels
        # payload_bits from below zero to past the end of the payload
        assert_same_decode(EzwEncoded(shape, levels, t0_exp, payload, 8 * len(payload) + slack))


class TestNamedCases:
    def both(self, coeffs, levels, max_bits=None, every_cut=True):
        got = ezw.ezw_encode(coeffs, levels, max_bits=max_bits)
        assert got == reference.ezw_encode(coeffs, levels, max_bits=max_bits)
        for bits in range(got.payload_bits + 1) if every_cut else (got.payload_bits,):
            assert_same_decode(got.truncated(bits))
        return got

    def test_all_zero_image(self):
        assert self.both(np.zeros((16, 16)), 3) == EzwEncoded((16, 16), 3, 0, b"", 0)

    def test_single_coefficient(self):
        c = np.zeros((16, 16))
        c[9, 13] = 37.0  # finest HH: every ancestor is an isolated zero
        self.both(c, 3)

    def test_negative_only_coefficients(self):
        rng = np.random.default_rng(5)
        self.both(-np.abs(rng.normal(0, 30, (8, 8))), 2)

    def test_below_the_deepest_threshold(self):
        # max |c| < 0.5: a header and no pass at all
        got = self.both(np.full((8, 8), 0.2), 2)
        assert (got.payload_bits, got.t0_exp) == (0, -3)

    def test_budget_hit_mid_dominant_and_mid_subordinate_pass(self):
        coeffs = haar_dwt2(collaboration_scene(32, 32, seed=3).astype(float), 4)
        # consecutive budgets across the first passes cut both kinds of pass
        sizes = {b: self.both(coeffs, 4, max_bits=b, every_cut=False).payload_bits for b in range(160)}
        assert sizes[0] == 0 and all(b <= bits <= b + 2 for b, bits in sizes.items())
        assert any(bits > b for b, bits in sizes.items()), "no cut fell inside a dominant-pass symbol"
        assert any(bits == b for b, bits in sizes.items())
        self.both(coeffs, 4, max_bits=90)

    def test_geometry_that_supports_no_pyramid_is_refused(self):
        for shape, levels in (((8, 8), 0), ((8, 8), -1), ((12, 8), 3), ((63, 63), 1)):
            with pytest.raises(ValueError):
                ezw.ezw_encode(np.ones(shape), levels)
            with pytest.raises(ValueError):
                ezw.ezw_decode(EzwEncoded(shape, levels, 3, b"\xff", 8))


class TestFiguresUnchanged:
    """FIG6/FIG7 rows are the same numbers whichever coder runs underneath."""

    @pytest.mark.parametrize("figure", ["fig6", "fig7"])
    def test_rows_equal_under_the_reference_coder(self, figure, monkeypatch):
        from repro import experiments

        run = {
            "fig6": lambda: experiments.run_fig6(fault_levels=[30, 60, 80, 100], image_size=32),
            "fig7": lambda: experiments.run_fig7(cpu_levels=[30, 70, 90], image_size=32),
        }[figure]
        shipped = run().rows
        # encode_image/decode_image look these two up in the module at call time
        monkeypatch.setattr(ezw, "ezw_encode", reference.ezw_encode)
        monkeypatch.setattr(ezw, "ezw_decode", reference.ezw_decode)
        assert run().rows == shipped
        assert len(shipped) >= 3 and shipped[0]["packets"] == 16
