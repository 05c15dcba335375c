"""Tests for the embedded zerotree coder."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.media import ezw
from repro.media.ezw import EzwEncoded, decode_image, encode_image, ezw_decode, ezw_encode
from repro.media.images import collaboration_scene
from repro.media.metrics import psnr
from repro.media.wavelet import haar_dwt2, haar_idwt2


def ramp(h, w):
    """A smooth diagonal ramp: the easiest content for the coder."""
    return (np.add.outer(np.arange(h), np.arange(w)) / (h + w - 2) * 255).astype(np.uint8)


class TestEmptyPrefix:
    """A budget of 0 packets: zeros, with neither the decoder nor the
    inverse transform run."""

    @pytest.mark.parametrize("cut", ["no bits", "bits but no bytes"])
    def test_empty_prefix_is_the_inverse_of_zeros_without_decoding(self, cut):
        enc = encode_image(collaboration_scene(32, 48), 4)
        if cut == "no bits":
            empty = enc.truncated(0)
        else:
            empty = EzwEncoded(enc.shape, enc.levels, enc.t0_exp, b"", enc.payload_bits)
        expected = haar_idwt2(np.zeros((32, 48)), 4)
        with mock.patch.object(ezw, "ezw_decode", side_effect=AssertionError("decoder entered")), \
                mock.patch.object(ezw, "haar_idwt2", side_effect=AssertionError("inverse DWT entered")):
            out = decode_image(empty)
        assert (out.dtype, out.shape) == (expected.dtype, expected.shape)
        assert out.tobytes() == expected.tobytes()


class TestLossless:
    def test_integer_image_near_lossless(self):
        img = collaboration_scene(32, 32).astype(float)
        enc = encode_image(img, 4)
        rec = decode_image(enc)
        assert np.abs(rec - img).max() < 1.0

    def test_zero_image(self):
        enc = encode_image(np.zeros((16, 16)), 3)
        assert enc.payload_bits == 0
        assert np.allclose(decode_image(enc), 0.0)

    def test_single_coefficient(self):
        c = np.zeros((8, 8))
        c[0, 0] = 100.0
        enc = ezw_encode(c, 2)
        rec = ezw_decode(enc)
        assert rec[0, 0] == pytest.approx(100.0, abs=1.0)
        assert np.allclose(rec.ravel()[1:], 0.0)

    def test_negative_coefficients(self):
        c = np.zeros((8, 8))
        c[0, 0] = -77.0
        c[4, 4] = 33.0
        rec = ezw_decode(ezw_encode(c, 2))
        assert rec[0, 0] == pytest.approx(-77.0, abs=1.0)
        assert rec[4, 4] == pytest.approx(33.0, abs=1.0)


class TestEmbedded:
    def test_any_prefix_decodes(self):
        img = collaboration_scene(32, 32)
        enc = encode_image(img, 4)
        for bits in (0, 1, 7, 100, 1000, enc.payload_bits):
            rec = decode_image(enc.truncated(bits))
            assert rec.shape == img.shape
            assert np.all(np.isfinite(rec))

    def test_quality_monotone_in_prefix_length(self):
        img = collaboration_scene(64, 64)
        enc = encode_image(img, 5)
        fracs = (0.05, 0.15, 0.4, 1.0)
        psnrs = [
            psnr(img, np.clip(decode_image(enc.truncated(int(f * enc.payload_bits))), 0, 255))
            for f in fracs
        ]
        assert all(b >= a - 0.5 for a, b in zip(psnrs, psnrs[1:]))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 5000), st.integers(0, 10000))
    def test_prefix_decode_never_crashes(self, seed, bits):
        rng = np.random.default_rng(seed)
        c = rng.normal(0, 50, (16, 16))
        enc = ezw_encode(c, 3)
        rec = ezw_decode(enc.truncated(min(bits, enc.payload_bits)))
        assert np.all(np.isfinite(rec))

    def test_truncated_bits_clamped(self):
        enc = encode_image(ramp(16, 16), 3)
        assert enc.truncated(10**9).payload_bits == enc.payload_bits
        assert enc.truncated(-5).payload_bits == 0


class TestRateControl:
    def test_max_bits_respected(self):
        img = collaboration_scene(64, 64)
        enc = encode_image(img, 5, max_bits=5000)
        # encoder may finish the current symbol, so allow small overshoot
        assert enc.payload_bits <= 5000 + 64

    def test_harder_content_costs_more(self):
        rng = np.random.default_rng(0)
        noise = rng.integers(0, 256, (64, 64)).astype(np.uint8)
        easy = encode_image(ramp(64, 64), 5)
        hard = encode_image(noise, 5)  # white noise is incompressible
        assert hard.payload_bits > easy.payload_bits

    def test_compression_beats_raw_on_natural_content(self):
        img = collaboration_scene(64, 64)
        enc = encode_image(img, 5, max_bits=None)
        # near-lossless should still undercut 16 bpp
        assert enc.payload_bits < 16 * img.size


class TestEncodedContainer:
    def test_roundtrip_through_fields(self):
        img = collaboration_scene(32, 32)
        enc = encode_image(img, 4)
        clone = EzwEncoded(enc.shape, enc.levels, enc.t0_exp, enc.payload, enc.payload_bits)
        assert np.allclose(decode_image(clone), decode_image(enc))

    def test_decoder_matches_encoder_coefficients(self):
        img = collaboration_scene(32, 32).astype(float)
        coeffs = haar_dwt2(img, 4)
        enc = ezw_encode(coeffs, 4)
        rec = ezw_decode(enc)
        assert np.abs(rec - coeffs).max() < 0.5  # within final quantizer
