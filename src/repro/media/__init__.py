"""Media substrate: progressive image coding and the information-transformer
modules (sketch extraction, verbal description, synthetic speech).

The transformer modules are plain functions; each is called where its
conversion takes effect (the client, the base station, the image viewer)."""

from .wavelet import WaveletError, haar_dwt2, haar_idwt2, max_levels
from .ezw import EzwEncoded, decode_image, encode_image, ezw_decode, ezw_encode
from .images import ImageError, collaboration_scene, to_rgb
from .metrics import bpp, compression_ratio, mse, psnr, raw_bits
from .progressive import PACKET_COUNTS, ImagePacket, ProgressiveImage, ReceivedImage, ReceptionReport
from .sketch import Sketch, SketchError, decode_sketch, extract_sketch, sobel_magnitude
from .describe import ImageDescription, describe_image
from .speech import SpeechClip, SpeechError, speech_to_text, text_to_speech

__all__ = [
    "WaveletError",
    "haar_dwt2",
    "haar_idwt2",
    "max_levels",
    "EzwEncoded",
    "decode_image",
    "encode_image",
    "ezw_decode",
    "ezw_encode",
    "ImageError",
    "collaboration_scene",
    "to_rgb",
    "bpp",
    "compression_ratio",
    "mse",
    "psnr",
    "raw_bits",
    "PACKET_COUNTS",
    "ImagePacket",
    "ProgressiveImage",
    "ReceivedImage",
    "ReceptionReport",
    "Sketch",
    "SketchError",
    "decode_sketch",
    "extract_sketch",
    "sobel_magnitude",
    "ImageDescription",
    "describe_image",
    "SpeechClip",
    "SpeechError",
    "speech_to_text",
    "text_to_speech",
]
