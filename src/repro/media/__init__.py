"""Media substrate: progressive image coding, sketch extraction, verbal
description, synthetic speech, and the information-transformer registry."""

from .wavelet import WaveletError, haar_dwt2, haar_idwt2, max_levels, subband_slices
from .ezw import EzwEncoded, decode_image, encode_image, ezw_decode, ezw_encode
from .images import (
    ImageError,
    checkerboard,
    collaboration_scene,
    gaussian_blobs,
    gradient,
    to_rgb,
)
from .metrics import bpp, compression_ratio, mse, psnr, raw_bits
from .progressive import PACKET_COUNTS, ImagePacket, ProgressiveImage, ReceivedImage, ReceptionReport
from .sketch import Sketch, SketchError, decode_sketch, extract_sketch, sobel_magnitude
from .describe import ImageDescription, describe_image
from .speech import SpeechClip, SpeechError, speech_to_text, text_to_speech
from .transformers import (
    Modality,
    TransformError,
    Transformer,
    TransformerRegistry,
    default_registry,
)

__all__ = [
    "WaveletError",
    "haar_dwt2",
    "haar_idwt2",
    "max_levels",
    "subband_slices",
    "EzwEncoded",
    "decode_image",
    "encode_image",
    "ezw_decode",
    "ezw_encode",
    "ImageError",
    "checkerboard",
    "collaboration_scene",
    "gaussian_blobs",
    "gradient",
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
    "Modality",
    "TransformError",
    "Transformer",
    "TransformerRegistry",
    "default_registry",
]
