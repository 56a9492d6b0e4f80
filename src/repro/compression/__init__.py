"""Compression substrate: codecs (Table II), ratio model (Table III), engine.

Names load on first use (:mod:`repro._lazy`), so the engine never
compiles the real-codec calibration.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {
    ".codecs": (
        "Codec", "get_codec", "default_codec", "register_codec",
        "TABLE_II", "DEFAULT_CODEC_NAME",
    ),
    ".model": ("SizeDependentRatio", "table3_ratio", "TABLE_III_ANCHORS"),
    ".engine": ("CompressionEngine",),
    ".calibrate": ("calibrated_codec", "measure_backend", "synthetic_payload"),
})

__all__ = list(_EXPORTS)
