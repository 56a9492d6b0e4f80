"""Real-codec calibration against stdlib backends."""

import pytest

from repro.compression.calibrate import (
    calibrated_codec,
    measure_backend,
    synthetic_payload,
)
from repro.errors import ConfigurationError


def test_synthetic_payload_size_exact(rng):
    for size in [100, 4096, 65536]:
        assert len(synthetic_payload(size, rng)) == size


def test_synthetic_payload_entropy_controls_compressibility(rng):
    import zlib

    low = synthetic_payload(65536, rng, entropy=0.0)
    high = synthetic_payload(65536, rng, entropy=1.0)
    assert len(zlib.compress(low)) < len(zlib.compress(high))


def test_synthetic_payload_validation(rng):
    with pytest.raises(ConfigurationError):
        synthetic_payload(0, rng)
    with pytest.raises(ConfigurationError):
        synthetic_payload(100, rng, entropy=2.0)


def test_measure_backend_roundtrip(rng):
    point = measure_backend("zlib", 64 * 1024, rng, repeats=1)
    assert 0 < point.ratio < 1
    assert point.compress_speed > 0
    assert point.decompress_speed > 0


def test_measure_backend_unknown(rng):
    with pytest.raises(ConfigurationError):
        measure_backend("rar", 1024, rng)


def test_ratio_improves_with_size_like_table3(rng):
    """The paper's Table III shape holds for a real codec too: larger
    payloads compress at least as well as tiny ones."""
    small = measure_backend("zlib", 2 * 1024, rng, repeats=1)
    large = measure_backend("zlib", 512 * 1024, rng, repeats=1)
    assert large.ratio <= small.ratio + 0.02


def test_calibrated_codec_is_usable():
    codec = calibrated_codec("zlib", size=128 * 1024)
    assert codec.name == "zlib-measured"
    assert 0.02 <= codec.ratio <= 0.98
    assert codec.disposal_speed > 0
