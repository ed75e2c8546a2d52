"""Units formatting/parsing."""

import pytest

from repro.errors import ConfigError
from repro.util.units import format_seconds, format_size, parse_size


class TestParseSize:
    def test_plain_int_passthrough(self):
        assert parse_size(4096) == 4096

    def test_kb(self):
        assert parse_size("32KB") == 32 * 1024

    def test_mb(self):
        assert parse_size("8MB") == 8 * 1024**2

    def test_bare_number_string(self):
        assert parse_size("256") == 256

    def test_lowercase_and_spaces(self):
        assert parse_size(" 12 mb ") == 12 * 1024**2

    def test_gb_and_tb(self):
        assert parse_size("2GB") == 2 * 1024**3
        assert parse_size("1TB") == 1024**4

    def test_kib_alias(self):
        assert parse_size("3KiB") == 3 * 1024

    def test_negative_int_rejected(self):
        with pytest.raises(ConfigError):
            parse_size(-1)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_size("lots")

    def test_unknown_suffix_rejected(self):
        with pytest.raises(ConfigError):
            parse_size("5XB")


class TestFormatSize:
    def test_exact_kb(self):
        assert format_size(32 * 1024) == "32KB"

    def test_l3_label_like_hwloc(self):
        assert format_size(8 * 1024**2) == "8192KB"

    def test_small_bytes(self):
        assert format_size(100) == "100B"


class TestFormatSeconds:
    def test_hms(self):
        assert format_seconds(3725) == "1:02:05"

    def test_zero(self):
        assert format_seconds(0) == "0:00:00"
