"""Flat key-value configuration files.

Format: one `key = value` per line, '#' comments and blank lines ignored.
Every key can also be supplied as a command-line flag, which wins.
"""

from __future__ import annotations

from pathlib import Path

from .exceptions import ConfigError
from .oai_xml import DEFAULT_SIMILARITY_SCHEMA_URL
from .service import ProviderConfig
from .similarity import DEFAULT_PER_PAIR_SECONDS
from .textpipe import DEFAULT_FIELDS

#: All recognized keys with their defaults (None means unset).
DEFAULTS: dict[str, object] = {
    "store_root": "store",
    "base_url": None,  # upstream repository to harvest
    "from": None,
    "until": None,
    "set": None,
    "fields": ",".join(DEFAULT_FIELDS),
    "stopwords": None,  # path to an alternative stopword file
    "k": ProviderConfig.k,
    "jobs": None,  # defaults to the machine's execution units
    "per_pair_seconds": DEFAULT_PER_PAIR_SECONDS,
    "bind_host": "127.0.0.1",
    "bind_port": 8080,
    "repository_name": ProviderConfig.repository_name,
    "service_base_url": None,  # advertised in responses; derived if unset
    "admin_email": ProviderConfig.admin_email,
    "page_size": ProviderConfig.page_size,
    "schema_url": DEFAULT_SIMILARITY_SCHEMA_URL,
    "user_agent": None,
    "from_email": None,
    "threshold": None,
}

_INT_KEYS = {"k", "jobs", "bind_port", "page_size"}
_FLOAT_KEYS = {"per_pair_seconds", "threshold"}


def load_config(path: str | Path) -> dict[str, object]:
    """Parse one configuration file; unknown keys and bad values are errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise ConfigError(f"cannot read config file {path}: {error}") from error
    values: dict[str, object] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, separator, value = stripped.partition("=")
        if not separator:
            raise ConfigError(f"{path}:{number}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{number}: unknown key {key!r}")
        values[key] = _coerce(key, value, f"{path}:{number}")
    return values


def _coerce(key: str, value: str, where: str) -> object:
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError:
        raise ConfigError(f"{where}: {key} needs a number, got {value!r}") from None
    return value


def merge(
    config_path: str | Path | None, overrides: dict[str, object]
) -> dict[str, object]:
    """defaults <- config file <- non-None overrides (flags, keyed as DEFAULTS)."""
    merged = dict(DEFAULTS)
    if config_path is not None:
        merged.update(load_config(config_path))
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return merged
