"""Flat key-value configuration files.

Format: one `name = value` per line, `#` starts a comment, blank lines
ignored. Voltages are in volts and times in hours. Level lists are
comma-separated. The same file carries device constants and policy knobs.
"""

from __future__ import annotations

from dataclasses import fields, replace
from pathlib import Path

from .allocation import PolicyConfig
from .channel import DeviceParams, default_device_params

__all__ = [
    "ConfigError",
    "parse_config_text",
    "load_config",
    "apply_overrides",
    "device_params_from",
    "policy_config_from",
]

# Key name -> field type, as written in the dataclass annotations. Each
# command picks its own policy mode, so the file does not set it.
_DEVICE_KEYS = {f.name: f.type for f in fields(DeviceParams)}
_POLICY_KEYS = {f.name: f.type for f in fields(PolicyConfig) if f.name != "mode"}


class ConfigError(ValueError):
    """Malformed configuration file or unknown/invalid key."""


def _convert(key: str, raw: str):
    kind = _DEVICE_KEYS.get(key) or _POLICY_KEYS.get(key)
    if kind is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        if kind == "tuple[float, ...]":
            return tuple(float(v) for v in raw.replace(",", " ").split())
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return {"float": float, "int": int}[kind](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for key {key!r}: {raw!r}") from exc


def parse_config_text(text: str) -> dict:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'name = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        values[key] = _convert(key, raw)
    return values


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_config_text(text)


def apply_overrides(values: dict, overrides: list[str]) -> dict:
    """Apply CLI `--set key=value` pairs on top of file values."""
    out = dict(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        out[key] = _convert(key, raw)
    return out


def device_params_from(values: dict) -> DeviceParams:
    kwargs = {k: values[k] for k in _DEVICE_KEYS if k in values}
    try:
        return replace(default_device_params(), **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def policy_config_from(values: dict) -> PolicyConfig:
    kwargs = {k: values[k] for k in _POLICY_KEYS if k in values}
    try:
        return PolicyConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
