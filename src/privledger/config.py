"""Configuration, data format and the engine's errors, on the stdlib alone.

A configuration names a data directory and the hash cost, nothing else.
A data directory in data format 3 has a ``format`` file, written first,
that reads ``privledger 3``.  One without it is in format 1, and one
that reads ``privledger 2`` is in format 2, whose hash records differ:
both are refused and left as they are.

This module imports no other privledger module, so a command that opens
no engine (``ledger verify``) loads it and the chain module only.  It
also holds what the engine modules share with the configuration: the
plain Record base class, the one rule for integers in outside text, the
one rule for ids and the bounds of the hash cost.
"""

from __future__ import annotations

import re
from pathlib import Path


class EngineError(Exception):
    pass


class AlreadyInitialized(EngineError):
    pass


class NotInitialized(EngineError):
    pass


class ConfigError(EngineError):
    pass


class UnsupportedFormat(EngineError):
    pass


class Record:
    """An immutable record, compared, hashed and shown by its fields.

    A plain base class: @dataclass would generate and compile methods for
    every record class at import, in every process.  A subclass names its
    fields in _fields, in constructor order, and also as its __slots__, so
    that a record is one object with no __dict__; it sets them once in
    __init__ through _set, in that order, after its checks.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values):
        # Attribute by attribute, into the instance's slots.
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def parse_decimal(text: str) -> int | None:
    """The integer text spells in canonical ASCII decimal, else None.

    The one rule for integers in outside text (policy documents, config
    files, CLI values): '-' is the only sign, and underscores, leading
    zeros, whitespace and non-ASCII digits are refused.
    """
    return int(text) if _DECIMAL.fullmatch(text) else None


# Provider, attribute and accessor ids, and tuple versions, are integers in
# [1, ID_LIMIT): a policy.db checkpoint holds them as signed 64-bit integers.
ID_LIMIT = 1 << 63
ID_RULE = "an integer in [1, 2**63)"


def is_id(value) -> bool:
    """Whether value is an id (or a tuple version)."""
    return isinstance(value, int) and 0 < value < ID_LIMIT


# The hash cost's bounds, in SHA-256 compressions (see tuples.hash_tuple).
MIN_COST = 1
MAX_COST = 1 << 20
DEFAULT_COST = 1024

DATA_DIR_ENV = "PRIVLEDGER_DATA_DIR"
LEDGER_FILE = "ledger.db"
FORMAT_FILE = "format"
FORMAT = "privledger 3\n"
# The format file text of each earlier format, None for no file.
_EARLIER_FORMATS = {None: 1, "privledger 2\n": 2}

_CONFIG_KEYS = {"data_dir", "hash_cost"}


class EngineConfig(Record):
    __slots__ = _fields = ("data_dir", "hash_cost")

    def __init__(self, data_dir, hash_cost: int = DEFAULT_COST):
        data_dir = Path(data_dir)
        if not MIN_COST <= hash_cost <= MAX_COST:
            raise ConfigError(f"hash_cost out of range: {hash_cost}")
        self._set(data_dir, hash_cost)

    @property
    def ledger_file(self) -> Path:
        return self.data_dir / LEDGER_FILE

    @classmethod
    def from_file(cls, path) -> EngineConfig:
        """Load 'key = value' configuration text."""
        values: dict[str, str] = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            value = value.strip()
            # Path("") is the current directory.
            if key == "data_dir" and not value:
                raise ConfigError(f"line {lineno}: data_dir is empty")
            values[key] = value
        if "data_dir" not in values:
            raise ConfigError("config must set data_dir")
        cost = DEFAULT_COST
        if "hash_cost" in values:
            cost = parse_decimal(values["hash_cost"])
            if cost is None:
                raise ConfigError(
                    f"hash_cost must be an integer, got {values['hash_cost']!r}"
                )
        return cls(values["data_dir"], cost)


def require_format(data_dir: Path):
    """Raise UnsupportedFormat unless the directory is in format 3."""
    path = data_dir / FORMAT_FILE
    text = path.read_text() if path.exists() else None
    if text == FORMAT:
        return
    if (earlier := _EARLIER_FORMATS.get(text)) is not None:
        raise UnsupportedFormat(
            f"{data_dir} holds data format {earlier}, which this privledger does not read; "
            "rebuild it with init in a new directory"
        )
    raise UnsupportedFormat(f"{path}: unknown data format {text!r}")
