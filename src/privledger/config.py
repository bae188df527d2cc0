"""Configuration, data format and the engine's errors, on the stdlib alone.

A configuration names a data directory and the hash cost of login
hashes, nothing else.  A data directory in data format 4 has a
``format`` file, written first, that reads ``privledger 4``.  One without
it is in format 1; one that reads ``privledger 2`` is in format 2, whose
hash records differ; one that reads ``privledger 3`` is in format 3,
which published each policy version as a PBKDF2 hash record, not as a
commitment: all three are refused and left as they are.

Only the directory's owner may read it: it holds the plaintext and the
login hashes that mediation guards.  The directory is made with mode 0700
and every file in it with mode 0600, and a command refuses the directory
when the group or others have any permission on it or on any entry in it.

This module imports no other privledger module, so a command that opens
no engine (``ledger verify``) loads it and the chain module only.  It
also holds what the engine modules share with the configuration and the
command line: the plain Record base class, the one rule for integers in
outside text, the one rule for ids, the bounds of the hash cost, the two
vocabularies the command line offers (AccessorRole and Sensitivity) and
the one decoder of a vocabulary's tokens.
"""

from __future__ import annotations

import os
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


class LoosePermissions(EngineError):
    pass


class Record:
    """An immutable record, compared, hashed and shown by its fields.

    A plain base class: @dataclass would generate and compile methods for
    every record class at import, in every process.  A subclass names its
    fields in _fields, in constructor order, and also as its __slots__, so
    that a record is one object with no __dict__; it sets them once in
    __init__ through _set, in that order, after its checks.

    from_dict is the one decoder of a stored record: the dict must hold
    exactly the keys _fields, each value goes through its field's function
    in _decoders, if any, and then the constructor's checks; a dict of
    other keys, or no dict, raises _error.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _decoders: dict = {}
    _error: type[Exception] = ValueError

    @classmethod
    def from_dict(cls, data: dict):
        try:
            # As many keys as the record's, each of them: the same key set.
            if not isinstance(data, dict) or len(data) != len(cls._fields):
                raise KeyError
            values = [data[key] for key in cls._fields]
        except KeyError:
            raise cls._error(
                f"{cls.__name__} record must hold exactly the keys {cls._fields}"
            ) from None
        for name, decode in cls._decoders.items():
            index = cls._fields.index(name)
            values[index] = decode(values[index])
        return cls(*values)

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


# A vocabulary is a plain class of str constants whose values are their wire
# tokens, with TOKENS holding them in declaration order.


class AccessorRole:
    """Closed role vocabulary.  Unknown role text is a parse error."""

    (CLINICAL_NURSE, LABORATORY_ANALYST, CLINICAL_PHYSICIAN, THIRD_PARTY_ALLIED, DATA_PROVIDER,
     PATIENT_LEGAL_REPRESENTATIVE) = TOKENS = (
        "ClinicalNurse",
        "LaboratoryAnalyst",
        "ClinicalPhysician",
        "ThirdPartyAllied",
        "DataProvider",
        "PatientLegalRepresentative",
    )


class Sensitivity:
    """Data sensitivity levels, lowest first: a level ranks by its position
    in TOKENS."""

    LEVEL1_PUBLIC, LEVEL2_INTERNAL_USE, LEVEL3_CONFIDENTIAL, LEVEL4_RESTRICTED = TOKENS = (
        "Level1Public",
        "Level2InternalUse",
        "Level3Confidential",
        "Level4Restricted",
    )


def token_decoder(vocabulary, error: type[Exception]):
    """The decoder of vocabulary's tokens: it returns the vocabulary's own
    str object for a token, so that decoded records share one object per
    token, and raises error for anything else."""
    tokens = {token: token for token in vocabulary.TOKENS}

    def decode(text) -> str:
        # An unhashable value is unknown.
        try:
            return tokens[text]
        except (KeyError, TypeError):
            raise error(f"unknown {vocabulary.__name__} token: {text!r}") from None

    return decode


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


# The bounds of the login hash cost, in SHA-256 compressions (see
# tuples.hash_tuple).
MIN_COST = 1
MAX_COST = 1 << 20
DEFAULT_COST = 1024

DATA_DIR_ENV = "PRIVLEDGER_DATA_DIR"
LEDGER_FILE = "ledger.db"
FORMAT_FILE = "format"
FORMAT = "privledger 4\n"
# The format file text of each earlier format, None for no file.
_EARLIER_FORMATS = {None: 1, "privledger 2\n": 2, "privledger 3\n": 3}

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
    """Raise UnsupportedFormat unless the directory is in format 4."""
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


def private(path, flags: int) -> int:
    """An opener for open(): a file it creates gets mode 0600."""
    return os.open(path, flags, 0o600)


def make_private_dir(data_dir: Path):
    """Create the data directory with mode 0700, or set it to 0700."""
    data_dir.mkdir(0o700, parents=True, exist_ok=True)
    data_dir.chmod(0o700)


def require_private(data_dir: Path):
    """Raise LoosePermissions unless the group and others have no permission
    on the data directory or on any entry in it."""
    with os.scandir(data_dir) as entries:
        paths = [data_dir, *(Path(entry.path) for entry in entries)]
    for path in paths:
        try:
            mode = path.stat().st_mode & 0o7777
        except FileNotFoundError:  # a writer's temporary file, renamed since
            continue
        if mode & 0o077:
            raise LoosePermissions(
                f"{path} has mode {mode:04o}; only its owner may have access (chmod go-rwx)"
            )
