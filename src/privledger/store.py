"""File-backed record store: credentials, policy instances, content.

Three line-delimited families live under the data directory as
credentials.db, policy.db and content.db.  Plaintext tuple instances
stay here while only their hashes go to the ledger.  Writes append or
atomically replace a family file (write temp, then rename); an append
that fails cuts the file back to its size before.  The files are the
source of truth.

Opening reads each family file in one streaming pass over its bytes and
decodes every content and credential record.  Of policy.db it reads each
line's lineage, ledger seq and tuple version with one anchored pattern,
and keeps per lineage only those fields and where its latest line is
(offset, length and line number), not the line, in one row of packed
64-bit columns; a line the pattern rejects, one with a number of 2**63
or more, or one that is not UTF-8, fails the open, which then leaves no
file open.  The latest tuple instance of a lineage is read back with
os.pread and decoded on first touch, and checked against those indexed
fields; a record that fails either, say because it changed on disk since
open, raises CorruptRecord.  A decoded tuple holds the catalog's
AttributeMeta and the registered accessor's AccessorProfile in place of
its own copies where those hold the same values of the same types, so it
encodes to the same bytes.  Older versions stay on disk as history:
policy.db is append-only, and no query reads them.  Every write goes to
the file before memory takes it.

policy.db is read, appended to and checkpointed through a
ledger.IndexedFile, as ledger.db is; the rules are described there.  Its
checkpoint holds the line count and those columns.
"""

from __future__ import annotations

import json
import os
import re
from array import array
from operator import add
from pathlib import Path
from typing import NamedTuple

from .ledger import IndexedFile, append_line, int_array, replace_file
from .config import ID_LIMIT, ID_RULE, Record, is_id, private
from .policy import AccessorProfile
from .tuples import (
    DEFAULT_COST,
    DIGEST_BYTES,
    HASH_ALGORITHM,
    SALT_BYTES,
    AttributeCategory,
    AttributeMeta,
    HashRecord,
    PrivacyTuple,
    Sensitivity,
    canonical_encode,
    hash_tuple,
    verify_hash,
)


class StoreError(Exception):
    """Base error for store operations."""


class UnknownAttribute(StoreError):
    pass


class UnknownProvider(StoreError):
    pass


class UnknownAccessor(StoreError):
    pass


class StaleVersion(StoreError):
    pass


class DuplicateLogin(StoreError):
    pass


class CorruptRecord(StoreError):
    """A stored policy record fails to decode or disagrees with its index."""


class AuthenticationFailed(StoreError):
    """Single authentication error; carries no user-existence signal."""


_AUTH_FAILED_MESSAGE = "invalid credentials"


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


class Catalog:
    """The closed set of attributes records may carry."""

    def __init__(self, attributes):
        self._by_id: dict[int, AttributeMeta] = {}
        self._by_name: dict[str, AttributeMeta] = {}
        for meta in attributes:
            if meta.attribute_id in self._by_id:
                raise StoreError(f"duplicate attribute id: {meta.attribute_id}")
            if meta.name in self._by_name:
                raise StoreError(f"duplicate attribute name: {meta.name}")
            self._by_id[meta.attribute_id] = meta
            self._by_name[meta.name] = meta

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())

    def by_id(self, attribute_id: int) -> AttributeMeta:
        try:
            return self._by_id[attribute_id]
        except KeyError:
            raise UnknownAttribute(f"no attribute with id {attribute_id}") from None

    def by_name(self, name: str) -> AttributeMeta:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAttribute(f"no attribute named {name!r}") from None

    def has_name(self, name: str) -> bool:
        return name in self._by_name


_CATALOG_SPEC = (
    # (name, category, sensitivity hint)
    ("first_name", AttributeCategory.BIOGRAPHICAL, Sensitivity.LEVEL3_CONFIDENTIAL),
    ("last_name", AttributeCategory.BIOGRAPHICAL, Sensitivity.LEVEL3_CONFIDENTIAL),
    ("date_of_birth", AttributeCategory.BIOGRAPHICAL, Sensitivity.LEVEL4_RESTRICTED),
    ("gender", AttributeCategory.BIOGRAPHICAL, Sensitivity.LEVEL3_CONFIDENTIAL),
    ("street_name", AttributeCategory.DEMOGRAPHIC, Sensitivity.LEVEL3_CONFIDENTIAL),
    ("city", AttributeCategory.DEMOGRAPHIC, Sensitivity.LEVEL3_CONFIDENTIAL),
    ("province", AttributeCategory.DEMOGRAPHIC, Sensitivity.LEVEL3_CONFIDENTIAL),
    ("postal_code", AttributeCategory.DEMOGRAPHIC, Sensitivity.LEVEL3_CONFIDENTIAL),
    ("original_province", AttributeCategory.DEMOGRAPHIC, Sensitivity.LEVEL3_CONFIDENTIAL),
    ("phone_number", AttributeCategory.DEMOGRAPHIC, Sensitivity.LEVEL3_CONFIDENTIAL),
    ("personal_health_number", AttributeCategory.HEALTHCARE, Sensitivity.LEVEL4_RESTRICTED),
    ("medical_record_number", AttributeCategory.HEALTHCARE, Sensitivity.LEVEL4_RESTRICTED),
    ("chart_number", AttributeCategory.HEALTHCARE, Sensitivity.LEVEL3_CONFIDENTIAL),
    ("personal_care_physician_name", AttributeCategory.HEALTHCARE, Sensitivity.LEVEL3_CONFIDENTIAL),
    ("dentist_physician_name", AttributeCategory.HEALTHCARE, Sensitivity.LEVEL3_CONFIDENTIAL),
    ("witness_last_name", AttributeCategory.CONSENT, Sensitivity.LEVEL2_INTERNAL_USE),
    ("witness_first_name", AttributeCategory.CONSENT, Sensitivity.LEVEL2_INTERNAL_USE),
    ("witness_phone_number", AttributeCategory.CONSENT, Sensitivity.LEVEL2_INTERNAL_USE),
    ("witness_street", AttributeCategory.CONSENT, Sensitivity.LEVEL2_INTERNAL_USE),
    ("witness_city", AttributeCategory.CONSENT, Sensitivity.LEVEL2_INTERNAL_USE),
    ("witness_province", AttributeCategory.CONSENT, Sensitivity.LEVEL2_INTERNAL_USE),
    ("witness_postal_code", AttributeCategory.CONSENT, Sensitivity.LEVEL2_INTERNAL_USE),
    ("carrier_name", AttributeCategory.HEALTH_INSURANCE, Sensitivity.LEVEL2_INTERNAL_USE),
    ("policy_number", AttributeCategory.HEALTH_INSURANCE, Sensitivity.LEVEL3_CONFIDENTIAL),
    ("group_number", AttributeCategory.HEALTH_INSURANCE, Sensitivity.LEVEL3_CONFIDENTIAL),
)


def default_catalog() -> Catalog:
    return Catalog(
        AttributeMeta(
            attribute_id=index,
            name=name,
            category=category,
            sensitivity_hint=hint,
        )
        for index, (name, category, hint) in enumerate(_CATALOG_SPEC, start=1)
    )


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


class ProviderRecord(Record):
    __slots__ = _fields = ("provider_id", "attributes")

    def __init__(self, provider_id: int, attributes: dict | None = None):
        if not is_id(provider_id):
            raise ValueError(f"provider id must be {ID_RULE}")
        self._set(provider_id, {} if attributes is None else attributes)

    def to_dict(self) -> dict:
        return {"provider_id": self.provider_id, "attributes": dict(self.attributes)}


class TupleInstance(Record):
    """One stored tuple version and where its hash is on the ledger."""

    _fields = ("privacy_tuple", "stream", "seq")
    __slots__ = (*_fields, "_encoded")
    _keys = ("tuple", "stream", "seq")
    _decoders = {"privacy_tuple": PrivacyTuple.from_dict}

    def __init__(
        self,
        privacy_tuple: PrivacyTuple,
        stream: str,
        seq: int,
        encoded: bytes | None = None,
    ):
        if not (isinstance(seq, int) and 0 <= seq < ID_LIMIT):
            raise ValueError("seq must be an integer in [0, 2**63)")
        self._set(privacy_tuple, stream, seq)
        if encoded is not None:
            object.__setattr__(self, "_encoded", encoded)

    @property
    def encoded(self) -> bytes:
        """The canonical encoding of the tuple: the bytes it was published
        from, or derived on first read.

        A stored version never changes, so its bytes are encoded once;
        verifying them against the ledger still hashes them every time.
        """
        try:
            return self._encoded
        except AttributeError:
            # Kept in a slot: functools.cached_property would need a
            # per-instance dict, one per lineage.
            encoded = canonical_encode(self.privacy_tuple)
            object.__setattr__(self, "_encoded", encoded)
            return encoded

    @property
    def lineage(self) -> tuple[int, int, int]:
        return self.privacy_tuple.lineage

    @property
    def version(self) -> int:
        return self.privacy_tuple.version

    def to_dict(self) -> dict:
        return {"seq": self.seq, "stream": self.stream, "tuple": self.privacy_tuple.to_dict()}


class Credential(Record):
    __slots__ = _fields = ("login", "password_hash", "profile")
    _decoders = {"password_hash": HashRecord.from_string, "profile": AccessorProfile.from_dict}

    def __init__(self, login: str, password_hash: HashRecord, profile: AccessorProfile):
        self._set(login, password_hash, profile)

    def to_dict(self) -> dict:
        return {
            "login": self.login,
            "password_hash": self.password_hash.to_string(),
            "profile": self.profile.to_dict(),
        }


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

CREDENTIALS_FILE = "credentials.db"
POLICY_FILE = "policy.db"
CONTENT_FILE = "content.db"
FAMILY_FILES = (CREDENTIALS_FILE, POLICY_FILE, CONTENT_FILE)

# A policy.db line is json.dumps(TupleInstance.to_dict(), sort_keys=True), so
# it reads {"seq": N, "stream": "stream-P-A-X", "tuple": {...}} and the
# tuple's last key is its version.  The ledger holds the tuple's hash.
_POLICY_LINE_RE = re.compile(
    r'\{"seq": (0|[1-9][0-9]*), '
    r'"stream": "stream-([1-9][0-9]*)-([1-9][0-9]*)-([1-9][0-9]*)", '
    r'"tuple": \{.*"version": (0|[1-9][0-9]*)\}\}'
)


class _Indexed(NamedTuple):
    """Where a latest policy line not yet decoded is, with the fields open
    read from it."""

    version: int
    seq: int
    offset: int  # of the line in policy.db
    length: int  # in bytes, without the line end
    lineno: int


def _index_policy_line(line: str) -> tuple[tuple[int, int, int], int, int]:
    """Lineage, tuple version and ledger seq of one policy.db line."""
    match = _POLICY_LINE_RE.fullmatch(line)
    if match is None:
        raise ValueError("not a policy record")
    fields = tuple(map(int, match.groups()))
    if max(fields) >= ID_LIMIT:
        raise ValueError("a seq, id or version is 2**63 or more")
    seq, provider_id, attribute_id, accessor_id, version = fields
    return (provider_id, attribute_id, accessor_id), version, seq


def _decode_lines(path: Path, fh, decode, lineno: int = 0, hasher=None):
    """(line number, offset, length, decoded) per line of a family file
    from its position on, in one pass over its bytes, decoded None for a
    blank line; line numbers carry on from lineno, and hasher, if given,
    is fed the bytes.  Lines end at LF, CRLF or a lone CR, as a text read
    ends them; offset and length are the line's bytes without its end.
    Each line is decoded as UTF-8 on its own and stripped, so a line that
    is not UTF-8 or fails to decode raises StoreError naming the file and
    line."""
    offset = fh.tell()
    for raw in fh:  # up to and with each LF
        if hasher is not None:
            hasher.update(raw)
        for piece in raw.splitlines(keepends=True) if b"\r" in raw else (raw,):
            lineno += 1
            content = piece.rstrip(b"\r\n")
            try:
                line = content.decode("utf-8").strip()
                record = decode(line) if line else None
            except (ValueError, KeyError, TypeError) as exc:
                raise StoreError(f"{path} line {lineno}: unreadable record ({exc})") from None
            yield lineno, offset, len(content), record
            offset += len(piece)


def _shared(kept, decoded: Record):
    """kept where it is a record of decoded's class holding equal values of
    the same types, so that either encodes to the same bytes (1 == True, but
    JSON writes them apart); else decoded."""
    same = kept.__class__ is decoded.__class__ and all(
        type(a) is type(b) and a == b for a, b in zip(kept._values(), decoded._values())
    )
    return kept if same else decoded


class Store:
    """Single-writer store over the three family files."""

    def __init__(self, data_dir, hash_cost: int = DEFAULT_COST, create: bool = False):
        self._dir = Path(data_dir)
        self._catalog = default_catalog()
        self._hash_cost = hash_cost
        self._providers: dict[int, ProviderRecord] = {}
        # Where each lineage's latest policy line is, as a checkpoint holds
        # it: each lineage's row by lineage, in the order of first lines,
        # and per row in _columns its provider, attribute and accessor,
        # then the fields of its _Indexed.
        self._rows: dict[tuple[int, int, int], int] = {}
        self._columns = [array("q") for _ in range(8)]
        # The latest version per lineage, once decoded or published.
        self._instances: dict[tuple[int, int, int], TupleInstance] = {}
        self._policy = IndexedFile(self._dir / POLICY_FILE)
        self._policy_lines = 0
        self._credentials: dict[str, Credential] = {}
        self._accessors: dict[int, Credential] = {}
        if create:
            for name in FAMILY_FILES:
                target = self._dir / name
                if target.exists():
                    raise StoreError(f"store file already exists: {target}")
                open(target, "xb", opener=private).close()
        else:
            for name in FAMILY_FILES:
                if not (self._dir / name).exists():
                    raise StoreError(f"missing store file: {self._dir / name}")
            self._load()
        # Unknown logins verify against this record at the configured cost,
        # so they take as long as a wrong password.  No password can match:
        # that would take a password whose PBKDF2 output is all zeros.
        self._decoy = HashRecord(
            HASH_ALGORITHM, hash_cost, bytes(SALT_BYTES), bytes(DIGEST_BYTES)
        )

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    def close(self):
        self._policy.close()

    # -- persistence --------------------------------------------------------

    def _load(self):
        for record in self._read_records(CONTENT_FILE, ProviderRecord):
            self._providers[record.provider_id] = record
        try:
            self._policy.open(self._take, self._index_policy)
            for cred in self._read_records(CREDENTIALS_FILE, Credential):
                self._credentials[cred.login] = cred
                self._accessors[cred.profile.accessor_id] = cred
        except BaseException:
            self.close()
            raise

    def _index_policy(self):
        """Run open's pass over policy.db from the reader's position on."""
        lineno = self._policy_lines
        for lineno, offset, length, indexed in _decode_lines(
            self._policy.path, self._policy.reader, _index_policy_line, lineno, self._policy.hasher
        ):
            if indexed is not None:
                lineage, version, seq = indexed
                self._index_line(lineage, version, seq, offset, length, lineno)
        self._policy_lines = lineno

    def _take(self, parts) -> bool:
        """Take the index of the checkpoint's prefix, if its values are in
        range."""
        if len(parts) != 9:
            return False
        try:
            lines, *columns = (int_array(part) for part in parts)
        except ValueError:
            return False
        rows = dict(zip(zip(*columns[:3]), range(len(columns[0]))))
        offsets, lengths = columns[5:7]
        if not (
            len(lines) == 1
            and len({len(rows), *map(len, columns)}) == 1
            and min(min(column, default=0) for column in (lines, *columns)) >= 0
            and max(map(add, offsets, lengths), default=0) <= self._policy.reader.tell()
        ):
            return False
        self._policy_lines = lines[0]
        self._columns = columns
        self._rows = rows
        return True

    def _index_line(self, lineage: tuple[int, int, int], *fields: int):
        """Make the fields of _Indexed the lineage's row."""
        row = self._rows.get(lineage)
        if row is None:
            self._rows[lineage] = len(self._rows)
            for column, value in zip(self._columns, (*lineage, *fields)):
                column.append(value)
        else:
            for column, value in zip(self._columns[3:], fields):
                column[row] = value

    def _where(self, lineage: tuple[int, int, int]) -> _Indexed | None:
        """Where the lineage's latest policy line is, if it has one."""
        row = self._rows.get(lineage)
        return None if row is None else _Indexed(*(column[row] for column in self._columns[3:]))

    def save_checkpoint(self):
        """Write policy.db's checkpoint when one is due (see IndexedFile)."""
        lines = array("q", [self._policy_lines])
        self._policy.save(lambda: [part.tobytes() for part in (lines, *self._columns)])

    def _read_records(self, name: str, kind: type[Record]) -> list:
        path = self._dir / name
        with open(path, "rb") as fh:
            lines = _decode_lines(path, fh, lambda line: kind.from_dict(json.loads(line)))
            return [record for *_, record in lines if record is not None]

    def _policy_line(self, indexed: _Indexed) -> bytes:
        """The indexed line as policy.db holds it now."""
        return os.pread(self._policy.fileno(), indexed.length, indexed.offset)

    def _append_record(self, name: str, record: dict):
        self._policy.check_open(self._dir / name)  # a closed store writes nothing
        with open(self._dir / name, "a+b", buffering=0, opener=private) as fh:
            end = os.fstat(fh.fileno()).st_size
            newline = end > 0 and os.pread(fh.fileno(), 1, end - 1) != b"\n"
            append_line(fh, json.dumps(record, sort_keys=True), newline)

    def _rewrite_records(self, name: str, records):
        # Replaced as a whole, so readers never observe a half-written family.
        self._policy.check_open(self._dir / name)
        replace_file(
            self._dir / name,
            (json.dumps(record, sort_keys=True).encode("utf-8") + b"\n" for record in records),
        )

    # -- content ------------------------------------------------------------

    def put_provider_record(self, record: ProviderRecord) -> int:
        """Insert or atomically replace one provider's attribute values."""
        for name in record.attributes:
            if not self._catalog.has_name(name):
                raise UnknownAttribute(f"no attribute named {name!r}")
        if record.provider_id in self._providers:
            providers = {**self._providers, record.provider_id: record}
            self._rewrite_records(CONTENT_FILE, (providers[p].to_dict() for p in sorted(providers)))
        else:
            self._append_record(CONTENT_FILE, record.to_dict())
        self._providers[record.provider_id] = record
        return record.provider_id

    def get_provider_record(self, provider_id: int) -> ProviderRecord:
        try:
            return self._providers[provider_id]
        except KeyError:
            raise UnknownProvider(f"no provider with id {provider_id}") from None

    def has_provider(self, provider_id: int) -> bool:
        return provider_id in self._providers

    def provider_ids(self) -> list[int]:
        return sorted(self._providers)

    # -- tuple instances ----------------------------------------------------

    def put_tuple_instance(self, instance: TupleInstance, record=None) -> tuple[int, int, int]:
        """Record a new tuple version, with its to_dict() if the caller has
        built it.  Old versions are retained."""
        lineage = instance.lineage
        if lineage[0] not in self._providers:
            raise UnknownProvider(f"no provider with id {lineage[0]}")
        prior = self.lineage_version(lineage)
        if instance.version <= prior:
            raise StaleVersion(
                f"lineage {lineage} already at version {prior}, got {instance.version}"
            )
        offset, length = self._policy.append(
            json.dumps(instance.to_dict() if record is None else record, sort_keys=True)
        )
        self._policy_lines += 1
        self._index_line(
            lineage, instance.version, instance.seq, offset, length, self._policy_lines
        )
        self._instances[lineage] = instance
        return lineage

    def latest_tuple_instance(self, lineage: tuple[int, int, int]) -> TupleInstance | None:
        """The latest version, decoded on first touch; raises CorruptRecord
        when its record fails to decode or disagrees with its index.  The
        lineage is a (provider_id, attribute_id, accessor_id) tuple."""
        instance = self._instances.get(lineage)
        if instance is None:
            indexed = self._where(lineage)
            if indexed is not None:
                instance = self._instances[lineage] = self._decode(lineage, indexed)
        return instance

    def _decode(self, lineage: tuple[int, int, int], indexed: _Indexed) -> TupleInstance:
        where = f"{self._dir / POLICY_FILE} line {indexed.lineno}"
        line = self._policy_line(indexed)  # a closed store raises here
        try:
            instance = TupleInstance.from_dict(json.loads(line.decode("utf-8").strip()))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CorruptRecord(f"{where}: undecodable policy record ({exc})") from None
        if (instance.lineage, instance.version, instance.seq) != (
            lineage,
            indexed.version,
            indexed.seq,
        ):
            raise CorruptRecord(f"{where}: tuple disagrees with its stream, seq or version")
        t = instance.privacy_tuple
        cred = self._accessors.get(t.accessor.accessor_id)
        shared = PrivacyTuple(
            t.provider_id,
            _shared(self._catalog._by_id.get(t.attribute.attribute_id), t.attribute),
            t.prefs,
            _shared(cred and cred.profile, t.accessor),
            t.version,
        )
        return TupleInstance(shared, instance.stream, instance.seq)

    def lineage_version(self, lineage: tuple[int, int, int]) -> int:
        row = self._rows.get(tuple(lineage))
        return 0 if row is None else self._columns[3][row]

    # -- selection ----------------------------------------------------------

    def select_rows(self, attributes, provider_id: int | None = None):
        """Raw projection: (provider_id, values) for every provider in id
        order, or for the one provider asked for.  It filters nothing:
        predicates are the mediator's, which may read only granted cells."""
        for name in attributes:
            if not self._catalog.has_name(name):
                raise UnknownAttribute(f"no attribute named {name!r}")
        if provider_id is None:
            records = [self._providers[pid] for pid in sorted(self._providers)]
        else:
            records = [self.get_provider_record(provider_id)]
        return [
            (record.provider_id, [record.attributes.get(a) for a in attributes])
            for record in records
        ]

    # -- accessors ----------------------------------------------------------

    def add_accessor(self, login: str, password: str, profile: AccessorProfile) -> Credential:
        if not login:
            raise StoreError("login must be non-empty")
        if login in self._credentials:
            raise DuplicateLogin(f"login already registered: {login}")
        if profile.accessor_id in self._accessors:
            raise StoreError(f"accessor id already registered: {profile.accessor_id}")
        cred = Credential(
            login=login,
            password_hash=hash_tuple(password.encode("utf-8"), self._hash_cost),
            profile=profile,
        )
        self._append_record(CREDENTIALS_FILE, cred.to_dict())
        self._credentials[login] = cred
        self._accessors[profile.accessor_id] = cred
        return cred

    def authenticate(self, login: str, password: str) -> AccessorProfile:
        """Verify a login and return its profile.

        Wrong user and wrong password raise the identical error, so the
        response never reveals whether an account exists.
        """
        cred = self._credentials.get(login)
        if cred is None:
            verify_hash(password.encode("utf-8"), self._decoy)
            raise AuthenticationFailed(_AUTH_FAILED_MESSAGE)
        if not verify_hash(password.encode("utf-8"), cred.password_hash):
            raise AuthenticationFailed(_AUTH_FAILED_MESSAGE)
        return cred.profile

    def get_accessor(self, accessor_id: int) -> AccessorProfile:
        try:
            return self._accessors[accessor_id].profile
        except KeyError:
            raise UnknownAccessor(f"no accessor with id {accessor_id}") from None
