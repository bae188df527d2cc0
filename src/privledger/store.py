"""File-backed record store: credentials, policy instances, content.

Three line-delimited families live under the data directory as
credentials.db, policy.db and content.db.  Plaintext tuple instances
stay here, each with the nonce of its commitment, while only the
commitments go to the ledger.  Each family file
is a files.IndexedFile, which makes every write: an append, or, for a
provider's update, an atomic replace of content.db, so the replaced
values leave the disk.  The files are the source of truth.

Opening reads each family file in one streaming pass over its bytes and
decodes every content and credential record; only policy.db's bytes are
hashed, at open and on append, for its checkpoint: content.db and
credentials.db have none.  Of policy.db it reads each line's ledger seq
and tuple version (and checks its stream name) with one anchored
pattern, and keeps per line, in file order, only those fields and where
the line is (offset, length and line number), not the line, in packed
64-bit columns.  The seqs must rise from line to line; a line whose seq
does not, one the pattern rejects, one with a number of 2**63 or more,
or one that is not UTF-8, fails the open, which then leaves no file
open.  The store does not say which version of a lineage is current: the
ledger does, through its stream's latest seq, and the store finds the
line at that seq by bisection.  The store encodes no tuple:
put_tuple_instance writes a version's line around the bytes its
commitment is over, the nonce and the canonical encoding the engine
committed to, once the pattern open uses reads the line, its provider is
known and its seq is above every stored line's.  The read and the decode
are apart: policy_runs(seqs) splits a query's seqs into runs of lines
with only an LF between one and the next and reads each run with one
os.pread through read_lines(row, count), which also reads a run again by
its first row; lines cuts a run's read into each line's bytes.
latest_tuple_instance reads the bytes its caller read with the same
anchored pattern, on every call, and decodes nothing: it gives the nonce
and the tuple's canonical encoding as slices of the line, for the
commitment check, after checking that the line's seq, stream and version
are the lineage's and the index's.  preferences decodes a tuple's bytes,
once its commitment holds, and cross-checks its provider, attribute,
accessor and version.  A record that fails either, say because it
changed on disk since open, raises CorruptRecord; a read the system
refuses gives its OSError in place of the bytes.  The store keeps no
decoded tuple: the mediator keeps, per verified version, a fingerprint
of the bytes it verified and the preferences, and checks a line again
only when its bytes are not those.
Older versions, and a line no ledger item names, stay on disk and are
never read: policy.db is append-only.  Every write goes to the file
before memory takes it.

policy.db is checkpointed as ledger.db is (see files.IndexedFile); its
checkpoint holds the line count and those columns.
"""

from __future__ import annotations

import json
import re
from array import array
from bisect import bisect_left
from operator import add, lt
from pathlib import Path
from typing import NamedTuple

from .config import ID_LIMIT, ID_RULE, Record, is_id
from .files import IndexedFile, int_array
from .policy import AccessorProfile, PreferenceSet
from .tuples import (
    DEFAULT_COST,
    DIGEST_BYTES,
    HASH_ALGORITHM,
    NONCE_BYTES,
    SALT_BYTES,
    AttributeCategory,
    AttributeMeta,
    HashRecord,
    Sensitivity,
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


class StoredTuple(NamedTuple):
    """A policy.db line as read, not decoded: the tuple's version, and the
    nonce and canonical encoding its commitment is over."""

    version: int
    nonce: bytes
    encoded: bytes


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

# A policy.db line is its record as json.dumps(record, sort_keys=True) writes
# it, {"nonce": "<hex>", "seq": N, "stream": "stream-P-A-X", "tuple": T},
# where T, the tuple's canonical encoding, ends with its version.  The
# ledger holds SHA-256(nonce || T).  Groups: nonce, seq, P, A, X, T, version.
_POLICY_LINE_RE = re.compile(
    rf'\{{"nonce": "([0-9a-f]{{{2 * NONCE_BYTES}}})", '
    r'"seq": (0|[1-9][0-9]*), '
    r'"stream": "stream-([1-9][0-9]*)-([1-9][0-9]*)-([1-9][0-9]*)", '
    r'"tuple": (\{.*"version": (0|[1-9][0-9]*)\})\}'
)
# The same pattern over a line's bytes, as a query reads them.
_POLICY_BYTES_RE = re.compile(_POLICY_LINE_RE.pattern.encode("ascii"))


# A run of policy.db lines (Store.policy_runs) spans at most this many
# bytes, so a query's buffer stays small.  A perfbench scan-where query
# reads, per provider, 11 or 13 lines of about 790 B back to back, one run
# at 16 KiB; at 8 KiB the 11-line query took two per provider.
RUN_BYTES = 16 * 1024


def _index_policy_line(line: str) -> tuple[int, ...]:
    """Ledger seq, provider, attribute and accessor ids, and tuple version
    of one policy.db line."""
    match = _POLICY_LINE_RE.fullmatch(line)
    if match is None:
        raise ValueError("not a policy record")
    fields = tuple(map(int, match.group(2, 3, 4, 5, 7)))
    if max(fields) >= ID_LIMIT:
        raise ValueError("a seq, id or version is 2**63 or more")
    return fields


def _line(record: Record) -> str:
    """The line of a content or credential record."""
    return json.dumps(record.to_dict(), sort_keys=True)


def _open_records(file: IndexedFile, kind: type[Record]) -> list:
    """Open a content or credential file, which has no checkpoint and no
    hasher, and decode its records."""
    lines = []
    def decode(line):
        return kind.from_dict(json.loads(line))
    file.open(lambda: lines.extend(_decode_lines(file, file.reader, decode)))
    return [record for *_, record in lines if record is not None]


def _hashed(file: IndexedFile):
    """The lines of the file's reader from its position on, each fed to
    its hasher."""
    update = file.hasher.update
    for raw in file.reader:
        update(raw)
        yield raw


def _decode_lines(file: IndexedFile, raws, decode, lineno: int = 0):
    """(line number, offset, length, decoded) per line of a family file
    in raws, the lines of its reader (up to and with each LF) from its
    position on, in one pass over their bytes, decoded None for a blank
    line; line numbers carry on from lineno.  Lines end at LF, CRLF or a
    lone CR, as a text read ends them; offset and length are the line's
    bytes without its end.  Each line is decoded as UTF-8 on its own and
    stripped, so a line that is not UTF-8 or fails to decode raises
    StoreError naming the file and line."""
    offset = file.reader.tell()
    for raw in raws:
        for piece in raw.splitlines(keepends=True) if b"\r" in raw else (raw,):
            lineno += 1
            content = piece.rstrip(b"\r\n")
            try:
                line = content.decode("utf-8").strip()
                record = decode(line) if line else None
            except (ValueError, KeyError, TypeError) as exc:
                raise StoreError(f"{file.path} line {lineno}: unreadable record ({exc})") from None
            yield lineno, offset, len(content), record
            offset += len(piece)


class Store:
    """Single-writer store over the three family files."""

    def __init__(self, data_dir, hash_cost: int = DEFAULT_COST, create: bool = False):
        self._catalog = default_catalog()
        self._hash_cost = hash_cost
        self._providers: dict[int, ProviderRecord] = {}
        # Every policy.db line, as a checkpoint holds it: one row per line
        # in file order, seqs rising, and per row its ledger seq, tuple
        # version, offset, length in bytes without the line end, and line
        # number.
        self._columns = [array("q") for _ in range(5)]
        self._policy_lines = 0
        self._credentials: dict[str, Credential] = {}
        self._accessors: dict[int, Credential] = {}
        self._files = [
            IndexedFile(Path(data_dir) / name, self._take if name == POLICY_FILE else None)
            for name in FAMILY_FILES
        ]
        self._credential_file, self._policy, self._content = self._files
        for file in self._files:
            if create and file.path.exists():
                raise StoreError(f"store file already exists: {file.path}")
            if not create and not file.path.exists():
                raise StoreError(f"missing store file: {file.path}")
        try:
            if create:
                for file in self._files:
                    file.create()
            else:
                self._load()
        except BaseException:
            self.close()  # a failed open or create leaves no file open
            raise
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
        for file in self._files:
            file.close()

    # -- persistence --------------------------------------------------------

    def _load(self):
        for record in _open_records(self._content, ProviderRecord):
            self._providers[record.provider_id] = record
        self._policy.open(self._index_policy)
        for cred in _open_records(self._credential_file, Credential):
            self._credentials[cred.login] = cred
            self._accessors[cred.profile.accessor_id] = cred

    def _index_policy(self):
        """Run open's pass over policy.db from the reader's position on."""
        lineno = self._policy_lines
        lines = _decode_lines(self._policy, _hashed(self._policy), _index_policy_line, lineno)
        for lineno, offset, length, indexed in lines:
            if indexed is not None:
                seqs = self._columns[0]
                if seqs and indexed[0] <= seqs[-1]:
                    raise StoreError(
                        f"{self._policy.path} line {lineno}: unreadable record "
                        f"(seq {indexed[0]} is not above the previous line's {seqs[-1]})"
                    )
                self._index_line(indexed[0], indexed[4], offset, length, lineno)
        self._policy_lines = lineno

    def _take(self, parts) -> bool:
        """Take the index of the checkpoint's prefix, if its values are in
        range."""
        if len(parts) != 6:
            return False
        try:
            lines, *columns = (int_array(part) for part in parts)
        except ValueError:
            return False
        seqs, _, offsets, lengths, _ = columns
        if not (
            len(lines) == 1
            and len(set(map(len, columns))) == 1
            and min(min(column, default=0) for column in (lines, *columns)) >= 0
            and all(map(lt, seqs, seqs[1:]))
            and max(map(add, offsets, lengths), default=0) <= self._policy.reader.tell()
        ):
            return False
        self._policy_lines = lines[0]
        self._columns = columns
        return True

    def _index_line(self, *fields: int):
        """Add a row of the columns' fields for the next line."""
        for column, value in zip(self._columns, fields):
            column.append(value)

    def save_checkpoint(self):
        """Write policy.db's checkpoint when one is due (see files.IndexedFile)."""
        lines = array("q", [self._policy_lines])
        self._policy.save(lambda: [part.tobytes() for part in (lines, *self._columns)])

    # -- content ------------------------------------------------------------

    def put_provider_record(self, record: ProviderRecord) -> int:
        """Insert or atomically replace one provider's attribute values."""
        for name in record.attributes:
            if not self._catalog.has_name(name):
                raise UnknownAttribute(f"no attribute named {name!r}")
        if record.provider_id in self._providers:
            providers = {**self._providers, record.provider_id: record}
            self._content.replace(_line(providers[p]) for p in sorted(providers))
        else:
            self._content.append(_line(record))
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

    def put_tuple_instance(self, stream: str, seq: int, nonce: bytes, encoded: bytes):
        """Record a new tuple version: its line is built around encoded,
        the tuple's canonical encoding, and nonce, the bytes the commitment
        at the ledger seq on stream is over, so it holds them verbatim.
        The line must be one the next open reads, of a known provider, and
        its seq above every stored line's.  Old versions are retained."""
        line = '{"nonce": "%s", "seq": %d, "stream": "%s", "tuple": %s}' % (
            nonce.hex(), seq, stream, encoded.decode("ascii")
        )
        seq, provider_id, _, _, version = _index_policy_line(line)
        if provider_id not in self._providers:
            raise UnknownProvider(f"no provider with id {provider_id}")
        seqs = self._columns[0]
        if seqs and seq <= seqs[-1]:
            raise StaleVersion(f"policy.db already holds seq {seqs[-1]}, got {seq}")
        offset, length = self._policy.append(line)
        self._policy_lines += 1
        self._index_line(seq, version, offset, length, self._policy_lines)

    def policy_runs(self, seqs):
        """An iterator that splits seqs, ledger seqs in a query's order
        (None for a lineage with no stream), into runs of consecutive seqs
        whose lines are consecutive rows one LF apart, at most RUN_BYTES
        from the first's start to the last's end, and reads each run's
        lines with one os.pread when the caller asks for the run: per run
        (start, stop, row, data), seqs[start:stop], the row of its first
        line and what files.IndexedFile.read gave.  A None seq, or one
        policy.db holds no line at, is a run alone with row and data None.
        The row after the last one found is tried before a bisection."""
        column, _, offsets, lengths, _ = self._columns
        count = len(column)
        start = None  # the open run's place in seqs
        row = expect = follows = limit = -1  # what the run's next line must meet
        for at, seq in enumerate(seqs):
            if seq is not None:
                row += 1
                if row >= count or column[row] != seq:
                    row = bisect_left(column, seq)
                    if row == count or column[row] != seq:
                        seq = None
                if seq is not None:
                    offset = offsets[row]
                    end = offset + lengths[row]
                    if seq == expect and offset == follows and end <= limit:
                        expect, follows = seq + 1, end + 1
                        continue
            if start is not None:
                yield start, at, first, self.read_lines(first, at - start)
            if seq is None:
                start = None
                expect = -1
                yield at, at + 1, None, None
            else:
                start, first = at, row
                expect, follows, limit = seq + 1, end + 1, offset + RUN_BYTES
        if start is not None:
            yield start, len(seqs), first, self.read_lines(first, len(seqs) - start)

    def read_lines(self, row: int, count: int):
        """The bytes of the count lines from row on, from the first's start
        to the last's end, read with one os.pread: what
        files.IndexedFile.read gives."""
        _, _, offsets, lengths, _ = self._columns
        end = row + count - 1
        return self._policy.read(offsets[row], offsets[end] + lengths[end] - offsets[row])

    def lines(self, row: int, count: int, data) -> list:
        """Each line's bytes out of data, what policy_runs gave for the
        run of count lines from row on (see files.IndexedFile.pieces)."""
        _, _, offsets, lengths, _ = self._columns
        rows = range(row, row + count)
        return self._policy.pieces(data, [(offsets[r], lengths[r]) for r in rows])

    def latest_tuple_instance(
        self, lineage: tuple[int, int, int], seq: int, line: bytes
    ) -> StoredTuple:
        """The lineage's version stored at the ledger seq that is its
        stream's latest, as the anchored pattern reads it from line, the
        bytes of its policy.db line as policy_runs or lines gave them.
        Nothing is
        decoded: the tuple's bytes are a slice of the line.  Raises
        CorruptRecord when the pattern rejects the line, or its seq, stream
        or version disagrees with the lineage or its index.  The lineage is
        a (provider_id, attribute_id, accessor_id) tuple."""
        seqs, versions = self._columns[:2]
        row = bisect_left(seqs, seq)
        match = _POLICY_BYTES_RE.fullmatch(line.strip())
        if match is None:
            raise CorruptRecord(
                f"{self._where(row)}: undecodable policy record (not a policy record)"
            )
        if tuple(map(int, match.group(2, 3, 4, 5, 7))) != (seqs[row], *lineage, versions[row]):
            raise CorruptRecord(
                f"{self._where(row)}: tuple disagrees with its stream, seq or version"
            )
        return StoredTuple(versions[row], bytes.fromhex(match[1].decode("ascii")), match[6])

    def preferences(
        self, lineage: tuple[int, int, int], seq: int, encoded: bytes
    ) -> PreferenceSet:
        """The preferences in encoded, the tuple latest_tuple_instance(lineage,
        seq) gave, once its commitment holds.  Raises CorruptRecord when
        they fail to decode, or the tuple's provider, attribute, accessor or
        version disagrees with the lineage or its index."""
        seqs, versions = self._columns[:2]
        row = bisect_left(seqs, seq)
        try:
            data = json.loads(encoded)
            parts = (
                data["provider_id"],
                data["attribute"]["attribute_id"],
                data["accessor"]["accessor_id"],
                data["version"],
            )
            prefs = PreferenceSet.from_dict(data["prefs"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptRecord(f"{self._where(row)}: undecodable policy record ({exc})") from None
        if parts != (*lineage, versions[row]) or prefs.attribute_id != lineage[1]:
            raise CorruptRecord(
                f"{self._where(row)}: tuple disagrees with its stream, seq or version"
            )
        return prefs

    def _where(self, row: int) -> str:
        return f"{self._policy.path} line {self._columns[4][row]}"

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
        self._credential_file.append(_line(cred))
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
