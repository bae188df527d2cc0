"""File-backed record store: credentials, policy instances, content.

Three line-delimited families live under the data directory as
credentials.db, policy.db and content.db.  Plaintext tuple instances
stay here, each with the nonce of its commitment, while only the
commitments go to the ledger.  Each family file
is a files.IndexedFile, which makes every write: an append, or, for a
provider's update, an atomic replace of content.db, so the replaced
values leave the disk.  The files are the source of truth.

Opening reads each family file in one streaming pass over its bytes,
under the line rule every data file has (see files.py): content.db's and
credentials.db's lines each hold one JSON object from the first byte to
the last, and every content and credential record is decoded.  Only
policy.db's bytes are hashed, at open and on append, for its checkpoint.
Of policy.db it reads each line, its LF included, with the one anchored
bytes pattern a query reads it with, and keeps per line, in file order,
only its ledger seq and tuple version in packed 64-bit columns; the
IndexedFile keeps where each line is, and the line at row r is line
r + 1.  The seqs must rise from line to line; a line whose seq does not,
one the pattern rejects (a blank or padded line, a CR, a byte that is
not printable ASCII), or one with a number of 2**63 or more, fails the
open, which then leaves no file open.  The store does not say which
version of a lineage is current: the ledger does, through its stream's
latest seq, and the store finds the line at that seq by bisection.  The
store encodes no tuple: put_tuple_instance writes a version's line
around the bytes its commitment is over, the nonce and the canonical
encoding the engine committed to, once the pattern reads the line, its
provider is known and its seq is above every stored line's.  The read
and the decode are apart: policy_runs(seqs) splits a query's seqs into
runs of consecutive seqs, which are adjacent rows, and reads each run
with one os.pread through policy_file.read(row, count), which also reads
a run again by its first row; policy_file.pieces cuts a run's read into
each line's bytes.  latest_tuple_instance reads the bytes its caller
read with the same pattern, on every call, strips nothing and decodes
nothing: it gives the nonce and the tuple's canonical encoding as slices
of the line, for the commitment check, after checking that the line's
seq, stream and version are the lineage's and the index's.  preferences
decodes a tuple's bytes, once its commitment holds, and cross-checks its
provider, attribute, accessor and version.  A record that fails either,
say because it changed on disk since open, raises CorruptRecord; a read
the system refuses gives its OSError in place of the bytes.  The store
keeps no decoded tuple: the mediator keeps, per verified version, a
fingerprint of the bytes it verified and the preferences, and checks a
line again only when its bytes are not those.  Older versions, and a
line no ledger item names, stay on disk and are never read: policy.db is
append-only.  Every write goes to the file before memory takes it.

policy.db is checkpointed as ledger.db is (see files.IndexedFile); its
checkpoint holds the line offsets and then the seq and version columns.
"""

from __future__ import annotations

import json
import re
from array import array
from bisect import bisect_left
from itertools import islice
from operator import lt
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
# and then its LF, which the file's last line may lack.  T, the tuple's
# canonical encoding, is printable ASCII and ends with its version.  The
# ledger holds SHA-256(nonce || T).  Groups: nonce, seq, P, A, X, T, version.
_POLICY_RE = re.compile(
    rb'\{"nonce": "([0-9a-f]{%d})", ' % (2 * NONCE_BYTES)
    + rb'"seq": (0|[1-9][0-9]*), '
    rb'"stream": "stream-([1-9][0-9]*)-([1-9][0-9]*)-([1-9][0-9]*)", '
    rb'"tuple": (\{[ -~]*"version": (0|[1-9][0-9]*)\})\}\n?'
)


# A run of policy.db lines (Store.policy_runs) spans at most this many
# bytes, so a query's buffer stays small.  A perfbench scan-where query
# reads, per provider, 11 or 13 lines of about 790 B back to back, one run
# at 16 KiB; at 8 KiB the 11-line query took two per provider.
RUN_BYTES = 16 * 1024


def _index_policy_line(line: bytes) -> tuple[int, ...]:
    """Ledger seq, provider, attribute and accessor ids, and tuple version
    of one policy.db line."""
    match = _POLICY_RE.fullmatch(line)
    if match is None:
        raise ValueError("not a policy record")
    fields = tuple(map(int, match.group(2, 3, 4, 5, 7)))
    if max(fields) >= ID_LIMIT:
        raise ValueError("a seq, id or version is 2**63 or more")
    return fields


def _line(record: Record) -> bytes:
    """The line of a content or credential record."""
    return json.dumps(record.to_dict(), sort_keys=True).encode("utf-8")


def _open_records(file: IndexedFile, kind: type[Record]) -> list:
    """Open a content or credential file, which has no checkpoint, and
    decode its records: each line holds one JSON object from its first
    byte to its last, as _line writes it, and no CR."""

    def decode(line):
        line = line.removesuffix(b"\n")
        if line[:1] != b"{" or line[-1:] != b"}" or b"\r" in line:
            raise ValueError("a blank or padded line, or one with a CR")
        return kind.from_dict(json.loads(line.decode("utf-8")))

    records = []
    file.open(lambda: records.extend(_decode_lines(file, decode)))
    return records


def _decode_lines(file: IndexedFile, decode) -> list:
    """decode(line) per line of a family file from its reader's position
    on (files.IndexedFile.lines), in order; a line that fails to decode
    raises StoreError naming the file and line."""
    decoded = []
    for number, line in file.lines():
        try:
            decoded.append(decode(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"{file.path} line {number}: unreadable record ({exc})") from None
    return decoded


class Store:
    """Single-writer store over the three family files."""

    def __init__(self, data_dir, hash_cost: int = DEFAULT_COST, create: bool = False):
        self._catalog = default_catalog()
        self._hash_cost = hash_cost
        self._providers: dict[int, ProviderRecord] = {}
        # Per policy.db line, in file order, as a checkpoint holds them: its
        # ledger seq, rising, and its tuple version.  The line at row r is
        # line r + 1, and policy_file.offsets says where it is.
        self._seqs, self._versions = array("q"), array("q")
        self._credentials: dict[str, Credential] = {}
        self._accessors: dict[int, Credential] = {}
        self._files = [
            IndexedFile(Path(data_dir) / name, self._take if name == POLICY_FILE else None)
            for name in FAMILY_FILES
        ]
        self._credential_file, self.policy_file, self._content = self._files
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
        self.policy_file.open(self._index_policy)
        for cred in _open_records(self._credential_file, Credential):
            self._credentials[cred.login] = cred
            self._accessors[cred.profile.accessor_id] = cred

    def _index_policy(self):
        """Run open's pass over policy.db from the reader's position on."""
        seqs, versions = self._seqs, self._versions

        def index(line):
            seq, _, _, _, version = _index_policy_line(line)
            if seqs and seq <= seqs[-1]:
                raise ValueError(f"seq {seq} is not above the previous line's {seqs[-1]}")
            seqs.append(seq)
            versions.append(version)

        _decode_lines(self.policy_file, index)

    def _take(self, count: int, parts) -> bool:
        """Take the seqs and versions of the checkpoint's count lines, if
        their values are in range."""
        try:
            seqs, versions = map(int_array, parts)
        except ValueError:
            return False
        if not (
            len(seqs) == len(versions) == count
            and min(seqs, default=0) >= 0
            and min(versions, default=0) >= 0
            and all(map(lt, seqs, islice(seqs, 1, None)))
        ):
            return False
        self._seqs, self._versions = seqs, versions
        return True

    def save_checkpoint(self):
        """Write policy.db's checkpoint when one is due (see files.IndexedFile)."""
        self.policy_file.save(lambda: (self._seqs.tobytes(), self._versions.tobytes()))

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
        line = b'{"nonce": "%s", "seq": %d, "stream": "%s", "tuple": %s}' % (
            nonce.hex().encode(), seq, stream.encode(), encoded
        )
        seq, provider_id, _, _, version = _index_policy_line(line)
        if provider_id not in self._providers:
            raise UnknownProvider(f"no provider with id {provider_id}")
        seqs = self._seqs
        if seqs and seq <= seqs[-1]:
            raise StaleVersion(f"policy.db already holds seq {seqs[-1]}, got {seq}")
        self.policy_file.append(line)
        seqs.append(seq)
        self._versions.append(version)

    def policy_runs(self, seqs):
        """An iterator that splits seqs, ledger seqs in a query's order
        (None for a lineage with no stream), into runs of consecutive seqs,
        whose lines are adjacent rows, at most RUN_BYTES from the first's
        start to the last's end, and reads each run's lines with one
        os.pread when the caller asks for the run: per run (start, stop,
        row, data), seqs[start:stop], the row of its first line and what
        policy_file.read gave.  A None seq, or one policy.db holds no line
        at, is a run alone with row and data None.  The row after the last
        one found is tried before a bisection."""
        column, offsets, read = self._seqs, self.policy_file.offsets, self.policy_file.read
        count = len(column)
        start = None  # the open run's place in seqs
        row = expect = limit = -1  # what the run's next line must meet
        for at, seq in enumerate(seqs):
            if seq is not None:
                row += 1
                if row >= count or column[row] != seq:
                    row = bisect_left(column, seq)
                    if row == count or column[row] != seq:
                        seq = None
                # Seqs rise from row to row, so a consecutive seq is on the next row.
                if seq == expect and offsets[row + 1] <= limit:
                    expect += 1
                    continue
            if start is not None:
                yield start, at, first, read(first, at - start)
            if seq is None:
                start = None
                expect = -1
                yield at, at + 1, None, None
            else:
                start, first = at, row
                expect, limit = seq + 1, offsets[row] + RUN_BYTES
        if start is not None:
            yield start, len(seqs), first, read(first, len(seqs) - start)

    def latest_tuple_instance(
        self, lineage: tuple[int, int, int], seq: int, line: bytes
    ) -> StoredTuple:
        """The lineage's version stored at the ledger seq that is its
        stream's latest, as the pattern open uses reads it from line, the
        bytes of its policy.db line as policy_runs or policy_file.pieces
        gave them.  Nothing is decoded: the tuple's bytes are a slice of
        the line.  Raises CorruptRecord when the pattern rejects the line,
        or its seq, stream or version disagrees with the lineage or its
        index.  The lineage is a (provider_id, attribute_id, accessor_id)
        tuple."""
        seqs, versions = self._seqs, self._versions
        row = bisect_left(seqs, seq)
        match = _POLICY_RE.fullmatch(line)
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
        seqs, versions = self._seqs, self._versions
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
        return f"{self.policy_file.path} line {row + 1}"

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
