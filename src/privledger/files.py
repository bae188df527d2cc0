"""The file layer: each data file is an IndexedFile, and every byte the
engine writes to one goes through append_line or replace_file.

Every data file has one line rule, the one the engine writes by: a line
is one record and ends at LF, the last one may lack it, and no line is
blank, holds a CR or is padded.  Each owner's pass checks it: ledger.db's
and policy.db's patterns admit no other line, and content.db's and
credentials.db's records must be one JSON object from the line's first
byte to its last.  Of ledger.db and policy.db, the checkpointed files, the
IndexedFile keeps the record index, each record's offset and then the
end of the last: after open, records are read back through read(first,
count), one os.pread for a stretch of back-to-back records, and
pieces(first, count, data) cuts such a read into each record's bytes."""

from __future__ import annotations

import hashlib
import os
import secrets
from array import array
from itertools import islice
from operator import lt
from pathlib import Path

from .chain import CHUNK_BYTES, DIGEST_BYTES
from .config import private


def append_line(handle, line: bytes, newline_first: bool = False) -> bytes:
    """Append a line and its newline through an unbuffered binary handle,
    first a newline if newline_first (the file's last line lacks one);
    returns the bytes written.

    A short write is carried on.  If a write fails, what the line's
    earlier writes put in the file is cut off again, so nothing of it
    stays for the next append to run into, and the handle is closed: the
    next append opens the file afresh.
    """
    data = b"\n" * newline_first + line + b"\n"
    written = 0
    try:
        while written < len(data):
            written += handle.write(data[written:])
    except BaseException:
        try:
            if written:
                os.ftruncate(handle.fileno(), os.fstat(handle.fileno()).st_size - written)
        finally:
            handle.close()
        raise
    return data


def replace_file(target: Path, chunks):
    """Write the chunks of bytes to a temporary file beside target, then
    rename it over target, so that no reader sees a half-written file.  The
    new file has mode 0600.  A write that fails leaves no temporary file."""
    temp = target.with_name(f"{target.name}.{secrets.token_hex(8)}")
    fh = open(temp, "xb", opener=private)
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(temp, target)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


# The version of open's checks.  A checkpoint names the version it was
# written under, and open ignores one of any other, so a change to what
# open accepts or to what a checkpoint holds must raise it.
CHECKER_VERSION = 3
CHECKPOINT_SUFFIX = ".checkpoint"
_CHECKPOINT_HEAD = b"privledger checkpoint\n" + CHECKER_VERSION.to_bytes(4, "big")
# Close writes a new checkpoint when open met a tail of at least this many
# bytes beyond the checkpoint's prefix.
CHECKPOINT_TAIL_BYTES = 256 * 1024


def checkpoint_path(path: Path) -> Path:
    """Where the checkpoint of the file at path is."""
    return path.with_name(path.name + CHECKPOINT_SUFFIX)


def load_checkpoint(path: Path, fh):
    """(hasher, offsets, parts) of the checkpoint of the file at path,
    open as fh at its start, when the checkpoint is whole, of this checker
    version, its offsets start at 0, rise and end at its prefix's end, and
    that prefix still begins the file and ends after a newline: hasher is
    a SHA-256 fed that prefix, which it reads CHUNK_BYTES at a time,
    leaving fh at its end, offsets the record index of the prefix and
    parts the owner's.  None otherwise, with fh anywhere."""
    try:
        with open(checkpoint_path(path), "rb") as ck:
            data = ck.read()
    except OSError:
        return None
    body = memoryview(data)[:-DIGEST_BYTES]
    if not data.startswith(_CHECKPOINT_HEAD) or hashlib.sha256(body).digest() != data[-DIGEST_BYTES:]:
        return None
    parts = []
    at = len(_CHECKPOINT_HEAD)
    while at < len(body):
        size = int.from_bytes(body[at : at + 8], "big")
        parts.append(body[at + 8 : at + 8 + size])
        at += 8 + size
    if at != len(body) or len(parts) < 3 or not parts[2] or len(parts[2]) % 8:
        return None
    left = int.from_bytes(parts[0], "big")
    offsets = int_array(parts[2])
    if not (
        offsets[0] == 0
        and offsets[-1] == left
        and all(map(lt, offsets, islice(offsets, 1, None)))  # each record holds a byte
    ):
        return None
    hasher = hashlib.sha256()
    last = b"\n"
    while left > 0:
        chunk = fh.read(min(CHUNK_BYTES, left))
        if not chunk:
            return None
        hasher.update(chunk)
        left -= len(chunk)
        last = chunk[-1:]
    if last != b"\n" or hasher.digest() != parts[1]:
        return None
    return hasher, offsets, parts[3:]


def int_array(data) -> array:
    """The 64-bit integers a checkpoint part holds."""
    values = array("q")
    values.frombytes(data)
    return values


class IndexedFile:
    """One line file that its owner (Ledger or Store) indexes at open and
    appends to; ledger.db and policy.db are also checkpointed at close.

    The owner runs the pass that builds its index, through lines() or over
    the reader; this keeps the rest.  An owner that checkpoints the file
    gives it take(count, parts), which takes a checkpoint's parts as its
    index of count records, and the file keeps offsets: each record's
    offset and then the end of the last, which the owner's pass extends by
    each record's end and every append moves.  open() takes the checkpoint
    beside the file where it is whole, of this CHECKER_VERSION, its
    offsets well formed, its prefix unchanged and ending after a newline,
    and take accepts its parts (the index at the prefix's end); the
    owner's pass then runs over the tail only.  Else the pass runs over
    the whole file.  save() writes a new checkpoint, the prefix's length
    and SHA-256, the offsets and then the owner's parts, only when this
    process wrote, ran the full pass or met a tail of at least
    CHECKPOINT_TAIL_BYTES, the file ends in a newline, and close() never
    ran.  A file with no take (content.db, credentials.db) has no
    checkpoint and no offsets: open looks for none, and nothing hashes its
    bytes.  The first append to a file whose last line lacks its newline
    writes it first, and the record before it then ends after it.

    The read-only handle is held from open(), create() or replace(), and
    the unbuffered append handle from the first append, until close() or
    replace(); an append that fails closes its handle, and the next opens
    the file afresh.  Once close() ran, every read or write raises
    ValueError naming the file, as io does for a closed file.  A file it
    creates gets mode 0600.
    """

    def __init__(self, path: Path, take=None):
        self.path = path
        self._take = take
        self.reader = self._out = None
        self.closed = False
        # Fed the file's first `size` bytes, for a checkpoint; None for a
        # file with no take, as offsets is.
        self.hasher = None if take is None else hashlib.sha256()
        self.offsets = None if take is None else array("q", [0])
        self.size = 0
        self._due = False
        self._unterminated = False  # the file's last line lacks its newline

    def open(self, index):
        """Open the file and index it: take(count, parts), if the file has
        one, takes the checkpoint's index, with the reader at its prefix's
        end, and says whether its values are in range; index() then runs
        the owner's pass from the reader's position to the end of the
        file."""
        self.reader = open(self.path, "rb")
        found = None if self._take is None else load_checkpoint(self.path, self.reader)
        if found is not None and self._take(len(found[1]) - 1, found[2]):
            self.hasher, self.offsets = found[:2]
        else:
            self.reader.seek(0)
            self._due = True
        start = self.reader.tell()
        index()
        self.size = end = self.reader.tell()
        self._due |= end - start >= CHECKPOINT_TAIL_BYTES
        self._unterminated = end > 0 and os.pread(self.reader.fileno(), 1, end - 1) != b"\n"

    def lines(self):
        """(number, line) per line from the reader's position to the end of
        the file: line its bytes up to and with its LF (the last may lack
        it), number its row + 1.  A file with a take feeds each line to
        hasher and its end to offsets."""
        offsets = self.offsets
        if offsets is None:
            yield from enumerate(self.reader, 1)
            return
        update, at = self.hasher.update, offsets[-1]
        for number, line in enumerate(self.reader, len(offsets)):
            update(line)
            at += len(line)
            offsets.append(at)
            yield number, line

    def create(self):
        """Create the file, or take it empty, with the read-only handle open."""
        open(self.path, "ab", opener=private).close()
        self.reader = open(self.path, "rb")

    def check_open(self):
        """Raise ValueError naming the file once close() ran, as io does
        for a closed file."""
        if self.closed:
            raise ValueError(f"I/O operation on closed file: {self.path}")

    def read(self, first: int, count: int):
        """The bytes of the count records from row first on, back to back
        in the file, read with one os.pread: short where the file ends
        inside them; the OSError of a read the system refuses."""
        if self.closed:
            self.check_open()
        offsets = self.offsets
        try:
            return os.pread(
                self.reader.fileno(), offsets[first + count] - offsets[first], offsets[first]
            )
        except OSError as exc:
            return exc

    def pieces(self, first: int, count: int, data) -> list:
        """Each record's bytes out of data, what read(first, count) gave
        (short where the file ends inside).  Where data is the OSError read
        gave, each of several records is read alone, so a refused read
        fails only the records it covers."""
        rows = range(first, first + count)
        if isinstance(data, OSError):
            return [data] if count == 1 else [self.read(row, 1) for row in rows]
        offsets = self.offsets
        start = offsets[first]
        return [data[offsets[row] - start : offsets[row + 1] - start] for row in rows]

    def append(self, line: bytes):
        """Append a line and its newline."""
        self.check_open()
        if self._out is None or self._out.closed:
            self._out = open(self.path, "ab", buffering=0, opener=private)
        newline = self._unterminated
        data = append_line(self._out, line, newline)
        self._unterminated = False
        self._due = True
        self.size += len(data)
        if self.offsets is not None:
            self.hasher.update(data)
            self.offsets[-1] += newline
            self.offsets.append(self.size)

    def replace(self, lines):
        """Replace the file, one with no take, with the lines, each ending
        in a newline, then hold the new file as open() would.  If the write
        fails, the old file and its handles stay as they were."""
        self.check_open()
        data = b"".join(line + b"\n" for line in lines)
        replace_file(self.path, (data,))
        reader = open(self.path, "rb")
        self.close()  # the replaced file's handles
        self.reader, self.closed = reader, False
        self.size = len(data)
        self._due, self._unterminated = True, False

    def save(self, parts):
        """Write the checkpoint of all of the file this indexed or wrote,
        with the offsets and the parts that parts() returns, if one is due
        and the file ends in a newline.  It goes to a temporary file beside
        it, then is renamed over it; a write that fails leaves no temporary
        file and raises nothing."""
        if self.closed or not self._due or self._unterminated:
            return
        chunks = [_CHECKPOINT_HEAD]
        head = (self.size.to_bytes(8, "big"), self.hasher.digest(), self.offsets.tobytes())
        for part in (*head, *parts()):
            chunks += (len(part).to_bytes(8, "big"), part)
        body = b"".join(chunks)
        try:
            replace_file(checkpoint_path(self.path), (body, hashlib.sha256(body).digest()))
        except OSError:
            pass

    def close(self):
        for handle in (self._out, self.reader):
            if handle is not None:
                handle.close()
        self._out = self.reader = None
        self.closed = True
