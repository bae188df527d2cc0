"""The file layer: each data file is an IndexedFile, and every byte the
engine writes to one goes through append_line or replace_file."""

from __future__ import annotations

import hashlib
import os
import secrets
from array import array
from pathlib import Path

from .chain import CHUNK_BYTES, DIGEST_BYTES
from .config import private


def append_line(handle, line: str, newline_first: bool = False) -> bytes:
    """Append a line and its newline through an unbuffered binary handle,
    first a newline if newline_first (the file's last line lacks one);
    returns the bytes written.

    A short write is carried on.  If a write fails, what the line's
    earlier writes put in the file is cut off again, so nothing of it
    stays for the next append to run into, and the handle is closed: the
    next append opens the file afresh.
    """
    data = b"\n" * newline_first + line.encode("utf-8") + b"\n"
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
CHECKER_VERSION = 2
CHECKPOINT_SUFFIX = ".checkpoint"
_CHECKPOINT_HEAD = b"privledger checkpoint\n" + CHECKER_VERSION.to_bytes(4, "big")
# Close writes a new checkpoint when open met a tail of at least this many
# bytes beyond the checkpoint's prefix.
CHECKPOINT_TAIL_BYTES = 256 * 1024


def checkpoint_path(path: Path) -> Path:
    """Where the checkpoint of the file at path is."""
    return path.with_name(path.name + CHECKPOINT_SUFFIX)


def load_checkpoint(path: Path, fh):
    """(hasher, parts) of the checkpoint of the file at path, open as fh
    at its start, when the checkpoint is whole, of this checker version,
    and its prefix still begins the file and ends after a newline: hasher
    is a SHA-256 fed that prefix, which it reads CHUNK_BYTES at a time,
    leaving fh at its end.  None otherwise, with fh anywhere."""
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
    if at != len(body) or len(parts) < 2:
        return None
    left = int.from_bytes(parts[0], "big")
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
    return hasher, parts[2:]


def int_array(data) -> array:
    """The 64-bit integers a checkpoint part holds."""
    values = array("q")
    values.frombytes(data)
    return values


class IndexedFile:
    """One line file that its owner (Ledger or Store) indexes at open and
    appends to; ledger.db and policy.db are also checkpointed at close.

    The owner keeps its index and runs the pass that builds it; this keeps
    the rest.  open() takes the checkpoint beside the file where it is
    whole, of this CHECKER_VERSION, its prefix unchanged and ending after
    a newline, and the owner's take(parts) accepts its parts (the index at
    the prefix's end); the owner's pass then runs over the tail only.  Else
    the pass runs over the whole file.  save() writes a new checkpoint,
    the prefix's length and SHA-256 and then the owner's parts, only when
    this process wrote, ran the full pass or met a tail of at least
    CHECKPOINT_TAIL_BYTES, the file ends in a newline, and close() never
    ran.  The first append to a file whose last line lacks its newline
    writes it first.

    The read-only handle is held from open(), create() or replace(), and
    the unbuffered append handle from the first append, until close() or
    replace(); an append that fails closes its handle, and the next opens
    the file afresh.  Once close() ran, every read or write raises
    ValueError naming the file, as io does for a closed file.  A file it
    creates gets mode 0600.
    """

    def __init__(self, path: Path):
        self.path = path
        self.reader = self._out = None
        self.closed = False
        # Fed the file's first `size` bytes, for a checkpoint; an owner that
        # never saves one need not feed it at open.
        self.hasher = hashlib.sha256()
        self.size = 0
        self._due = False
        self._unterminated = False  # the file's last line lacks its newline

    def open(self, take, index):
        """Open the file and index it: take(parts) takes the checkpoint's
        index, with the reader at its prefix's end, and says whether its
        values are in range; index() then runs the owner's pass from the
        reader's position to the end of the file, feeding hasher if the
        owner saves checkpoints."""
        self.reader = open(self.path, "rb")
        found = load_checkpoint(self.path, self.reader)
        if found is not None and take(found[1]):
            self.hasher = found[0]
        else:
            self.reader.seek(0)
            self._due = True
        start = self.reader.tell()
        index()
        self.size = end = self.reader.tell()
        self._due |= end - start >= CHECKPOINT_TAIL_BYTES
        self._unterminated = end > 0 and os.pread(self.reader.fileno(), 1, end - 1) != b"\n"

    def create(self):
        """Create the file, or take it empty, with the read-only handle open."""
        open(self.path, "ab", opener=private).close()
        self.reader = open(self.path, "rb")

    def check_open(self):
        """Raise ValueError naming the file once close() ran, as io does
        for a closed file."""
        if self.closed:
            raise ValueError(f"I/O operation on closed file: {self.path}")

    def fileno(self) -> int:
        """The read-only handle's descriptor, to read records by offset."""
        self.check_open()
        return self.reader.fileno()

    def append(self, line: str) -> tuple[int, int]:
        """Append a line; returns its offset and its length in bytes without
        the newline."""
        self.check_open()
        if self._out is None or self._out.closed:
            self._out = open(self.path, "ab", buffering=0, opener=private)
        newline = self._unterminated
        data = append_line(self._out, line, newline)
        self._unterminated = False
        self._due = True
        self.hasher.update(data)
        offset = self.size + newline
        self.size += len(data)
        return offset, len(data) - newline - 1

    def replace(self, lines):
        """Replace the file with the lines, each ending in a newline, then
        hold the new file as open() would.  If the write fails, the old file
        and its handles stay as they were."""
        self.check_open()
        data = b"".join(line.encode("utf-8") + b"\n" for line in lines)
        replace_file(self.path, (data,))
        reader = open(self.path, "rb")
        self.close()  # the replaced file's handles
        self.reader, self.closed = reader, False
        self.hasher, self.size = hashlib.sha256(data), len(data)
        self._due, self._unterminated = True, False

    def save(self, parts):
        """Write the checkpoint of all of the file this indexed or wrote,
        with the parts that parts() returns, if one is due and the file
        ends in a newline.  It goes to a temporary file beside it, then is
        renamed over it; a write that fails leaves no temporary file and
        raises nothing."""
        if self.closed or not self._due or self._unterminated:
            return
        chunks = [_CHECKPOINT_HEAD]
        for part in (self.size.to_bytes(8, "big"), self.hasher.digest(), *parts()):
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
