"""The per-line open loops, kept as the references for the chunked pass
of privledger.ledger.Ledger._load and for the policy.db index that
privledger.store.Store._load builds in one pass over the file's bytes.

reference_load_ledger is Ledger._load as it was before open ran one
pattern over the whole file, moved to data format 2: it splits the text
at newlines, checks each line on its own, holds the chain to the genesis
rule and indexes each stream from its first record.
reference_index_policy is the policy.db indexing as it was before the
store read the file a block at a time with a fallback that decodes line
by line, moved to one entry per line with seqs that must rise and to the
line rule every data file has: lines end at \\n only, and each line, its
\\n included, is matched as it is by the store's bytes pattern, with
nothing stripped and no blank line skipped.  So a blank or padded line,
one ending at \\r\\n or holding a lone \\r, and one with a byte that is
not UTF-8, fails as an unreadable record naming its file and line, as
any other bad line does.
"""

from __future__ import annotations

from privledger.chain import ROOT_STREAM, LedgerError, _check_line
from privledger.store import StoreError, _index_policy_line


def reference_load_ledger(path) -> tuple[list[str], dict[str, tuple[str, list[int]]]]:
    """The record lines of a ledger file and its stream index, as
    {name: (created_by, seqs)} in the order of each stream's first record,
    root listing none; raises LedgerError as open does."""
    # A byte that is not UTF-8 decodes to U+FFFD, which no field rule
    # admits, so it fails like any other corrupt record.
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":  # after the final newline; any other is corrupt
        lines.pop()
    items: list[str] = []
    streams: dict[str, tuple[str, list[int]]] = {}
    valid_dates: set[str] = set()
    for index, raw in enumerate(lines):
        try:
            match = _check_line(raw, valid_dates)
        except ValueError as exc:
            raise LedgerError(
                f"corrupt ledger record at position {index}: {exc}; "
                "run chain verification"
            ) from None
        seq, stream, publisher = match.group(1, 2, 4)
        seq = int(seq)
        if seq != len(items):
            raise LedgerError(
                f"ledger sequence discontinuity at position {index}; "
                "run chain verification"
            )
        if seq == 0 and stream != ROOT_STREAM:
            rule = "the genesis is not on root"
        elif seq > 0 and stream == ROOT_STREAM:
            rule = "a record on root after the genesis"
        else:
            rule = None
        if rule is not None:
            raise LedgerError(
                f"ledger record at position {index} breaks the genesis rule: {rule}; "
                "run chain verification"
            )
        items.append(raw)
        _, seqs = streams.setdefault(stream, (publisher, []))
        if seq > 0:
            seqs.append(seq)
    return items, streams


def reference_read_records(path, decode):
    """(line number, line, decoded) per line, the line's bytes with its
    \\n (the file's last line may lack it); a line that fails to decode
    raises StoreError naming the file and line."""
    with open(path, "rb") as fh:
        lines = [raw + b"\n" for raw in fh.read().split(b"\n")]
    lines[-1] = lines[-1].removesuffix(b"\n")  # the bytes after the last \n
    if not lines[-1]:
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        try:
            record = decode(line)
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"{path} line {lineno}: unreadable record ({exc})") from None
        yield lineno, line, record


def reference_index_policy(path) -> list[tuple[int, int, bytes, int]]:
    """(seq, version, line, line number) of every record in a policy.db
    file, in file order; raises StoreError as open does, also where a
    record's seq is not above the one before it."""
    index = []
    for lineno, line, (seq, *_, version) in reference_read_records(path, _index_policy_line):
        if index and seq <= index[-1][0]:
            raise StoreError(
                f"{path} line {lineno}: unreadable record "
                f"(seq {seq} is not above the previous line's {index[-1][0]})"
            )
        index.append((seq, version, line, lineno))
    return index
