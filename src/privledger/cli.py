"""Command-line front end.

Subcommands: init, provider add, accessor add, policy set, query,
ledger list-streams / items / verify.  Every query is mediated: no
subcommand reads provider values around mediation.  The paper's
overhead table is built by the benchmark (perfbench), not here.  Exit
status is 0 for success, 1 for general errors, 2 for usage errors, 3 for an aborted
mediation, 4 for failed authentication and 5 for a failed chain
verification.  With --json every record prints as one JSON line.

Each command loads only the modules it runs.  ``ledger verify`` reads the
configuration and walks the chain file, so a process that runs it loads
config.py and chain.py only; every other command opens the engine and
loads the engine, mediator, store, policy and tuples modules when it
runs, not when this module is imported.
"""

from __future__ import annotations

import argparse
import datetime as dt
import fcntl
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .chain import ChainReport, LedgerError, verify_file
from .config import DATA_DIR_ENV, EngineConfig, EngineError, parse_decimal, require_format

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_ABORTED = 3
EXIT_AUTH_FAILED = 4
EXIT_VERIFY_FAILED = 5

DEFAULT_DATA_DIR = "privledger-data"
LOCK_FILE = ".lock"


class CliError(Exception):
    """Operator-facing failure with a chosen exit status."""

    def __init__(self, message: str, code: int = EXIT_ERROR):
        super().__init__(message)
        self.code = code


class Output:
    def __init__(self, as_json: bool):
        self.as_json = as_json

    def emit(self, record: dict, text: str):
        if self.as_json:
            print(json.dumps(record, sort_keys=True))
        else:
            print(text)


@contextmanager
def data_dir_lock(data_dir: Path):
    """One process per data directory; the second fails fast."""
    handle = open(data_dir / LOCK_FILE, "a+")
    try:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            raise CliError(
                f"data directory is locked by another process: {data_dir}"
            ) from None
        yield
    finally:
        handle.close()


@contextmanager
def open_engine(config: EngineConfig):
    """Lock the data directory, then open its engine; close it on exit.

    A directory without engine state is refused before the lock, so no
    command but init creates anything."""
    from .engine import Engine

    Engine.require_state(config)
    with data_dir_lock(config.data_dir):
        engine = Engine.open(config)
        try:
            yield engine
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# The tokens of policy.AccessorRole and policy.Sensitivity, in their order,
# so that building the parser loads no policy code; a test holds them equal.
ROLE_TOKENS = (
    "ClinicalNurse",
    "LaboratoryAnalyst",
    "ClinicalPhysician",
    "ThirdPartyAllied",
    "DataProvider",
    "PatientLegalRepresentative",
)
PERMISSION_TOKENS = ("Level1Public", "Level2InternalUse", "Level3Confidential", "Level4Restricted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privledger",
        description="Privacy-aware data engine over an append-only stream ledger.",
    )
    parser.add_argument("--config", help="path to a key = value configuration file")
    parser.add_argument("--data-dir", help="data directory (overrides config and env)")
    parser.add_argument("--json", action="store_true", help="line-delimited JSON output")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("init", help="initialize a fresh data directory")

    provider = commands.add_parser("provider", help="provider records")
    provider_sub = provider.add_subparsers(dest="subcommand", required=True)
    provider_add = provider_sub.add_parser("add", help="add or replace a provider record")
    provider_add.add_argument("--id", type=int, required=True)
    provider_add.add_argument(
        "--set",
        dest="values",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="attribute value, repeatable",
    )

    accessor = commands.add_parser("accessor", help="accessor accounts")
    accessor_sub = accessor.add_subparsers(dest="subcommand", required=True)
    accessor_add = accessor_sub.add_parser("add", help="register an accessor")
    accessor_add.add_argument("--id", type=int, required=True)
    accessor_add.add_argument("--login", required=True)
    accessor_add.add_argument("--password", required=True)
    accessor_add.add_argument("--role", required=True, choices=ROLE_TOKENS)
    accessor_add.add_argument(
        "--permission",
        required=True,
        choices=PERMISSION_TOKENS,
        help="maximum readable sensitivity",
    )

    policy = commands.add_parser("policy", help="privacy policies")
    policy_sub = policy.add_subparsers(dest="subcommand", required=True)
    policy_set = policy_sub.add_parser(
        "set", help="bind, hash, publish and store one policy version"
    )
    policy_set.add_argument("--provider", type=int, required=True)
    policy_set.add_argument("--attribute", type=int, required=True)
    policy_set.add_argument("--accessor", type=int, required=True)
    policy_set.add_argument("--file", required=True, help="policy document path")

    query = commands.add_parser("query", help="run a mediated query")
    query.add_argument("--login", required=True)
    query.add_argument("--password", required=True)
    query.add_argument("--purpose", required=True)
    query.add_argument(
        "--attributes", required=True, help="comma-separated attribute names"
    )
    query.add_argument("--provider", type=int, help="restrict to one provider")
    query.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="predicate conjunct, repeatable; matches only a cell granted Specific",
    )
    query.add_argument("--now", help="policy evaluation date, ISO-8601")

    ledger = commands.add_parser("ledger", help="inspect the stream ledger")
    ledger_sub = ledger.add_subparsers(dest="subcommand", required=True)
    ledger_sub.add_parser("list-streams", help="streams with item counts")
    items = ledger_sub.add_parser("items", help="transaction items of a stream")
    items.add_argument("stream")
    items.add_argument("--start", type=int, default=0, help="negative counts from the end")
    items.add_argument("--count", type=int, help="maximum items")
    ledger_sub.add_parser("verify", help="walk the hash chain from genesis")

    return parser


def resolve_config(args) -> EngineConfig:
    if args.config:
        config = EngineConfig.from_file(args.config)
    else:
        config = EngineConfig(data_dir=Path(DEFAULT_DATA_DIR))
    data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV)
    return EngineConfig(data_dir, config.hash_cost) if data_dir else config


def _parse_assignments(pairs, what: str) -> dict:
    values = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise CliError(f"{what} must read NAME=VALUE, got {pair!r}", EXIT_USAGE)
        number = parse_decimal(value)
        values[name] = value if number is None else number
    return values


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_init(config: EngineConfig, out: Output) -> int:
    from .engine import Engine

    config.data_dir.mkdir(parents=True, exist_ok=True)
    with data_dir_lock(config.data_dir):
        engine = Engine.initialize(config)
        try:
            genesis = engine.ledger.item(0)
            out.emit(
                {
                    "record": "init",
                    "data_dir": str(config.data_dir),
                    "root_seq": genesis.seq,
                },
                f"initialized {config.data_dir} (root stream at seq {genesis.seq})",
            )
        finally:
            engine.close()
    return EXIT_OK


def cmd_provider_add(config: EngineConfig, args, out: Output) -> int:
    values = _parse_assignments(args.values, "--set")
    with open_engine(config) as engine:
        engine.add_provider(args.id, values)
        out.emit(
            {"record": "provider", "provider_id": args.id, "attributes": len(values)},
            f"stored provider {args.id} with {len(values)} attribute values",
        )
    return EXIT_OK


def cmd_accessor_add(config: EngineConfig, args, out: Output) -> int:
    from .policy import AccessorProfile, AccessorRole, Sensitivity

    profile = AccessorProfile(
        accessor_id=args.id,
        role=AccessorRole.from_token(args.role),
        permission_level=Sensitivity.from_token(args.permission),
    )
    with open_engine(config) as engine:
        engine.add_accessor(args.login, args.password, profile)
        out.emit(
            {"record": "accessor", "accessor_id": args.id, "login": args.login},
            f"registered accessor {args.id} ({args.login}, {args.role})",
        )
    return EXIT_OK


def cmd_policy_set(config: EngineConfig, args, out: Output) -> int:
    from .policy import parse_policy_document

    text = Path(args.file).read_text()
    records = parse_policy_document(text)
    if len(records) != 1:
        raise CliError(
            f"policy file must hold exactly one record, found {len(records)}"
        )
    with open_engine(config) as engine:
        publication = engine.set_policy(
            args.provider, args.accessor, records[0], attribute_id=args.attribute
        )
        out.emit(
            {
                "record": "publication",
                "stream": publication.stream,
                "seq": publication.seq,
                "version": publication.version,
                "key": publication.key,
            },
            f"published {publication.stream} seq {publication.seq} "
            f"version {publication.version} key {publication.key}",
        )
    return EXIT_OK


def _render_cell(value) -> str:
    return "" if value is None else str(value)


def cmd_query(config: EngineConfig, args, out: Output) -> int:
    from .mediator import MediationStatus, QueryRequest

    attributes = tuple(a.strip() for a in args.attributes.split(",") if a.strip())
    predicate = _parse_assignments(args.where, "--where")
    now = None
    if args.now:
        try:
            now = dt.date.fromisoformat(args.now)
        except ValueError:
            raise CliError(f"--now must be an ISO-8601 date, got {args.now!r}", EXIT_USAGE)
    with open_engine(config) as engine:
        profile = engine.store.authenticate(args.login, args.password)
        request = QueryRequest(
            accessor_id=profile.accessor_id,
            requested_purpose=args.purpose,
            attributes=attributes,
            predicate=predicate,
            provider_id=args.provider,
        )
        result = engine.mediate(request, now=now)

    out.emit(
        {"record": "status", "status": result.status.value},
        f"status = {result.status.value}",
    )
    for entry in result.verification:
        out.emit(
            {
                "record": "verification",
                "stream": entry.lineage.stream,
                "seq": entry.seq,
                "verified": entry.verified,
                "note": entry.note,
            },
            f"  {entry.lineage.stream}  seq={entry.seq}  "
            f"verified={'yes' if entry.verified else 'no'} ({entry.note})",
        )
    for name, reason in result.denials:
        out.emit(
            {"record": "denial", "attribute": name, "reason": reason},
            f"  denied {name}: {reason}",
        )
    out.emit(
        {"record": "columns", "columns": list(result.columns)},
        "columns: " + " | ".join(result.columns),
    )
    for row in result.rows:
        out.emit(
            {"record": "row", "provider_id": row.provider_id, "cells": list(row.cells)},
            f"provider {row.provider_id}: "
            + " | ".join(_render_cell(c) for c in row.cells),
        )
    out.emit(
        {
            "record": "timing",
            "native_ms": round(result.timing.native_ms, 2),
            "total_ms": round(result.timing.total_ms, 2),
        },
        f"timing: native={result.timing.native_ms:.2f} ms "
        f"total={result.timing.total_ms:.2f} ms",
    )
    if result.status is MediationStatus.ABORTED:
        return EXIT_ABORTED
    return EXIT_OK


def cmd_ledger_list_streams(config: EngineConfig, out: Output) -> int:
    with open_engine(config) as engine:
        for stream in engine.ledger.streams():
            out.emit(
                {
                    "record": "stream",
                    "name": stream.name,
                    "items": stream.item_count,
                    "created_by": stream.created_by,
                },
                f"{stream.name}  items={stream.item_count}  "
                f"created_by={stream.created_by}",
            )
    return EXIT_OK


def cmd_ledger_items(config: EngineConfig, args, out: Output) -> int:
    with open_engine(config) as engine:
        items = engine.ledger.list_items(
            args.stream, start=args.start, count=args.count
        )
        for item in items:
            payload = item.payload.decode("ascii")
            out.emit(
                {
                    "record": "item",
                    "seq": item.seq,
                    "key": item.key,
                    "publisher": item.publisher,
                    "timestamp": item.timestamp.isoformat(),
                    "payload": payload,
                },
                f"seq={item.seq}  key={item.key}  "
                f"time={item.timestamp.isoformat()}  payload={payload}",
            )
    return EXIT_OK


def cmd_ledger_verify(config: EngineConfig, out: Output) -> int:
    if not config.ledger_file.exists():
        raise CliError(f"no ledger at {config.ledger_file}")
    require_format(config.data_dir)
    report: ChainReport = verify_file(config.ledger_file)
    out.emit(
        {
            "record": "verification",
            "intact": report.intact,
            "records": report.records,
            "first_bad_seq": report.first_bad_seq,
            "detail": report.detail,
        },
        f"{report.detail} ({report.records} records)"
        if report.intact
        else f"chain verification failed: {report.detail}",
    )
    return EXIT_OK if report.intact else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(args) -> int:
    config = resolve_config(args)
    out = Output(args.json)
    if args.command == "ledger" and args.subcommand == "verify":
        return cmd_ledger_verify(config, out)
    # Every other command opens the engine; the store's errors come with it.
    from .store import AuthenticationFailed, StoreError

    try:
        if args.command == "init":
            return cmd_init(config, out)
        if args.command == "provider":
            return cmd_provider_add(config, args, out)
        if args.command == "accessor":
            return cmd_accessor_add(config, args, out)
        if args.command == "policy":
            return cmd_policy_set(config, args, out)
        if args.command == "query":
            return cmd_query(config, args, out)
        if args.command == "ledger":
            if args.subcommand == "list-streams":
                return cmd_ledger_list_streams(config, out)
            return cmd_ledger_items(config, args, out)
    except AuthenticationFailed as exc:
        raise CliError(str(exc), EXIT_AUTH_FAILED) from None
    except StoreError as exc:
        raise CliError(str(exc)) from None
    raise CliError(f"unknown command: {args.command}", EXIT_USAGE)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return run(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    # PolicyError and TupleError are ValueErrors.
    except (EngineError, LedgerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
