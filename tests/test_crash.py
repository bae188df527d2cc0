"""A crash at any write leaves a data directory that still opens.

Every byte the engine writes to its data files goes through
files.append_line or files.replace_file.  For each operation, a child
process opens the engine, runs the operation and closes the engine, with
that seam set to end the process (os._exit) just before its write k; k
runs up from 0, one child at a time, until a child completes.  After each
run the parent checks that the engine opens, that ledger verify finds the
chain intact, that every lineage the operation did not touch answers as it
did before, and that every file is the owner's alone.  The run that
completes must change exactly the files the seam wrote, so no write goes
around it.  A write torn part way is not injected here.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import os
import shutil
import stat
import sys
import traceback
from pathlib import Path

import pytest

from helpers import (
    DEMO_ACCESSOR_ID,
    DEMO_LINEAGE_A,
    DEMO_LINEAGE_B,
    DEMO_PROVIDER_ID,
    demo_preferences,
    install_demo_fixture,
    make_accessor,
    make_engine,
)
from privledger import files
from privledger.cli import main
from privledger.engine import Engine, EngineConfig
from privledger.files import CHECKPOINT_SUFFIX
from privledger.mediator import MediationStatus, QueryRequest

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

CRASHED = 75  # the exit status of a child that the seam ended
OTHER_PROVIDER_ID = 7
LINEAGE_C = (OTHER_PROVIDER_ID, 5, DEMO_ACCESSOR_ID)
LINEAGES = (DEMO_LINEAGE_A, DEMO_LINEAGE_B, LINEAGE_C)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A closed data directory, with both checkpoints current, holding the
    demo population and provider 7 with one lineage; and how each lineage
    answered."""
    engine = make_engine(tmp_path_factory.mktemp("base"))
    install_demo_fixture(engine)
    engine.add_provider(OTHER_PROVIDER_ID, {"street_name": "10 Main St"})
    engine.set_policy(OTHER_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5))
    before = answers(engine)
    engine.close()
    return engine.config.data_dir, before


def answers(engine) -> dict:
    """What each lineage's one-cell query answers, less its timing and
    counters."""
    found = {}
    for lineage in LINEAGES:
        provider, attribute, accessor = lineage
        result = engine.mediate(
            QueryRequest(
                accessor_id=accessor,
                requested_purpose="care-delivery",
                attributes=(engine.store.catalog.by_id(attribute).name,),
                provider_id=provider,
            ),
            now=dt.date(2021, 7, 1),
        )
        found[lineage] = result._replace(timing=None, ops=None)
    return found


def config(data_dir) -> EngineConfig:
    return EngineConfig(data_dir=data_dir, hash_cost=8)


def contents(data_dir) -> dict:
    return {path.name: path.read_bytes() for path in data_dir.iterdir()}


def run_child(data_dir, operation, crash_at: int, log: Path) -> int:
    """Run the operation on the engine over data_dir in a child process
    whose seam ends it before write crash_at; a child that completes writes
    the names of the files it wrote to log.  Returns its exit status."""
    pid = os.fork()
    if pid == 0:  # the child never returns to the test runner
        status = 1
        try:
            written = []

            def seam(write, name):
                def crashing(target, *args, **kwargs):
                    if len(written) == crash_at:
                        os._exit(CRASHED)
                    written.append(name(target))
                    return write(target, *args, **kwargs)

                return crashing

            files.append_line = seam(files.append_line, lambda handle: Path(handle.name).name)
            files.replace_file = seam(files.replace_file, lambda target: target.name)
            engine = Engine.open(config(data_dir))
            operation(engine)
            engine.close()
            log.write_text("\n".join(written))
            status = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    _, wait_status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(wait_status)


def copy_of(base_dir, target: Path) -> Path:
    data_dir = target / "data"
    shutil.copytree(base_dir, data_dir)  # keeps the modes
    return data_dir


def publish(engine):
    engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5, note="crashed"))


def update_provider(engine):
    engine.add_provider(OTHER_PROVIDER_ID, {"street_name": "12 Main St"})


def add_accessor(engine):
    engine.add_accessor("nurse9", "nurse9-secret", make_accessor(9))


def close_only(engine):
    """Nothing but close, which writes both checkpoints once removed."""


CHECKPOINTS = ("policy.db" + CHECKPOINT_SUFFIX, "ledger.db" + CHECKPOINT_SUFFIX)


@pytest.mark.parametrize(
    "operation, writes, touched",
    [
        (publish, ("ledger.db", "policy.db", *CHECKPOINTS), {DEMO_LINEAGE_A}),
        (update_provider, ("content.db",), {LINEAGE_C}),
        (add_accessor, ("credentials.db",), set()),
        (close_only, CHECKPOINTS, set()),
    ],
    ids=["publish", "provider-update", "accessor-add", "checkpoints"],
)
def test_a_crash_at_any_write_leaves_a_directory_that_opens(
    tmp_path, capsys, base, operation, writes, touched
):
    base_dir, before = base
    for k in range(len(writes) + 1):
        data_dir = copy_of(base_dir, tmp_path / f"crash-{k}")
        if operation is close_only:
            for name in CHECKPOINTS:
                (data_dir / name).unlink()
        old = contents(data_dir)
        log = tmp_path / f"crash-{k}" / "written"
        status = run_child(data_dir, operation, k, log)
        if k < len(writes):
            assert status == CRASHED, f"write {k}"
        else:  # the run with no crash
            assert status == 0
            assert tuple(log.read_text().splitlines()) == writes
            new = contents(data_dir)
            changed = {name for name in old.keys() | new.keys() if old.get(name) != new.get(name)}
            assert changed == set(writes)
        modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in data_dir.iterdir()}
        assert modes == dict.fromkeys(modes, 0o600), f"write {k}"
        assert main(["--data-dir", str(data_dir), "ledger", "verify"]) == 0, f"write {k}"
        assert capsys.readouterr().out.startswith("chain intact")
        with contextlib.closing(Engine.open(config(data_dir))) as engine:
            after = answers(engine)
        for lineage in LINEAGES:
            if lineage not in touched:
                assert after[lineage] == before[lineage], (f"write {k}", lineage)


def test_a_crash_between_the_ledger_and_policy_appends_aborts_only_its_lineage(tmp_path, base):
    # The behaviour today: the ledger names a version that policy.db lacks,
    # so its lineage aborts as a mismatch until the next publish on it.
    # ROADMAP.md item 4 (durable writes and the torn tail) is to revisit it.
    base_dir, before = base
    data_dir = copy_of(base_dir, tmp_path)
    assert run_child(data_dir, publish, 1, tmp_path / "written") == CRASHED
    with contextlib.closing(Engine.open(config(data_dir))) as engine:
        after = answers(engine)
        aborted = after.pop(DEMO_LINEAGE_A)
        assert aborted.status is MediationStatus.ABORTED
        assert [(e.lineage, e.note) for e in aborted.verification] == [(DEMO_LINEAGE_A, "mismatch")]
        assert after == {lineage: before[lineage] for lineage in after}
        publish(engine)
        answered = answers(engine)[DEMO_LINEAGE_A]
    assert answered.status is MediationStatus.COMPLETED
    assert [e.note for e in answered.verification] == ["ok"]
