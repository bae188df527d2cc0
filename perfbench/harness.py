"""The three workloads: set-up, the closed operation loop, output checks and metrics.

One client sends one request at a time and waits for it.  ``cli-cold``
starts one ``privledger`` process per operation; the two warm workloads
open the engine once and call it in this process.  Every operation's output
is compared against the benchmark's own population; a nonzero exit, an
exception or a mismatch counts as a failed operation.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import inputs
import privledger.cli  # noqa: F401  writes the CLI's bytecode before any child is timed
import tracing
from privledger import bench
from privledger.engine import Engine, EngineConfig
from privledger.mediator import QueryRequest
import speed

HERE = Path(__file__).resolve().parent
CHILD = str(HERE / "child.py")
FLUSH_POLICY = "flush-per-append,no-fsync"
VERIFY_PROBES = 20  # ledger verify processes after set-up, on every workload
PUBLISH_BATCH = 20  # probe publishes before each of them and each operation
TABLE_TRIALS = 20  # point queries per archetype for the paper's overhead table


@dataclass(frozen=True)
class Workload:
    providers: int
    hash_cost: int
    setups: int  # set-ups per untraced run; setup_s is their median
    warm: bool  # the engine is opened once and called in this process
    operations: object  # (seed, population) -> endless operation sequence


# point-mixed sets up once: one set-up publishes 18,000 policies (about 20 s
# on 2 CPUs).  It is left out of BENCHMARK.json, because with it the runs the
# benchmark needs would not fit their time budget, but it still runs.
WORKLOADS = {
    "cli-cold": Workload(200, 1024, 3, False, inputs.cli_cold_ops),
    "point-mixed": Workload(1000, 1024, 1, True, inputs.point_mixed_ops),
    "scan-where": Workload(200, 64, 3, True, inputs.scan_where_ops),
}


class SetupFailed(Exception):
    pass


@dataclass(frozen=True)
class Child:
    seconds: float
    code: int
    out: str
    err: str
    rss_mb: float


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryView:
    status: str
    notes: list
    denials: list
    columns: list
    rows: list  # [(provider id, [cells])]


def view_of_result(result) -> QueryView:
    return QueryView(
        status=result.status.value,
        notes=[entry.note for entry in result.verification],
        denials=list(result.denials),
        columns=list(result.columns),
        rows=[(row.provider_id, list(row.cells)) for row in result.rows],
    )


def view_of_cli(out: str) -> QueryView:
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    by_kind = {}
    for record in records:
        by_kind.setdefault(record["record"], []).append(record)
    return QueryView(
        status=by_kind["status"][0]["status"],
        notes=[r["note"] if r["verified"] else "unverified" for r in by_kind.get("verification", [])],
        denials=[(r["attribute"], r["reason"]) for r in by_kind.get("denial", [])],
        columns=by_kind["columns"][0]["columns"],
        rows=[(r["provider_id"], r["cells"]) for r in by_kind.get("row", [])],
    )


def query_ok(view: QueryView, pop, attributes, providers, lineage_providers: int) -> bool:
    """Completed, every lineage verified, nothing denied, and exactly the
    expected providers with independently derived cells."""
    expected = [(p, inputs.expected_cells(pop, p, attributes)) for p in providers]
    return (
        view.status == "Completed"
        and len(view.notes) == len(attributes) * lineage_providers
        and all(note == "ok" for note in view.notes)
        and not view.denials
        and view.columns == list(attributes)
        and view.rows == expected
    )


def verify_ok(child: Child, published: int) -> bool:
    if child.code != 0:
        return False
    record = json.loads(child.out.splitlines()[-1])
    return record["intact"] is True and record["records"] > published


# ---------------------------------------------------------------------------
# Publishing
# ---------------------------------------------------------------------------


class Publisher:
    """Publishes policy versions through one engine and checks each
    publication: the lineage's next version, on its stream, at a higher seq
    than the last."""

    def __init__(self, engine: Engine, pop):
        self.engine = engine
        self.pop = pop
        self.versions = {}  # (provider, attribute) -> version, beyond the first
        self.last_seq = -1

    def publish(self, op) -> tuple[float, bool]:
        """Raw wall seconds of one ``Engine.set_policy`` and whether its
        publication is the expected one."""
        _, provider, attribute = op
        key = (provider, attribute)
        seeded = attribute in inputs.GRANULARITY
        version = self.versions.get(key, 1 if seeded else 0) + 1
        note = f"revision {version}" if seeded else self.pop.notes[provider]
        prefs = inputs.preferences(attribute, note)
        started = time.perf_counter()
        publication = self.engine.set_policy(provider, inputs.ACCESSOR_ID, prefs)
        seconds = time.perf_counter() - started
        attribute_id = inputs.CATALOG.by_name(attribute).attribute_id
        ok = (
            publication.version == version
            and publication.stream == f"stream-{provider}-{attribute_id}-{inputs.ACCESSOR_ID}"
            and publication.seq > self.last_seq
        )
        self.versions[key] = version
        self.last_seq = publication.seq
        return seconds, ok

    def batch(self, ops, rescaler: speed.Speed) -> list[tuple[float, bool]]:
        """Back-to-back publishes, all rescaled by reference runs around the
        whole batch.  A publish is shorter than one reference run, and a
        reference between every two of them moved the publishes' times more
        than the program did."""
        rescaler.restart(runs=2)
        started = time.perf_counter()
        done = [self.publish(op) for op in ops]
        total = time.perf_counter() - started
        factor = rescaler.rescale(total) / total
        return [(seconds * factor, ok) for seconds, ok in done]


class PublishProbe:
    """Publish latency where the loop publishes nothing.  A process of its
    own holds an engine on a copy of the set-up's data directory and
    publishes new versions of seeded lineages, a batch before every
    operation of the run and every ``ledger verify`` after set-up.  So the
    publish times are drawn from all of the run's seconds of the host's
    changing speed, not from one moment of it, while the workload's own
    operations, data and peak RSS stay as they were."""

    def __init__(self, b: "Bench"):
        self.copy = b.run_dir / "probe-data"
        shutil.copytree(b.data_dir, self.copy)
        self.err = open(b.run_dir / "publisher.err", "w+")
        self.proc = subprocess.Popen(
            [
                sys.executable, CHILD, "publisher",
                "--seed", str(b.seed),
                "--providers", str(len(b.pop.providers)),
                "--hash-cost", str(b.workload.hash_cost),
                "--data-dir", str(self.copy),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.err,
            env=b.env,
            cwd=b.root,
            text=True,
        )
        self.samples: list[float] = []  # rescaled seconds
        self.failure = None
        if not self.proc.stdout.readline():  # ready: nothing else runs while it is timed
            self.failure = self._ended()

    def _ended(self) -> str:
        self.err.seek(0)
        return f"the publish probe ended: {self.err.read().strip()[-500:]}"

    def batch(self):
        if self.failure is not None:
            return
        try:
            self.proc.stdin.write(f"{PUBLISH_BATCH}\n")
            self.proc.stdin.flush()
        except OSError:  # it ended
            pass
        line = self.proc.stdout.readline()
        if not line:
            self.failure = self._ended()
            return
        for seconds, ok in json.loads(line):
            self.samples.append(seconds)
            if not ok and self.failure is None:
                self.failure = "a probe publication was not the expected one"

    def close(self):
        """Stop the process and wait for it."""
        try:
            self.proc.stdin.close()
        except OSError:  # it ended already
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()
        shutil.rmtree(self.copy, ignore_errors=True)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, root: Path, run_dir: Path, workload: Workload, seed: int, providers=None):
        self.root = root
        self.run_dir = run_dir
        self.workload = workload
        self.seed = seed
        self.pop = inputs.population(seed, providers or workload.providers)
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.data_dir = run_dir / "data"
        self.config_path = run_dir / "privledger.conf"
        self.config_path.write_text(
            f"data_dir = {self.data_dir}\nhash_cost = {workload.hash_cost}\n"
        )
        self.published = self.pop.lineages  # policy versions on the ledger
        self.publisher = None  # publishes the loop's policy versions, on point-mixed
        self.summary = tracing.Summary()
        self.cli_startups: list[float] = []
        self._spans_file = run_dir / "spans.json"
        self.speed = speed.Speed()

    # -- processes ------------------------------------------------------------

    def spawn(self, args) -> Child:
        """Run one Python child from the checkout root and wait for it; its
        peak RSS comes from wait4."""
        with open(self.run_dir / "child.err", "w+b") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
                cwd=self.root,
            )
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            err_text = err.read().decode("utf-8", "replace")
        return Child(seconds, proc.returncode, out.decode("utf-8", "replace"), err_text, usage.ru_maxrss / 1024)

    def cli(self, argv, traced: bool) -> Child:
        """One privledger process, its time rescaled to the nominal CPU
        speed.  Traced ones run through the launcher and leave their spans
        to merge."""
        argv = ["--json", "--config", str(self.config_path), *argv]
        if not traced:
            child = self.spawn(["-m", "privledger.cli", *argv])
            return replace(child, seconds=self.speed.rescale(child.seconds))
        self._spans_file.unlink(missing_ok=True)
        child = self.spawn([CHILD, "--spans", str(self._spans_file), "cli", *argv])
        rescaled = self.speed.rescale(child.seconds)
        names, spans = tracing.load(self._spans_file)
        self.summary.add(names, spans)
        self.cli_startups.append(child.seconds - tracing.root_seconds(names, spans, "cli.main"))
        return replace(child, seconds=rescaled)

    # -- set-up ---------------------------------------------------------------

    def set_up(self, count: int, traced: bool = False) -> list[dict]:
        """Build the population ``count`` times, each in a fresh process and
        directory, and keep the last directory."""
        results = []
        for _ in range(count):
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self._spans_file.unlink(missing_ok=True)
            args = [CHILD, *(["--spans", str(self._spans_file)] if traced else []), "setup"]
            args += [
                "--seed", str(self.seed),
                "--providers", str(len(self.pop.providers)),
                "--hash-cost", str(self.workload.hash_cost),
                "--data-dir", str(self.data_dir),
            ]
            child = self.spawn(args)
            if child.code != 0:
                raise SetupFailed(f"set-up exited with {child.code}: {child.err.strip()}")
            results.append(json.loads(child.out.splitlines()[-1]))
            if traced:
                self.summary.add(*tracing.load(self._spans_file))
        return results

    def bytes_per_policy(self) -> float:
        size = sum((self.data_dir / name).stat().st_size for name in ("ledger.db", "policy.db"))
        return size / self.pop.lineages

    def open_engine(self) -> Engine:
        return Engine.open(EngineConfig(data_dir=self.data_dir, hash_cost=self.workload.hash_cost))

    # -- operations -------------------------------------------------------------

    def cli_op(self, op, traced: bool) -> tuple[str, float, bool, float]:
        """(kind, seconds, ok, child peak RSS in MB) of one process."""
        if op[0] == "verify":
            child = self.cli(["ledger", "verify"], traced)
            return "verify", child.seconds, verify_ok(child, self.published), child.rss_mb
        _, provider, attributes = op
        child = self.cli(
            [
                "query",
                "--login", inputs.LOGIN,
                "--password", inputs.PASSWORD,
                "--purpose", inputs.PURPOSE,
                "--attributes", ",".join(attributes),
                "--provider", str(provider),
            ],
            traced,
        )
        ok = child.code == 0 and query_ok(view_of_cli(child.out), self.pop, attributes, [provider], 1)
        return "query", child.seconds, ok, child.rss_mb

    def warm_op(self, engine: Engine, op) -> tuple[str, float, bool]:
        kind = op[0]
        if kind == "publish":
            seconds, ok = self.publisher.publish(op)
            self.published += 1
            return "publish", self.speed.rescale(seconds), ok
        if kind == "query":
            _, provider, attributes = op
            request = QueryRequest(
                accessor_id=inputs.ACCESSOR_ID,
                requested_purpose=inputs.PURPOSE,
                attributes=attributes,
                provider_id=provider,
            )
            expected, lineage_providers = [provider], 1
        else:
            _, attributes, city = op
            request = QueryRequest(
                accessor_id=inputs.ACCESSOR_ID,
                requested_purpose=inputs.PURPOSE,
                attributes=attributes,
                predicate={"city": city},
            )
            expected = [p for p, values in sorted(self.pop.providers.items()) if values["city"] == city]
            lineage_providers = len(self.pop.providers)
        started = time.perf_counter()
        result = engine.mediate(request)
        seconds = self.speed.rescale(time.perf_counter() - started)
        ok = query_ok(view_of_result(result), self.pop, attributes, expected, lineage_providers)
        return "query", seconds, ok

    # -- the paper's table ------------------------------------------------------

    def overhead_table(self, engine: Engine):
        """Native select against mediation per archetype, through the bench
        module's report so that its mean-of-percentages aggregate is used."""
        rng = random.Random(f"table:{self.seed}")
        ids = list(self.pop.providers)
        rows = []
        for archetype, attributes in inputs.ARCHETYPE_ATTRIBUTES.items():
            native, private = [], []
            for _ in range(TABLE_TRIALS):
                request = QueryRequest(
                    accessor_id=inputs.ACCESSOR_ID,
                    requested_purpose=inputs.PURPOSE,
                    attributes=attributes,
                    provider_id=rng.choice(ids),
                )
                native.append(engine.native_query(request).duration_ms)
                private.append(engine.mediate(request).timing.total_ms)
            rows.append(
                bench.row_from_means(
                    inputs.ARCHETYPE_LABELS[archetype], statistics.fmean(native), statistics.fmean(private)
                )
            )
        return bench.build_report(rows)


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    label: str
    notes: list


def run(root: Path, run_dir: Path, name: str, seed: int, seconds: float, trace: bool, providers=None) -> Outcome:
    workload = WORKLOADS[name]
    b = Bench(root, run_dir, workload, seed, providers)
    setups = b.set_up(1 if trace else workload.setups, traced=trace)
    # point-mixed's loop publishes, and a traced run reports no publish latency
    publisher = None if trace or name == "point-mixed" else PublishProbe(b)
    try:
        return measure(b, name, seconds, trace, setups, publisher)
    finally:
        if publisher is not None:
            publisher.close()


def measure(b: Bench, name: str, seconds: float, trace: bool, setups, publisher) -> Outcome:
    workload, seed = b.workload, b.seed
    bytes_per_policy = b.bytes_per_policy()
    verify_probes = []
    if not trace:
        b.speed.restart()
        for _ in range(VERIFY_PROBES):
            if publisher is not None:
                publisher.batch()
            verify_probes.append(b.cli(["ledger", "verify"], False))
    probes_ok = all(verify_ok(child, b.published) for child in verify_probes)

    tracer = tracing.Tracer() if trace else None
    engine = None
    if workload.warm:
        if tracer is not None:
            tracer.install()
        engine = b.open_engine()
        if tracer is not None:
            tracer.uninstall()
        b.publisher = Publisher(engine, b.pop)

    b.speed.restart()
    samples: dict[tuple[str, bool], list[float]] = {}
    rss = []
    # the loop outlasts --seconds until every sample kind the metrics need exists
    required = {("query", False)} | ({("query", True)} if trace else set())
    required |= {("verify", trace)} if name == "cli-cold" else set()
    required |= {("publish", False)} if name == "point-mixed" else set()
    ops = workload.operations(seed, b.pop)
    attempted = failed = 0
    busy = 0.0  # rescaled seconds spent in operations
    first_failure = None
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not required <= samples.keys():
        op = next(ops)
        traced = trace and attempted % 4 < 2  # pairs, so both scan-where variants are traced
        if publisher is not None:
            publisher.batch()
        op_started = time.perf_counter()
        try:
            if engine is None:
                kind, took, ok, rss_mb = b.cli_op(op, traced)
                if kind == "query":
                    rss.append(rss_mb)
            else:
                if traced:
                    tracer.install()
                try:
                    kind, took, ok = b.warm_op(engine, op)
                finally:
                    if traced:
                        tracer.uninstall()
                        b.summary.add(tracer.names, tracer.spans)
                        tracer.spans.clear()
        except Exception as exc:  # an operation that raises counts as failed
            kind = "query" if op[0] == "scan" else op[0]
            took, ok = b.speed.rescale(time.perf_counter() - op_started), False
            first_failure = first_failure or f"{op[0]}: {type(exc).__name__}: {exc}"
        attempted += 1
        busy += took
        if not ok:
            failed += 1
            first_failure = first_failure or f"{op[0]} output mismatch: {op[1:]}"
        samples.setdefault((kind, traced), []).append(took * 1e3)

    notes = [f"first failure: {first_failure}"] if first_failure else []
    probe_publishes = publisher.samples if publisher is not None else []
    if publisher is not None and publisher.failure is not None:
        probes_ok = False
        notes.append(publisher.failure)
    if trace:
        if workload.warm:
            # the CLI's own layers, from one traced query and one traced verify
            provider = min(b.pop.providers)
            attributes = inputs.ARCHETYPE_ATTRIBUTES["Demographic"]
            probe = b.cli_op(("query", provider, attributes), True)
            verify = b.cli_op(("verify",), True)
            probes_ok = probes_ok and probe[2] and verify[2]
        table_engine = engine or b.open_engine()
        report = b.overhead_table(table_engine)
        table_engine.close()
        notes.append(f"overhead table at hash cost {workload.hash_cost}:\n{bench.render_report(report)}")
        metrics = layer_metrics(b, report, samples, import_ms(b) * b.speed.run_factor())
    else:
        if engine is not None:
            engine.close()
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            rss_mb = statistics.median(rss)
        metrics = end_to_end_metrics(
            samples, probe_publishes, setups, verify_probes, attempted, failed, busy, rss_mb, bytes_per_policy
        )
    if not probes_ok:
        notes.append("a ledger verify or probe outside the loop failed")
    counts = " ".join(f"{kind}{'/traced' if traced else ''}={len(v)}" for (kind, traced), v in sorted(samples.items()))
    label = (
        f"workload={name} providers={len(b.pop.providers)} lineages={b.pop.lineages} "
        f"hash_cost={workload.hash_cost} flush={FLUSH_POLICY} "
        f"python={'.'.join(map(str, sys.version_info[:3]))} nproc={os.cpu_count()} "
        f"pinned-cpu={min(os.sched_getaffinity(0))} "
        f"seed={seed} seconds={seconds} trace={int(trace)} set-ups={len(setups)} "
        f"publish-probes={len(probe_publishes)} verify-probes={len(verify_probes)} "
        f"reference_ms={1e3 * speed.NOMINAL_S / b.speed.run_factor():.3f} samples: {counts}"
    )
    return Outcome(failed == 0 and probes_ok, attempted, failed, metrics, label, notes)


def import_ms(b: Bench) -> float:
    code = "import time; t = time.perf_counter(); import privledger.cli; print(time.perf_counter() - t)"
    return statistics.median(float(b.spawn(["-c", code]).out) * 1e3 for _ in range(3))


def end_to_end_metrics(samples, probe_publishes, setups, verify_probes, attempted, failed, busy, rss_mb, bytes_per_policy):
    queries = samples[("query", False)]
    publish = samples.get(("publish", False)) or [seconds * 1e3 for seconds in probe_publishes]
    verify = [child.seconds * 1e3 for child in verify_probes] + samples.get(("verify", False), [])
    return {
        "setup_s": (statistics.median(s["seconds"] for s in setups), "s"),
        "query_ms_p50": (percentile(queries, 0.5), "ms"),
        "query_ms_p90": (percentile(queries, 0.9), "ms"),
        "publish_ms_p50": (percentile(publish, 0.5), "ms"),
        "publish_ms_p90": (percentile(publish, 0.9), "ms"),
        "verify_ms_p50": (percentile(verify, 0.5), "ms"),
        "ops_per_s": (attempted / busy, "1/s"),
        "rss_mb": (rss_mb, "MB"),
        "bytes_per_policy": (bytes_per_policy, "B"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }


def layer_metrics(b: Bench, report, samples, cli_import_ms: float) -> dict:
    s = b.summary
    mediations = s["mediator.mediate"].calls
    counts = s["mediator.mediate"].counts
    scale = b.speed.run_factor()  # spans are raw wall time

    def us(name):
        return (s[name].mean_ms() * 1e3 * scale, "us")

    def ms(name):
        return (s[name].mean_ms() * scale, "ms")

    def self_ms(name):
        stat = s[name]
        return (1e3 * stat.self_s / stat.calls * scale, "ms")

    def per_op(value):
        return (value / mediations, "count")

    untraced = percentile(samples[("query", False)], 0.5)
    traced = percentile(samples[("query", True)], 0.5)
    select = s["store.select_rows"]
    return {
        "cli.startup_ms": (statistics.median(b.cli_startups) * 1e3 * scale, "ms"),
        "cli.import_ms": (cli_import_ms, "ms"),
        "cli.main.self_ms": self_ms("cli.main"),
        "engine.open.ms": ms("engine.open"),
        "engine.set_policy.self_ms": self_ms("engine.set_policy"),
        "store.open.ms": ms("store.open"),
        "store.authenticate.ms": ms("store.authenticate"),
        "store.select_rows.us": us("store.select_rows"),
        "store.select_rows.rows": (select.counts["rows"] / select.calls, "count"),
        "store.latest_tuple_instance.us": us("store.latest_tuple_instance"),
        "store.put_tuple_instance.us": us("store.put_tuple_instance"),
        "ledger.open.ms": ms("ledger.open"),
        "ledger.verify_file.ms": ms("ledger.verify_file"),
        "ledger.latest_item.us": us("ledger.latest_item"),
        "ledger.publish.us": us("ledger.publish"),
        "ledger.create_stream.us": us("ledger.create_stream"),
        "tuples.verify_hash.us": us("tuples.verify_hash"),
        "tuples.verify_hash.per_op": per_op(s["tuples.verify_hash"].calls),
        "tuples.hash_tuple.us": us("tuples.hash_tuple"),
        "tuples.canonical_encode.us": us("tuples.canonical_encode"),
        "policy.evaluate_access.us": us("policy.evaluate_access"),
        "policy.evaluate_access.per_op": per_op(s["policy.evaluate_access"].calls),
        "policy.apply_granularity.us": us("policy.apply_granularity"),
        "policy.apply_granularity.per_op": per_op(s["policy.apply_granularity"].calls),
        "mediator.analyze.ms": ms("mediator.analyze"),
        "mediator.lineages_per_op": per_op(counts["lineages"]),
        "mediator.mediate.self_ms": self_ms("mediator.mediate"),
        "mediator.ledger_reads": per_op(counts["ledger_reads"]),
        "mediator.hash_verifications": per_op(counts["hash_verifications"]),
        "mediator.policy_evaluations": per_op(counts["policy_evaluations"]),
        "mediator.selects": per_op(counts["selects"]),
        "mediator.cells_per_verification": (counts["cells"] / counts["hash_verifications"], "ratio"),
        "bench.overhead_pct": (report.aggregate_row.overhead_pct, "%"),
        "trace.overhead_pct": (100.0 * (traced - untraced) / untraced, "%"),
    }
