"""Child process of the benchmark: one population set-up, one traced CLI
call, or the publish probe.

    python perfbench/child.py [--spans FILE] setup --seed N --providers N --hash-cost N --data-dir DIR
    python perfbench/child.py --spans FILE cli ARGS...
    python perfbench/child.py publisher --seed N --providers N --hash-cost N --data-dir DIR

With ``--spans`` the tracing wrappers are installed before the work starts
and the spans are written to FILE when it ends.  ``setup`` times the
initialisation and publication of the seeded population and prints one JSON
line with the seconds taken, rescaled to the nominal CPU speed (see speed.py).
``publisher`` opens the engine on DIR, prints an empty line when it is
ready, and then, for every count N read from standard input, publishes N new
versions of seeded lineages and prints one JSON line of [rescaled seconds,
publication as expected] pairs.  It ends when its input does.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def set_up(argv) -> int:
    import inputs
    from privledger.engine import Engine, EngineConfig
    from speed import Speed

    args = setup_args("setup", argv)
    pop = inputs.population(args.seed, args.providers)
    speed = Speed()
    started = time.perf_counter()
    engine = Engine.initialize(EngineConfig(data_dir=args.data_dir, hash_cost=args.hash_cost))
    try:
        engine.add_accessor(inputs.LOGIN, inputs.PASSWORD, inputs.ACCESSOR)
        seconds = speed.rescale(time.perf_counter() - started)
        for provider_id in pop.providers:
            started = time.perf_counter()
            inputs.publish_provider(engine, pop, provider_id)
            # the reference runs between providers and is not counted
            seconds += speed.rescale(time.perf_counter() - started)
    finally:
        engine.close()
    print(json.dumps({"seconds": seconds}))
    return 0


def setup_args(name: str, argv):
    parser = argparse.ArgumentParser(prog=f"child.py {name}")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--providers", type=int, required=True)
    parser.add_argument("--hash-cost", type=int, required=True)
    parser.add_argument("--data-dir", required=True)
    return parser.parse_args(argv)


def publisher(argv) -> int:
    import itertools

    import inputs
    from harness import Publisher
    from privledger.engine import Engine, EngineConfig
    from speed import Speed

    args = setup_args("publisher", argv)
    pop = inputs.population(args.seed, args.providers)
    engine = Engine.open(EngineConfig(data_dir=args.data_dir, hash_cost=args.hash_cost))
    try:
        publish = Publisher(engine, pop)
        speed = Speed()
        ops = inputs.republish_ops(args.seed, pop)
        print(flush=True)
        for line in sys.stdin:
            print(json.dumps(publish.batch(itertools.islice(ops, int(line)), speed)), flush=True)
    finally:
        engine.close()
    return 0


def main() -> int:
    argv = sys.argv[1:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    if mode == "publisher":
        return publisher(rest)
    tracer = None
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        if mode == "cli":
            import privledger.cli

            return privledger.cli.main(rest)
        return set_up(rest)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
