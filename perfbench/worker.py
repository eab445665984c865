"""One workload in one fresh interpreter: closed loop, one client, one thread.

Started by ``run.py``; not meant to be run by hand.  The process imports
``pgl3chow`` from the checkout's ``src`` directory and writes ``ready`` on
stdout as soon as the import is done, so that the parent can time interpreter
start plus import.  With ``--probe`` it exits there.  Otherwise it runs
operations of the workload back to back until the next one would end after
``--seconds``, checks every output against the answer keys in ``keys.py``,
and writes one JSON object on stdout.  With ``--trace 1`` it first wraps the
package with ``tracing.Tracer`` and, at exit, writes every span to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Each workload is either one CLI command repeated, or passes over the light
# checks through checks.run_check, one pass in a seeded order per operation.
CLI_WORKLOADS = {
    "check_all": (["check", "--all", "--format", "json"], None),
    "invariants_deep": (["check", "--name", "gamma-generation",
                         "--max-degree", "16", "--format", "json"], 16),
    "presented_deep": (["check", "--name", "rstar-structure",
                        "--max-degree", "28", "--format", "json"], 28),
}
WORKLOADS = tuple(CLI_WORKLOADS) + ("identities",)


def import_package() -> None:
    sys.path.insert(0, str(SRC))
    import pgl3chow
    import pgl3chow.cli  # noqa: F401
    if Path(pgl3chow.__file__).resolve().parent != SRC / "pgl3chow":
        raise ImportError(f"pgl3chow imported from {pgl3chow.__file__}, "
                          f"not from {SRC}")


class Loop:
    """Times operations, checks their outputs and keeps one output per kind
    of operation, so that later outputs of the same kind (and the other
    run's, in the parent) can be compared with it."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.begin = time.perf_counter()
        self.ops: list[tuple[float, float]] = []
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: dict[str, object] = {}

    def timed(self, fn, *args):
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        c1 = time.process_time()
        self.ops.append((t1 - t0, c1 - c0))
        return result

    def settle(self, kind: str, output, errors: list[str]) -> None:
        """Count the operation as failed if it has errors or its output
        differs from the first output of its kind."""
        first = self.outputs.setdefault(kind, output)
        if first != output:
            errors = errors + [f"{kind}: output differs from the first run of it"]
        if errors:
            self.failed += 1
            self.errors.extend(errors[:5 - len(self.errors)])

    def more(self, last_s: float) -> bool:
        """Closed loop: go on while the next operation, if it takes as long
        as the last one, still ends within the measured time."""
        return time.perf_counter() - self.begin + last_s <= self.seconds


def run_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_loop(loop: Loop, workload: str, keys) -> None:
    from pgl3chow import cli
    argv, bound = CLI_WORKLOADS[workload]
    names = keys.ALL_CHECKS if "--all" in argv else (argv[argv.index("--name") + 1],)
    while True:
        code, text = loop.timed(run_cli, cli, argv)
        try:
            report = json.loads(text)
        except ValueError:
            loop.settle(workload, None, [f"{workload}: output is not JSON"])
        else:
            errors = keys.report_errors(code, report, names, bound)
            for r in report.get("results", []):
                r.pop("elapsed_ms", None)
            loop.settle(workload, {"exit": code, "report": report}, errors)
        if not loop.more(loop.ops[-1][0]):
            return


def run_pass(checks, order):
    return [checks.run_check(name) for name in order]


def identities_loop(loop: Loop, seed: int, keys) -> None:
    from pgl3chow import checks
    rng = random.Random(seed)
    while True:
        order = list(keys.LIGHT_CHECKS)
        rng.shuffle(order)
        results = loop.timed(run_pass, checks, order)
        outputs, errors = {}, []
        for r in results:
            witnesses = r.witness_dict()
            outputs[r.name] = [r.verdict, witnesses]
            errors += keys.check_errors(r.name, r.verdict, witnesses)
        loop.settle("identities", outputs, errors)
        if not loop.more(loop.ops[-1][0]):
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the spans of a traced run")
    args = parser.parse_args(argv)

    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import pgl3chow: {exc}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.probe:
        return 0

    import keys
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        loop = Loop(args.seconds)
        if args.workload == "identities":
            identities_loop(loop, args.seed, keys)
        else:
            cli_loop(loop, args.workload, keys)

    result = {
        "ops": loop.ops,
        "failed": loop.failed,
        "errors": loop.errors,
        "outputs": loop.outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = {"spans": len(tracer.span_name),
                           "aggregate": tracer.aggregate(),
                           "stats": dict(tracer.stats)}
        if args.spans:
            tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
