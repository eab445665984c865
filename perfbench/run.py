"""Benchmark of the pgl3chow verifier, timed end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; stdlib only, nothing to build.  The
workloads, metrics and how to read the output are described in
``perfbench/README.md``.

--trace 0 times fresh interpreters importing the package (``setup_s``), then
runs the workload in one more fresh interpreter for S seconds and reports
the end-to-end metrics.  --trace 1 runs the workload untraced for S/2
seconds and traced for S/2 seconds, checks that both give the same outputs,
and reports the per-layer metrics of the traced run.

Every operation's output is checked against the answer keys in ``keys.py``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a report with every sample and
the trace table is also written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import keys  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_cpu_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (span name, metrics of it); "calls" and "self_s" are per operation.
FUNCTION_METRICS = (
    ("intlinalg.smith_normal_form", ("calls", "self_s")),
    ("intlinalg.kernel_basis", ("self_s",)),
    ("intlinalg.hermite_normal_form", ("calls", "self_s")),
    ("intlinalg.submodule_compare", ("self_s",)),
    ("intlinalg.solve_left", ("calls", "self_s")),
    ("intlinalg.membership", ("calls",)),
    ("intlinalg.rank_over_q", ("self_s",)),
    ("poly.Polynomial.__init__", ("calls", "self_s")),
    ("poly.Polynomial.__mul__", ("calls", "self_s")),
    ("poly.RingMap.apply", ("calls", "self_s")),
    ("groups.action_matrix", ("calls", "self_s")),
    ("groups.invariant_basis", ("self_s",)),
    ("groups.MatrixGroup.orbit_sum", ("self_s",)),
    ("presented.relation_rows", ("self_s",)),
    ("presented.graded_component", ("self_s",)),
    ("presented.rational_rank_table", ("self_s",)),
    ("repcalc.chern_class", ("calls", "self_s")),
    ("repcalc.express_in", ("self_s",)),
    ("repcalc.restrict_poly", ("self_s",)),
    ("cli.render_report_json", ("self_s",)),
)
# (stat recorded by an observer in tracing.py, unit, summed per operation?)
STAT_METRICS = (
    ("intlinalg.smith_normal_form.max_rows", "count", False),
    ("intlinalg.smith_normal_form.max_cols", "count", False),
    ("intlinalg.smith_normal_form.max_entry_bits", "bits", False),
    ("presented.relation_rows.rows", "count", True),
    ("presented.relation_rows.cols", "count", False),
    ("presented.relation_rows.unit_rows", "count", True),
)
MODULE_TOTALS = ("poly", "groups", "intlinalg", "presented", "repcalc",
                 "checks", "cli", "trace")


def per_layer_units() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    out = []
    for span, kinds in FUNCTION_METRICS:
        out += [(f"{span}.{k}", "count" if k == "calls" else "s") for k in kinds]
    out += [(name, unit) for name, unit, _ in STAT_METRICS]
    out += [(f"checks.{name}.total_s", "s") for name in keys.ALL_CHECKS]
    out += [(f"module.{m}.self_s", "s") for m in MODULE_TOTALS]
    out += [("trace.overhead_s", "s"), ("trace.overhead_frac", "fraction"),
            ("trace.spans", "count")]
    return out


def environment() -> dict[str, object]:
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = "unknown (git failed)"
    return {"python": platform.python_version(), "git_revision": revision,
            "nproc": os.cpu_count()}


class WorkerError(RuntimeError):
    pass


def spawn(*args: str) -> tuple[float, dict | None]:
    """Start a worker; return (seconds to its "ready" line, its result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return setup, (json.loads(rest.splitlines()[-1]) if rest.strip() else None)


def workload_run(workload: str, seed: int, seconds: float,
                 spans: Path | None = None) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if spans is not None:
        args += ["--trace", "1", "--spans", str(spans)]
    return spawn(*args)[1]


def op_stats(run: dict) -> dict[str, object]:
    walls = [w for w, _ in run["ops"]]
    cpus = [c for _, c in run["ops"]]
    n = len(walls)
    stats = {
        "samples": n,
        "op_best_s": min(walls),
        "op_p50_s": statistics.median(walls),
        "op_cpu_p50_s": statistics.median(cpus),
        "ops_per_s": n / sum(walls),
        "peak_rss_mb": run["peak_rss_mb"],
        "fail_frac": run["failed"] / n,
    }
    # A 90th percentile needs at least ten samples beyond it.
    stats["op_p90_s"] = statistics.quantiles(walls, n=10)[8] if n >= 100 else None
    return stats


def layer_metrics(traced: dict, traced_best: float, untraced_best: float) -> dict:
    ops = len(traced["ops"])
    agg = traced["trace"]["aggregate"]
    stats = traced["trace"]["stats"]
    values: dict[str, float] = {}
    for span, kinds in FUNCTION_METRICS:
        row = agg.get(span, {"calls": 0, "self_ns": 0})
        for k in kinds:
            values[f"{span}.{k}"] = (row["calls"] if k == "calls"
                                     else row["self_ns"] / 1e9) / ops
    for name, _, summed in STAT_METRICS:
        values[name] = stats.get(name, 0) / (ops if summed else 1)
    for name in keys.ALL_CHECKS:
        row = agg.get(f"checks.run_check[{name}]")
        values[f"checks.{name}.total_s"] = (row["total_ns"] / 1e9 / row["calls"]
                                            if row else 0.0)
    for m in MODULE_TOTALS:
        values[f"module.{m}.self_s"] = sum(
            r["self_ns"] for s, r in agg.items() if s.startswith(m + ".")) / 1e9 / ops
    values["trace.overhead_s"] = traced_best - untraced_best
    values["trace.overhead_frac"] = (traced_best - untraced_best) / untraced_best
    values["trace.spans"] = traced["trace"]["spans"] / ops
    return values


def trace_table(traced: dict) -> list[str]:
    """Per span name: calls, total and self time per operation, self share."""
    ops = len(traced["ops"])
    agg = traced["trace"]["aggregate"]
    all_self = sum(r["self_ns"] for r in agg.values()) or 1
    lines = [f"{'span':<44} {'calls/op':>10} {'total_s/op':>11} "
             f"{'self_s/op':>10} {'self%':>6}"]
    for span, r in sorted(agg.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(f"{span[:44]:<44} {r['calls'] / ops:>10.1f} "
                     f"{r['total_ns'] / 1e9 / ops:>11.6f} "
                     f"{r['self_ns'] / 1e9 / ops:>10.6f} "
                     f"{100.0 * r['self_ns'] / all_self:>6.2f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pgl3chow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pgl3chow" / "__init__.py").is_file():
        print(f"perfbench: no pgl3chow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report: dict[str, object] = {"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace, **env}
    try:
        if args.trace == 0:
            setup = [spawn("--probe")[0] for _ in range(SETUP_PROBES)]
            run = workload_run(args.workload, args.seed, args.seconds)
            stats = op_stats(run)
            values = {"setup_s": statistics.median(setup),
                      **{name: stats[name] for name, _ in END_TO_END[1:]}}
            units = END_TO_END
            runs = [run]
            report.update(setup_samples=setup, stats=stats)
            correct = run["failed"] == 0
        else:
            spans = OUT / f"{tag}.spans.csv.gz"
            untraced = workload_run(args.workload, args.seed, args.seconds / 2)
            traced = workload_run(args.workload, args.seed, args.seconds / 2, spans)
            runs = [untraced, traced]
            u_stats, t_stats = op_stats(untraced), op_stats(traced)
            values = layer_metrics(traced, t_stats["op_best_s"], u_stats["op_best_s"])
            units = per_layer_units()
            same = all(untraced["outputs"].get(kind) == out
                       for kind, out in traced["outputs"].items())
            if not same:
                traced["errors"].append("traced outputs differ from untraced outputs")
            correct = same and untraced["failed"] == 0 and traced["failed"] == 0
            report.update(untraced_stats=u_stats, traced_stats=t_stats,
                          traced_equals_untraced=same, spans_file=str(spans.name),
                          trace_table=trace_table(traced))
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    errors = [e for r in runs for e in r["errors"]]
    report.update(attempted=attempted, failed=failed, correct=correct,
                  errors=errors, metrics=metrics,
                  op_samples=[r["ops"] for r in runs])
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"# perfbench {tag} python={env['python']} "
          f"git={env['git_revision']} nproc={env['nproc']}")
    for line in report.get("trace_table", []):
        print(line)
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>14.6f} {m['unit']}")
    if args.trace == 0:
        print(f"# informational, {stats['samples']} operations:")
        p90 = stats["op_p90_s"]
        print(f"{'op_p90_s':<48} " + (f"{p90:>14.6f} s" if p90 is not None else
              f"{'n/a':>14} (needs 100 operations)"))
        print(f"{'op_best_s':<48} {stats['op_best_s']:>14.6f} s")
        print(f"{'ops_per_s':<48} {stats['ops_per_s']:>14.6f} 1/s")
        print(f"{'fail_frac':<48} {stats['fail_frac']:>14.6f} "
              f"({failed} of {attempted})")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
