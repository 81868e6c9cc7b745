"""Benchmark of expert_spread on three seeded workloads: search, reduce, coarsen.

Run from the root of a checkout; it needs only the standard library and the
package under ``src/``:

    python3 bench/run.py --workload reduce --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30
    python3 bench/run.py --workload coarsen --seed 1 --profile

One invocation is one fresh process running one workload as a
single-threaded closed loop with one op in flight. Ops cycle through a fixed
pass of seeded inputs, and the ``compute_stats`` memo is cleared at the start
of every pass. The measured phase lasts until the ops themselves have taken
``--seconds``; the benchmark's own checks between ops are not timed. The
latency metrics take each input's best latency over the passes:
``ops_per_s`` is inputs per second of one pass at those latencies, and
``op_p50_ms`` and ``op_tail_ms`` are their median and tail over inputs.
``setup_s`` is the median wall time of fresh interpreters that import the
package and parse the inputs. ``peak_rss_mb`` is the workload process's
peak resident memory. Failed ops over attempted ops are printed as
``error_rate``; the JSON carries them as ``failed`` and ``attempted``. Every
op's exact output is checked against its contract and against the first
pass; the digest of one pass is compared with ``golden.json`` when the seed
has an entry there and printed either way.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs half the
time untraced and then the same ops traced, probes each module, and prints
the per-layer metrics; spans and the layer table go to ``.bench_out/``.
``--profile`` writes a cProfile top-10 by own time for one pass, apart from
any timed run. ``--workload all`` runs each workload in its own process.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 0 means every op passed,
1 that an op or the digest failed, 2 that the checkout or arguments are
unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("search", "reduce", "coarsen")
SPAWNS = 11
TAIL_BEYOND = 10
IMPORT_CLI = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import expert_spread.cli; print((time.perf_counter() - t) * 1e3)"
)


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu,
        "seed": seed,
        "commit": git_commit(),
        "expert_spread_env": {k: v for k, v in os.environ.items() if k.startswith("EXPERT_SPREAD_")},
    }


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn_times(args: list[str], stdin: bytes = b"") -> list[float]:
    """Wall seconds of ``SPAWNS`` fresh interpreters, start to exit."""
    times = []
    for _ in range(SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], input=stdin, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return times


def import_cli_ms() -> list[float]:
    out = []
    for _ in range(SPAWNS):
        done = subprocess.run([sys.executable, "-c", IMPORT_CLI, str(SRC)], capture_output=True, text=True, check=True)
        out.append(float(done.stdout))
    return out


class Ledger:
    """Per-input output digests from the first pass, and the failure count."""

    def __init__(self, n: int) -> None:
        self.digests: list[str | None] = [None] * n
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, idx: int, problems: list[str], digest: str) -> None:
        self.attempted += 1
        if self.digests[idx] is None:
            self.digests[idx] = digest
        elif self.digests[idx] != digest:
            problems = problems + ["output differs from the first pass"]
        if problems:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"input {idx}: {'; '.join(problems)}")


def run_ops(w, items, ledger: Ledger, *, seconds: float = 0.0, count: int = 0, tracer=None) -> list[tuple[int, int]]:
    """Closed loop over ``items`` from the first; returns ``(input, latency ns)`` per op.

    Stops once the ops have taken ``seconds``, or after ``count`` ops.
    """
    import workloads as wl
    from expert_spread.config import compute_stats

    span = tracer.span if tracer else wl.no_span
    cache = {"hits": 0, "misses": 0}
    latencies: list[tuple[int, int]] = []
    budget = seconds * 1e9
    busy = i = 0
    while (busy < budget) if count == 0 else (i < count):
        idx = i % len(items)
        if idx == 0:
            compute_stats.cache_clear()
        item = items[idx]
        if tracer:
            tracer.op = i
            before = compute_stats.cache_info()
        t0 = time.perf_counter_ns()
        try:
            with span("op"):
                res = w.op(item, span)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            res, (problems, output) = None, ([f"raised {exc!r}"], "raised")
        ns = time.perf_counter_ns() - t0
        latencies.append((idx, ns))
        busy += ns
        if res is not None:
            if tracer:
                after = compute_stats.cache_info()
                cache["hits"] += after.hits - before.hits
                cache["misses"] += after.misses - before.misses
                tracer.count(w.counts(item, res))
            problems, output = guarded_check(w, item, res)
        ledger.record(idx, problems, wl.digest(output))
        i += 1
    if tracer:
        cache["currsize"] = compute_stats.cache_info().currsize
        tracer.cache = cache
    return latencies


def guarded_check(w, item, res) -> tuple[list[str], str]:
    """The workload's contract check; a check that raises fails the op."""
    try:
        return w.check(item, res)
    except Exception as exc:  # e.g. a package check rejecting the op's output
        return [f"check raised {exc!r}"], "raised"


def finish_pass(w, items, ledger: Ledger) -> str:
    """Run, untimed, any input the measured ops did not reach; return the pass digest."""
    import workloads as wl

    for idx, seen in enumerate(ledger.digests):
        if seen is None:
            try:
                res = w.op(items[idx], wl.no_span)
            except Exception as exc:  # counted like any failed op
                ledger.record(idx, [f"raised {exc!r}"], wl.digest("raised"))
                continue
            problems, output = guarded_check(w, items[idx], res)
            ledger.record(idx, problems, wl.digest(output))
    return wl.digest("\n".join(ledger.digests))


def check_golden(name: str, seed: int, digest: str, ledger: Ledger, n_items: int) -> str:
    """Compare with the stored digest; a mismatch fails every op of the pass."""
    golden = json.loads((BENCH / "golden.json").read_text())[name].get(str(seed))
    if golden is None:
        return "no golden digest for this seed"
    if golden == digest:
        return "matches golden"
    ledger.failed = min(ledger.attempted, ledger.failed + n_items)
    ledger.notes.append(f"pass digest {digest} differs from golden {golden}")
    return "DIFFERS FROM GOLDEN"


def best_ms(samples: list[tuple[int, int]]) -> list[float]:
    """Each input's lowest latency over the passes, in ms.

    The host's speed drifts by tens of percent within seconds; the best of
    several passes measures the program rather than its neighbours.
    """
    best: dict[int, int] = {}
    for idx, ns in samples:
        best[idx] = min(ns, best.get(idx, ns))
    return [ns / 1e6 for ns in best.values()]


def tail(latencies_ms: list[float]) -> tuple[float, str]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} samples, fewer than {TAIL_BEYOND + 1}"
    return ordered[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) / n:.2f}, {TAIL_BEYOND} of {n} inputs beyond"


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<38} {value:>14.6g} {unit:<6} {note}")


def run_workload(args) -> int:
    import workloads as wl

    w = wl.WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"env {json.dumps(env)}")
    items = w.inputs(args.seed)
    ledger = Ledger(len(items))
    OUT.mkdir(exist_ok=True)

    if args.profile:
        return profile(w, items, ledger)

    if args.trace:
        metrics, extra = traced_run(w, items, ledger, args)
    else:
        payload = [item.text for item in items] if w.name != "search" else [str(item.delta) for item in items]
        setup = spawn_times([str(BENCH / "setup_child.py"), str(SRC), w.name], json.dumps(payload).encode())
        samples = run_ops(w, items, ledger, seconds=args.seconds)
        ms = best_ms(samples)
        tail_ms, tail_note = tail(ms)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": len(ms) / (sum(ms) / 1e3), "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "op_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        notes = {
            "setup_s": f"median of {SPAWNS} fresh interpreters",
            "ops_per_s": f"{len(samples)} ops in {sum(ns for _, ns in samples) / 1e9:.2f} s of op time, {len(ms)} inputs",
            "op_p50_ms": "median over inputs of each input's best latency",
            "op_tail_ms": tail_note,
        }
        for name, m in metrics.items():
            show(name, m["value"], m["unit"], notes.get(name, ""))
        extra = {}

    digest = finish_pass(w, items, ledger)
    verdict = check_golden(w.name, args.seed, digest, ledger, len(items))
    show("error_rate", ledger.failed / ledger.attempted, "ratio", f"{ledger.failed} failed of {ledger.attempted} attempted")
    print(f"digest {digest}  ({len(items)} inputs per pass; {verdict})")
    for note in ledger.notes:
        print(f"FAILED {note}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=w.name, trace=args.trace, seconds=args.seconds, env=env, digest=digest, golden=verdict, **extra)
    (OUT / f"result_{w.name}_trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


def traced_run(w, items, ledger: Ledger, args) -> tuple[dict, dict]:
    import layers

    untraced = run_ops(w, items, ledger, seconds=args.seconds / 2)
    tracer = layers.Tracer()
    traced = run_ops(w, items, ledger, count=len(untraced), tracer=tracer)
    overhead = sum(best_ms(untraced)) / sum(best_ms(traced))
    probed = layers.probe(w, items, {s[3] for s in tracer.spans})
    rows = layers.table(tracer, probed, tracer.cache, len(traced), import_cli_ms(), overhead)
    errors = layers.module_errors(tracer, probed)
    print(f"  {'metric':<38} {'value':>14} {'unit':<6} source (samples)")
    for name, row in rows.items():
        show(name, row["value"], row["unit"], f"{row['source']} ({row['n']})")
    print(f"  errors by module: {json.dumps(errors)}")
    for name in layers.METRIC_NAMES:
        if name not in rows:
            print(f"  dropped {name}: neither the workload nor the probe made that call on these inputs")
    header = {"workload": w.name, "seed": args.seed, "spans": len(tracer.spans), "fields": ["id", "parent", "op", "name", "start_ns", "end_ns"]}
    tracer.dump(OUT / f"spans_{w.name}.jsonl", header)
    (OUT / f"layers_{w.name}.json").write_text(json.dumps({"seed": args.seed, "layers": rows, "errors": errors}, indent=2) + "\n")
    metrics = {name: {"value": row["value"], "unit": row["unit"]} for name, row in rows.items()}
    return metrics, {"layers": rows, "errors_by_module": errors}


def profile(w, items, ledger: Ledger) -> int:
    """cProfile over one pass, top 10 by own time, to a diagnostic file."""
    import cProfile
    import io
    import pstats

    import workloads as wl
    from expert_spread.config import compute_stats

    profiler = cProfile.Profile()
    compute_stats.cache_clear()
    for idx, item in enumerate(items):
        res = profiler.runcall(w.op, item, wl.no_span)
        problems, output = guarded_check(w, item, res)
        ledger.record(idx, problems, wl.digest(output))
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(10)
    path = OUT / f"profile_{w.name}.txt"
    path.write_text(buf.getvalue())
    print(buf.getvalue())
    print(f"wrote {path.relative_to(ROOT)}; {ledger.failed} of {ledger.attempted} ops failed")
    return 0 if ledger.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no result (exit {done.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true", help="write a cProfile top-10 for one pass instead of timing")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.profile and args.workload == "all":
        parser.error("--profile takes one workload")
    if not (SRC / "expert_spread" / "__init__.py").is_file():
        print(f"no package at {SRC / 'expert_spread'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        return run_workload(args)
    except subprocess.CalledProcessError as exc:
        print(f"a set-up interpreter failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
