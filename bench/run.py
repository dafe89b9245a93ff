"""Run one benchmark workload on the logcrit sources of this checkout.

    python3 bench/run.py --workload solve-ref --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run imports logcrit from ./src, builds the workload's inputs from the
seed, runs one untimed warm-up operation, then runs operations back to
back until --seconds have passed (at least MIN_OPS of them) and checks
every operation's outputs.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: op_s (median wall time of one
operation), setup_s (median over SETUP_PROBES fresh processes of the time
from process start until the first operation could begin) and peak_rss_mb
(peak resident memory of this process).  --trace 1 wraps the program's
layer functions (see tracing.py) and reports the per-layer metrics of one
operation, as medians over the timed operations, instead.

`--workload all` runs every workload in its own process, one after the
other, and prints a table and one JSON object over all of them.  Result
files and traces go to .bench_out/ at the checkout's root.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("solve-ref", "weak-log", "region-scan", "certify")
SETUP_PROBES = 3
MIN_OPS = 3
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Put ./src first on the path and make sure logcrit comes from there."""
    src = ROOT / "src"
    if not (src / "logcrit" / "__init__.py").is_file():
        fail(f"no logcrit sources under {src}")
    sys.path.insert(0, str(src))
    import logcrit

    if Path(logcrit.__file__).resolve().parent != (src / "logcrit").resolve():
        fail(f"logcrit imported from {logcrit.__file__}, not from {src}")


def measure_setup(workload, seed, run_dir):
    samples = []
    for i in range(SETUP_PROBES):
        workdir = run_dir / f"probe-{i}"
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def run_workload(name, seed, seconds, trace):
    import_program()
    import checks
    import workloads

    OUT.mkdir(exist_ok=True)
    w = workloads.WORKLOADS[name]
    run_dir = OUT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    setup = [] if trace else measure_setup(name, seed, run_dir)
    inputs = w.build(seed, str(run_dir / "inputs"))
    opdir = run_dir / "op"

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    state = {"attempted": 0, "failed": 0, "correct": True, "times": [], "layers": [],
             "checks": None, "warmup_s": None}

    def one(index, timed):
        shutil.rmtree(opdir, ignore_errors=True)
        opdir.mkdir()
        state["attempted"] += 1
        if tracer:
            tracer.begin_op(index, keep_spans=index == 1)
        start = time.perf_counter()
        try:
            result = w.run(inputs, str(opdir))
        except Exception:  # an operation that raises counts as failed; the run goes on
            state["failed"] += 1
            print(f"bench: operation {index} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return
        elapsed = time.perf_counter() - start
        layers = tracer.end_op(name) if tracer else None
        try:
            state["checks"] = w.check(inputs, str(opdir), result, seed)
        except checks.CheckFailed as e:
            state["correct"] = False
            print(f"bench: operation {index} output check failed: {e}", file=sys.stderr)
        except Exception:  # unreadable or missing outputs fail the check too
            state["correct"] = False
            print(f"bench: operation {index} outputs unreadable:\n{traceback.format_exc()}",
                  file=sys.stderr)
        if not timed:
            state["warmup_s"] = elapsed
        else:
            state["times"].append(elapsed)
            if layers is not None:
                layers["cli.out_bytes"] = dir_bytes(opdir)
                layers["trace.op_s"] = elapsed
                state["layers"].append(layers)

    try:
        one(0, timed=False)  # warm-up: first-call costs stay out of the timed operations
        deadline = time.perf_counter() + seconds
        index = 1
        while index <= MIN_OPS or time.perf_counter() < deadline:
            one(index, timed=True)
            index += 1
    finally:
        if tracer:
            tracer.remove()
    if not state["times"]:
        fail("every timed operation failed")

    if trace:
        units = tracing.LAYER_METRICS
        metrics = {}
        varying = []
        for metric, unit in units.items():
            values = [layer[metric] for layer in state["layers"]]
            value = statistics.median(values)
            if unit in ("count", "bytes", "ratio"):
                if len(set(values)) > 1:
                    varying.append(metric)
                if float(value).is_integer():
                    value = int(value)
            metrics[metric] = {"value": value, "unit": unit}
        tracer.write_spans(OUT / f"trace-{name}-seed{seed}.jsonl")
    else:
        values = {
            "op_s": statistics.median(state["times"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
        varying = []

    shutil.rmtree(run_dir, ignore_errors=True)
    line = {"correct": state["correct"], "attempted": state["attempted"],
            "failed": state["failed"], "metrics": metrics}
    detail = dict(line, workload=name, seed=seed, seconds=seconds, trace=trace,
                  op_times=state["times"], warmup_s=state["warmup_s"], setup_samples=setup,
                  counts_varying=varying, last_checks=state["checks"])
    with open(OUT / f"result-{name}-seed{seed}-trace{trace}.json", "w") as f:
        json.dump(detail, f, indent=1, sort_keys=True, default=str)
    for metric, m in metrics.items():
        print(f"{name} {metric} {m['value']} {m['unit']}")
    print(f"{name} attempted {state['attempted']} failed {state['failed']} "
          f"correct {str(state['correct']).lower()}")
    print(json.dumps(line))


def run_all(seed, seconds, trace):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}")
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:12s} {metric:28s} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:12s} {'attempted':28s} {result['attempted']:>14d}")
        print(f"{name:12s} {'failed':28s} {result['failed']:>14d}")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
