"""emforge benchmark: seeded build and score workloads, each iteration in a fresh process.

    python3 perfbench/run.py --workload render_desk --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload plan_paper --seed 0 --repeat 5

Run it from the repository root; it imports emforge from ./src. One run
makes the workload's inputs from --seed, times SETUP_PROBES set-ups,
then runs fresh-process iterations, at least one and then as many as are
expected to end within --seconds, and checks every iteration's output. With --trace 1 each untraced iteration
is followed by a traced one whose outputs must match it byte for byte,
and the per-layer metrics are reported instead. The last line of stdout
is one JSON object {correct, attempted, failed, metrics}; the exit code
is 1 when an output was wrong. --repeat N runs N seeds (--seed,
--seed+1, ...; --same-seed repeats --seed, which leaves only machine
noise) and prints the median, quartiles and range of every metric: the
steadiness table the bounds in BENCHMARK.json come from.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 5
# Every run must end within 180 s; no iteration starts that would end after this.
RUN_DEADLINE_S = 165.0


class WorkerError(RuntimeError):
    pass


def run_worker(mode: str, workload: str, seed: int, workdir: str, timeout: float) -> dict:
    """Start worker.py in a new process group and wait for it; kill the group on timeout."""
    result_path = os.path.join(workdir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, mode, workload, str(seed), repr(t0), workdir],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{mode} iteration of {workload} did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        raise WorkerError(f"{mode} iteration of {workload} exited {proc.returncode}: "
                          + " | ".join(tail))
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str | None:
    """HEAD's commit, read from .git without starting git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": git_commit(),
        "loadavg_1m": os.getloadavg()[0],
    }


def median(values):
    return statistics.median(values) if values else 0.0


def run_once(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: fixture, set-up probes, then iterations for `seconds`."""
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    loadavg = os.getloadavg()[0]
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    out_dir = os.path.join(workdir, "out")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    timed, traced, setups, errors = [], [], [], []
    crashed = False

    def iteration(mode: str) -> dict:
        shutil.rmtree(out_dir, ignore_errors=True)  # untimed: no earlier files in wall_s
        return run_worker(mode, name, seed, workdir, deadline - time.perf_counter())

    try:
        if WORKLOADS[name].kind == "score":
            run_worker("fixture", name, seed, workdir, deadline - time.perf_counter())
        setups = [run_worker("setup", name, seed, workdir, 60.0)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        measure_start = time.perf_counter()
        while True:
            timed.append(iteration("timed"))
            if trace:
                traced.append(iteration("traced"))
                shutil.copy(os.path.join(workdir, "spans.jsonl"),
                            os.path.join(WORK, f"spans-{name}.jsonl"))
            now = time.perf_counter()
            per_iteration = (now - measure_start) / len(timed)
            if now + per_iteration > min(measure_start + seconds, deadline):
                break
    except WorkerError as exc:
        errors.append(str(exc))
        crashed = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = timed + traced
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        errors.extend(r["errors"])
    if crashed:
        # A worker that raised or hung: one more iteration's operations, all failed.
        per_run = results[0]["attempted"] if results else 1
        attempted += per_run
        failed += per_run
    digests = {r["digest"] for r in results}
    if len(digests) > 1:
        errors.append(f"outputs differ between iterations of one seed: {sorted(digests)}")
        failed += results[0]["attempted"]

    # Times are the best iteration's: other load on a shared machine only ever
    # adds time, so the fastest fresh-process iteration is the steadiest figure.
    # setup_s takes the median of the probes and the iterations' set-ups.
    e2e = {}
    if timed:
        best = min(timed, key=lambda r: r["wall_s"])
        e2e = {
            "setup_s": median(setups + [r["setup_s"] for r in timed]),
            "wall_s": best["wall_s"],
            "records_per_s": best["attempted"] / best["wall_s"],
            "cpu_s": min(r["cpu_s"] for r in timed),
            "peak_rss_mib": median([r["peak_rss_mib"] for r in timed]),
        }
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = median([r["layers"][key] for r in traced])
        layers["trace.overhead_s"] = min(r["wall_s"] for r in traced) - e2e["wall_s"]
    return {
        "workload": name, "seed": seed, "digests": sorted(digests),
        "iterations": len(timed), "traced": len(traced),
        "setup_probes": len(setups), "attempted": max(attempted, 1),
        "failed": min(failed, max(attempted, 1)), "errors": errors,
        "end_to_end": e2e, "per_layer": layers,
        "run_s": time.perf_counter() - started, "loadavg_1m": loadavg,
    }


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result_line(run: dict, key: str, metric_defs: list[dict]) -> dict:
    values = run[key]
    correct = run["failed"] == 0 and not run["errors"] and bool(values)
    metrics = {}
    for m in metric_defs:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            correct = False
    return {"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}


def steadiness(runs: list[dict], key: str, metric_defs: list[dict]) -> list[str]:
    lines = [f"{'metric':28s} {'unit':6s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
             f"{'min':>12s} {'max':>12s} {'iqr/med':>8s} {'bound':>6s}"]
    for m in metric_defs:
        values = [r[key][m["name"]] for r in runs if m["name"] in r[key]]
        if not values:
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        lines.append(f"{m['name']:28s} {m['unit']:6s} {len(values):3d} {med:12.6g} {q1:12.6g} "
                     f"{q3:12.6g} {min(values):12.6g} {max(values):12.6g} {spread:8.4f} "
                     f"{m.get('bound', ''):>6}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="steadiness mode: this many runs on consecutive seeds")
    parser.add_argument("--same-seed", action="store_true",
                        help="steadiness mode: repeat --seed instead of stepping it")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "emforge", "__init__.py")):
        print(f"no emforge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    metric_defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    key = "per_layer" if args.trace else "end_to_end"

    print("machine " + json.dumps(machine(), sort_keys=True), flush=True)
    runs = []
    for i in range(args.repeat):
        seed = args.seed if args.same_seed else args.seed + i
        run = run_once(args.workload, seed, seconds, bool(args.trace))
        runs.append(run)
        print(f"run seed={run['seed']} iterations={run['iterations']} traced={run['traced']} "
              f"setup_probes={run['setup_probes']} run_s={run['run_s']:.1f} "
              f"loadavg_1m={run['loadavg_1m']:.2f} "
              f"output_digest={','.join(run['digests'])}", flush=True)
        for m in metric_defs:
            if m["name"] in run[key]:
                print(f"  {args.workload:13s} {m['name']:28s} {run[key][m['name']]:.6g} {m['unit']}")
        print(f"  {args.workload:13s} {'error_rate':28s} "
              f"{run['failed'] / run['attempted']:.6g} ratio", flush=True)
        for error in run["errors"]:
            print(f"  error: {error}", flush=True)
    if args.repeat > 1:
        print("\n".join(steadiness(runs, key, metric_defs)))

    lines = [result_line(run, key, metric_defs) for run in runs]
    print(json.dumps(lines[0] if len(lines) == 1 else combined(lines)))
    return 0 if all(line["correct"] for line in lines) else 1


def combined(lines: list[dict]) -> dict:
    """Steadiness mode's last line: totals, and each metric's median over the runs."""
    names = {name: m["unit"] for line in lines for name, m in line["metrics"].items()}
    return {
        "correct": all(line["correct"] for line in lines),
        "attempted": sum(line["attempted"] for line in lines),
        "failed": sum(line["failed"] for line in lines),
        "metrics": {name: {"value": statistics.median(line["metrics"][name]["value"]
                                                      for line in lines if name in line["metrics"]),
                           "unit": unit} for name, unit in names.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
