"""driftlab's benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It

1. writes the workload's experiment config, generated from --seed;
2. regenerates the shipped quickstart and flip_t2 results and stops with an
   error unless they equal the committed results/ byte for byte;
3. with --trace 0, starts fresh interpreters to time set-up (import driftlab
   and load_config);
4. runs the workload repeatedly for --seconds in a fresh interpreter, checks
   each run's persisted rows against reference digests, and measures it;
5. prints diagnostics, then as its last line one JSON object with the
   metrics that BENCHMARK.json lists: its end_to_end metrics under
   --trace 0, its per_layer metrics under --trace 1.

Every child process runs with one BLAS thread. Outputs go to .bench_tmp/
in the checkout and are removed at the end; results/ is only read.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import WORKLOADS, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURE = os.path.join(HERE, "measure.py")
SETUP_PROBES = 7
DEADLINE_S = 170.0
SETUP_CODE = ("import sys, driftlab; from driftlab.config import load_config; "
              "load_config(sys.argv[1]); print('ready', flush=True)")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # set-up is timed with cached bytecode, as an installed package has it,
    # whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src")] + inherited)
    return env


def run_child(cmd, deadline, what) -> str:
    """Run cmd to completion before deadline; return its stdout. The child
    gets its own process group so that a timeout also ends pool workers."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{what} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    return out


def setup_time(cfg_path, deadline) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    driftlab and loaded the workload config."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, cfg_path],
                            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("set-up probe did not finish in time")
    if line != "ready\n" or proc.returncode != 0:
        raise BenchError("set-up probe failed")
    return elapsed


def declared_metrics(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def benchmark(args, tmp, deadline) -> dict:
    workload = WORKLOADS[args.workload]
    cfg_path = write_config(workload.config(args.seed), os.path.join(tmp, "config.yaml"))

    run_child([sys.executable, MEASURE, "golden", "--tmp", tmp], deadline,
              "golden gate (shipped configs against results/)")
    values = {}
    if not args.trace:
        values["setup_s"] = statistics.median(
            setup_time(cfg_path, deadline) for _ in range(SETUP_PROBES))
    out = run_child([sys.executable, MEASURE, "run", "--tmp", tmp,
                     "--workload", args.workload, "--config", cfg_path,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)], deadline, "measurement")
    child = json.loads(out.strip().splitlines()[-1])
    values.update(child["metrics"])

    units = declared_metrics(args.trace)
    if set(values) != set(units):
        raise BenchError(f"measured metrics {sorted(set(values) ^ set(units))} "
                         "do not match BENCHMARK.json")
    print(f"workload {args.workload} seed {args.seed} config seeds "
          f"{workload.config(args.seed)['seeds']} jobs {workload.jobs}")
    print("env " + json.dumps(child["env"], sort_keys=True))
    walls = child["wall_s_all"]
    print(f"untraced wall_s of {len(walls)} repeats {json.dumps(walls)}")
    print("host probe s " + json.dumps(child["host_probe_s"]))
    for name in sorted(values):
        print(f"{name} = {values[name]:.6g} {units[name]}")
    return {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="driftlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    needed = [os.path.join("src", "driftlab", "__init__.py"), "configs", "results",
              "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"not a driftlab checkout, missing {missing}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".bench_tmp")
    tmp = os.path.join(scratch, str(os.getpid()))
    os.makedirs(tmp)
    try:
        result = benchmark(args, tmp, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:     # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
