#!/usr/bin/env python3
"""Builds the end-to-end benchmark (Release) and runs its workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--workload all] [--repeat N] [--out FILE]

With one workload and --repeat 1 the benchmark binary's output is passed
through unchanged: its last stdout line is the JSON result. With --workload
all (the default) or --repeat N, every workload runs N times, each run in its
own child process, and the last line is a JSON summary of all runs; --out also
writes it to FILE together with the build's compiler, build type and nproc.

The build goes to $CARGO_TARGET_DIR when set, else .bench_build, relative to
the repository root. Traced runs write their spans to
<build>/bench_trace_<workload>.json. Exit status is nonzero when the build
fails or any run fails verification.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim_tree_update", "tcp_dag_fanout", "tcp_ring_reads"]
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures and builds incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return None
    return os.path.join(out_dir, "perfbench")


def run_one(binary, out_dir, workload, seed, seconds, trace):
    """Runs one workload in a child process; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans",
                os.path.join(out_dir, "bench_trace_%s.json" % workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as exc:
        print("error: %s exceeded %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, exc.stdout or ""


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("error: build failed", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if len(workloads) == 1 and args.repeat == 1 and not args.out:
        code, stdout = run_one(binary, out_dir, workloads[0], args.seed,
                               args.seconds, args.trace)
        sys.stdout.write(stdout)
        return code if last_json(stdout) is not None else 1

    runs = []
    ok = True
    for repeat in range(args.repeat):
        for workload in workloads:
            code, stdout = run_one(binary, out_dir, workload, args.seed,
                                   args.seconds, args.trace)
            sys.stdout.write(stdout)
            sys.stdout.flush()
            result = last_json(stdout)
            ok = ok and code == 0 and result is not None
            notes = [l[2:] for l in stdout.splitlines() if l.startswith("# ")]
            runs.append({"workload": workload, "set": repeat,
                         "seed": args.seed, "trace": args.trace,
                         "seconds": args.seconds, "exit": code,
                         "notes": notes, "result": result})
    info = json.loads(subprocess.run([binary, "--info"], text=True,
                                     stdout=subprocess.PIPE).stdout)
    info["nproc"] = os.cpu_count()
    summary = {"build": info, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
