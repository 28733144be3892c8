#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs one workload.

    python3 campaign_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 campaign_bench/run.py --all [--seed <n>] [--seconds <s>]

Run from the repository root. The build goes to $CARGO_TARGET_DIR (or
campaign_bench/target) and its output to stderr. The benchmark's own
output is passed through; with --trace 0 the workload process's peak
resident memory is added to the final JSON line as `peak_rss_mb`. The exit
code is the benchmark's: non-zero when a check of the program failed.

--all runs every workload of BENCHMARK.json untraced and traced and prints
one line per metric (workload, metric, value, unit); it exits 1 when any
run failed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = "mirage-campaign-bench"


def run_all(argv):
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv else "1"
    seconds = argv[argv.index("--seconds") + 1] if "--seconds" in argv else str(bench["run_seconds"])
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", seed,
                 "--seconds", seconds, "--trace", trace],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().split("\n")
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = {"correct": False, "metrics": {}}
            ok = ok and proc.returncode == 0 and result["correct"]
            print(f"{workload} trace={trace} correct={result['correct']} exit={proc.returncode}")
            for name, m in result["metrics"].items():
                print(f"  {workload:<14} {name:<36} {m['value']:>16.6g} {m['unit']}")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
    sys.exit(0 if ok else 1)


def main():
    if "--all" in sys.argv:
        run_all(sys.argv)
    if not os.path.isfile(os.path.join(HERE, "..", "crates", "core", "Cargo.toml")):
        sys.exit("error: the mirage crates are missing; run from a full checkout")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", BINARY)

    proc = subprocess.Popen([binary] + sys.argv[1:], stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 reports the resource usage of this one child: its peak RSS.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        sys.exit(proc.returncode or 1)
    if "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1] == "0":
        # Linux reports ru_maxrss in KiB.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
