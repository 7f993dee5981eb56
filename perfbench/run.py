#!/usr/bin/env python3
"""Build and run the Clarens benchmark (see perfbench/METRICS.md).

Run one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload fig4_rpc --seed 1 --seconds 25 --trace 0

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics. The harness is built from the
repository's src/ tree into .bench_build/ (or $CARGO_TARGET_DIR) on first
use; a traced run leaves its spans in .bench_build/spans/. Other modes:

    --all        run every workload once and print every metric by name
    --steady     run one workload over --runs seeds and print each
                 end-to-end metric's median, quartiles and spread against
                 its bound in BENCHMARK.json
    --selftest   check that one seed gives byte-identical request streams
                 and that another seed gives different ones

Every mode run from the repository root. Exits non-zero when the build
fails, an output check fails, or a run exceeds its time limit.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fig4_rpc", "analyst_mix", "fed_upload"]
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; returns the binary path."""
    build_dir = os.path.join(build_root(), "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise SystemExit("perfbench: configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """One harness run; returns (exit code, stdout lines, parsed result)."""
    work_dir = os.path.join(build_root(), "work-%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", work_dir] + list(extra)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        code = 124
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        # Keep the latest traced run's spans of each workload.
        for spans in glob.glob(os.path.join(work_dir, "spans-*.tsv")):
            keep = os.path.join(build_root(), "spans")
            os.makedirs(keep, exist_ok=True)
            os.replace(spans, os.path.join(keep, os.path.basename(spans)))
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return code, lines, result


def benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steady(binary, args):
    """Run one workload over several seeds; print each metric's spread."""
    spec = benchmark_json()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    ratios = []
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        code, lines, result = run_once(binary, args.workload, seed,
                                       args.seconds, False, args.extra)
        if code != 0 or not result or not result["correct"]:
            log("perfbench: seed %d failed (exit %d)" % (seed, code))
            ok = False
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        # fig4_rpc prints its per-round rates: a run whose rounds split
        # into two rate levels shows as a large max/min ratio.
        for line in lines:
            if "round_rates:" in line:
                rates = [float(x) for x in line.split("round_rates:")[1].split()]
                ratios.append(max(rates) / min(rates))
        log("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in values)))
    if not all(len(v) >= 2 for v in values.values()):
        return 1
    print("%-14s %12s %12s %12s %8s %6s  %s" %
          ("metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    for name, vals in values.items():
        q1, q2, q3, s = spread(vals)
        bound = bounds[name]
        if name == "setup_s":
            verdict = "exempt (median compared only)"
        elif s <= bound / 3:
            verdict = "steady"
        elif s <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
            ok = False
        print("%-14s %12.6g %12.6g %12.6g %8.4f %6.2f  %s" %
              (name, q1, q2, q3, s, bound, verdict))
    if ratios:
        print("round-rate max/min per run: %s" %
              " ".join("%.3f" % r for r in ratios))
    return 0 if ok else 1


def run_all(binary, args):
    """Every workload once: all end-to-end metrics plus each workload's own."""
    ok = True
    for workload in WORKLOADS:
        code, lines, result = run_once(binary, workload, args.seed,
                                       args.seconds, False)
        ok = ok and code == 0 and bool(result) and result["correct"]
        print("== %s (exit %d)" % (workload, code))
        if result:
            print("   attempted %d failed %d correct %s" %
                  (result["attempted"], result["failed"], result["correct"]))
            for name, metric in result["metrics"].items():
                print("   %-16s %14.6g %s" % (name, metric["value"], metric["unit"]))
        for line in lines:
            if line.startswith("# metric "):
                _, _, name, value, unit = line.split()
                print("   %-16s %14.6g %s" % (name, float(value), unit))
    return 0 if ok else 1


def selftest(binary):
    """Same seed, byte-identical request stream; another seed, a new one."""
    ok = True
    for workload in WORKLOADS:
        digests = []
        for seed in (1, 1, 2):
            out = subprocess.run([binary, "--workload", workload, "--seed",
                                  str(seed), "--dump-inputs"],
                                 stdout=subprocess.PIPE, text=True, check=True)
            digests.append(out.stdout.strip())
        same = digests[0] == digests[1]
        differs = digests[0] != digests[2]
        ok = ok and same and differs
        print("%-12s seed 1 twice: %s; seed 2: %s" %
              (workload, "identical" if same else "DIFFERENT",
               "different" if differs else "IDENTICAL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("extra", nargs="*",
                        help="passed to the harness after '--', e.g. "
                             "-- --connections 1")
    args = parser.parse_args()
    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.all:
        return run_all(binary, args)
    if not args.workload:
        parser.error("--workload is required")
    if args.steady:
        return steady(binary, args)
    code, lines, result = run_once(binary, args.workload, args.seed,
                                   args.seconds, args.trace == 1, args.extra)
    if result is None:
        for line in lines:
            log(line)
        return code or 1
    expected = [m["name"] for m in
                benchmark_json()["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        log("perfbench: the harness's metrics differ from BENCHMARK.json")
        return 1
    # A result whose output checks failed is still printed (correct is
    # false), but the exit code says the run failed.
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
