#!/usr/bin/env python3
"""End-to-end benchmark of the metro days.

One run measures one workload for --seconds seconds:

    python3 perfbench/run.py --workload nocdn_day --seed 1 --seconds 30 \
        --trace 0

It builds perfbench/ (against src/) into .bench_build/, then starts
perfbench_day once per round, each round in a fresh process with the same
seed, until the time is up. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json (medians over the rounds); with --trace 1
they are the per-layer ones, taken from traced rounds that alternate with
untraced rounds of the same seed. For udp_day_1w the runner also runs the
same day on 2 workers, once per run and once per traced round: its report
must equal the 1-worker one, and its times are the psim.*_2w metrics.
Round details and check outcomes go to stderr.

Steadiness mode runs whole runs on consecutive seeds and prints the median,
quartiles and spread of every end-to-end metric:

    python3 perfbench/run.py --steady 10 [--workload W] [--seed 1] \
        [--seconds 30]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
ROUND_TIMEOUT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench:", message)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at the checkout root")
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ to build against; run from the root of a checkout")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                fail("build failed; see " + build_log)


def day(args):
    """Runs perfbench_day once; returns its JSON line as a dict."""
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        fail("%s exited with %d" % (" ".join(args), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing" % " ".join(args))
    return json.loads(lines[-1])


def binary(traced):
    name = "perfbench_day_traced" if traced else "perfbench_day"
    return os.path.join(BUILD, name)


def run_round(workload, seed, traced, index):
    args = [binary(traced), "--workload", workload, "--seed", str(seed)]
    if traced:
        os.makedirs(SPANS, exist_ok=True)
        path = os.path.join(SPANS, "%s-seed%d-%d.jsonl" % (workload, seed,
                                                          index))
        args += ["--spans", path]
    r = day(args)
    r["traced"] = traced
    log("round %d%s: setup_s=%.4f run_s=%.4f cpu_s=%.3f peak_rss_mb=%.1f "
        "attempted=%d failed=%d excused=%s checks_failed=%s"
        % (index, " (traced)" if traced else "", r["setup_s"], r["run_s"],
           r["cpu_s"], r["peak_rss_mb"], r["attempted"], r["failed"],
           json.dumps(r["excused"]),
           [k for k, ok in r["checks"].items() if not ok]))
    return r


def run_reference(workload, seed):
    """The 2-worker run of the 1-worker UDP day, made by the runner: its
    report must equal the 1-worker one, and its times show what the
    engine barrier costs. Other workloads have none."""
    if workload != "udp_day_1w":
        return None
    ref = day([binary(False), "--workload", workload, "--seed", str(seed),
               "--reference"])
    log("reference (2 workers): run_s=%.4f main_cpu_s=%.3f "
        "worker_cpu_s=%.3f" % (ref["run_s"], ref["main_cpu_s"],
                               ref["worker_cpu_s"]))
    return ref


def measure(spec, workload, seed, seconds, trace):
    build()
    refs = [run_reference(workload, seed)]

    rounds = []
    deadline = time.monotonic() + seconds
    while True:
        rounds.append(run_round(workload, seed, False, len(rounds)))
        if trace:
            rounds.append(run_round(workload, seed, True, len(rounds)))
            refs.append(run_reference(workload, seed))
        if time.monotonic() >= deadline:
            break
    refs = [r for r in refs if r is not None]

    problems = []
    for r in rounds:
        problems += ["round check failed: " + k
                     for k, ok in r["checks"].items() if not ok]
        if r["attempted"] < 1:
            problems.append("a round attempted nothing")
    if len({r["report"] for r in rounds}) != 1:
        problems.append("same-seed rounds disagree on the day report")
    if any(r["report"] != rounds[0]["report"] for r in refs):
        problems.append("2-worker report differs from the 1-worker report")
    for p in sorted(set(problems)):
        log("FAIL:", p)
    log("report:\n" + rounds[0]["report"])

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            value = statistics.median(r[m["name"]] for r in plain)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        metrics = layer_metrics(spec, workload, plain, traced, refs)

    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def layer_metrics(spec, workload, plain, traced, refs):
    """Medians of the traced rounds' layer values and of the 2-worker
    reference runs, plus the ratios and the tracing overhead derived from
    them. A layer that does not run on this workload (or cannot be read
    from outside it) reads 0; README.md says which."""
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(r["layers"][name] for r in traced)
    if refs:
        run_2w = statistics.median(r["run_s"] for r in refs)
        values["psim.run_s_2w"] = run_2w
        values["psim.us_per_epoch_2w"] = 1e6 * run_2w / refs[0]["epochs"]
        for name in ("main_cpu_s", "worker_cpu_s"):
            values["psim.%s_2w" % name] = statistics.median(
                r[name] for r in refs)
    run_traced = statistics.median(r["run_s"] for r in traced)
    run_plain = statistics.median(r["run_s"] for r in plain)
    values["trace.overhead_s"] = run_traced - run_plain
    events = values.get("sim.events", 0)
    values["sim.events_per_s"] = events / run_traced
    if values.get("psim.epochs"):
        values["psim.us_per_epoch"] = 1e6 * run_traced / values["psim.epochs"]
    metrics = {}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"value": values.pop(m["name"], 0),
                              "unit": m["unit"]}
    if values:
        fail("layer values missing from BENCHMARK.json: %s" % sorted(values))
    log("per-layer (%s, %d traced rounds): %s"
        % (workload, len(traced),
           ", ".join("%s=%.6g" % (k, v["value"]) for k, v in metrics.items())))
    return metrics


def steady(spec, workloads, first_seed, count, seconds):
    """Whole runs on `count` consecutive seeds per workload, the workloads
    taking turns seed by seed, so that a slow spell of the host falls on
    all of them alike. For each end-to-end metric, the spread
    (q3 - q1) / median is "steady" within a third of the metric's bound
    and "WIDE" beyond the bound; setup_s's spread is shown but not judged.
    Returns False on a wide spread, a failed check or a failed share that
    differs between runs."""
    all_runs = {w: [] for w in workloads}
    for seed in range(first_seed, first_seed + count):
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                log(proc.stderr[-4000:])
                fail("run %s seed %d exited with %d"
                     % (workload, seed, proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            log(workload, seed, json.dumps(result))
            all_runs[workload].append(result)
    ok = True
    for workload, runs in all_runs.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print("%s: %d runs, correct=%s, failed share=%s"
              % (workload, len(runs), correct, sorted(shares)))
        ok &= correct and len(shares) == 1
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if m["name"] == "setup_s":
                verdict = "not judged"
            elif spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "WIDE"
                ok = False
            print("  %-12s median=%.5g q1=%.5g q3=%.5g spread=%.4f "
                  "bound=%.2f %s\n    runs: %s"
                  % (m["name"], med, q1, q3, spread, m["bound"], verdict,
                     " ".join("%.4g" % v for v in vals)))
        sys.stdout.flush()
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="RUNS")
    a = p.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    if a.workload is not None and a.workload not in names:
        fail("unknown workload %r; choose from %s" % (a.workload, names))
    if a.steady:
        if a.steady < 2:
            fail("--steady needs at least 2 runs for quartiles")
        build()
        workloads = [a.workload] if a.workload else names
        sys.exit(0 if steady(spec, workloads, a.seed, a.steady, seconds)
                 else 1)
    if a.workload is None:
        fail("--workload is required")
    result = measure(spec, a.workload, a.seed, seconds, a.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
