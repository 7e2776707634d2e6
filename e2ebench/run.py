#!/usr/bin/env python3
"""End-to-end benchmark of the hierminimax workspace.

Builds the `e2ebench` package, runs passes of one workload, each in a
fresh process, and prints the workload's metrics. The last line of
standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.

Measure one workload (what a regression check runs):

    python3 e2ebench/run.py --workload fig3-logistic --seed 1 --seconds 25 --trace 0

`--trace 0` trains the run's seed set once in each of six fresh
processes and reports the end-to-end metrics. `--trace 1` trains the set
three times in one process (stamped, `Telemetry::disabled()`, traced) and
reports the per-layer metrics instead. `--seed` shuffles the order in
which each process trains the set; `--alg-seed` (default 1) picks the set
and `--data-seed` (default 2024) the scenario.

Steadiness mode runs every workload N times, alternating the order, and
prints each metric's median, quartiles and (q3 - q1) / median, and the
host's steal ticks per run:

    python3 e2ebench/run.py --steadiness 5 --seconds 25 [--seed 100]

Run from the repository root. Build output goes to `$CARGO_TARGET_DIR`
(default `.bench_build`), scratch files to a directory inside it.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASS_TIMEOUT_S = 170
# Fresh processes that each train a run's whole seed set.
PASSES = 6
# Worker threads of the Rayon workloads (the sequential ones never use the pool).
THREADS = 2
WORKLOADS = ["fig3-logistic", "fig4-mlp", "ops-chaos"]

END_TO_END = [
    ("setup_s", "s"),
    ("time_to_target_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rounds_to_target", "rounds"),
    ("sim_s_to_target", "sim_s"),
    ("final_worst_acc", "fraction"),
]
PER_LAYER = [
    ("driver.round_s", "s"),
    ("driver.round_self_s", "s"),
    ("driver.phase1_sampling_s", "s"),
    ("driver.local_sgd_chain_s", "s"),
    ("driver.aggregation_s", "s"),
    ("driver.dual_update_s", "s"),
    ("driver.eval_s", "s"),
    ("driver.checkpoint_write_s", "s"),
    ("driver.fault_retry_s", "s"),
    ("nn.loss_grad.calls", "count"),
    ("nn.loss_grad.busy_s", "s"),
    ("nn.loss_grad.gflops", "GFLOP/s"),
    ("nn.loss.calls", "count"),
    ("nn.loss.busy_s", "s"),
    ("nn.predict.calls", "count"),
    ("nn.predict.busy_s", "s"),
    ("chain.non_model_s", "s"),
    ("exec.threads", "count"),
    ("exec.parallel_efficiency", "fraction"),
    ("comm.cloud_rounds", "rounds"),
    ("comm.edge_cloud_floats", "floats"),
    ("comm.client_edge_floats", "floats"),
    ("fault.crashes", "count"),
    ("fault.retries", "count"),
    ("fault.gave_up", "count"),
    ("churn.joined", "count"),
    ("churn.rehomed", "count"),
    ("quarantine.excluded_uploads", "count"),
    ("ckpt.writes", "count"),
    ("ckpt.bytes", "B"),
    ("telemetry.events", "count"),
    ("telemetry.bytes", "B"),
    ("telemetry.emit_s", "s"),
    ("telemetry.stamp_overhead_frac", "fraction"),
    ("data.scenario_s", "s"),
    ("data.problem_s", "s"),
    ("trace.overhead_frac", "fraction"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if r.returncode != 0:
        log(f"build failed with exit code {r.returncode}")
        return None
    return os.path.join(target_dir(), "release", "e2ebench")


def steal_ticks():
    """Host CPU steal ticks so far (the `steal` column of /proc/stat)."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def run_bin(binary, args):
    """Run the benchmark binary; return its last stdout line as JSON, or None."""
    env = dict(os.environ, RAYON_NUM_THREADS=str(THREADS))
    try:
        r = subprocess.run([binary, *args], cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{' '.join(args[:3])}: timed out after {PASS_TIMEOUT_S} s")
        return None
    if r.returncode != 0 or not r.stdout.strip():
        log(f"{' '.join(args[:3])}: exit {r.returncode}: {r.stderr.strip()[-2000:]}")
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def run_pass(binary, workload, seeds, data_seed, work_dir, flags=()):
    """Train `seeds` in one fresh process; returns its JSON record, or None."""
    args = ["pass", "--workload", workload, "--seeds", ",".join(map(str, seeds)),
            "--data-seed", str(data_seed), "--work-dir", work_dir, *flags]
    steal0 = steal_ticks()
    try:
        rec = run_bin(binary, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if rec is not None:
        rec["steal_ticks"] = steal_ticks() - steal0
    return rec


def mean(xs):
    return statistics.fmean(xs) if xs else float("nan")


def shuffled(seeds, seed, index):
    """The order in which pass `index` of a run with `--seed seed` trains."""
    order = list(seeds)
    random.Random(seed * PASSES + index).shuffle(order)
    return order


def measure(binary, workload, seed, seconds, trace, alg_seed=None, data_seed=None):
    """One benchmark run of a workload.

    Untraced, each of PASSES fresh processes trains the plan's whole seed
    set, in an order shuffled by `seed`; every seed's bits must repeat
    across the processes. A seed's times are the median of its PASSES
    trainings. Traced, one process trains each seed three times: stamped,
    with telemetry off, and traced. Returns (correct, attempted, failed,
    metrics, notes): metrics maps name -> (value, unit).
    """
    plan_args = ["plan", "--workload", workload, "--seconds", str(seconds)]
    if alg_seed is not None:
        plan_args += ["--alg-seed", str(alg_seed)]
    if data_seed is not None:
        plan_args += ["--data-seed", str(data_seed)]
    plan = run_bin(binary, plan_args)
    if plan is None:
        return False, 1, 1, {}, [f"{workload}: no plan"]
    seeds, data_seed = plan["seeds"], plan["data_seed"]
    work_dir = os.path.join(target_dir(), "e2ebench-work", str(os.getpid()))
    problems = []

    def go(index, flags=()):
        rec = run_pass(binary, workload, shuffled(seeds, seed, index), data_seed,
                       work_dir, flags)
        if rec is None:
            problems.append(f"pass {index} failed to run")
        return rec

    passes = [go(0, ["--trace"])] if trace else [go(i) for i in range(PASSES)]
    passes = [p for p in passes if p is not None]
    runs = [r for p in passes for r in p["runs"]]
    every = runs + [r for p in passes for key in ["off_runs", "traced_runs"]
                    for r in p.get(key, [])]
    attempted = max(1, len(every))
    failed = sum(r["failure"] is not None for r in every)
    problems += [f"seed {r['seed']}: {r['failure']}" for r in every if r["failure"]]
    # A seed's bits must repeat across processes, and neither tracing nor
    # switching telemetry off may change them.
    by_seed = {}
    for r in every:
        by_seed.setdefault(r["seed"], []).append(r)
    for s, rs in by_seed.items():
        ds = {r["digest"] for r in rs}
        if len(ds) > 1:
            problems.append(f"seed {s}: repetitions disagree: digests {sorted(ds)}")
    if problems:
        failed = max(failed, 1)
    correct = not problems

    digest = 0
    for s in seeds:
        if s in by_seed:
            digest = (digest * 1_000_003 + int(by_seed[s][0]["digest"], 16)) % (1 << 64)
    notes = [f"{workload}: {len(seeds)} seeds x {len(passes)} passes x {plan['rounds']} "
             f"rounds, target {plan['target']} (data seed {data_seed}), result digest "
             f"{digest:016x}, failed/attempted {failed}/{attempted}",
             "  steal ticks per pass " + str([p["steal_ticks"] for p in passes])]
    metrics = {}
    if runs and not trace:
        # Per seed, a time is its median over the passes; the exact
        # outcomes repeat in every pass. Absent outcomes (failed seeds)
        # are skipped.
        def per_seed(key, pick=statistics.median):
            picked = [pick(xs) for xs in ([r[key] for r in rs if r[key] is not None]
                                          for rs in by_seed.values()) if xs]
            return mean(picked)

        exact = lambda key: per_seed(key, pick=lambda xs: xs[0])
        values = {
            "setup_s": statistics.median(s for p in passes for s in p["setup_s"]),
            "time_to_target_s": per_seed("time_to_target_s"),
            "run_s": per_seed("run_s"),
            "cpu_s": per_seed("cpu_s"),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "rounds_to_target": exact("rounds_to_target"),
            "sim_s_to_target": exact("sim_s_to_target"),
            "final_worst_acc": exact("final_worst_acc"),
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END}
        for k, unit in END_TO_END:
            notes.append(f"  {k:<18} {values[k]:>14.6g} {unit}")
    elif runs:
        traced = passes[0]
        run_s = lambda key: sum(r["run_s"] for r in traced[key])
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = run_s("traced_runs") / run_s("runs") - 1.0
        layers["telemetry.stamp_overhead_frac"] = run_s("runs") / run_s("off_runs") - 1.0
        metrics = {k: (layers[k], unit) for k, unit in PER_LAYER}
        notes.append(f"  per-layer metrics, per training run of the traced pass "
                     f"({len(traced['runs'])} seeds):")
        for k, unit in PER_LAYER:
            notes.append(f"  {k:<30} {layers[k]:>14.6g} {unit}")
    for p in problems:
        notes.append(f"  PROBLEM: {p}")
    return correct, attempted, failed, metrics, notes


def quartile_row(name, unit, values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("nan")
    return (f"  {name:<26} median {med:>12.6g} {unit:<8} q1 {q1:>12.6g}  q3 {q3:>12.6g}"
            f"  (q3-q1)/median {spread:.4f}")


def steadiness(binary, n, seconds, base_seed):
    """Run every workload n times in alternating order; print spreads."""
    results = {w: [] for w in WORKLOADS}
    steal = {w: [] for w in WORKLOADS}
    ok = True
    for i in range(n):
        order = WORKLOADS if i % 2 == 0 else list(reversed(WORKLOADS))
        for w in order:
            s0 = steal_ticks()
            correct, _, _, metrics, notes = measure(binary, w, base_seed + i, seconds, False)
            steal[w].append(steal_ticks() - s0)
            for line in notes if not correct else []:
                log(line)
            ok &= correct
            results[w].append(metrics)
            log(f"run {i + 1}/{n} {w} seed {base_seed + i}: correct={correct} " +
                " ".join(f"{k}={v[0]:.6g}" for k, v in metrics.items()))
    for w in WORKLOADS:
        print(f"{w}: {n} runs, steal ticks per run {steal[w]}")
        for name, unit in END_TO_END:
            values = [m[name][0] for m in results[w] if name in m]
            if values:
                print(quartile_row(name, unit, values))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--alg-seed", type=int)
    ap.add_argument("--data-seed", type=int)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, metavar="N")
    args = ap.parse_args()
    if args.steadiness is None and args.workload is None:
        ap.error("give --workload or --steadiness")

    binary = build()
    if binary is None:
        return 1
    if args.steadiness is not None:
        return 0 if steadiness(binary, args.steadiness, args.seconds, args.seed) else 1

    correct, attempted, failed, metrics, notes = measure(
        binary, args.workload, args.seed, args.seconds, bool(args.trace),
        args.alg_seed, args.data_seed)
    for line in notes:
        print(line)
    if not metrics:
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
