"""kdsim benchmark: a closed loop of seeded CLI jobs, run in-process.

    python3 perfbench/run.py --workload fit_campaign --seed 1 --seconds 30 --trace 0

One client issues jobs back to back through kdsim.cli.main(argv) in this
single-threaded process: config -> parse_config -> run -> emit -> file.  The
seed picks a set of 104-108 distinct jobs (see workloads.py).  The set runs
in passes, at least MIN_PASSES and until --seconds have passed, and each
job's latency is its best pass.  A shared machine can slow down by up to 2x
for seconds at a time (seen on a 2-vCPU VM); the best of several passes, a
few seconds apart, measures the program rather than those phases.  Every job's output
is checked against an independent reference (checks.py) after the timed
part, and the outputs must be byte-identical across passes.

--trace 0 prints the end-to-end metrics.  --trace 1 instead alternates plain
passes with passes in which every layer is wrapped (tracing.py), and prints
per-layer metrics per job; the pairs give the tracing overhead.
--self-check runs the traced benchmark twice with one seed and fails unless
all count metrics repeat exactly and the next seed gives another job mix.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 if any job failed.
"""
from __future__ import annotations

import os

# single-threaded numerical libraries, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SPAWNS = 9
MIN_PASSES = 3
# rounds of every slot in a run's job set: 104-108 jobs, so p90 has >= 10 jobs
# beyond it, and a pass takes 2-4 s, so a run makes 8 or more passes
ROUNDS = {"fit_campaign": 9, "propagation": 9, "pattern_scan": 8}

PER_LAYER_UNITS = {
    "bessel.rows": "count", "bessel.self_ms": "ms", "bessel.us_per_row": "us",
    "fit.chi2_calls": "count", "fit.refine_calls": "count", "fit.self_ms": "ms",
    "fit.moment_region_ms": "ms",
    "tdse.strang_steps": "count", "tdse.ffts_computed": "count", "tdse.self_ms": "ms",
    "tdse.us_per_step": "us", "tdse.bin_ms": "ms",
    "emit.bytes": "count", "emit.self_ms": "ms", "emit.MB_per_s": "MB/s",
    "analytic.calls": "count", "analytic.self_ms": "ms",
    "model.calls": "count", "model.self_ms": "ms",
    "cli.parse_ms": "ms", "cli.run_self_ms": "ms", "cli.main_self_ms": "ms",
    "cli.read_csv_ms": "ms",
    "trace.overhead_frac": "frac",
}
EXACT_UNITS = ("count", "lines")   # metrics that must repeat exactly


def spawn_import():
    """Wall time of one fresh interpreter importing kdsim.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import kdsim.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def job_set(workload, seed, workdir):
    """The workload's seeded job set, with its input files written."""
    jobs = workloads.job_set(workload, seed, ROUNDS[workload], str(workdir))
    for job in jobs:
        for path, text in job["files"].items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    return jobs


def run_pass(cli, jobs, after_job=None):
    """Run every job once, back to back: (exit codes, seconds) per job."""
    codes, seconds = [], []
    for job in jobs:
        t0 = time.perf_counter()
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:   # argparse rejects an argv this way
            code = exc.code if isinstance(exc.code, int) else 1
        seconds.append(time.perf_counter() - t0)
        codes.append(code)
        if after_job:
            after_job(job)
    return codes, seconds


class Outputs:
    """Exit codes and output bytes of every pass, checked once at the end."""

    def __init__(self, jobs, workdir):
        self.jobs, self.workdir = jobs, workdir
        self.inputs = {path for job in jobs for path in job["files"]}
        self.exit_codes = {}
        self.digests = set()

    def record(self, codes):
        for job, code in zip(self.jobs, codes):
            if code != 0:
                self.exit_codes[job["id"]] = code
        h = hashlib.sha256()
        for path in sorted(self.workdir.iterdir()):
            if str(path) not in self.inputs:
                h.update(path.name.encode())
                h.update(path.read_bytes())
        self.digests.add(h.hexdigest())

    def failures(self):
        """(job id, reason) per failed job; exit codes first, then the references."""
        import checks   # imports scipy, so only after the timed part and the RSS reading
        failed = []
        for job in self.jobs:
            code = self.exit_codes.get(job["id"])
            reason = f"exit code {code}" if code is not None else checks.check_job(job)
            if reason:
                failed.append((job["id"], reason))
        if len(self.digests) != 1:
            failed.append(("all", "outputs differ between passes"))
        return failed


def report(metrics, attempted, failed, summary):
    print(summary)
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:>16.6g} {unit}")
    for job_id, reason in failed[:10]:
        print(f"FAILED {job_id}: {reason}", file=sys.stderr)
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not failed else 1


def best_of(passes):
    """Each job's shortest time over the passes."""
    return [min(times) for times in zip(*passes)]


def end_to_end(cli, workload, seed, seconds, workdir):
    spawn_import()   # writes the bytecode cache, so it is not counted
    jobs = job_set(workload, seed, workdir)
    outputs = Outputs(jobs, workdir)
    passes, setup = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        codes, times = run_pass(cli, jobs)
        passes.append(times)
        outputs.record(codes)
        # set-up is sampled between passes too, so one slow phase cannot set it
        setup += [spawn_import() for _ in range(min(2, SETUP_SPAWNS - len(setup)))]
    setup += [spawn_import() for _ in range(SETUP_SPAWNS - len(setup))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = outputs.failures()
    best_ms = [1e3 * t for t in best_of(passes)]
    good = len(jobs) - len({job_id for job_id, _ in failed} - {"all"})
    metrics = {
        "jobs_per_s": (1e3 * good / sum(best_ms), "1/s"),
        "job_p50_ms": (statistics.median(best_ms), "ms"),
        "job_p90_ms": (statistics.quantiles(best_ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    summary = (f"workload {workload} seed {seed}: {len(jobs)} jobs x {len(passes)} passes, "
               f"latency = best pass per job, p90 has {len(jobs) - int(0.9 * len(jobs))} "
               f"jobs beyond it, failed_frac {len(failed) / len(jobs):.4g}")
    return report(metrics, len(jobs), failed, summary)


def src_lines():
    """Non-blank source lines per layer module."""
    out = {}
    for layer in tracing.LAYERS:
        path = SRC / "kdsim" / f"{layer}.py"
        text = path.read_text(encoding="utf-8") if path.exists() else ""
        out[f"src_lines.{layer}"] = sum(1 for line in text.splitlines() if line.strip())
    return out


def layer_metrics(tracer, n_jobs, refine):
    """Per-job metrics from one traced pass."""
    ls, fs, fi = tracer.layer_self, tracer.func_self, tracer.func_incl
    calls, work = tracer.calls, tracer.work
    rows, steps, nbytes = (work["bessel.rows"], work["tdse.strang_steps"],
                           work["emit.bytes"])

    def count(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    per_job = {
        "bessel.rows": rows, "bessel.self_ms": 1e3 * ls["bessel"],
        "fit.chi2_calls": calls["fit.chi_square"], "fit.refine_calls": refine,
        "fit.self_ms": 1e3 * ls["fit"], "fit.moment_region_ms": 1e3 * fi["fit.moment_region"],
        "tdse.strang_steps": steps,
        "tdse.ffts_computed": 2 * steps + calls["tdse.order_probabilities"],
        "tdse.self_ms": 1e3 * ls["tdse"], "tdse.bin_ms": 1e3 * fi["tdse.order_probabilities"],
        "emit.bytes": nbytes, "emit.self_ms": 1e3 * ls["emit"],
        "analytic.calls": count("analytic."), "analytic.self_ms": 1e3 * ls["analytic"],
        "model.calls": count("model."), "model.self_ms": 1e3 * ls["model"],
        "cli.parse_ms": 1e3 * fi["cli.parse_config"], "cli.run_self_ms": 1e3 * fs["cli.run"],
        "cli.main_self_ms": 1e3 * fs["cli.main"],
        "cli.read_csv_ms": 1e3 * fi["cli.read_observed_csv"],
    }
    out = {k: v / n_jobs for k, v in per_job.items()}
    out["bessel.us_per_row"] = 1e6 * ls["bessel"] / rows if rows else 0.0
    out["tdse.us_per_step"] = 1e6 * fs["tdse.propagate"] / steps if steps else 0.0
    out["emit.MB_per_s"] = nbytes / ls["emit"] / 1e6 if ls["emit"] else 0.0
    return out


def traced_pass(cli, jobs):
    """One pass with every layer wrapped: (exit codes, seconds, layer metrics)."""
    tracer = tracing.Tracer()
    refine, seen = 0, 0

    def count_refine(job):   # chi-square evaluations beyond each fit's grid scan
        nonlocal refine, seen
        evaluations = tracer.work["fit.chi2_evaluations"]
        if job["mode"] == "fit":
            refine += evaluations - seen - job["check"]["n_grid"] * job["check"]["n_sets"]
        seen = evaluations

    tracer.install()
    try:
        codes, times = run_pass(cli, jobs, count_refine)
    finally:
        tracer.uninstall()
    return codes, times, layer_metrics(tracer, len(jobs), refine)


def traced(cli, workload, seed, seconds, workdir):
    jobs = job_set(workload, seed, workdir)
    outputs = Outputs(jobs, workdir)
    plain, traced_times, layers = [], [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        codes, times = run_pass(cli, jobs)
        plain.append(times)
        outputs.record(codes)
        codes, times, metrics = traced_pass(cli, jobs)
        traced_times.append(times)
        layers.append(metrics)
        outputs.record(codes)
    failed = outputs.failures()
    fastest = min(range(len(layers)), key=lambda i: sum(traced_times[i]))
    metrics = {}
    for name, value in layers[fastest].items():
        unit = PER_LAYER_UNITS[name]
        if unit in EXACT_UNITS and any(m[name] != value for m in layers):
            failed.append(("all", f"count {name} differs between passes"))
        metrics[name] = (value, unit)
    for name, value in src_lines().items():
        metrics[name] = (value, "lines")
    metrics["trace.overhead_frac"] = (
        sum(best_of(traced_times)) / sum(best_of(plain)) - 1.0, "frac")
    summary = (f"workload {workload} seed {seed}: {len(jobs)} jobs x {len(layers)} plain "
               f"+ {len(layers)} traced passes, per-layer values from the fastest traced "
               f"pass, job mix {workloads.mix_digest(jobs, workdir)}")
    return report(metrics, len(jobs), failed, summary)


def self_check(workload, seed):
    """Counts repeat for one seed; another seed changes the job mix."""

    def counts(s):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(s), "--seconds", "1", "--trace", "1"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            raise SystemExit(f"self-check: traced run with seed {s} failed")
        return {k: m["value"] for k, m in result["metrics"].items()
                if m["unit"] in EXACT_UNITS}

    first, second = counts(seed), counts(seed)
    differ = sorted(k for k in first if first[k] != second.get(k))
    same_mix = len({workloads.mix_digest(workloads.job_set(workload, s, ROUNDS[workload],
                                                            "w"), "w")
                    for s in (seed, seed + 1)}) == 1
    print(f"{len(first)} count metrics; differing between equal seeds: {differ or 'none'}")
    print(f"seed {seed + 1} changes the job mix: {not same_mix}")
    return 1 if differ or same_mix else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "kdsim" / "__init__.py").is_file():
        print(f"perfbench: no kdsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check(args.workload, args.seed)

    cli = importlib.import_module("kdsim.cli")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = traced if args.trace else end_to_end
        return run(cli, args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:   # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
