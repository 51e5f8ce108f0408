"""The gsds benchmark: seeded portrait, infer and hybrid job lists run
through the public entry point ``gsds.cli.main(argv)``, in process.

    python3 perfbench/run.py --workload portrait --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --write-digests
    python3 perfbench/run.py --suite

A run writes its inputs under .bench_out/, repeats whole passes over the
job list until the next pass would end after --seconds (at least one
pass), checks every job's output and prints a table of metrics followed
by one JSON line.  With --trace 1 traced passes alternate with untraced
ones and the JSON line carries the per-layer metrics.  See
perfbench/README.md for every metric.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from time import perf_counter

import gen
from checks import CHECKS, phase_mismatches
from tracing import JOB_SPAN, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# Host speed.  The machine is shared, and the work of other tenants slows
# every job of a run alike, by up to half, for minutes at a time; that
# moved wall_s by 0.2-0.3 between runs of the same job list.  So a fixed
# slice of pure-Python work of the kind the package does (polynomial
# evaluation over GF(3), a dict of states, a JSON dump) is timed after
# every REF_EVERY_S of job time, and all job times of a run are scaled
# by REF_NOMINAL_S / (its median reference time): they read as seconds on
# a host that runs the slice in REF_NOMINAL_S, about its median on the
# machine described in README.md.  The slice does not call the package,
# so a change to the package moves the scaled times as much as the
# measured ones.
REF_EVERY_S = 0.25
REF_NOMINAL_S = 0.020
REF_MODEL = gen.RandomModel(random.Random("reference"), 3, 6, 6, sequential=False)
REF_STATES = [gen.state_at(3, 6, i) for i in range(0, 729, 3)]


def reference_time():
    """Seconds taken by the fixed reference slice."""
    start = perf_counter()
    table = {s: REF_MODEL.step(s) for s in REF_STATES}
    json.dumps([list(v) for v in table.values()])
    return perf_counter() - start


# Jobs of the default seed that every portrait and infer run repeats and
# compares with digests.json, whatever its own seed.  Portrait ones run
# at both worker counts, which must give the same bytes.
REFERENCE = {
    "portrait": ("gf2-12-seq-0", "gf4-6-par-0"),
    "infer": ("gf2-8-t16-0-sparsest", "gf2-8-t16-0-canonical"),
}


def import_cli():
    """gsds.cli from this checkout's src/, or exit 1 without a result."""
    sys.path.insert(0, SRC)
    try:
        import gsds.cli
    except ImportError as exc:
        sys.exit(f"cannot import gsds from {SRC}: {exc}")
    if not os.path.abspath(gsds.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"gsds was imported from {gsds.cli.__file__}, not {SRC}")
    return gsds


def machine_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy}


def setup_seconds():
    """Median time of `import gsds.cli` in a fresh interpreter, after one
    import that fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import gsds.cli"]
    samples = []
    for k in range(SETUP_REPEATS + 1):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if k:
            samples.append(perf_counter() - start)
    return statistics.median(samples)


def digest(stdout, files):
    h = hashlib.sha256(stdout.encode())
    for path in files:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Runs jobs through gsds.cli.main and keeps times and failures."""

    def __init__(self, gsds, workload):
        self.main = gsds.cli.main
        self.workload = workload
        self.check = CHECKS[workload]
        self.tracer = None
        self.attempted = 0
        self.failures = []  # (job id, reason)
        self.mismatches = 0
        # job id -> (digest, phase mismatches) of an output that passed
        # its checks; a later pass with the same bytes is not re-checked
        self.verified = {}
        self.digests = None  # a list to collect (digest key, digest) into
        # One pair of buffers for all jobs: click caches a wrapper per
        # output stream that keeps the stream alive, so a fresh StringIO
        # per job would keep every job's output in memory.
        self.out, self.err = io.StringIO(), io.StringIO()
        self.ref, self.since_ref = [reference_time()], 0.0

    def run(self, job, expected=None):
        """One job: returns its time, or None if it failed."""
        out, err = self.out, self.err
        for buf in (out, err):
            buf.seek(0)
            buf.truncate()
        tracer = self.tracer
        code, crash = None, None
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            if tracer:
                tracer.job = job["id"]
                tracer.begin(JOB_SPAN)
            try:
                code = self.main(job["argv"])
            except Exception:
                crash = traceback.format_exc().strip().splitlines()[-1]
            finally:
                if tracer:
                    tracer.end()
                    tracer.job = None
            elapsed = perf_counter() - start
        self.attempted += 1
        self.since_ref += elapsed
        if self.since_ref >= REF_EVERY_S:
            self.ref.append(reference_time())
            self.since_ref = 0.0
        stdout = out.getvalue()
        if crash or code != 0:
            reason = crash or f"exit {code}: {err.getvalue().strip()[-200:]}"
            self.failures.append((job["id"], reason))
            return None
        d = digest(stdout, job["files"])
        reasons = []
        if expected is not None and d != expected:
            reasons.append("output differs from the reference digest")
        seen = self.verified.get(job["id"])
        if seen is None or seen[0] != d:
            reasons += self.check(job, stdout, job["files"])
            if not reasons:
                mismatches = (phase_mismatches(job, stdout)
                              if self.workload == "hybrid" else 0)
                seen = self.verified[job["id"]] = (d, mismatches)
        if reasons:
            self.failures.append((job["id"], "; ".join(reasons[:3])))
            return None
        self.mismatches += seen[1]
        if self.digests is not None:
            self.digests.append((job["digest_key"], d))
        return elapsed

    def one_pass(self, jobs, times, expected):
        for job in jobs:
            t = self.run(job, expected.get(job.get("digest_key")))
            if t is not None:
                times[job["id"]].append(t)


def job_stats(jobs, times, scale):
    """wall_s, job_p50_s, job_tail_s and the tail's percentile, from the
    median time of each job over the passes, times ``scale``."""
    per_job = sorted(statistics.median(t) * scale for t in times.values() if t)
    n = len(per_job)
    if n <= TAIL_BEYOND:
        raise ValueError(f"only {n} of {len(jobs)} jobs ever succeeded")
    return {
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": per_job[n - TAIL_BEYOND - 1],
        "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "jobs": n,
    }


def reference_jobs(workload, workdir):
    os.makedirs(workdir)
    jobs = gen.WORKLOADS[workload](DEFAULT_SEED, workdir)
    chosen = [j for j in jobs if j["digest_key"] in REFERENCE[workload]]
    if workload != "portrait":
        return chosen
    out = []
    for j in chosen:
        path = j["argv"][1]
        for workers in (1, 2):
            out.append(gen.portrait_job(j["digest_key"], path, j["model"], workers))
    return out


def load_digests(workload):
    try:
        with open(DIGESTS) as fh:
            return json.load(fh).get(workload, {})
    except FileNotFoundError:
        return {}


def measure(args, gsds, runner, workdir):
    """Whole passes over the job list until the next one would end after
    --seconds.  With tracing, untraced and traced passes alternate, so
    that drift in the machine's speed affects both alike."""
    workload = args.workload
    jobs = gen.WORKLOADS[workload](args.seed, workdir)
    digests = load_digests(workload)
    expected = digests if args.seed == DEFAULT_SEED else {}
    tracer = Tracer() if args.trace else None
    times = {job["id"]: [] for job in jobs}
    traced_times = {job["id"]: [] for job in jobs}
    passes = traced_mismatches = 0
    start = perf_counter()
    while True:
        runner.one_pass(jobs, times, expected)
        passes += 1
        if tracer:
            before = runner.mismatches
            tracer.instrument(gsds)
            runner.tracer = tracer
            try:
                runner.one_pass(jobs, traced_times, expected)
            finally:
                tracer.restore()
                runner.tracer = None
            traced_mismatches += runner.mismatches - before
        spent = perf_counter() - start
        if spent * (passes + 1) / passes > args.seconds:
            break
    ref_s = statistics.median(runner.ref)
    scale = REF_NOMINAL_S / ref_s
    stats = job_stats(jobs, times, scale)
    result = {"passes": passes, **stats,
              "measured_wall_s": stats["wall_s"] / scale,
              "ref_median_s": ref_s, "ref_samples": len(runner.ref),
              "phase_mismatches": (runner.mismatches - traced_mismatches) / passes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "states_per_s": sum(j["states"] for j in jobs) / stats["wall_s"]}
    if tracer:
        traced_wall = job_stats(jobs, traced_times, scale)["wall_s"]
        layers = tracer.layer_metrics(passes)
        layers["continuous.phase_mismatches"] = traced_mismatches / passes
        layers["trace.overhead_s"] = traced_wall - stats["wall_s"]
        result.update(traced_wall_s=traced_wall, layers=layers)
        gen.write_json(os.path.join(OUT, f"spans-{workload}-seed{args.seed}.json"),
                   {"fields": ["name", "start", "end", "parent", "job"],
                    "spans": tracer.spans})

    if workload in REFERENCE:
        for job in reference_jobs(workload, os.path.join(workdir, "reference")):
            runner.run(job, digests.get(job["digest_key"], "missing"))
    return result


def report(args, runner, result, setup_s, info):
    attempted, failed = runner.attempted, len(runner.failures)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    values = result["layers"] if args.trace else dict(result, setup_s=setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    print(f"gsds benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {result['jobs']} jobs, {result['passes']} passes"
          + (" untraced and as many traced" if args.trace else ""))
    print("machine: " + json.dumps(info))
    print(f"host speed: reference slice median {result['ref_median_s'] * 1e3:.2f} ms "
          f"over {result['ref_samples']} samples; times below are scaled by "
          f"{REF_NOMINAL_S * 1e3:.0f} ms / that (measured wall_s "
          f"{result['measured_wall_s']:.4f} s)")
    print(f"job_tail_s is the p{result['tail_percentile']:.1f} job time "
          f"({TAIL_BEYOND} of {result['jobs']} jobs beyond it)")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'fail_ratio':32s} {failed / attempted:>16.6f} "
          f"({failed} of {attempted} jobs)")
    if not args.trace and args.workload == "hybrid":
        print(f"  {'phase_mismatches':32s} {result['phase_mismatches']:>16.1f} "
              "count per pass")
    for job_id, reason in runner.failures[:20]:
        print(f"  FAILED {job_id}: {reason}")
    if failed > 20:
        print(f"  ... and {failed - 20} more failures")
    gen.write_json(
        os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        {"machine": info, "result": result, "setup_s": setup_s,
         "failures": runner.failures},
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def write_digests(gsds):
    """Run every default-seed portrait and infer job once (portrait at
    both worker counts) and store the digests of their outputs."""
    out = {"seed": DEFAULT_SEED}
    workdir = os.path.join(OUT, f"digests-{os.getpid()}")
    try:
        for workload in ("portrait", "infer"):
            os.makedirs(os.path.join(workdir, workload))
            jobs = gen.WORKLOADS[workload](DEFAULT_SEED,
                                           os.path.join(workdir, workload))
            if workload == "portrait":
                jobs = [gen.portrait_job(j["digest_key"], j["argv"][1],
                                         j["model"], w)
                        for j in jobs for w in (1, 2)]
            runner = Runner(gsds, workload)
            runner.digests = []
            for job in jobs:
                runner.run(job)
            if runner.failures:
                sys.exit(f"failed jobs: {runner.failures}")
            sums = {}
            for key, d in runner.digests:
                if sums.setdefault(key, d) != d:
                    sys.exit(f"{key}: output depends on the worker count")
            out[workload] = sums
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS}")


def suite_times():
    """Wall time of the tier-1 test suite and of its slowest test, which
    ROADMAP item 1 tracks.  Informational; never gated."""
    target = "test_reduced_form_bijection_exhaustive[3-2]"
    env = dict(os.environ, PYTHONPATH=SRC)
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--durations=0"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    wall = perf_counter() - start
    test_s = None
    for line in proc.stdout.splitlines():
        if target in line and line.split()[0].endswith("s"):
            test_s = float(line.split()[0][:-1])
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    data = {"machine": machine_info(), "suite_wall_s": wall,
            "suite_summary": summary, target: test_s}
    gen.write_json(os.path.join(OUT, "suite.json"), data)
    print(json.dumps(data, indent=1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="regenerate perfbench/digests.json and exit")
    parser.add_argument("--suite", action="store_true",
                        help="time the tier-1 test suite and exit")
    args = parser.parse_args()
    gsds = import_cli()
    os.makedirs(OUT, exist_ok=True)
    if args.write_digests:
        return write_digests(gsds)
    if args.suite:
        return suite_times()
    if not args.workload:
        parser.error("--workload is required")
    info = machine_info()
    setup_s = setup_seconds()
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(gsds, args.workload)
    try:
        result = measure(args, gsds, runner, workdir)
    except ValueError as exc:
        for job_id, reason in runner.failures[:20]:
            print(f"FAILED {job_id}: {reason}", file=sys.stderr)
        sys.exit(f"no result: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, runner, result, setup_s, info)


if __name__ == "__main__":
    main()
