"""plrvo benchmark: one closed-loop client runs a workload's fixed job list,
one job at a time, through ``plrvo.cli.main`` (the path a user runs), and
gates every output against a reference.

    python3 perfbench/run.py --workload account-paper-1e6 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. BLAS is pinned to one thread and jobs run with ``--threads 2``.

Each pass over the job list (a batch) runs in a process forked after the
imports, so every batch starts from the state a fresh invocation has.

``--trace 0`` repeats the job list until the next batch would end after
``--seconds`` (at least one batch) and reports the end-to-end metrics as
medians over batches: batch wall time, job wall time, CPU seconds and peak
RSS of the batch's process, plus set-up time (median over fresh
interpreters, six before each batch, that import ``plrvo`` and parse and
validate the job inputs).

``--trace 1`` runs the job list three times: untraced with one thread,
untraced with two, and traced with two. The traced batch gives the per-layer
metrics (see ``spans.py``); the untraced ones give ``thread_speedup`` and
``trace.overhead_ratio``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric with its
unit, the failed jobs and the environment.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, so the process never runs more threads than
# --threads asks for (numpy's OpenBLAS would otherwise start one per core).
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

THREADS = 2
SETUP_PROBES_PER_BATCH = 6

END_TO_END = {
    "batch_s": "s",
    "job_s_p50": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed with the others but left out of the result line, whose metrics
# must never be 0; the result line's "failed"/"attempted" carry it.
DROPPED = {"failed_ratio": "0 at a correct commit; carried by the result "
                           "line's 'failed' and 'attempted'"}

# Times the package import and the parsing and validation of each job's
# inputs in a fresh interpreter, as a user's invocation pays them.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import plrvo.cli as cli
parser = cli.build_parser()
for argv in json.loads(sys.argv[1]):
    args = parser.parse_args(argv)
    if getattr(args, "job_file", None):
        cli.load_job_file(args.job_file)
print(time.perf_counter() - t0)
"""


def import_plrvo() -> dict:
    """Import the package from this checkout's ``src``; fail if it is absent
    rather than pick up another copy."""
    if not (SRC / "plrvo" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no plrvo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import plrvo.cli
    from plrvo import accountant, dpsgd, majorization, optimizer, sampler

    if Path(plrvo.__file__).resolve().parent != SRC / "plrvo":
        raise SystemExit(f"benchmark: imported plrvo from {plrvo.__file__}, not {SRC}")
    return {"cli": plrvo.cli, "accountant": accountant, "dpsgd": dpsgd,
            "majorization": majorization, "optimizer": optimizer, "sampler": sampler}


def setup_probe(jobs, workdir: Path) -> float:
    """Seconds one fresh interpreter takes to import ``plrvo`` and to parse
    and validate the inputs of every job."""
    argvs = json.dumps([job.cli_argv(THREADS) for job in jobs])
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, argvs], cwd=workdir,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Batch:
    """Outcome of one pass over the job list, as the batch's child process
    reports it."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    job_s: list[float]
    failures: list[str]
    spans: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_jobs(modules: dict, jobs, threads: int, traced: bool) -> dict:
    """Run every job through ``cli.main`` and gate its stdout. When traced,
    each job is one ``cli.job`` span, the parent of the library's spans."""
    cli = modules["cli"]
    tracer = spans.Tracer() if traced else None
    rebinding = spans.installed(tracer, modules) if traced else contextlib.nullcontext()
    job_s, failures = [], []
    with rebinding:
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        for job in jobs:
            out, err = io.StringIO(), io.StringIO()
            j0 = time.perf_counter()
            span = tracer.begin(spans.JOB_SPAN) if traced else None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(job.cli_argv(threads))
            except Exception as exc:  # a job that raises is a failed job
                code, reason = None, f"raised {exc!r}"
            finally:
                if traced:
                    tracer.end(span)
            job_s.append(time.perf_counter() - j0)
            if code == 0:
                try:
                    reason = job.check(out.getvalue())
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    reason = f"unreadable output: {exc!r}"
            elif code is not None:
                reason = f"exit {code}: {err.getvalue().strip()[-300:]}"
            if reason:
                failures.append(f"{job.label}: {reason}")
        wall_s, cpu_s = time.perf_counter() - t0, _cpu_seconds() - cpu0
    result = {"wall_s": wall_s, "cpu_s": cpu_s, "job_s": job_s, "failures": failures}
    if traced:
        result.update(spans=tracer.spans, counts=dict(tracer.counts),
                      missing=rebinding.missing)
    return result


def run_batch(modules: dict, jobs, threads: int, traced: bool = False) -> Batch:
    """Run the job list in a forked child. The child holds the imported
    package and nothing an earlier batch left behind (warm heap, raised
    mmap threshold), so each batch pays what a fresh ``plrvo`` invocation
    pays after its imports; its rusage gives the batch's own CPU time and
    peak RSS. The parent runs no threads, which keeps the fork safe."""
    if threading.active_count() != 1:
        raise RuntimeError("the benchmark must fork from a single-threaded process")
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(_run_jobs(modules, jobs, threads, traced), pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        payload = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"batch process ended with status {status}")
    result = json.loads(payload)
    return Batch(peak_rss_mb=usage.ru_maxrss / 1024.0, **result)


def measure(modules: dict, jobs, seconds: float, workdir: Path) -> tuple[dict, list[Batch]]:
    """Alternate set-up probes and batches until the next round would end
    after ``seconds``. Spreading the probes over the run keeps one slow
    spell of the machine from setting the set-up time."""
    batches: list[Batch] = []
    setups: list[float] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setups += [setup_probe(jobs, workdir) for _ in range(SETUP_PROBES_PER_BATCH)]
        batches.append(run_batch(modules, jobs, THREADS))
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    metrics = {
        "batch_s": statistics.median(b.wall_s for b in batches),
        "job_s_p50": statistics.median(t for b in batches for t in b.job_s),
        "cpu_s": statistics.median(b.cpu_s for b in batches),
        "peak_rss_mb": statistics.median(b.peak_rss_mb for b in batches),
        "setup_s": statistics.median(setups),
    }
    return metrics, batches


def measure_layers(modules: dict, jobs) -> tuple[dict, list[Batch]]:
    single = run_batch(modules, jobs, 1)
    untraced = run_batch(modules, jobs, THREADS)
    traced = run_batch(modules, jobs, THREADS, traced=True)
    if traced.missing:
        print(f"not traced (absent): {', '.join(traced.missing)}")
    values = spans.layer_values(traced.spans, traced.counts,
                                thread_speedup=single.wall_s / untraced.wall_s,
                                overhead_ratio=traced.wall_s / untraced.wall_s)
    return values, [single, untraced, traced]


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "plrvo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "threads": THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True, help="workload seed")
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time of a --trace 0 run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=workloads.SCALES, default="full",
                   help="'tiny' runs every workload in seconds (harness self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_plrvo()
    references = workloads.load_references(HERE / "references.json")
    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot))
    try:
        jobs = workloads.build(args.workload, args.seed, args.scale, workdir, references)
        if args.trace:
            metrics, batches = measure_layers(modules, jobs)
            units = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
            notes = {name: f"moves {m}" for name, (_, _, m) in spans.LAYER_METRICS.items()}
        else:
            metrics, batches = measure(modules, jobs, args.seconds, workdir)
            units = END_TO_END
            notes = {"job_s_p50": f"over {sum(len(b.job_s) for b in batches)} jobs",
                     "batch_s": f"median of {len(batches)} batches of {len(jobs)} jobs: "
                                + " ".join(f"{b.wall_s:.4f}" for b in batches)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.rmdir()

    attempted = sum(len(b.job_s) for b in batches)
    failures = [f for b in batches for f in b.failures]
    if not args.trace:
        metrics_shown = dict(metrics, failed_ratio=len(failures) / attempted)
        units = dict(units, failed_ratio="ratio")
        notes["failed_ratio"] = f"{len(failures)} of {attempted} jobs; not in the result " \
                                f"line: {DROPPED['failed_ratio']}"
    else:
        metrics_shown = metrics
    for name, value in metrics_shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    for failure in failures:
        print(f"FAILED {failure}")
    print("env " + json.dumps(environment(args), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
