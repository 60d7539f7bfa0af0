"""Fast self-test of the benchmark harness (about half a minute on 2 cores).

    python3 perfbench/selftest.py

Runs every workload at the tiny scale, untraced and traced, and checks that
every output passes its reference gate and that the result line reports
exactly the metrics BENCHMARK.json lists, with the same units, while each
metric left out of the result line is still printed and has a reason. It
also checks that the benchmark fails, without a result line, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def _declared(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def check_declarations(spec: dict) -> list[str]:
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    if _declared(spec, "end_to_end") != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    layers = {name: (unit, better) for name, (unit, better, _) in spans.LAYER_METRICS.items()}
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != layers:
        problems.append("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")
    return problems


def check_run(name: str, trace: int, expected: dict[str, str]) -> list[str]:
    got = _run(ROOT, "--workload", name, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny")
    where = f"{name} --trace {trace}"
    if got.returncode != 0:
        return [f"{where}: exit {got.returncode}: {got.stderr[-500:]}"]
    lines = got.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: outputs failed their gates: "
                        f"{[ln for ln in lines if ln.startswith('FAILED')]}")
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    if units != expected:
        problems.append(f"{where}: reported {sorted(units.items())} "
                        f"!= declared {sorted(expected.items())}")
    if not trace:
        for dropped, reason in run.DROPPED.items():
            if not reason or not any(ln.startswith(f"{dropped} = ") for ln in lines):
                problems.append(f"{where}: dropped metric {dropped} not printed with a reason")
    return problems


def check_fails_without_sources() -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        got = _run(bare, "--workload", workloads.NAMES[0], "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    if got.returncode == 0 or got.stdout.strip().startswith("{"):
        return ["benchmark did not fail in a directory without the sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_declarations(spec)
    for name in workloads.NAMES:
        problems += check_run(name, 0, _declared(spec, "end_to_end"))
        problems += check_run(name, 1, _declared(spec, "per_layer"))
    problems += check_fails_without_sources()
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
