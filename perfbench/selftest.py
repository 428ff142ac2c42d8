"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:

* an end-to-end run and a traced run pass the oracle gate and print every
  metric BENCHMARK.json names, with its unit;
* the same seed reproduces the exact shape counts;
* a planted wrong answer (one id dropped from one answer) raises the
  failure count and makes the command exit non-zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 180


def run(workload: str, trace: int, *extra: str):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    info = next((json.loads(ln[len("# info "):]) for ln in lines if ln.startswith("# info ")), None)
    return proc, result, info


def check_metrics(result: dict, declared: list, where: str) -> list[str]:
    problems = []
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"{where}: metric {metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{where}: metric {metric['name']} has unit {got['unit']}, "
                            f"BENCHMARK.json says {metric['unit']}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in bench["workloads"]):
        shapes = []
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc, result, info = run(workload, trace)
            where = f"{workload} trace {trace}"
            if proc.returncode != 0 or result is None or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {proc.returncode}, result {result}\n{proc.stderr}")
                continue
            problems += check_metrics(result, declared, where)
            shapes.append(info["shape"])
        if len(shapes) == 2 and shapes[0] != shapes[1]:
            problems.append(f"{workload}: shape counts differ between runs of one seed: {shapes}")
        print(f"{workload}: {'ok' if not problems else 'problems so far'}")

    proc, result, _ = run(bench["workloads"][0]["name"], 0, "--plant-error")
    if proc.returncode == 0 or result is None or result["correct"] or not result["failed"]:
        problems.append(f"planted error not caught: exit {proc.returncode}, result {result}")
    else:
        print(f"planted error: caught ({result['failed']} failed of {result['attempted']}, "
              f"exit {proc.returncode})")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
