"""Quick self-test of the benchmark harness (about ten seconds).

    python3 perfbench/selftest.py

Runs run.py on the tiny `selftest` workload, whose second job is refused by
the program's size guard, with --trace 0 and --trace 1.  Checks that the last
line of output has exactly the keys the result format asks for, that every
metric BENCHMARK.json names for that mode is printed with its unit, and that
the refused job is counted as failed while the jobs after it still run.
Exits 0 when all checks pass.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOBS_PER_ROUND = 3  # capacity, refused, noiseless-a1.5


def check_run(trace: int, specs: list) -> list:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "selftest",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"trace {trace}: run.py exited {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    want = {m["name"]: m["unit"] for m in specs}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metrics printed {sorted(got)}, BENCHMARK.json names {sorted(want)}")
    for name, unit in want.items():
        m = got.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')!r} is not a finite number")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    rounds = result.get("attempted", 0) // JOBS_PER_ROUND
    if rounds < 1 or result["attempted"] != rounds * JOBS_PER_ROUND or result["failed"] != rounds:
        problems.append(f"attempted {result.get('attempted')}, failed {result.get('failed')}: "
                        "expected one refused job in every round of three")
    record = json.loads((HERE / "results" / f"selftest-seed1-trace{trace}.json").read_text())
    last = record["rounds"][0]["jobs"][-1]
    if last["error"] is not None:
        problems.append(f"the job after the refused one failed: {last['error']}")
    return [f"trace {trace}: {p}" for p in problems]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_run(0, bench["end_to_end"]) + check_run(1, bench["per_layer"])
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
