#!/usr/bin/env python3
"""Benchmark smoke gate: every simulated output stays byte-identical.

Runs the repository benchmark (`perfbench/run.py`) once per workload at the
default seed with tracing off:

    python3 perfbench/run.py --workload <w> --seed 1 --seconds 1 --trace 0

and fails unless, for each of `qd32_mixed`, `gc_attack` and `fleet`,

* the run exits 0,
* its last output line is a JSON result with `"correct": true`, and
* the `sim_digest <workload> seed 1 <sha256>` line it prints equals the
  seed-1 digest recorded in the "Simulated digests" table of
  `perfbench/LAYERS.md`.

A change that only speeds up the simulator must pass unchanged; a change
that moves a simulated output fails here and must say so by updating the
recorded digests alongside the benchmark. This script only reads
`perfbench/`.

Usage, from anywhere in the checkout:

    python3 tools/check_perfbench.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("qd32_mixed", "gc_attack", "fleet")
SEED = 1


def recorded_digests() -> dict:
    """Seed-1 digests from the LAYERS.md table rows `| `w` | `seed1` | `seed1009` |`."""
    text = (ROOT / "perfbench" / "LAYERS.md").read_text()
    row = re.compile(r"^\|\s*`(\w+)`\s*\|\s*`([0-9a-f]{64})`\s*\|\s*`([0-9a-f]{64})`\s*\|",
                     re.MULTILINE)
    digests = {m.group(1): m.group(2) for m in row.finditer(text)}
    missing = [w for w in WORKLOADS if w not in digests]
    if missing:
        sys.exit(f"FAIL: perfbench/LAYERS.md records no seed-{SEED} digest for {missing}")
    return digests


def check(workload: str, expected: str) -> list:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "0"]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0:
        return [f"{workload}: exited {run.returncode}"]
    if not lines:
        return [f"{workload}: printed nothing"]
    errors = []
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"{workload}: last line is not JSON: {lines[-1][:120]!r}"]
    if result.get("correct") is not True:
        errors.append(f"{workload}: correct = {result.get('correct')!r}")
    prefix = f"sim_digest {workload} seed {SEED} "
    printed = [line[len(prefix):].strip() for line in lines if line.startswith(prefix)]
    if not printed:
        errors.append(f"{workload}: no `{prefix}<sha256>` line")
    elif any(d != expected for d in printed):
        errors.append(f"{workload}: sim_digest {printed[0]} != recorded {expected}")
    return errors


def main() -> int:
    digests = recorded_digests()
    failures = []
    for workload in WORKLOADS:
        errors = check(workload, digests[workload])
        print(f"{'FAIL' if errors else 'ok  '} {workload} seed {SEED}")
        failures.extend(errors)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
