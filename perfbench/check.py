#!/usr/bin/env python3
"""The benchmark's own check, run from the repository root:

    python3 perfbench/check.py

For every workload it
  * runs the traced batch twice at the default seed and requires every
    count to repeat exactly (the traced-against-untraced bit-for-bit
    comparison happens inside each run; the `fleet` traced run includes
    its chaos pass);
  * runs once at an extra seed no tuning used, so a later claim can be
    re-tested on it;
  * builds with `--features simd` and requires the result digest to equal
    the default build's.
It exits nonzero if any of these fails. Default features are what the
benchmark times; the simd build is checked, never timed.
"""

import json
import re
import subprocess
import sys

WORKLOADS = {"fleet": 211, "paper-sweep": 110}
EXTRA_SEED_OFFSET = 1000
COUNT_UNITS = {"count", "B"}


def run(workload, seed, trace, features=()):
    cmd = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml"]
    if features:
        cmd += ["--features", ",".join(features)]
    cmd += ["--", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {out.returncode}")
    result = json.loads(lines[-1])
    digest = next(m.group(1) for line in lines
                  if (m := re.match(rf"{workload} result digest ([0-9a-f]{{16}})", line)))
    return result, digest


def main():
    problems = []
    for workload, seed in WORKLOADS.items():
        first, digest = run(workload, seed, 1)
        second, _ = run(workload, seed, 1)
        counts = {name: m["value"] for name, m in first["metrics"].items()
                  if m["unit"] in COUNT_UNITS}
        repeat = {name: second["metrics"][name]["value"] for name in counts}
        if counts != repeat:
            problems.append(f"{workload}: counts differ between runs: {counts} vs {repeat}")
        for label, result in (("traced", first), ("traced again", second)):
            if not result["correct"]:
                problems.append(f"{workload} {label}: not correct ({result['failed']} failed)")

        extra = seed + EXTRA_SEED_OFFSET
        result, _ = run(workload, extra, 0)
        if not result["correct"]:
            problems.append(f"{workload} seed {extra}: not correct ({result['failed']} failed)")

        result, simd_digest = run(workload, seed, 0, features=("simd",))
        if not result["correct"] or simd_digest != digest:
            problems.append(f"{workload} simd: digest {simd_digest} vs default {digest}, "
                            f"correct={result['correct']}")
        print(f"{workload}: seed {seed} digest {digest}; {len(counts)} counts repeat; "
              f"seed {extra} checked; simd digest {simd_digest}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
