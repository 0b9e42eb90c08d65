"""Runs one workload over several seeds and prints each end-to-end metric's
median and spread (quartile distance over median), next to a third of the
metric's bound from BENCHMARK.json, and the spread of the host-speed
factor each run applied (see README.md, "Host speed").

    python3 perfbench/spread.py <workload> <seed> [<seed> ...]

Run from the repository root.
"""

import json
import re
import statistics
import subprocess
import sys


def main():
    workload, seeds = sys.argv[1], sys.argv[2:]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {}
    factors = []
    for seed in seeds:
        run = subprocess.run(
            bench["command"]
            + ["--workload", workload, "--seed", seed,
               "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True,
        )
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: a correctness check failed")
        factor = re.search(r"(?:passes|phases): host reference .* factor ([0-9.]+)",
                           run.stderr)
        factors.append(float(factor.group(1)))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: factor={factors[-1]:.4f}, " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    q1, med, q3 = statistics.quantiles(factors, n=4)
    print(f"{'host factor':>20}  median {med:.4f}  spread {(q3 - q1) / med:.4f}")
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / statistics.median(v)
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:>20}  median {statistics.median(v):.6g}  "
              f"spread {spread:.4f}  bound/3 {metric['bound'] / 3:.4f}  {flag}")


if __name__ == "__main__":
    main()
