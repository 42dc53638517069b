#!/usr/bin/env python3
"""Record perfbench runs in a root-level BENCH_<workload>.json.

Each call runs the benchmark once, unchanged, from a checkout:

    python3 tools/bench_record.py --checkout ../parent --side parent \\
        --workload wire-interactive --seed 1 [--trace 0]

which executes `python3 perfbench/run.py --workload W --seed S --seconds N
--trace T` in that checkout, N being BENCHMARK.json's `run_seconds` (the
length the benchmark is judged at), and appends one record to
BENCH_<W>.json (next to this repository's BENCHMARK.json, or --out): the
side (parent or change), the checkout's HEAD commit id, the fingerprint and
the run's final JSON line, and the share of the host's CPU time the
hypervisor stole while run.py ran (`host_steal_pct`, from /proc/stat;
null where there is none), which tells a slow run on a busy host from a
slow program. The fingerprint's `source_dir` is dropped: it
names a local directory, and the commit id names the tree (so record from
a checkout without local edits). After every append the file's `summary`
is rewritten: for each side, untraced and traced runs apart, the
per-metric run count, median and quartiles, and for the untraced runs the
number of parent/change pairs the change won on each metric (runs paired
in recording order; `better` from BENCHMARK.json).

To compare two commits, alternate the sides run by run (parent, change,
change, parent, ...), so host drift lands on both.

The exit status is the benchmark's (nonzero when a job failed its oracle;
the run is recorded anyway, with its `failed` count).
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_run_output(stdout):
    """Returns (fingerprint, result) from run.py's stdout: the line
    `fingerprint {...}` and the final JSON line."""
    fingerprint = None
    lines = [line for line in stdout.splitlines() if line.strip()]
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    if fingerprint is None or not lines:
        raise ValueError("run.py printed no fingerprint line")
    result = json.loads(lines[-1])
    if "metrics" not in result:
        raise ValueError("run.py's last line is not its JSON result")
    fingerprint.pop("source_dir", None)
    return fingerprint, result


def cpu_times():
    """The first eight counters of /proc/stat's `cpu` line (user, nice,
    system, idle, iowait, irq, softirq, steal), or None without them."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return [int(field) for field in fields[1:9]]


def steal_pct(before, after):
    """Stolen share of all CPU time between two cpu_times() readings, in
    percent; None when a reading is missing or no time passed."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return 100.0 * delta[7] / total if total > 0 else None


def quantile(sorted_values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] -
                                 sorted_values[low]) * (position - low)


def spread(values):
    ordered = sorted(values)
    return {"n": len(ordered), "median": quantile(ordered, 0.5),
            "q1": quantile(ordered, 0.25), "q3": quantile(ordered, 0.75)}


def metric_values(runs):
    values = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def summarize(runs, better):
    """Per side and trace mode: each metric's spread; for untraced runs
    also the pairs the change won, per metric (ties count for neither)."""
    summary = {}
    for side in SIDES:
        for traced in (False, True):
            chosen = [r for r in runs
                      if r["side"] == side and bool(r["trace"]) == traced]
            if chosen:
                key = side + ("-traced" if traced else "")
                summary[key] = {name: spread(values) for name, values
                                in metric_values(chosen).items()}
    parent = [r for r in runs if r["side"] == "parent" and not r["trace"]]
    change = [r for r in runs if r["side"] == "change" and not r["trace"]]
    pairs = list(zip(parent, change))
    if pairs:
        wins = {}
        for name in metric_values(parent):
            if name not in better:
                continue
            sign = 1 if better[name] == "higher" else -1
            won = 0
            for p, c in pairs:
                a = p["result"]["metrics"].get(name)
                b = c["result"]["metrics"].get(name)
                if a and b and sign * (b["value"] - a["value"]) > 0:
                    won += 1
            wins[name] = won
        summary["pairs"] = {"count": len(pairs), "change_won": wins}
    return summary


def load_spec(benchmark_json):
    """Returns (run_seconds, better) from BENCHMARK.json: the run length
    and each metric's better direction."""
    spec = json.loads(Path(benchmark_json).read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    return spec["run_seconds"], better


def append_record(path, record, better):
    path = Path(path)
    document = (json.loads(path.read_text()) if path.exists() else
                {"schema": "abenc.bench_record.v1",
                 "workload": record["workload"], "runs": []})
    if document["workload"] != record["workload"]:
        raise ValueError(f"{path} records {document['workload']}, "
                         f"not {record['workload']}")
    document["runs"].append(record)
    document["summary"] = summarize(document["runs"], better)
    path.write_text(json.dumps(document, indent=1) + "\n")
    return document


def commit_of(checkout):
    return subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", default=".",
                        help="checkout whose perfbench/run.py runs")
    parser.add_argument("--side", choices=SIDES, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="default: BENCH_<workload>.json at "
                                      "this repository's root")
    args = parser.parse_args()

    seconds, better = load_spec(ROOT / "BENCHMARK.json")
    checkout = Path(args.checkout).resolve()
    commit = commit_of(checkout)
    before = cpu_times()
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds),
         "--trace", str(args.trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    steal = steal_pct(before, cpu_times())
    sys.stdout.write(run.stdout)
    fingerprint, result = parse_run_output(run.stdout)
    record = {"side": args.side, "commit": commit,
              "workload": args.workload, "seed": args.seed,
              "seconds": seconds, "trace": args.trace,
              "fingerprint": fingerprint, "host_steal_pct": steal,
              "result": result}
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    append_record(out, record, better)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
