"""Steadiness self-check: repeated runs of the benchmark, judged against
the bounds in ``BENCHMARK.json``.

Make a set of runs (one per seed and workload) and save it::

    python3 perfbench/steady.py run --seeds 0-9 --seconds 20 --out a.json

Judge one set, or a second set of the same code against the first::

    python3 perfbench/steady.py check a.json [b.json]

A set passes when, for every workload and end-to-end metric except
``setup_s``, the distance between the first and third quartile of its
values (``statistics.quantiles(values, n=4)``) is at most the metric's
bound as a share of the median.  Two sets pass when, in addition, no
metric's second median is worse than the first by more than its bound.
Sets are compared only when their host fingerprints agree and every run
was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from host import HOST_FIELDS  # noqa: E402


def load_spec(path: Path = ROOT / "BENCHMARK.json") -> dict:
    return json.loads(path.read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0
             ) -> dict:
    """One benchmark run; its result line plus the host it ran on."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stderr}"
        )
    lines = done.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("host "):
            out["host"] = json.loads(line[len("host "):])
        elif line.startswith("digest "):
            out["digest"] = line.split()[1:]
    out["seed"] = seed
    return out


def host_of(run: dict) -> dict:
    return {k: run["host"][k] for k in HOST_FIELDS}


def make_set(workloads: list[str], seeds: list[int], seconds: int) -> dict:
    runs: dict[str, list[dict]] = {}
    for name in workloads:
        for seed in seeds:
            run = run_once(name, seed, seconds)
            runs.setdefault(name, []).append(run)
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in run["metrics"].items()
            ), flush=True)
    hosts = {json.dumps(host_of(r), sort_keys=True)
             for rs in runs.values() for r in rs}
    if len(hosts) != 1:
        raise RuntimeError(f"runs of one set came from several hosts: "
                           f"{sorted(hosts)}")
    return {"host": json.loads(hosts.pop()), "seconds": seconds,
            "runs": runs}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def check(sets: list[dict], spec: dict) -> list[str]:
    """Judge one or two sets; returns the failures (empty: steady)."""
    failures = []
    if len(sets) == 2 and sets[0]["host"] != sets[1]["host"]:
        return [f"host fingerprints differ: {sets[0]['host']} vs "
                f"{sets[1]['host']}; the sets are not comparable"]
    metrics = spec["end_to_end"]
    for name in sorted(sets[0]["runs"]):
        for idx, s in enumerate(sets):
            runs = s["runs"].get(name, [])
            bad = [r["seed"] for r in runs if not r["correct"]]
            if bad:
                failures.append(f"{name} set {idx + 1}: incorrect runs "
                                f"(seeds {bad})")
        print(f"{name}:")
        for m in metrics:
            meds = []
            for idx, s in enumerate(sets):
                values = [r["metrics"][m["name"]]["value"]
                          for r in s["runs"][name]]
                med, sp = spread(values)
                meds.append(med)
                ok = m["name"] == "setup_s" or sp <= m["bound"]
                print(f"  {m['name']:<12} set {idx + 1}: median "
                      f"{med:<12.6g} spread {sp:6.3f} (bound "
                      f"{m['bound']}, target < {m['bound'] / 3:.3f})"
                      f"{'' if ok else '  FAIL'}")
                if not ok:
                    failures.append(
                        f"{name} {m['name']} set {idx + 1}: spread "
                        f"{sp:.3f} > bound {m['bound']}"
                    )
            if len(meds) == 2:
                w = worse_by(meds[0], meds[1], m["better"])
                ok = w <= m["bound"]
                print(f"  {m['name']:<12} set 2 vs 1: worse by {w:+.3f}"
                      f"{'' if ok else '  FAIL'}")
                if not ok:
                    failures.append(f"{name} {m['name']}: second median "
                                    f"worse by {w:.3f} > {m['bound']}")
    return failures


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="make a set of runs")
    r.add_argument("--workload", action="append",
                   help="workload (repeatable; default: all)")
    r.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,5,7")
    r.add_argument("--seconds", type=int,
                   help="default: run_seconds of BENCHMARK.json")
    r.add_argument("--out", required=True, type=Path)
    c = sub.add_parser("check", help="judge one set, or two sets")
    c.add_argument("sets", nargs="+", type=Path)
    args = p.parse_args(argv)

    spec = load_spec()
    if args.cmd == "run":
        names = args.workload or [w["name"] for w in spec["workloads"]]
        seconds = args.seconds or spec["run_seconds"]
        s = make_set(names, parse_seeds(args.seeds), seconds)
        args.out.write_text(json.dumps(s, indent=1, sort_keys=True))
        return 0
    if len(args.sets) > 2:
        p.error("check takes one or two sets")
    sets = [json.loads(path.read_text()) for path in args.sets]
    failures = check(sets, spec)
    for f in failures:
        print("FAIL: " + f)
    print("steady" if not failures else "NOT steady")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
