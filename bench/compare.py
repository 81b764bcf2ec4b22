"""Compare two benchmark results metric by metric.

    python3 bench/compare.py A.json[,A2.json...] B.json[,B2.json...]

``A`` is the parent (baseline) and ``B`` the change. Each side is one
or more files written by ``bench/run.py --out FILE``; the files of one
side are merged, so that pairs can be run alternately (parent first for
one seed, change first for the next). Both sides must have the same run
length, and for each workload the same seeds; runs are paired by seed.
For every workload and every end-to-end metric of ``BENCHMARK.json``
this prints each side's median and quartiles, the fraction of pairs the
change won (ties count for neither), and a verdict:

* ``improved``: over at least 10 pairs, the change won at least 90% of
  them and its median beats the parent's by more than the parent's
  quartile spread; and a gain counts at all only when each side ran
  first in half of the pairs (give or take one), the change failed no
  more operations than the parent, and all its output checks passed;
* ``unresolved``: a side's quartile spread (as a share of its median)
  is wider than the metric's bound, and not every run of the change
  beats every run of the parent;
* ``regressed``: the change's median is worse than the parent's by
  more than the bound;
* ``unchanged``: none of the above.

Exits 1 when any seed's output digests differ between the two sides,
and 2 when the two sides cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fewest run pairs that can support an ``improved`` verdict.
MIN_PAIRS = 10


class Incomparable(Exception):
    """The two sides were not measured alike."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    pairs: list[tuple[float, float]], better: str, bound: float, gain_counts: bool
) -> tuple[str, float]:
    """The verdict on ``(parent, change)`` value pairs and the fraction
    of pairs the change won."""
    parent = [a for a, _ in pairs]
    change = [b for _, b in pairs]
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (b - a) > 0 for a, b in pairs) / len(pairs)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    if gain_counts and len(pairs) >= MIN_PAIRS and won >= 0.9 and sign * (cmed - pmed) > pq3 - pq1:
        return "improved", won
    spread = max((pq3 - pq1) / abs(pmed), (cq3 - cq1) / abs(cmed))
    change_always_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if spread > bound and not change_always_better:
        return "unresolved", won
    if -sign * (cmed - pmed) / abs(pmed) > bound:
        return "regressed", won
    return "unchanged", won


def load_side(arg: str) -> tuple[list[dict], float]:
    """The untraced, completed runs of one side's files, and their
    common run length."""
    runs, lengths = [], set()
    for path in arg.split(","):
        report = json.loads(Path(path).read_text())
        lengths.add(report["seconds"])
        runs += [run for run in report["runs"] if "skipped" not in run and not run.get("trace")]
    if len(lengths) != 1:
        raise Incomparable(f"{arg}: files with different run lengths {sorted(lengths)}")
    return runs, lengths.pop()


def by_seed(runs: list[dict], workload: str) -> dict[int, dict]:
    own: dict[int, dict] = {}
    for run in runs:
        if run["workload"] != workload:
            continue
        if run["seed"] in own:
            raise Incomparable(f"{workload}: seed {run['seed']} was run twice on one side")
        own[run["seed"]] = run
    return own


def alternated(paired: list[tuple[dict, dict]]) -> bool:
    """Each side ran first in half of the pairs, give or take one."""
    if any("started" not in run for pair in paired for run in pair):
        return False
    parent_first = sum(parent["started"] < change["started"] for parent, change in paired)
    return abs(2 * parent_first - len(paired)) <= 1


def compare(parent_runs: list[dict], change_runs: list[dict], metrics: list[dict]) -> bool:
    """Print the comparison table; True when no seed's digests differ."""
    digests_match = True
    workloads = list(dict.fromkeys(run["workload"] for run in parent_runs))
    print(f"{'workload':12s} {'metric':12s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'won':>5s}  verdict")
    for workload in workloads:
        parent, change = by_seed(parent_runs, workload), by_seed(change_runs, workload)
        if not change:
            print(f"{workload:12s} (no runs on the change side)")
            continue
        if set(parent) != set(change):
            raise Incomparable(f"{workload}: seeds differ: {sorted(parent)} vs {sorted(change)}")
        paired = [(parent[seed], change[seed]) for seed in sorted(parent)]
        for seed, (a, b) in zip(sorted(parent), paired):
            if a["outputs_digest"] != b["outputs_digest"]:
                digests_match = False
                print(f"{workload}: seed {seed} output digests differ: {a['outputs_digest']} vs {b['outputs_digest']}")
        notes = []
        if not alternated(paired):
            notes.append("pairs not run alternately")
        if sum(b["failed"] for _, b in paired) > sum(a["failed"] for a, _ in paired):
            notes.append("change failed more operations")
        if not all(b["checks"]["ok"] for _, b in paired):
            notes.append("change failed an output check")
        for metric in metrics:
            name = metric["name"]
            pairs = [(a["metrics"][name], b["metrics"][name]) for a, b in paired]
            result, won = verdict(pairs, metric["better"], metric["bound"], gain_counts=not notes)
            pq1, pmed, pq3 = quartiles([a for a, _ in pairs])
            cq1, cmed, cq3 = quartiles([b for _, b in pairs])
            print(
                f"{workload:12s} {name:12s} {pmed:12.5g} [{pq1:9.4g}, {pq3:9.4g}] "
                f"{cmed:12.5g} [{cq1:9.4g}, {cq3:9.4g}] {won:5.0%}  {result}"
            )
        if notes:
            print(f"{workload:12s} no gain counts: {'; '.join(notes)}")
    return digests_match


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        (parent_runs, parent_s), (change_runs, change_s) = (load_side(arg) for arg in argv)
        if parent_s != change_s:
            raise Incomparable(f"run lengths differ: {parent_s:g} s vs {change_s:g} s")
        digests_match = compare(parent_runs, change_runs, metrics)
    except Incomparable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not digests_match:
        print("output digests differ between the two sides", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
