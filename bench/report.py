"""Print the layer table of traced benchmark runs.

    python3 bench/report.py bench/results/rscp-seed7-trace1.json [...]

For each phase of each traced result file: its wall time, the self time
of every layer span below it (largest first, with its share of the phase),
and the remainder no layer span covers. Then the tracing overhead: the
traced minus the untraced end-to-end metrics of the same workload and
seed, when the untraced run's result file was there.
"""

import sys

import common


def render(result):
    lines = [f"## {result['workload']} (seed {result['seed']}, {result['passes']} passes)"]
    for phase, entry in sorted(result["phases"].items()):
        wall = entry["wall_s"]
        lines.append(f"\n{phase}: {wall:.3f} s")
        rows = sorted(entry["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            lines.append(
                f"  {name:40s} {row['calls']:8d} calls  self {row['self_s']:8.3f} s"
                f"  {100 * row['self_s'] / wall:5.1f}%"
            )
        lines.append(
            f"  {'(not covered by a layer span)':40s} {'':14s}  self "
            f"{entry['uncovered_s']:8.3f} s  {100 * entry['uncovered_s'] / wall:5.1f}%"
        )
    overhead = result.get("tracing_overhead")
    if overhead:
        lines.append("\ntracing overhead (traced - untraced):")
        for name, row in overhead.items():
            base = row["untraced"]
            rel = f"{100 * row['diff'] / base:+6.1f}%" if base else ""
            lines.append(
                f"  {name:28s} {row['untraced']:12.6g} -> {row['traced']:12.6g}  {rel}"
            )
    return "\n".join(lines)


def main(paths):
    for path in paths:
        print(render(common.read_json(path)))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
