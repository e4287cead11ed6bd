#!/usr/bin/env python3
"""A/B campaign: compare two commits on the same benchmark, in alternated
pairs, and write the whole record to results/AB_<name>.json.

Each side is exported from git (`git archive`, so the repository's own
worktree list and index are never touched) into a work directory, built
once into its own target directory, and then run N times. Pair i runs the
base first when i is even and the change first when i is odd. The exports
are removed at the end; the target directories stay only when --workdir
names a directory to keep them in (a later campaign on the same commits
then rebuilds nothing, because `git archive` stamps every file with its
commit's time).

Two kinds of run:

  perfbench  --workload W (repeatable): `bash perfbench/run.sh --workload W
             --seed S --seconds T --trace X` in the side's export. Metrics
             are read from the JSON on its last stdout line; the count of
             drafts sent is read from its stderr ("sent N of M drafts").
  command    --cmd TEMPLATE: any command, run by the shell in the export.
             `{seed}` becomes the pair's seed, `{target}` the side's target
             directory and `{out}` a fresh file path; the result is the
             JSON object in that file when the template names `{out}`, else
             on the last stdout line. --build runs once per side first.
             --metric PATH[:lower|higher] picks a number by dotted path
             (default direction: lower).

Every run's metrics, `correct`/`pass`/`attempted`/`failed` (when the result has
them) and exit status are kept. Per metric and workload the summary gives
each side's median, quartiles and IQR/median, the change of the medians,
that change over the base's IQR, and the pairs the change won (ties count
for neither side). Each side's
`nm -S` sizes of a fixed list of hot symbols are recorded too, so a
code-layout change shows in the artifact.

Examples (from the repository root):

  scripts/ab.py e444729 HEAD --name batch --workload batch_hot \\
      --workload suggest_explain --seeds 1,2,3,4,5,6,7,8,9,10,11 --seconds 40
  scripts/ab.py HEAD~1 HEAD --name hot --seeds 1,2,3,4,5,6,7,8,9,10 \\
      --build 'cargo build --release -q -p microbrowse-bench --bin bench_score_hot' \\
      --cmd '{target}/release/bench_score_hot --adgroups 120 --reps 10 --seed {seed} --out {out}' \\
      --metric speedup_pairs_per_s:higher --metric engine_first_sighting.pairs_per_s:higher
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HOT_SYMBOLS = [
    "TokenizedSnippet::fill",
    "Scorer::score_engine",
    "json::write_f64",
    "BatchResponse::to_json",
]

PERFBENCH_BUILD = [
    "cargo build --release --locked -q -p microbrowse-cli --bin microbrowse",
    "cargo build --release -q --manifest-path perfbench/Cargo.toml",
]


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def directions():
    """Metric name -> "lower"/"higher", from the benchmark's declaration."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
    except OSError:
        return {}
    metrics = bench.get("end_to_end", []) + bench.get("per_layer", [])
    return {m["name"]: m.get("better", "lower") for m in metrics}


class Side:
    def __init__(self, label, ref, workdir):
        self.label = label
        self.ref = ref
        self.commit = git("rev-parse", "--verify", ref + "^{commit}")
        self.src = os.path.join(workdir, self.commit[:12])
        self.target = self.src + "-target"

    def export(self):
        shutil.rmtree(self.src, ignore_errors=True)
        os.makedirs(self.src)
        archive = subprocess.Popen(
            ["git", "archive", self.commit], cwd=ROOT, stdout=subprocess.PIPE
        )
        subprocess.run(["tar", "-x", "-C", self.src], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"git archive {self.commit} failed")

    def env(self):
        return dict(os.environ, CARGO_TARGET_DIR=self.target)

    def shell(self, command, capture=True):
        command = command.replace("{target}", self.target)
        return subprocess.run(
            command, shell=True, cwd=self.src, env=self.env(),
            capture_output=capture, text=True,
        )

    def build(self, commands):
        for command in commands:
            t = time.time()
            proc = self.shell(command, capture=False)
            if proc.returncode != 0:
                sys.exit(f"{self.label}: build failed: {command}")
            print(f"{self.label}: built in {time.time() - t:.0f} s: {command}", flush=True)

    def symbols(self, binary):
        """Sizes in bytes of every copy of each hot symbol in `binary`
        (None when the side built no such binary)."""
        path = os.path.join(self.target, binary)
        if not os.path.exists(path):
            return None
        proc = subprocess.run(["nm", "-S", "-C", path], capture_output=True, text=True)
        sizes = {name: [] for name in HOT_SYMBOLS}
        for line in proc.stdout.splitlines():
            parts = line.split(None, 3)
            if len(parts) != 4 or parts[2] not in "tTwW":
                continue
            name = re.sub(r"::h[0-9a-f]{16}$|[<>]", "", parts[3])
            for hot in HOT_SYMBOLS:
                if name.endswith("::" + hot):
                    sizes[hot].append(int(parts[1], 16))
        return {name: sorted(v) for name, v in sizes.items()}


def dig(obj, path):
    for key in path.split("."):
        if not isinstance(obj, dict) or key not in obj:
            return None
        obj = obj[key]
    return obj if isinstance(obj, (int, float)) and not isinstance(obj, bool) else None


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def run_once(side, args, workload, seed, scratch):
    """One run; returns its record."""
    record = {"side": side.label, "seed": seed}
    t = time.time()
    if workload is not None:
        record["workload"] = workload
        command = (
            f"bash perfbench/run.sh --workload {workload} --seed {seed} "
            f"--seconds {args.seconds} --trace {args.trace}"
        )
        proc = side.shell(command)
        result = last_json_line(proc.stdout)
        sent = re.search(r"sent (\d+) of (\d+) drafts", proc.stderr)
        if sent:
            record["drafts_sent"], record["drafts"] = map(int, sent.groups())
        metrics = {}
        for name, m in ((result or {}).get("metrics") or {}).items():
            metrics[name] = m.get("value") if isinstance(m, dict) else m
    else:
        out = os.path.join(scratch, f"{side.label}-{seed}-{int(t * 1000)}.json")
        command = args.cmd.replace("{seed}", str(seed)).replace("{out}", out)
        proc = side.shell(command)
        result = None
        if "{out}" in args.cmd:
            try:
                with open(out, encoding="utf-8") as f:
                    result = json.load(f)
            except (OSError, ValueError):
                result = None
        else:
            result = last_json_line(proc.stdout)
        metrics = {m: dig(result, m) for m, _ in args.metrics}
    record["exit"] = proc.returncode
    record["wall_s"] = round(time.time() - t, 2)
    for key in ("correct", "pass", "attempted", "failed"):
        if isinstance(result, dict) and key in result:
            record[key] = result[key]
    record["metrics"] = metrics
    if proc.returncode != 0 or result is None:
        record["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return record


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs, better):
    """Per metric: each side's spread, the change of medians, pairs won."""
    names = sorted({m for r in runs for m in r["metrics"]})
    summary = {}
    for name in names:
        by_seed = {}
        for r in runs:
            value = r["metrics"].get(name)
            if isinstance(value, (int, float)):
                by_seed.setdefault(r["seed"], {})[r["side"]] = value
        sides = {}
        for label in ("base", "change"):
            values = [v[label] for v in by_seed.values() if label in v]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            sides[label] = {
                "median": med, "q1": q1, "q3": q3, "n": len(values),
                "iqr_over_median": (q3 - q1) / med if med else None,
            }
        entry = {"better": better.get(name, "lower"), **sides}
        if "base" in sides and "change" in sides and sides["base"]["median"]:
            base, change = sides["base"]["median"], sides["change"]["median"]
            entry["median_change_pct"] = 100.0 * (change - base) / base
            spread = sides["base"]["q3"] - sides["base"]["q1"]
            entry["gap_over_base_iqr"] = abs(change - base) / spread if spread else None
            pairs = [v for v in by_seed.values() if len(v) == 2]
            sign = -1 if entry["better"] == "lower" else 1
            entry["pairs"] = len(pairs)
            entry["pairs_won"] = sum(1 for v in pairs if sign * (v["change"] - v["base"]) > 0)
            entry["pairs_lost"] = sum(1 for v in pairs if sign * (v["change"] - v["base"]) < 0)
        summary[name] = entry
    return summary


def main():
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--name", required=True, help="writes results/AB_<name>.json")
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10",
                   help="comma-separated; one pair per seed")
    p.add_argument("--workload", action="append", default=[],
                   help="perfbench workload (repeatable)")
    p.add_argument("--seconds", type=int, default=40, help="perfbench run length")
    p.add_argument("--trace", type=int, default=0, help="perfbench --trace")
    p.add_argument("--cmd", help="command template ({seed}, {target}, {out})")
    p.add_argument("--build", action="append", default=[],
                   help="build command for --cmd (repeatable)")
    p.add_argument("--metric", action="append", default=[],
                   help="PATH[:lower|higher] for --cmd (repeatable)")
    p.add_argument("--workdir", help="keep exports' builds here (default: a temp dir)")
    args = p.parse_args()
    if bool(args.workload) == bool(args.cmd):
        p.error("give --workload (perfbench) or --cmd, not both")
    args.metrics = []
    for m in args.metric:
        path, _, better = m.partition(":")
        args.metrics.append((path, better or "lower"))
    seeds = [int(s) for s in args.seeds.split(",") if s]

    keep = args.workdir is not None
    workdir = os.path.abspath(args.workdir) if keep else tempfile.mkdtemp(prefix="ab-")
    os.makedirs(workdir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="runs-", dir=workdir)
    sides = [Side("base", args.base, workdir), Side("change", args.change, workdir)]
    builds = PERFBENCH_BUILD if args.workload else args.build
    try:
        for side in sides:
            side.export()
            side.build(builds)
        runs = []
        workloads = args.workload or [None]
        for i, seed in enumerate(seeds):
            order = sides if i % 2 == 0 else sides[::-1]
            for workload in workloads:
                for position, side in enumerate(order):
                    record = run_once(side, args, workload, seed, scratch)
                    record["pair"], record["first"] = i, position == 0
                    runs.append(record)
                    shown = {k: v for k, v in record["metrics"].items()
                             if k in ("latency_mean_ms", "setup_s") or args.cmd}
                    print(f"pair {i} seed {seed} {workload or 'cmd'} {side.label}: "
                          f"{shown} correct={record.get('correct')} exit={record['exit']}",
                          flush=True)
        better = directions()
        better.update(dict(args.metrics))
        report = {
            "name": args.name,
            "base": {"ref": args.base, "commit": sides[0].commit},
            "change": {"ref": args.change, "commit": sides[1].commit},
            "args": sys.argv[1:],
            "nproc": os.cpu_count(),
            "started_order": "pair i runs base first when i is even",
            "symbols": {s.label: s.symbols("release/microbrowse") for s in sides},
            "workloads": {},
        }
        for workload in workloads:
            key = workload or "command"
            these = [r for r in runs if r.get("workload") == workload]
            report["workloads"][key] = {"summary": summarize(these, better), "runs": these}
        os.makedirs(os.path.join(ROOT, "results"), exist_ok=True)
        path = os.path.join(ROOT, "results", f"AB_{args.name}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
        for key, w in report["workloads"].items():
            for name, s in w["summary"].items():
                if "median_change_pct" in s:
                    print(f"{key} {name}: {s['base']['median']:.6g} -> "
                          f"{s['change']['median']:.6g} ({s['median_change_pct']:+.1f}%), "
                          f"change better in {s['pairs_won']}/{s['pairs']}, base IQR/median "
                          f"{100 * (s['base']['iqr_over_median'] or 0):.1f}%")
        print(f"wrote {path}")
    finally:
        for side in sides:
            shutil.rmtree(side.src, ignore_errors=True)
        shutil.rmtree(scratch, ignore_errors=True)
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
