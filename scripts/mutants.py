#!/usr/bin/env python3
"""Replay the mutant registry (scripts/mutants.json) against the tree.

Each registry entry names one source file, an exact search text that must
occur there once, its replacement, the test command that must fail once the
replacement is in, the commit that recorded the mutant and what it breaks.

The runner copies the working tree (tracked and untracked files, ignored
ones left out) to a temporary directory once, then for each entry restores
the pristine file, applies the mutant there and runs its test command with
a target directory shared by all entries, so each mutant rebuilds only what
it touches. The repository itself is never modified.

Outcomes: KILLED (the command failed, as it must), SURVIVED (it passed),
STALE (the search text is gone or ambiguous: the entry needs re-expressing)
and BROKEN (the mutant does not compile). Anything but KILLED makes the run
exit non-zero. Each mutant is a rebuild, so scripts/check.sh does not run
this; run it when a change touches the code a mutant covers.

Usage: scripts/mutants.py [ID ...]   (from anywhere in the repo)
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def copy_tree(dest):
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for rel in filter(None, files):
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def run_entry(entry, work):
    path = os.path.join(work, entry["file"])
    with open(os.path.join(ROOT, entry["file"]), encoding="utf-8") as f:
        pristine = f.read()
    count = pristine.count(entry["search"])
    if count != 1:
        return "STALE", f"search text found {count} times in {entry['file']}"
    with open(path, "w", encoding="utf-8") as f:
        f.write(pristine.replace(entry["search"], entry["replace"]))
    try:
        proc = subprocess.run(
            entry["test"], shell=True, cwd=work, capture_output=True, text=True,
            env=dict(os.environ, CARGO_TARGET_DIR=os.path.join(work, "target")),
        )
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(pristine)
    out = proc.stdout + proc.stderr
    if "could not compile" in out:
        return "BROKEN", next((l for l in out.splitlines() if l.startswith("error")), "")
    if proc.returncode == 0:
        return "SURVIVED", "test command passed"
    failed = [l.strip() for l in out.splitlines() if "FAILED" in l or "panicked" in l]
    return "KILLED", failed[0] if failed else f"exit {proc.returncode}"


def main(wanted):
    with open(os.path.join(ROOT, "scripts", "mutants.json"), encoding="utf-8") as f:
        registry = json.load(f)
    unknown = set(wanted) - {e["id"] for e in registry}
    if unknown:
        sys.exit(f"unknown mutant ids: {', '.join(sorted(unknown))}")
    entries = [e for e in registry if not wanted or e["id"] in wanted]
    work = tempfile.mkdtemp(prefix="mutants-")
    copy_tree(work)
    results = []
    try:
        for entry in entries:
            outcome, detail = run_entry(entry, work)
            results.append((entry["id"], outcome))
            print(f"{outcome:8} {entry['id']}: {detail}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad = [(i, o) for i, o in results if o != "KILLED"]
    print(f"{len(results) - len(bad)}/{len(results)} killed")
    for i, o in bad:
        print(f"  {o}: {i}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
