"""Plant each fault of faults.json alone in a fresh copy of the tree and
run tier-1 against it with -x: once as it is, and once with acceptance
criteria 6-8 (the seed experiments) deselected.

Usage, from anywhere in the repository:

    python tests/faults/run.py [NAME ...]

NAME picks faults by name; with none, every fault runs. A fault is one
exact-match replacement within a line: `old` must occur exactly once in
`file`, or the runner exits 2 before any run. Each fault prints the
first test that fails in each run, its first killer, or SURVIVED. The
exit status is 1 if a fault survived either run. The copy is the tree's
tracked and untracked files that git does not ignore.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
FAULTS = os.path.join(ROOT, "tests", "faults", "faults.json")
CRITERIA_6_8 = [f"tests/test_acceptance.py::test_criterion_{name}"
                for name in ("6_method_comparison", "7_component_chain",
                             "8_lambda_sweep")]


def planted(fault):
    """The text of fault's file with the fault planted."""
    with open(os.path.join(ROOT, fault["file"]), encoding="utf-8") as fh:
        text = fh.read()
    old, new = fault["old"], fault["new"]
    count = text.count(old)
    if count != 1 or "\n" in old + new:
        raise ValueError(f"{fault['name']}: {old!r} occurs {count} times "
                         f"in {fault['file']}, not once within a line")
    return text.replace(old, new)


def copy_tree(dest):
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], cwd=ROOT, check=True,
        capture_output=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):  # a deleted tracked file is skipped
            os.makedirs(os.path.dirname(os.path.join(dest, name)),
                        exist_ok=True)
            shutil.copy2(source, os.path.join(dest, name))


def first_killer(tree, deselect=()):
    """The id of the first failing test in tree, or None if all pass."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
         "-p", "no:cacheprovider", "--continue-on-collection-errors",
         *(f"--deselect={test}" for test in deselect)],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    found = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", proc.stdout, re.M)
    return found.group(1) if found else f"pytest exit {proc.returncode}"


def main(names):
    with open(FAULTS, encoding="utf-8") as fh:
        faults = json.load(fh)
    unknown = set(names) - {fault["name"] for fault in faults}
    faults = [f for f in faults if not names or f["name"] in names]
    try:
        if unknown:
            raise ValueError(f"unknown faults: {', '.join(sorted(unknown))}")
        texts = [planted(fault) for fault in faults]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    survived = False
    print("fault | first killer | without criteria 6-8")
    for fault, text in zip(faults, texts):
        with tempfile.TemporaryDirectory(prefix="fault-") as tree:
            copy_tree(tree)
            with open(os.path.join(tree, fault["file"]), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
            killers = [first_killer(tree), first_killer(tree, CRITERIA_6_8)]
        survived |= None in killers
        print(" | ".join([fault["name"],
                          *(k or "SURVIVED" for k in killers)]), flush=True)
    return int(survived)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
