#!/usr/bin/env python3
"""Fixture tests for tools/analyze.py.

Each rule has (at least) one violating and one conforming fixture. A fixture
is staged into a scratch tree at a path that puts it in the rule's scope
(e.g. determinism rules only apply under src/sim and src/core), then
analyze.py runs over that tree with the text frontend — the frontend that
works on any machine — and the runner asserts:

  * the violating fixture makes exactly its own rule fire (exit 1), and
  * the conforming fixture is clean (exit 0).

Two regression tests ride along:

  * reintroducing the orphan-task bug class in shipped code (deleting the
    resolve_tasks_.KillAll() line from the real
    src/baseline/external_pager.cc) must be caught by the task-lifetime
    rule, which builds ExternalPagerSystem's class model across the staged
    .h/.cc pair, and
  * the real tree as-is must be clean.

Run from anywhere:  python3 tests/analyze_fixtures/run_fixtures.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
ANALYZE = os.path.join(REPO, "tools", "analyze.py")
FIXTURES = os.path.join(HERE, "fixtures")

# fixture file -> (destination inside the scratch tree, rule expected to fire
# or None for conforming fixtures)
MANIFEST = [
    ("task_lifetime_discard_bad.cc", "src/app/fixture.cc", "task-lifetime"),
    ("task_lifetime_discard_good.cc", "src/app/fixture.cc", None),
    ("task_lifetime_stop_bad.cc", "src/app/fixture.cc", "task-lifetime"),
    ("task_lifetime_stop_good.cc", "src/app/fixture.cc", None),
    ("task_lifetime_handle_bad.cc", "src/app/fixture.cc", "task-lifetime"),
    ("task_lifetime_handle_good.cc", "src/app/fixture.cc", None),
    ("authority_ramtab_bad.cc", "src/app/fixture.cc", "authority-ramtab"),
    ("authority_ramtab_good.cc", "src/app/fixture.cc", None),
    ("authority_framestack_bad.cc", "src/app/fixture.cc",
     "authority-framestack"),
    ("authority_framestack_good.cc", "src/app/fixture.cc", None),
    ("authority_stats_bad.h", "src/app/fixture_stats.h", "authority-stats"),
    ("authority_stats_good.h", "src/app/fixture_stats.h", None),
    ("determinism_clock_bad.cc", "src/sim/fixture.cc", "determinism-clock"),
    ("determinism_clock_good.cc", "src/sim/fixture.cc", None),
    ("determinism_unordered_bad.cc", "src/sim/fixture.cc",
     "determinism-unordered"),
    ("determinism_unordered_good.cc", "src/sim/fixture.cc", None),
]

RULE_TAG = re.compile(r"\[([a-z-]+)\]")


def run_analyze(root):
    proc = subprocess.run(
        [sys.executable, ANALYZE, "--root", root, "--frontend", "text",
         "--all"],
        capture_output=True, text=True)
    fired = set(RULE_TAG.findall(proc.stdout))
    return proc.returncode, fired, proc.stdout + proc.stderr


def stage_and_check(fixture, dest, expect):
    with tempfile.TemporaryDirectory(prefix="analyze_fixture_") as tmp:
        dst = os.path.join(tmp, dest)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(os.path.join(FIXTURES, fixture), dst)
        code, fired, output = run_analyze(tmp)
    if expect is None:
        if code != 0:
            return f"{fixture}: expected clean, got exit {code}:\n{output}"
    else:
        if code == 0:
            return f"{fixture}: expected rule {expect} to fire, got clean"
        if fired != {expect}:
            return (f"{fixture}: expected exactly {{{expect}}} to fire, "
                    f"got {sorted(fired)}:\n{output}")
    return None


def check_missing_killall_caught():
    """Deleting the KillAll from a real OwnedTaskSet owner must be caught."""
    baseline = os.path.join(REPO, "src", "baseline")
    sources = {}
    for name in ("external_pager.h", "external_pager.cc"):
        with open(os.path.join(baseline, name), encoding="utf-8") as f:
            sources[name] = f.read()
    buggy, n = re.subn(r"^.*resolve_tasks_\.KillAll\(\);.*\n", "",
                       sources["external_pager.cc"], flags=re.M)
    if n != 1:
        return ("external_pager.cc: expected exactly one "
                f"resolve_tasks_.KillAll(); line to delete, found {n}")
    with tempfile.TemporaryDirectory(prefix="analyze_killall_") as tmp:
        staged = os.path.join(tmp, "src", "baseline")
        os.makedirs(staged)

        def stage(cc_text):
            for name, text in sources.items():
                if name == "external_pager.cc":
                    text = cc_text
                with open(os.path.join(staged, name), "w",
                          encoding="utf-8") as f:
                    f.write(text)

        stage(buggy)
        code, fired, output = run_analyze(tmp)
        if code == 0 or "task-lifetime" not in fired:
            return ("ExternalPagerSystem teardown without "
                    "resolve_tasks_.KillAll() was NOT caught; rules fired: "
                    f"{sorted(fired)}\n{output}")
        # and the unmodified pair must be clean
        stage(sources["external_pager.cc"])
        code, fired, output = run_analyze(tmp)
        if code != 0:
            return (f"unmodified external_pager.{{h,cc}} not clean: "
                    f"{sorted(fired)}\n{output}")
    return None


def check_head_clean():
    code, fired, output = run_analyze(REPO)
    if code != 0:
        return f"HEAD src/ tree not clean: {sorted(fired)}\n{output}"
    return None


def main():
    failures = []
    for fixture, dest, expect in MANIFEST:
        err = stage_and_check(fixture, dest, expect)
        status = "FAIL" if err else "ok"
        print(f"  [{status}] {fixture}")
        if err:
            failures.append(err)
    for name, check in (("missing-killall", check_missing_killall_caught),
                        ("head-clean", check_head_clean)):
        err = check()
        status = "FAIL" if err else "ok"
        print(f"  [{status}] {name}")
        if err:
            failures.append(err)
    if failures:
        print(f"\n{len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print("-" * 60, file=sys.stderr)
            print(f, file=sys.stderr)
        return 1
    print(f"run_fixtures.py: {len(MANIFEST) + 2} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
