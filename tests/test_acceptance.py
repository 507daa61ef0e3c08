"""Acceptance gate: every numerical claim the package reproduces, one
pass/fail line per criterion.  Tolerances are pinned in kcut.acceptance."""

import time

import pytest

from kcut.acceptance import GROUPS


@pytest.mark.parametrize("group", list(GROUPS))
def test_acceptance_group(group):
    t0 = time.perf_counter()
    results = GROUPS[group]()
    wall = time.perf_counter() - t0
    failed = []
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.group}/{r.name} "
              f"({r.runtime_s:.1f}s) {r.detail}")
        if not r.passed:
            failed.append(r)
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)
    # each check reports its own time, not the time since its group started
    assert all(r.runtime_s >= 0.0 for r in results)
    assert sum(r.runtime_s for r in results) <= wall
