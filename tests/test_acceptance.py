"""Acceptance gate: every numerical claim the package reproduces, one
pass/fail line per criterion.  Tolerances are pinned in kcut.acceptance."""

import dataclasses
import time

import pytest

import kcut.acceptance
from kcut.acceptance import GROUPS, checks


@pytest.mark.parametrize("group", list(GROUPS))
def test_acceptance_group(group):
    t0 = time.perf_counter()
    results = list(checks(group))
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


def test_each_check_reports_its_own_failure(monkeypatch):
    # a wrong tightness predicate at one (n, k) fails only the predicate
    # check, whose detail names it; the match check keeps its own text
    closed_form = kcut.acceptance.complete_graph_maxkcut

    def flipped(n, k):
        rep = closed_form(n, k)
        if (n, k) == (7, 3):
            meta = dict(rep.metadata, rounded_bound_tight=not rep.metadata["rounded_bound_tight"])
            rep = dataclasses.replace(rep, metadata=meta)
        return rep

    monkeypatch.setattr(kcut.acceptance, "complete_graph_maxkcut", flipped)
    results = {r.name: r for r in checks("complete")}
    predicate = results["tightness_predicate_e(k-e)<2k"]
    assert not predicate.passed and "K_7 k=3" in predicate.detail
    match = results["closed_form_equals_brute_force_n_le_12"]
    assert match.passed and match.detail == "exact match for all 2 <= k <= n <= 12"
