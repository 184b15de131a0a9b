"""Acceptance gate: one test per verification criterion.

Each test runs the corresponding named check from :mod:`popuc.verify`
(deterministic, fixed seeds) and prints a single pass/fail line with the
measured figure of merit, so the full gate is readable from pytest -s output.
"""
import re
from pathlib import Path

import pytest

from popuc.verify import CHECKS, run_checks

CRITERIA = [
    ("zeros", "unimodular, simple, small-residual zeros on 200 random measures"),
    ("oracle-ex1", "pipeline OPUC vs Bernstein-Szego+mass closed form, 1e-8"),
    ("oracle-ex2", "pipeline POPUC vs Lebesgue+mass closed form, 1e-10"),
    ("fixed-zero", "fixed-zero policy keeps |P(i)| below 1e-9 along sweeps"),
    ("balance", "discrete velocity balance within 1e-4 on 20 instances"),
    ("balance-mixed", "mixed velocity balance within 1e-4"),
    ("signs", "sweep velocity signs match closed-form W_0 on both arcs"),
    ("stationary", "pinning at the mass freezes all trajectories below 1e-8"),
    ("conjugate", "conjugate pair persists; verdicts and balance consistent"),
    ("identities", "real/complex identities, paraorthogonality, quotient rule"),
    ("expr", "symbolic derivatives within 1e-6 of finite differences"),
]


@pytest.mark.parametrize("name,summary", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(name, summary, capsys):
    result = run_checks([name], printer=lambda line: None)[0]
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"{status}  {name:14s} {result.seconds:6.2f}s  {result.detail}")
    assert result.passed, f"{name} ({summary}): {result.detail}"


def test_every_criterion_has_a_check():
    assert {name for name, _ in CRITERIA} == set(CHECKS)


def test_no_catch_all_except_in_library():
    # a catch-all handler can hide a defect as an ordinary result
    src = Path(__file__).resolve().parent.parent / "src" / "popuc"
    catch_all = re.compile(r"^\s*except\s*(:|\(?\s*(Exception|BaseException)\b)")
    hits = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if catch_all.match(line)
    ]
    assert hits == []
