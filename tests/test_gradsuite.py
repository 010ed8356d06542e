"""The finite-difference gradient suite over every trainable loss."""

from bitfold.gradsuite import run_grad_suite


def test_grad_suite_passes_seed0():
    reports = run_grad_suite(seeds=(0,))
    failed = [f"{name}: {report}" for name, report in reports if not report.passed]
    assert reports and not failed, failed
