"""Acceptance suite: one test per quantitative criterion, via the recipes.

Each test runs the corresponding experiment recipe with its default
parameters, prints a single PASS/FAIL line, and asserts that every
assertion inside the recipe held.  Two criteria are known to fail for
reasons also documented in README's acceptance-suite section: the
measured decay exponent at desk-scale n sits above the asserted band
(criterion 3), and the literal prefactor of the assembled lower bound is
not a true lower bound on every small cluster (one assertion of
criterion 9); the failures are reported honestly rather than patched
around.
"""

from __future__ import annotations

import pytest

CRITERIA = [
    (1, "identity-sweep"),
    (2, "confinement"),
    (3, "exponent-fit"),
    (4, "spectral-bracket"),
    (5, "isoperimetry-small"),
    (6, "folner-wreath"),
    (7, "pruning-property"),
    (8, "nash-curve"),
    (9, "lemma45"),
    (10, "renorm-field"),
]


def _execute(number: int, recipe: str, recipe_run):
    report, _ = recipe_run(recipe)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"criterion {number:2d} ({recipe}): {verdict}")
    for line in report.summary_lines():
        print("   " + line)
    assert report.passed, f"criterion {number} ({recipe}) did not pass"


@pytest.mark.parametrize("number,recipe", CRITERIA,
                         ids=[f"criterion-{n:02d}-{r}" for n, r in CRITERIA])
def test_acceptance(number, recipe, recipe_run):
    _execute(number, recipe, recipe_run)
