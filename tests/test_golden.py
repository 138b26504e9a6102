"""Every recipe artifact at defaults matches its hash in ``golden.sha256``,
on the cores this process may use and on one."""

from __future__ import annotations

import pytest

from percwalk import walk
from percwalk.harness import RECIPES, ExperimentSpec, run
from make_golden import artifact_hashes, read_manifest, versions


def assert_matches(runs: dict):
    """``runs`` maps each recipe to the directory a default run wrote."""
    header, golden = read_manifest()
    got = {}
    for recipe, out_dir in runs.items():
        got.update(artifact_hashes(recipe, out_dir))
    want = {name: h for name, h in golden.items() if name.split("/")[0] in runs}
    problems = [f"changed: {name}" for name in sorted(got.keys() & want.keys())
                if got[name] != want[name]]
    problems += [f"missing: {name}" for name in sorted(want.keys() - got.keys())]
    problems += [f"extra: {name}" for name in sorted(got.keys() - want.keys())]
    if problems and header != versions():
        problems.append(f"(hashes made with {header}; this run has {versions()})")
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_artifacts_match(recipe, recipe_run):
    assert_matches({recipe: recipe_run(recipe)[1]})


def test_artifacts_match_on_one_core(monkeypatch, tmp_path):
    monkeypatch.setattr(walk.os, "sched_getaffinity", lambda pid: {0})
    runs = {recipe: tmp_path / recipe for recipe in ("confinement", "exponent-fit")}
    for recipe, out_dir in runs.items():
        run(ExperimentSpec(recipe, {}, out_dir))
    assert_matches(runs)
