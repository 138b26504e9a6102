"""Golden SHA-256 hashes of every artifact the ten recipes write at defaults.

``python tests/make_golden.py`` (with ``src`` on ``PYTHONPATH``) rewrites
``tests/golden.sha256`` and prints the names whose hashes changed, appeared
or vanished against the manifest it replaces; ``tests/test_golden.py``
compares fresh runs against it.  ``report.txt`` is hashed without its
``wall_clock_s:`` line.  The header records the Python, numpy and scipy
versions the hashes were made with.  The manifest is test data: a change
that rewrites it names the files that changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from percwalk.harness import RECIPES, ExperimentSpec, run

MANIFEST = Path(__file__).with_name("golden.sha256")


def versions() -> str:
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}")


def artifact_hashes(recipe: str, out_dir: Path) -> dict:
    """{"recipe/file": sha256} of what a run of ``recipe`` wrote to ``out_dir``."""
    hashes = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.lstrip().startswith(b"wall_clock_s:"))
        hashes[f"{recipe}/{path.relative_to(out_dir).as_posix()}"] = \
            hashlib.sha256(data).hexdigest()
    return hashes


def read_manifest() -> tuple[str, dict]:
    """(the versions line of the header, {"recipe/file": sha256})."""
    header, hashes = "", {}
    for line in MANIFEST.read_text().splitlines():
        if line.startswith("# versions: "):
            header = line[len("# versions: "):]
        elif line and not line.startswith("#"):
            digest, name = line.split(maxsplit=1)
            hashes[name] = digest
    return header, hashes


def main() -> int:
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for recipe in sorted(RECIPES):
            out_dir = Path(tmp) / recipe
            run(ExperimentSpec(recipe, {}, out_dir))
            hashes.update(artifact_hashes(recipe, out_dir))
    lines = ["# SHA-256 of every artifact of the ten recipes at defaults;",
             "# report.txt is hashed without its wall_clock_s: line.",
             "# Rewrite with: PYTHONPATH=src python tests/make_golden.py",
             f"# versions: {versions()}"]
    lines += [f"{digest}  {name}" for name, digest in sorted(hashes.items())]
    old = read_manifest()[1] if MANIFEST.exists() else {}
    MANIFEST.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(hashes)} hashes to {MANIFEST}")
    for name in sorted(old.keys() | hashes.keys()):
        if name not in old:
            print(f"appeared: {name}")
        elif name not in hashes:
            print(f"vanished: {name}")
        elif old[name] != hashes[name]:
            print(f"changed: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
