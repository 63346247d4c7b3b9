"""Building the compiled sweep: loud failures, one artefact per source.

Each test copies the package (no ``__pycache__``) to a temporary
directory and imports it there in a subprocess, so the import builds
``sweep.c`` from cold into the copy's own ``__pycache__``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Joins one pair of touching unit squares; prints the ``idx_a`` plane.
JOIN = """
from repro.geometry import Box, KineticBatch, KineticBox
from repro.geometry.kernels import batch_sweep_join

batch = KineticBatch.from_boxes([KineticBox.rigid(Box(0, 1, 0, 1), 0.0, 0.0, 0.0)])
print(batch_sweep_join(batch, batch, 0.0, 1.0, dim=0)[0].tolist())
"""


def package_copy(root: Path) -> Path:
    shutil.copytree(SRC, root / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def start(root: Path, code: str, **env) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", code],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root), **env},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def run(root: Path, code: str, **env) -> subprocess.CompletedProcess:
    proc = start(root, code, **env)
    out, err = proc.communicate(timeout=300)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def artefacts(root: Path):
    """Everything the build left in the copy's cache, temporaries included."""
    return sorted(p.name for p in (root / "repro" / "geometry" / "__pycache__").glob("sweep-*"))


def test_a_missing_compiler_fails_the_import_naming_it(tmp_path):
    root = package_copy(tmp_path)
    empty = tmp_path / "no-compiler"
    empty.mkdir()
    done = run(root, "import repro.geometry.kernels", PATH=str(empty))
    assert done.returncode != 0
    assert "ImportError" in done.stderr and "'cc'" in done.stderr, done.stderr
    assert artefacts(root) == []


def test_two_cold_imports_at_once_leave_one_artefact(tmp_path):
    root = package_copy(tmp_path)
    procs = [start(root, JOIN) for _ in range(2)]
    results = [proc.communicate(timeout=300) + (proc.returncode,) for proc in procs]
    for out, err, code in results:
        assert code == 0, err
        assert out.strip() == "[0]"
    built = artefacts(root)
    assert len(built) == 1 and built[0].endswith(".so"), built


def test_an_artefact_of_other_source_is_not_loaded(tmp_path):
    root = package_copy(tmp_path)
    source = root / "repro" / "geometry" / "sweep.c"
    original = source.read_text()
    # Other source bytes whose object fails every join.
    entry = "    const double t0 = fp[F_T0], t1 = fp[F_T1];\n"
    assert entry in original
    source.write_text(original.replace(entry, "    return -1;\n" + entry))
    broken = run(root, JOIN)
    assert broken.returncode != 0 and "RuntimeError" in broken.stderr, broken.stderr
    assert len(artefacts(root)) == 1
    # The real source: its own artefact is built and loaded beside the
    # other one, which stays in the cache unused.
    source.write_text(original)
    done = run(root, JOIN)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0]"
    assert len(artefacts(root)) == 2


def test_an_artefact_that_does_not_load_fails_the_import(tmp_path):
    root = package_copy(tmp_path)
    assert run(root, JOIN).returncode == 0
    (built,) = artefacts(root)
    (root / "repro" / "geometry" / "__pycache__" / built).write_bytes(b"not an object")
    done = run(root, JOIN)
    assert done.returncode != 0
    assert "ImportError" in done.stderr and built in done.stderr, done.stderr
