"""The figure set of scripts/reproduce_figures.py is pinned byte for byte.

``figures.sha256`` holds the sha256 of every file ``build(outdir, 4096, 5)``
writes.  A change that corrects an output on purpose regenerates it with
``sha256sum * | sort -k2`` in the output directory and says why.
"""

import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location("reproduce_figures", ROOT / "scripts" / "reproduce_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_figures_match_manifest(tmp_path, capsys):
    _load_script().build(tmp_path, 4096, 5)
    capsys.readouterr()
    expected = {}
    for line in (ROOT / "tests" / "figures.sha256").read_text().splitlines():
        digest, name = line.split()
        expected[name] = digest
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == expected
