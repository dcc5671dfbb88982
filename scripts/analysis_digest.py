#!/usr/bin/env python3
"""Check that ``analyze`` reports keep their bytes: one sha256 over many systems.

The recipe: ``cli.build_analysis(config, extrema.LEVEL_TOL, depth)`` for the
600 ``analysis-sweep`` systems of ``perfbench/gen.py`` with gen seeds 1, 2
and 3 (each seed's ``sweep_systems(random.Random(seed))``, in its order), each
at depths None, 1 and 8 in turn: 5400 reports.  Each report goes into one
sha256 as ``json.dumps(report, sort_keys=True)`` encoded as UTF-8.

    PYTHONPATH=src python scripts/analysis_digest.py

prints the digest and exits 1 when it is not ``DIGEST``.  A change that
corrects a report on purpose pins the new digest here and says why.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402  (perfbench/gen.py, the benchmark's seeded generator)

from qsaffine import cli, extrema  # noqa: E402
from qsaffine.config import SystemConfig  # noqa: E402

#: The digest of the recipe above, unchanged since the non-invariance report
#: became a proof (covering_proved and covering_margin).
DIGEST = "4d004881e561ca1f6048e24ce7a439ca00fc1c7d654d72572105bdf846a9c0c8"
SEEDS = (1, 2, 3)
DEPTHS = (None, 1, 8)


def digest(seeds=SEEDS, depths=DEPTHS) -> str:
    """The sha256 of the reports of ``seeds`` at ``depths``, by the recipe above."""
    h = hashlib.sha256()
    for seed in seeds:
        for spec in gen.sweep_systems(random.Random(seed)):
            config = SystemConfig(spec.q_text, spec.g_text, spec.label)
            for depth in depths:
                report = cli.build_analysis(config, extrema.LEVEL_TOL, depth)
                h.update(json.dumps(report, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def main() -> int:
    got = digest()
    print(got)
    if got != DIGEST:
        print(f"expected {DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
