"""SHA-256 of every output file of the CLI modes on the shipped configs.

Runs ``count``, ``coverage``, ``detect``, ``qnd`` and ``scaling`` on
``configs/<mode>.cfg``, ``goodset`` and ``identities`` on
``configs/detect.cfg`` (without its ``mode`` line, which names another mode),
and ``scaling`` once more on ``configs/scaling.cfg`` with ``curve = veronese:3``,
``M = 6`` and ``Q_list = 1024,2048,4096``, so that the multi-coordinate
counting path is covered too.  Two more ``count`` runs at ``psi_list = 0.7``
and ``Q_list = 256,512``, on parabola and on veronese:3 with ``M = 6``, write
triples CSVs where a pair has several b (up to 4 triples per pair), so the
expansion of pairs into triples is covered byte for byte.  ``qnd`` and
``detect`` run once more with ``curve = veronese:3`` and ``M = 6`` (``qnd``
at 3000 samples), so that the lattice outputs are covered in dimension 4 as
well as 3.  ``detect`` runs twice more with a nonzero shift, on parabola
(``theta.lambda = 0.5``, ``theta.gamma = 0.5``) and on veronese:3
(``theta.lambda = 0.25``, ``theta.gamma = 0.5,0.75``), so that the
inhomogeneous witness path is covered too.  Each run goes in a fresh
interpreter and into a temporary directory.  Prints one
``<sha256>  <run>/<file>`` line per output file, sorted, so two checkouts
compare with one diff:

    python3 tools/output_digest.py > after.txt
    python3 tools/output_digest.py /path/to/other/checkout > before.txt
    diff before.txt after.txt

The optional argument is the checkout whose ``src/`` and ``configs/`` are
used; it defaults to the one holding this script.  Needs only the standard
library beyond nearcurve's own dependencies.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (run name, mode, shipped config, keys set in a copy of that config)
RUNS = (
    ("count", "count", "count.cfg", {}),
    ("coverage", "coverage", "coverage.cfg", {}),
    ("detect", "detect", "detect.cfg", {}),
    ("qnd", "qnd", "qnd.cfg", {}),
    ("scaling", "scaling", "scaling.cfg", {}),
    ("goodset", "goodset", "detect.cfg", {}),
    ("identities", "identities", "detect.cfg", {}),
    ("scaling-veronese3", "scaling", "scaling.cfg",
     {"curve": "veronese:3", "M": "6", "Q_list": "1024,2048,4096"}),
    ("count-psi0.7", "count", "count.cfg", {"psi_list": "0.7", "Q_list": "256,512"}),
    ("count-veronese3-psi0.7", "count", "count.cfg",
     {"curve": "veronese:3", "M": "6", "psi_list": "0.7", "Q_list": "256,512"}),
    ("qnd-veronese3", "qnd", "qnd.cfg", {"curve": "veronese:3", "M": "6", "qnd.samples": "3000"}),
    ("detect-veronese3", "detect", "detect.cfg", {"curve": "veronese:3", "M": "6"}),
    ("detect-shifted", "detect", "detect.cfg", {"theta.lambda": "0.5", "theta.gamma": "0.5"}),
    ("detect-veronese3-shifted", "detect", "detect.cfg",
     {"curve": "veronese:3", "M": "6", "theta.lambda": "0.25", "theta.gamma": "0.5,0.75"}),
)


def _config_for(name: str, mode: str, path: Path, changes: dict, tmp: Path) -> Path:
    """``path`` itself when it is the mode's own config, used as shipped; else an edited copy.

    The copy leaves out a ``mode`` line that names another mode and sets the
    keys of ``changes``.
    """
    if path.stem == mode and not changes:
        return path
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        key = line.split("=")[0].strip()
        if key not in changes and not (key == "mode" and path.stem != mode):
            lines.append(line)
    lines += [f"{key} = {value}" for key, value in changes.items()]
    copy = tmp / f"{name}.cfg"
    copy.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return copy


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    lines = []
    with tempfile.TemporaryDirectory(prefix="output_digest_") as tmpdir:
        tmp = Path(tmpdir)
        for name, mode, cfg, changes in RUNS:
            out = tmp / name
            config = _config_for(name, mode, root / "configs" / cfg, changes, tmp)
            proc = subprocess.run(
                [sys.executable, "-m", "nearcurve.cli", mode, "--config", str(config), "--out", str(out)],
                cwd=tmp, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(f"{name} on {cfg} exited {proc.returncode}\n{proc.stderr}")
                return 1
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {path.relative_to(tmp).as_posix()}")
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
