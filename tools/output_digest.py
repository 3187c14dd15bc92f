"""SHA-256 of every output file of the CLI modes on the shipped configs.

Runs ``count``, ``coverage``, ``detect``, ``qnd`` and ``scaling`` on
``configs/<mode>.cfg``, and ``goodset`` and ``identities`` on
``configs/detect.cfg`` (without its ``mode`` line, which names another mode),
each in a fresh interpreter and into a temporary directory.  Prints one
``<sha256>  <mode>/<file>`` line per output file, sorted, so two checkouts
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

RUNS = (
    ("count", "count.cfg"),
    ("coverage", "coverage.cfg"),
    ("detect", "detect.cfg"),
    ("qnd", "qnd.cfg"),
    ("scaling", "scaling.cfg"),
    ("goodset", "detect.cfg"),
    ("identities", "detect.cfg"),
)


def _config_for(mode: str, path: Path, tmp: Path) -> Path:
    """``path`` itself when it is the mode's own config, else a copy without its mode line."""
    if path.stem == mode:
        return path
    copy = tmp / f"{mode}.cfg"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    copy.write_text("".join(line for line in lines if line.split("=")[0].strip() != "mode"),
                    encoding="utf-8")
    return copy


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    lines = []
    with tempfile.TemporaryDirectory(prefix="output_digest_") as name:
        tmp = Path(name)
        for mode, cfg in RUNS:
            out = tmp / mode
            config = _config_for(mode, root / "configs" / cfg, tmp)
            proc = subprocess.run(
                [sys.executable, "-m", "nearcurve.cli", mode, "--config", str(config), "--out", str(out)],
                cwd=tmp, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(f"{mode} on {cfg} exited {proc.returncode}\n{proc.stderr}")
                return 1
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {path.relative_to(tmp).as_posix()}")
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
