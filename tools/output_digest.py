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
(``theta.lambda = 0.25``, ``theta.gamma = 0.5,0.75``), and ``count`` and
``coverage`` once more each with ``theta.lambda = 0.25`` and
``theta.gamma = 0.5``, so that the shift's path through the witness
construction and through the counting half is covered too.  ``detect`` runs
once more with ``theta.lambda = 0.1`` and ``theta.gamma = 0.3``, decimals
whose doubles have denominators 2^55 and 2^54, so that the witness
verification is covered on shifts that are not short dyadics.  ``scaling``
runs twice more: ``scaling-shifted`` with ``theta.lambda = 0.25``,
``theta.gamma = 0.5`` and ``Q_list = 512,1024,2048``, and ``scaling-ties`` on
veronese:3 (``M = 6``, ``Q_list = 1024,2048,4096``) with
``psi_list = 0.6,0.4,0.5,0.3000001``: unsorted, and psi and 1 - psi
together, so that the sweep's histogram is covered where its cuts meet.
``scaling-mixed`` (``curve = mixed``, ``Q_list = 512,1024,2048``) covers a
coordinate without coefficients next to a power-table one, and
``scaling-veronese4-shifted`` (``curve = veronese:4``, ``M = 8``,
``B = -0.5,0.9``, ``theta.lambda = 0.1``, ``theta.gamma = 0.3,0.5,0.7``,
``Q_list = 256,512,1024``) covers negative x and non-dyadic shifts in the
sweep's power tables.  ``count-wide`` (``curve = poly:0.5,-3,1e9``,
``B = -0.5,0.9``, ``theta.lambda = 0.1``, ``theta.gamma = 0.3``,
``Q_list = 256,512``) writes triples CSVs whose fields are wider than the
shipped ones: negative x-points, b of 11 and 12 digits and short dyadic
slacks.  Two more ``coverage`` runs meet balls that share a clipped lower end
but not an upper one, where the order of the sweep sets the last bits:
``coverage-veronese3-window`` (``curve = veronese:3``, ``M = 6``,
``B = 0.1,0.9``, ``Q_list = 256,512,1024``) at B's lower end, and
``coverage-decimal-psi0.7`` (``psi_list = 0.7``, ``theta.lambda = 0.1``,
``theta.gamma = 0.3``, ``coverage.rho_scale = 10``, ``Q_list = 256,512,1024``)
inside B as well.  Three more ``scaling`` runs cover sweeps whose cells the
power table cannot give: ``scaling-poly-cancel`` (``curve =
poly:0.5,-1e6,1e6``, ``Q_list = 256,512,1024``), whose power-table bound
fails from Q = 537 on; ``scaling-steep`` (``curve = poly:0,0,1e9``,
``Q_list = 128,256,512``), with |y| past 2^30 in the tie cell 0; and
``scaling-veronese7`` (``curve = veronese:7``, ``Q_list = 64,128,256``), whose
8 psi have too many joint states to bin.  Two more ``detect`` runs cover the
witness verification where its integer evaluation is not the whole story:
``detect-mixed`` (``curve = mixed``, ``M = 3``), whose e^x coordinate is
taken in doubles, and ``detect-poly-third`` (``curve = poly:0.1,1/3,1``),
whose coefficients have a common denominator that is not a power of two.
Each run goes in a fresh interpreter and into a temporary directory.
Prints one ``<sha256>  <run>/<file>`` line per output file, sorted, so two
checkouts compare with one diff:

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
    ("detect-shifted-decimal", "detect", "detect.cfg", {"theta.lambda": "0.1", "theta.gamma": "0.3"}),
    ("count-shifted", "count", "count.cfg", {"theta.lambda": "0.25", "theta.gamma": "0.5"}),
    ("coverage-shifted", "coverage", "coverage.cfg", {"theta.lambda": "0.25", "theta.gamma": "0.5"}),
    ("scaling-shifted", "scaling", "scaling.cfg",
     {"theta.lambda": "0.25", "theta.gamma": "0.5", "Q_list": "512,1024,2048"}),
    ("scaling-ties", "scaling", "scaling.cfg",
     {"curve": "veronese:3", "M": "6", "Q_list": "1024,2048,4096",
      "psi_list": "0.6,0.4,0.5,0.3000001"}),
    ("scaling-mixed", "scaling", "scaling.cfg", {"curve": "mixed", "Q_list": "512,1024,2048"}),
    ("scaling-veronese4-shifted", "scaling", "scaling.cfg",
     {"curve": "veronese:4", "M": "8", "B": "-0.5,0.9", "theta.lambda": "0.1",
      "theta.gamma": "0.3,0.5,0.7", "Q_list": "256,512,1024"}),
    ("count-wide", "count", "count.cfg",
     {"curve": "poly:0.5,-3,1e9", "B": "-0.5,0.9", "theta.lambda": "0.1", "theta.gamma": "0.3",
      "Q_list": "256,512"}),
    ("coverage-veronese3-window", "coverage", "coverage.cfg",
     {"curve": "veronese:3", "M": "6", "B": "0.1,0.9", "Q_list": "256,512,1024"}),
    ("coverage-decimal-psi0.7", "coverage", "coverage.cfg",
     {"psi_list": "0.7", "theta.lambda": "0.1", "theta.gamma": "0.3", "coverage.rho_scale": "10",
      "Q_list": "256,512,1024"}),
    ("scaling-poly-cancel", "scaling", "scaling.cfg",
     {"curve": "poly:0.5,-1e6,1e6", "Q_list": "256,512,1024"}),
    ("scaling-steep", "scaling", "scaling.cfg", {"curve": "poly:0,0,1e9", "Q_list": "128,256,512"}),
    ("scaling-veronese7", "scaling", "scaling.cfg", {"curve": "veronese:7", "Q_list": "64,128,256"}),
    ("detect-mixed", "detect", "detect.cfg", {"curve": "mixed", "M": "3"}),
    ("detect-poly-third", "detect", "detect.cfg", {"curve": "poly:0.1,1/3,1"}),
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
