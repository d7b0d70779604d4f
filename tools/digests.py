"""Print the sha256 prefix of each output the change log quotes, to show two trees agree byte for byte.

Each output is the stdout of a fresh process running the tree's own
src/ (python -m jordan_voa.cli); stderr, which carries timings, is left
out.  The lines are:

    paper-suite text      the default battery
    paper-suite json      the same with --output json
    sweep-18 csv          singular-sweep --rmin -3 --rmax 3 --max-degree 18
    sweep-20 csv          the same at degree 20
    sweep-22 csv          the same at degree 22, with --no-degree-guard
    sweep-12 json         singular-sweep --rmin -3 --rmax 3 --max-degree 12
                          --output json
    sweep-18 span-40 json singular-sweep --rmin -20 --rmax 20 --max-degree 18
                          --output json, the widest span the command takes
    readme examples       one hash over each README example's command,
                          exit code and stdout: the jordan-voa lines of its
                          sh blocks and its python blocks

It only prints; bench/golden.json stays the one golden.  Stdlib only.

    python tools/digests.py               # the tree this file is in
    python tools/digests.py ../other      # any other checkout, by its root
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

PREFIX = 8
SWEEP = ["singular-sweep", "--rmin", "-3", "--rmax", "3", "--max-degree"]
OUTPUTS = [
    ("paper-suite text", ["paper-suite"]),
    ("paper-suite json", ["paper-suite", "--output", "json"]),
    ("sweep-18 csv", SWEEP + ["18"]),
    ("sweep-20 csv", SWEEP + ["20"]),
    ("sweep-22 csv", SWEEP + ["22", "--no-degree-guard"]),
    ("sweep-12 json", SWEEP + ["12", "--output", "json"]),
    ("sweep-18 span-40 json", ["singular-sweep", "--rmin", "-20", "--rmax", "20",
                               "--max-degree", "18", "--output", "json"]),
]


def _run(root: Path, args: list) -> tuple:
    """(exit code, stdout bytes) of python args, with root's src/ first on the path."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *args], env=env, cwd=root, capture_output=True)
    return done.returncode, done.stdout


def _cli(root: Path, argv: list) -> tuple:
    return _run(root, ["-m", "jordan_voa.cli", *argv])


def readme_examples(readme: str) -> list:
    """(label, python args) for each jordan-voa line of the sh blocks and each python block."""
    examples = []
    block = None
    code: list = []
    for line in readme.splitlines():
        if line.startswith("```"):
            if block == "python":
                examples.append(("python", ["-c", "\n".join(code)]))
            block = line[3:] if block is None else None
            code = []
        elif block == "sh" and line.startswith("jordan-voa "):
            argv = shlex.split(line)[1:]
            examples.append((shlex.join(argv), ["-m", "jordan_voa.cli", *argv]))
        elif block == "python":
            code.append(line)
    return examples


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:PREFIX]


def main(argv: list) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    for label, cli_argv in OUTPUTS:
        code, out = _cli(root, cli_argv)
        print(f"{label:18} {digest(out)}  exit {code}")
    whole = hashlib.sha256()
    examples = readme_examples((root / "README.md").read_text(encoding="utf-8"))
    for label, args in examples:
        code, out = _run(root, args)
        whole.update(f"{label}\0{code}\0".encode() + out + b"\0")
    print(f"{'readme examples':18} {whole.hexdigest()[:PREFIX]}  {len(examples)} examples")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
