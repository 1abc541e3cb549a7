"""The README's complete run, command by command, as written.

    python scripts/readme_run.py [--workdir DIR]

Takes every `counterlink ...` command from the README's fenced blocks, with
its continuation lines joined, and runs each in turn as
`python -m counterlink.cli ...` inside DIR (a fresh temporary directory by
default), so the README's relative paths land there. Prints each command's
output and seconds, and exits 1 at the first command that exits non-zero.
"""

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands(readme=ROOT / "README.md"):
    """Every `counterlink ...` command in the README's fenced blocks, with
    its continuation lines joined."""
    blocks = Path(readme).read_text(encoding="utf-8").split("```")[1::2]
    return [cmd for block in blocks for cmd in block.replace("\\\n", " ").splitlines()
            if cmd.startswith("counterlink ")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args()
    workdir = args.workdir or tempfile.mkdtemp(prefix="readme-run-")
    os.makedirs(workdir, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    commands = readme_commands()
    for cmd in commands:
        print(f"$ {cmd}", flush=True)
        t0 = time.perf_counter()
        code = subprocess.run([sys.executable, "-m", "counterlink.cli", *shlex.split(cmd)[1:]],
                              cwd=workdir, env=env).returncode
        print(f"  exit {code} after {time.perf_counter() - t0:.1f} s", flush=True)
        if code != 0:
            return 1
    print(f"{len(commands)} commands ran in {workdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
