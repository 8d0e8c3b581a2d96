#!/usr/bin/env python3
"""Builds simbench from source, then runs it with the given arguments.

    python3 simbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Run from the repository root. Cargo output goes to stderr; the benchmark's
own output (header lines, then one JSON result line) goes to stdout. A
traced run (`--trace 1`) also writes its spans, as tab-separated lines,
under the cargo target directory unless `--spans FILE` is given.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def arg(args, flag):
    """The value following `flag` in `args`, or None."""
    if flag in args[:-1]:
        return args[args.index(flag) + 1]
    return None


def ensure_repo_link():
    """Creates `.repo`, the link to the repository root Cargo.toml reaches
    the crates through (see the comment there)."""
    link = os.path.join(HERE, ".repo")
    if not os.path.islink(link):
        os.symlink("..", link)


def main():
    ensure_repo_link()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    args = sys.argv[1:]
    if arg(args, "--trace") == "1" and arg(args, "--spans") is None:
        spans = os.path.join(target, "simbench-spans")
        os.makedirs(spans, exist_ok=True)
        name = "{}-seed{}.tsv".format(arg(args, "--workload"), arg(args, "--seed"))
        args += ["--spans", os.path.join(spans, name)]
    return subprocess.run([os.path.join(target, "release", "simbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
