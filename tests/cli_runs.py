"""Run semlink commands into temporary directories and compare their outputs.

run(args, names) runs `semlink *args` into a fresh temporary directory and
returns the named output files, each as a list of byte lines.
assert_runs_match runs two commands, each into its own directory, and checks
every named file of the second against the first's, byte for byte, after an
optional expect(name, lines) maps the first run's lines to the lines the
second must write (a sub-grid's rows, say).  Runs are deterministic, so
assert_runs_match keeps each command's outputs for the next check.
"""

import tempfile
from functools import lru_cache
from pathlib import Path

from semlink.cli import main


def run(args, names) -> dict:
    with tempfile.TemporaryDirectory() as out:
        assert main([*args, "--out", out]) == 0, args
        return {name: (Path(out) / name).read_bytes().splitlines(keepends=True) for name in names}


_cached_run = lru_cache(maxsize=64)(run)


def assert_runs_match(args, other, names, expect=lambda name, lines: lines) -> None:
    first, second = (_cached_run(tuple(a), tuple(names)) for a in (args, other))
    for name in names:
        assert b"".join(second[name]) == b"".join(expect(name, first[name])), name
