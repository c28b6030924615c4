"""Golden shell transcripts: what a script prints, pinned byte for byte.

Every shell command renders from the session's structured values, so a
change to how the session paces its engine must leave each transcript
untouched.  Each case replays one ``.nfsh`` script through
:func:`~repro.shell.repl.run_script` on a default session (the one
``nf-mon shell --script FILE`` builds) and compares stdout with the
``.out`` file beside it in ``tests/data``:

* ``examples/abilene_reroute.nfsh`` — the FRR walkthrough;
* ``tests/data/shell_pacing.nfsh`` — step, run-until inside and past
  the run, warp off / on, pause, status / stats / metrics, a finish
  that drains the rest mid-run, fingerprints.

Regenerate after an intended change with
``PYTHONPATH=src python -m tests.test_shell_golden --write`` and review
the diff.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

from repro.shell import ShellSession, run_script

pytestmark = pytest.mark.shell

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).with_name("data")

SCRIPTS = {
    "abilene_reroute": ROOT / "examples" / "abilene_reroute.nfsh",
    "shell_pacing": DATA / "shell_pacing.nfsh",
}


def transcript(script: Path) -> str:
    out, err = io.StringIO(), io.StringIO()
    lines = script.read_text(encoding="utf-8").splitlines(keepends=True)
    code = run_script(ShellSession(), lines, out=out, err=err)
    assert code == 0, err.getvalue()
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_transcript_matches_the_golden_file(name):
    golden = (DATA / f"{name}.out").read_text(encoding="utf-8")
    assert transcript(SCRIPTS[name]) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_shell_golden --write")
    for name, script in sorted(SCRIPTS.items()):
        path = DATA / f"{name}.out"
        path.write_text(transcript(script), encoding="utf-8")
        print(f"wrote {path}")
