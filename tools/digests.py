"""Print the sha256 of every data file the shipped configs write.

Runs each ``configs/*.ini`` through ``ssrc.cli.run_experiment`` once as
CSV and once as JSON, at the config's own seed, in a temporary directory,
and prints one ``<sha256>  <format>/<file>`` line per data file (the
``.meta.json`` sidecars carry timestamps and are left out).  Two commits
produce the same data iff they print the same lines.

``tests/fixtures/digests.txt`` pins this output, and a test compares
``digest_lines`` against it.  A change meant to alter the data rewrites
that file with this script's output.

Run from the repository root:

    PYTHONPATH=src python3 tools/digests.py
"""

import dataclasses
import hashlib
import pathlib
import tempfile
from typing import Iterator

from ssrc.cli import load_config, run_experiment

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def digest_lines(out_dir: str | pathlib.Path) -> Iterator[str]:
    """Run every shipped config under ``out_dir``; yield one line per
    data file."""
    for path in sorted(CONFIGS.glob("*.ini")):
        config = load_config(path)
        for fmt in ("csv", "json"):
            written = run_experiment(
                dataclasses.replace(config, fmt=fmt),
                pathlib.Path(out_dir) / fmt,
            )
            data = written[0]
            digest = hashlib.sha256(data.read_bytes()).hexdigest()
            yield f"{digest}  {fmt}/{data.name}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for line in digest_lines(tmp):
            print(line, flush=True)


if __name__ == "__main__":
    main()
