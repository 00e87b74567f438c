"""Print the sha256 of every data file the shipped configs write.

Runs each ``configs/*.ini`` through ``ssrc.cli.run_experiment`` once as
CSV and once as JSON, at the config's own seed, in a temporary directory,
and prints one ``<sha256>  <format>/<file>`` line per data file (the
``.meta.json`` sidecars carry timestamps and are left out).  Two commits
produce the same data iff they print the same lines.

Run from the repository root:

    PYTHONPATH=src python3 tools/digests.py
"""

import dataclasses
import hashlib
import pathlib
import tempfile

from ssrc.cli import load_config, run_experiment

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(CONFIGS.glob("*.ini")):
            config = load_config(path)
            for fmt in ("csv", "json"):
                written = run_experiment(
                    dataclasses.replace(config, fmt=fmt),
                    pathlib.Path(tmp) / fmt,
                )
                data = written[0]
                digest = hashlib.sha256(data.read_bytes()).hexdigest()
                print(f"{digest}  {fmt}/{data.name}", flush=True)


if __name__ == "__main__":
    main()
