"""Run one finiteqg CLI command with span recording, for traced cli runs.

    python3 perfbench/cli_child.py <spans.json> <cli arguments ...>

Installs the same wrappers as a traced in-process run before calling
``finiteqg.cli.main``, writes the recorded spans to ``spans.json`` and
exits with the command's exit code.  Run from the checkout root.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import spans  # noqa: E402
import finiteqg.cli  # noqa: E402

if __name__ == "__main__":
    recorder = spans.Recorder().install()
    code = finiteqg.cli.main(sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps(recorder.spans))
    sys.exit(code)
