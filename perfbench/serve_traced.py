"""Run ``repro.cli serve …`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py SPANS.json serve ARTIFACT --listen …

Wraps first, then calls ``repro.cli.main`` with the remaining
arguments; the spans are written to ``SPANS.json`` when the server
exits (SIGINT ends ``serve --listen`` cleanly).
"""

import sys

from spans import SpanRecorder, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    install(recorder)
    import repro.cli

    try:
        return repro.cli.main(argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
