"""Launch ``repro serve`` in this process, optionally with layer spans.

    python3 -u serve_child.py [--trace] -- <repro serve arguments>

With ``--trace`` the layer spans of :mod:`tracer` are installed before the
server starts.  After the server shuts down the spans are written once to
``.perfbench/`` under one run id, and their per-name summary is printed as
one ``# spans {...}`` line.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, ROOT, use_program  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    trace = "--trace" in argv[:split]
    use_program()
    import repro.cli

    tracer = None
    if trace:
        from tracer import Tracer, install_layer_spans

        tracer = Tracer()
        install_layer_spans(tracer)
    code = repro.cli.main(argv[split + 1:])
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-serve-mixed-{tracer.run_id}.jsonl"
        tracer.write(path, workload="serve-mixed")
        print(f"# trace {path.relative_to(ROOT)}", flush=True)
        print("# spans " + json.dumps(tracer.summary()), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
