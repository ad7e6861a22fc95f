"""Layer spans inside the router's worker processes, for a traced run.

The benchmark puts this directory on the workers' PYTHONPATH and names an
output directory in ``PERFBENCH_SPANS_DIR``; the interpreter imports this
module at start-up.  It patches the same entry points as the benchmark's
own process (``spans.LAYERS``), records only requests whose trace id the
benchmark marked ``traced-``, and writes the spans when the worker exits.
"""

import os

if os.environ.get("PERFBENCH_SPANS_DIR"):
    import atexit
    import json
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    import spans as _spans

    import repro.service  # noqa: F401  (binds every layer's names first)
    from repro.service.core import AnalysisService

    _recorder = _spans.Recorder()
    _recorder.install()
    _submit = AnalysisService.submit

    def _toggled_submit(self, request, *args, **kwargs):
        if request.get("type") not in _spans.CONTROL_PLANE:
            _recorder.enabled = str(request.get("trace_id", "")).startswith("traced-")
        return _submit(self, request, *args, **kwargs)

    AnalysisService.submit = _toggled_submit

    def _dump(out=Path(os.environ["PERFBENCH_SPANS_DIR"])):
        rows = [(s.name, s.start, s.end) for s in _recorder.spans]
        path = out / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": rows, "counts": dict(_recorder.counts)}))

    atexit.register(_dump)
