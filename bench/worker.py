"""One run in a fresh interpreter: set-up, then one `run_command` call.

    python3 bench/worker.py SCENARIO COMMAND OUT_DIR MODE [SPANS_FILE]

MODE is `setup` (set-up only), `run` (untraced) or `trace`. The last line
of standard output is a JSON object with the run's measurements, raw, and
the mean time of the calibration kernel run just before and just after them.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    scenario, command, out_dir, mode = argv[:4]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from calibrate import kernel_seconds

    calib_before = kernel_seconds()  # before qroute is imported
    t0 = time.perf_counter()
    import qroute.cli
    from qroute.scenario import apply_overrides, parse_scenario

    apply_overrides(parse_scenario(scenario), {})
    setup_s = time.perf_counter() - t0
    if not Path(qroute.cli.__file__).resolve().is_relative_to(SRC):
        print(f"qroute imported from {qroute.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if mode != "setup":
        result.update(run(command, scenario, out_dir, mode, argv[4:]))
    gc.freeze()  # the program's objects stay out of the kernel's collections
    result["calib_s"] = (calib_before + kernel_seconds()) / 2
    print(json.dumps(result))
    return 0


def run(command: str, scenario: str, out_dir: str, mode: str, spans: list[str]) -> dict:
    import qroute.cli

    run_argv = [command, "--scenario", scenario, "--out", out_dir]
    tracer = None
    if mode == "trace":
        import qroute.analytics
        from tracing import ROOT, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        counters = getattr(qroute.analytics, "counters", None)
        merge_before = getattr(counters, "heralded_merge_ops", None)
        t1 = time.perf_counter()
        rc = tracer.call(ROOT, qroute.cli.run_command, run_argv)
        wall_s = time.perf_counter() - t1
    else:
        t1 = time.perf_counter()
        rc = qroute.cli.run_command(run_argv)
        wall_s = time.perf_counter() - t1
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        merge_ops = None
        if merge_before is not None:
            merge_ops = counters.heralded_merge_ops - merge_before
        result["layers"] = layer_metrics(
            tracer.spans, wall_s, tracer.neighbor_calls, merge_ops
        )
        Path(spans[0]).write_text(json.dumps(tracer.to_json()))
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
