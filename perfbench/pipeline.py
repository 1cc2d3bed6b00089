"""One benchmark round in a fresh process: set-up, then train -> summarize -> evaluate.

    python3 perfbench/pipeline.py --config exp.cfg --result r.json [--trace spans.json]

Set-up is ``import covsum``, ``load_corpus`` and ``build_vocabulary``, the
work every covsum command repeats before its own. The stages are the
harness's ``cmd_*`` functions, exactly as the CLI calls them. The result file
holds ``time.monotonic()`` stamps (one clock for the whole machine, so the
parent can time from before it started this process) and this process's
peak RSS. With ``--trace`` the harness's imports are wrapped (see
tracing.py) and the spans are written when the round ends.

The parent runs this with ``src`` on PYTHONPATH and BLAS pools held to one
thread; this process starts no threads or processes of its own.
"""

import argparse
import json
import resource
import time

import covsum.harness as harness


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(harness)
    stamps = {}
    config = harness.load_experiment_config(args.config)
    docs = harness.load_corpus(config.corpus_path)
    harness.build_vocabulary(docs)
    stamps["setup"] = time.monotonic()

    for stage in ("train", "summarize", "evaluate"):
        command = getattr(harness, f"cmd_{stage}")
        begin = time.monotonic()
        if tracer:
            with tracer.span(f"cmd_{stage}"):
                command(config)
        else:
            command(config)
        stamps[stage] = [begin, time.monotonic()]

    if tracer:
        tracer.dump(args.trace)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"stamps": stamps, "peak_rss_kib": peak_kib}, fh)


if __name__ == "__main__":
    main()
