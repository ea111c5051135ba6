"""The server process of one replica: the real gateway over one workload.

Started by ``run.py`` as ``python server_child.py WORKLOAD DATA_DIR
[TRACE_OUT]``. It builds the workload's enforcer, serves it with
``repro.server.serve`` — one thread shard, durable, every other knob at
its product default — prints the port it bound, and serves until its
stdin closes. With ``TRACE_OUT`` the tracer's wrappers are installed
before the service is built and the spans are written there on the way
out. The child only ever sees the requests the harness sends it.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))


def main(argv: "list[str]") -> int:
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    name, data_dir = argv[1], argv[2]
    trace_out = argv[3] if len(argv) == 4 else None

    from repro.server import serve
    from repro.service import ServiceConfig

    import workloads

    tracer = None
    if trace_out is not None:
        import tracer as tracer_module

        tracer = tracer_module.install()

    enforcer = workloads.build_enforcer(name)
    if tracer is not None:
        tracer.wrap_log_functions(enforcer.registry)
    config = ServiceConfig(
        shards=1,
        workers_mode="thread",
        data_dir=data_dir,
        checkpoint_every=workloads.SPECS[name].checkpoint_every,
    )
    server = serve(enforcer, port=0, config=config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)

    sys.stdin.read()  # the harness closes our stdin to stop us
    if tracer is not None:
        tracer.dump(trace_out)
    # No drain: the harness wants the data directory exactly as the last
    # acknowledged request left it (it recovers from it afterwards).
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
