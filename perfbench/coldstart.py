"""Cold start of the ``service`` workload's program side, for ``setup_s``.

Run as ``python3 perfbench/coldstart.py service``: imports the library,
starts the service, the gateway and two client connections (all the
workload needs before its first document can run), prints ``ready``,
tears it down and exits.  The parent times spawn to ready line.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src")]


def main(argv: list[str]) -> int:
    import repro

    if argv[0] == "service":
        service = repro.ParseService(
            repro.ParsePipeline(cache=repro.ParseCache()),
            repro.ServiceConfig(backend_options={"n_jobs": 2}),
        )
        gateway = repro.GatewayServer(service, port=0).start()
        clients = [repro.GatewayClient("127.0.0.1", gateway.port).connect() for _ in range(2)]
        print("ready", flush=True)
        for client in clients:
            client.close()
        gateway.stop()
        service.close()
        return 0
    print(f"unknown cold start {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
