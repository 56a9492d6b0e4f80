#!/usr/bin/env python
"""The Table IV programming API, mirroring the paper's Scala usage example.

Walks one shuffle through the eight Table IV calls — hook, aggregate, add,
scheduling, alloc, push, pull, remove — with real payload bytes that get
genuinely compressed (zlib standing in for LZ4) on the push path and
decompressed on pull.

Run:  python examples/swallow_api_shuffle.py
"""

from repro.core.flow import Flow
from repro.swallow import BlockId, Executor, SwallowContext
from repro.units import bytes_to_human


def main() -> None:
    # val sc = new SwallowContext()
    SwallowContext.reset_instance()
    sc = SwallowContext(
        num_nodes=4, bandwidth=50_000.0, smart_compress=True,
        real_compression=True,
    )
    # ... and the singleton accessor: SwallowContext.getInstance()
    assert SwallowContext.get_instance() is sc

    # A map-side executor with two reduce fetches pending.
    payloads = {
        0: b"shuffle-partition-0 " * 2000,
        1: b"shuffle-partition-1 " * 3000,
    }
    executor = Executor(
        node=0,
        pending_flows=[
            Flow(src=0, dst=1, size=float(len(payloads[0]))),
            Flow(src=0, dst=2, size=float(len(payloads[1]))),
        ],
    )

    # val flowInfo = sc.hook(executor); val coflowInfo = sc.aggregate(...)
    flow_info = sc.hook(executor)
    coflow_info = sc.aggregate(flow_info, label="stage-3-shuffle")
    ref = sc.add(coflow_info)
    print(f"registered coflow {ref.coflow_id} "
          f"({coflow_info.width} flows, {bytes_to_human(coflow_info.size)})")

    # val schResult = sc.scheduling(...); alloc(schResult)
    plan = sc.scheduling([ref])
    print(f"plan: order={plan.order}, "
          f"compress={{{', '.join(f'{k}:{v}' for k, v in plan.compress.items())}}}")
    sc.alloc(plan)

    # Senders push; receivers pull (time-decoupled).
    blocks = {i: BlockId() for i in payloads}
    for i, data in payloads.items():
        msg = sc.push(ref, blocks[i], data)
        print(f"pushed block {msg.block_id.value}: "
              f"{bytes_to_human(len(data))} -> {bytes_to_human(msg.payload_size)}"
              f" (compressed={msg.compressed})")

    for i in payloads:
        got = sc.pull(ref, blocks[i])
        assert got == payloads[i], "round-trip corruption!"
        print(f"pulled block {blocks[i].value}: intact, "
              f"{bytes_to_human(len(got))}")

    # sc.remove(coflowRef)
    sc.remove(ref)
    res = sc.results()
    print(f"\ncoflow finished at t={res.coflow_results[0].finish:.2f}s, "
          f"traffic reduction {res.traffic_reduction * 100:.1f}%")


if __name__ == "__main__":
    main()
