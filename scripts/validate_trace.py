#!/usr/bin/env python3
"""Validate a dapsp Chrome-trace JSON file (stdlib only).

Usage: validate_trace.py trace.json [metrics.json]

Checks that the trace parses, has a non-empty "traceEvents" array, and that
event timestamps (ts = CONGEST round) are non-decreasing in file order — the
ordering guarantee of the sharded trace collector (DESIGN.md section 12).
"corrupt" events (a fault-plan single-bit payload flip, DESIGN.md section
13) are validated structurally: each must name the edge it happened on and
carry a plausible flipped-bit index. "delta" / "epoch" events (the
long-running service's churn stream and per-epoch repair outcomes, DESIGN.md
section 14) are validated against their aux encodings. With a second
argument, also checks the --metrics-out JSON shape, and cross-checks event
counts against the run's counters: corrupt events vs "messages_corrupted",
and — for a dapsp_service run — delta/crash/epoch events vs the
service_deltas / service_crashes / service_epochs / service_scrubs counters.
"shed" / "breaker" events (the resilience layer's explicit load-shedding
decisions and repair-circuit-breaker state changes, DESIGN.md section 18)
are validated against their encodings and cross-checked per shed reason
against the resilience_shed_* counters and the
service_breaker_transitions counter.
"""
import json
import sys

# kTagBits + kMaxFields * widest value_bits (8 + 5*32): no flipped-bit index
# can lie beyond the widest possible wire image.
MAX_WIRE_BITS = 8 + 5 * 32

# kDelta aux encoding (core/service.cc): low byte = DeltaKind (0..3), bit 8
# marks an unannounced crash (only ever set on a node-leave).
DELTA_CRASH_BIT = 0x100
NODE_LEAVE = 3
MAX_EPOCH_OUTCOME = 4  # clean / repaired / retried / escalated / suppressed

# kShed aux = ShedReason (core/resilience.h): rate / queue-full / queue-wait.
MAX_SHED_REASON = 2
# kBreaker node/peer = BreakerState: closed / open / half-open.
MAX_BREAKER_STATE = 2


def fail(msg: str) -> None:
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_corrupt_event(i: int, ev: dict) -> None:
    args = ev.get("args")
    if not isinstance(args, dict):
        fail(f"corrupt event {i} has no args")
    for key in ("node", "peer"):
        if not isinstance(args.get(key), int):
            fail(f"corrupt event {i} missing int {key!r} (edge unknown)")
    # The writer omits aux when it is 0 (flipped bit 0).
    aux = args.get("aux", 0)
    if not isinstance(aux, int) or not 0 <= aux < MAX_WIRE_BITS:
        fail(f"corrupt event {i}: flipped-bit index {aux!r} not in "
             f"[0, {MAX_WIRE_BITS})")
    if not isinstance(args.get("msg_kind"), int):
        fail(f"corrupt event {i} missing int 'msg_kind'")


def check_delta_event(i: int, ev: dict) -> bool:
    """Validates one service churn event; returns True for a crash-leave."""
    args = ev.get("args")
    if not isinstance(args, dict):
        fail(f"delta event {i} has no args")
    if not isinstance(args.get("node"), int):
        fail(f"delta event {i} missing int 'node'")
    aux = args.get("aux", 0)
    kind = aux & 0xFF
    if aux & ~(DELTA_CRASH_BIT | 0xFF):
        fail(f"delta event {i}: unknown aux bits in {aux:#x}")
    if kind > NODE_LEAVE:
        fail(f"delta event {i}: delta kind {kind} out of range")
    crash = bool(aux & DELTA_CRASH_BIT)
    if crash and kind != NODE_LEAVE:
        fail(f"delta event {i}: crash bit on a non-leave delta (aux {aux:#x})")
    # Node join/leave deltas are self-events (peer == node).
    if kind >= 2 and args.get("peer") != args["node"]:
        fail(f"delta event {i}: node delta with peer != node")
    return crash


def check_journal_event(i: int, ev: dict) -> int:
    """Validates one WAL-append event; returns the payload byte count."""
    args = ev.get("args")
    if not isinstance(args, dict):
        fail(f"journal event {i} has no args")
    if not isinstance(args.get("node"), int):
        fail(f"journal event {i} missing int 'node' (record index)")
    payload = args.get("peer", 0)
    if not isinstance(payload, int) or payload <= 0:
        fail(f"journal event {i}: payload byte count {payload!r} not positive")
    return payload


# kRecovery aux bits (core/durable.h): generation fallback, journal tail
# truncated, fresh start.
RECOVERY_AUX_MASK = 0x7


def check_recovery_event(i: int, ev: dict) -> int:
    """Validates one recovery event; returns the replayed-batch count."""
    args = ev.get("args")
    if not isinstance(args, dict):
        fail(f"recovery event {i} has no args")
    aux = args.get("aux", 0)
    if not isinstance(aux, int) or aux & ~RECOVERY_AUX_MASK:
        fail(f"recovery event {i}: unknown aux bits in {aux!r}")
    replayed = args.get("peer", 0)
    if not isinstance(replayed, int) or replayed < 0:
        fail(f"recovery event {i}: replayed-batch count {replayed!r} bad")
    # node carries the checkpoint epoch, ts/round the recovered epoch; the
    # journal can only move the epoch forward.
    if isinstance(args.get("node"), int) and isinstance(ev.get("ts"), int):
        if args["node"] > ev["ts"]:
            fail(f"recovery event {i}: checkpoint epoch {args['node']} "
                 f"beyond recovered epoch {ev['ts']}")
    return replayed


def check_epoch_event(i: int, ev: dict) -> None:
    args = ev.get("args")
    if not isinstance(args, dict):
        fail(f"epoch event {i} has no args")
    outcome = args.get("aux", 0)
    if not isinstance(outcome, int) or not 0 <= outcome <= MAX_EPOCH_OUTCOME:
        fail(f"epoch event {i}: outcome {outcome!r} out of range")
    if not isinstance(args.get("peer", 0), int):
        fail(f"epoch event {i}: suspect-row count missing")


def check_shed_event(i: int, ev: dict) -> int:
    """Validates one load-shed event; returns the ShedReason."""
    args = ev.get("args")
    if not isinstance(args, dict):
        fail(f"shed event {i} has no args")
    if not isinstance(args.get("node"), int):
        fail(f"shed event {i} missing int 'node' (request id)")
    cls = args.get("peer")
    if not isinstance(cls, int) or not 0 <= cls <= 2:
        fail(f"shed event {i}: priority class {cls!r} not in [0, 2]")
    reason = args.get("aux", 0)
    if not isinstance(reason, int) or not 0 <= reason <= MAX_SHED_REASON:
        fail(f"shed event {i}: shed reason {reason!r} out of range")
    return reason


def check_breaker_event(i: int, ev: dict) -> None:
    args = ev.get("args")
    if not isinstance(args, dict):
        fail(f"breaker event {i} has no args")
    new = args.get("node")
    prev = args.get("peer", 0)
    for label, state in (("new", new), ("previous", prev)):
        if not isinstance(state, int) or not 0 <= state <= MAX_BREAKER_STATE:
            fail(f"breaker event {i}: {label} state {state!r} out of range")
    if new == prev:
        fail(f"breaker event {i}: state change to the same state {new}")
    count = args.get("aux", 0)
    if not isinstance(count, int) or count < 1:
        fail(f"breaker event {i}: cumulative transition count {count!r} bad")


def main() -> None:
    if len(sys.argv) < 2:
        fail("usage: validate_trace.py trace.json [metrics.json]")

    with open(sys.argv[1]) as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")
    prev = None
    corrupt_events = 0
    delta_events = crash_events = epoch_events = 0
    journal_events = recovery_events = 0
    journal_payload_bytes = replayed_batches = 0
    shed_by_reason = [0, 0, 0]  # rate / queue-full / queue-wait
    breaker_events = 0
    for i, ev in enumerate(events):
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            fail(f"event {i} has no numeric ts")
        if prev is not None and ts < prev:
            fail(f"ts decreases at event {i}: {prev} -> {ts}")
        prev = ts
        cat = ev.get("cat")
        if cat == "corrupt":
            corrupt_events += 1
            check_corrupt_event(i, ev)
        elif cat == "delta":
            if check_delta_event(i, ev):
                crash_events += 1
            else:
                delta_events += 1
        elif cat == "epoch":
            epoch_events += 1
            check_epoch_event(i, ev)
        elif cat == "journal":
            journal_events += 1
            journal_payload_bytes += check_journal_event(i, ev)
        elif cat == "recovery":
            recovery_events += 1
            replayed_batches += check_recovery_event(i, ev)
        elif cat == "shed":
            shed_by_reason[check_shed_event(i, ev)] += 1
        elif cat == "breaker":
            breaker_events += 1
            check_breaker_event(i, ev)

    if len(sys.argv) > 2:
        with open(sys.argv[2]) as f:
            metrics = json.load(f)
        for key in ("counters", "histograms"):
            if key not in metrics:
                fail(f"metrics JSON missing {key!r}")
        for name, hist in metrics["histograms"].items():
            if hist["total"] != sum(int(c) for c in hist["counts"].values()):
                fail(f"histogram {name!r}: total != sum of counts")
        # Per-node Chrome traces carry every corrupt event, so when the two
        # artifacts come from the same run the counts must agree.
        want = metrics["counters"].get("messages_corrupted")
        if want is not None and int(want) != corrupt_events:
            fail(f"messages_corrupted counter {want} != "
                 f"{corrupt_events} corrupt trace events")
        # A dapsp_service run emits one kDelta event per applied delta (the
        # crash bit marking unannounced leaves) and one kEpoch event per
        # step() or scrub(); the service counters must agree exactly.
        counters = metrics["counters"]
        for name, got in (("service_deltas", delta_events),
                          ("service_crashes", crash_events)):
            want = counters.get(name)
            if want is not None and int(want) != got:
                fail(f"{name} counter {want} != {got} trace events")
        epochs = counters.get("service_epochs")
        scrubs = counters.get("service_scrubs")
        if epochs is not None and scrubs is not None:
            want_epochs = int(epochs) + int(scrubs)
            if want_epochs != epoch_events:
                fail(f"service_epochs + service_scrubs = {want_epochs} != "
                     f"{epoch_events} epoch trace events")
        # Durable-mode runs emit one kJournal event per acknowledged append
        # and one kRecovery event per recover(); the counters must agree
        # (all are per-process, like the trace itself).
        for name, got in (("service_journal_appends", journal_events),
                          ("service_recoveries", recovery_events),
                          ("service_batches_replayed", replayed_batches)):
            want = counters.get(name)
            if want is not None and int(want) != got:
                fail(f"{name} counter {want} != {got} from trace events")
        # Each on-disk record is its payload plus a 12-byte len+checksum
        # frame (util/journal.h).
        want = counters.get("service_journal_bytes")
        if want is not None and journal_events and \
                int(want) != journal_payload_bytes + 12 * journal_events:
            fail(f"service_journal_bytes counter {want} != "
                 f"{journal_payload_bytes} payload + 12*{journal_events}")
        # The resilience layer emits one kShed event per refused request;
        # every shed decision must be visible in BOTH the trace and the
        # per-reason counters (a SimReport::to_metrics export), and they
        # must agree.
        for name, got in (("resilience_shed_rate", shed_by_reason[0]),
                          ("resilience_shed_queue_full", shed_by_reason[1]),
                          ("resilience_shed_queue_wait", shed_by_reason[2]),
                          ("resilience_shed_total", sum(shed_by_reason))):
            want = counters.get(name)
            if want is not None and int(want) != got:
                fail(f"{name} counter {want} != {got} shed trace events")
        # One kBreaker event per observed state change.
        want = counters.get("service_breaker_transitions")
        if want is not None and int(want) != breaker_events:
            fail(f"service_breaker_transitions counter {want} != "
                 f"{breaker_events} breaker trace events")

    print(f"validate_trace: OK ({len(events)} events, "
          f"{corrupt_events} corrupt, {delta_events} delta, "
          f"{crash_events} crash, {epoch_events} epoch, "
          f"{journal_events} journal, {recovery_events} recovery, "
          f"{sum(shed_by_reason)} shed, {breaker_events} breaker)")


if __name__ == "__main__":
    main()
