"""Standalone per-layer measurements of the traced pass.

Kernels and the receive path cannot be spanned in place without
editing ``repro`` (the engine calls the kernels as module functions;
the receive path runs in a daemon), so the traced pass measures them
next to the run instead: same columns, same batch-sized calls, same
frame sizes, on a scratch deployment in this process.
"""

from __future__ import annotations

import gen
from harness import clock, median
from lanes import fresh_registry, inproc_rep
from spans import NULL
from repro.core.cluster import ClusterMap
from repro.core.translator import Translator
from repro.kernels import burst as kburst
from repro.kernels import crc as kcrc
from repro.kernels import wire as kwire
from repro.transport.assembler import ReportAssembler
from repro.transport.daemons import provision_collector
from repro.transport.envelope import ENVELOPE, Reassembler, unwrap, wrap_frame

#: Reports per primitive the kernel loops visit (fixed, so the numbers
#: compare across commits whatever the workload size).
KERNEL_CAP = 200_000
PER_REPORT_N = 5_000
LADDER_REPS = 3
#: Datagrams per receive burst in the daemon (its decode batch width).
RECV_BURST = 256


def kernel_times(inp: dict, scale: float) -> dict:
    """pack_keys / hash_lanes / burst apply over the run's keyed columns."""
    out = {"kernels.crc.pack_keys_s": 0.0, "kernels.crc.hash_lanes_s": 0.0,
           "kernels.burst.apply_s": 0.0}
    works, batch_size = inp["works"], inp["batch"]
    cap = max(batch_size, int(KERNEL_CAP * scale))
    with fresh_registry():
        collector, translator, _reporter = gen.deploy(inp["sketch_width"])
        client = translator.client
        targets = {
            "key_write": kburst.resolve_target(
                client, collector.keywrite.region.rkey),
            "key_increment": kburst.resolve_target(
                client, collector.keyincrement.region.rkey, atomic=True)}
        for primitive, target in targets.items():
            cols = works.get(primitive)
            if not cols or target is None:
                continue
            n = min(cap, len(cols["keys"]))
            for s in range(0, n, batch_size):
                e = min(s + batch_size, n)
                keys = cols["keys"][s:e]
                t0 = clock()
                packed, lengths = kcrc.pack_keys(keys)
                t1 = clock()
                kcrc.hash_lanes(2, packed, lengths)
                t2 = clock()
                out["kernels.crc.pack_keys_s"] += t1 - t0
                out["kernels.crc.hash_lanes_s"] += t2 - t1
                batch = gen.make_batch(primitive, cols, s, e)
                if primitive == "key_write":
                    plan = translator.plan_vector_keywrite(batch, target)
                    apply = kburst.write_rows
                else:
                    plan = translator.plan_vector_keyincrement(batch, target)
                    apply = kburst.fetch_add_many
                if plan is None:
                    continue
                t3 = clock()
                apply(target, client, *plan)
                out["kernels.burst.apply_s"] += clock() - t3
    return out


def per_report_rps(seed: int, scale: float) -> float:
    """``Reporter.key_write`` -> ``handle_report``, one report at a time."""
    n = max(200, int(PER_REPORT_N * scale))
    cols = gen.columns("key_write", n, seed)
    with fresh_registry():
        _collector, _translator, reporter = gen.deploy()
        start = clock()
        for key, data in zip(cols["keys"], cols["datas"]):
            reporter.key_write(key, data, redundancy=2)
        return n / (clock() - start)


def _frames(inp: dict) -> list:
    """The datagrams the reporter would emit: shim, then greedy frames."""
    spec = inp["spec"]
    shim = spec.loss.shim()
    survivors = shim.step_many(inp["raws"]) + shim.flush()
    budget = max(1, spec.frame_bytes - ENVELOPE.size - 2)
    frames, pending, used = [], [], 0
    for raw in survivors:
        cost = 2 + len(raw)
        if pending and used + cost > budget:
            frames.append(wrap_frame(len(frames), pending))
            pending, used = [], 0
        pending.append(raw)
        used += cost
    if pending:
        frames.append(wrap_frame(len(frames), pending))
    return frames


def wire_decode_s(inp: dict) -> float:
    """split_frame + parse_headers + the primitive's column decode, one
    receive burst of frames per decode (the daemon's batch shape)."""
    import numpy as np

    decode = {"key_write": kwire.decode_keywrite,
              "append": kwire.decode_append}[inp["spec"].primitive]
    payloads = [unwrap(datagram)[2] for datagram in _frames(inp)]
    total = 0.0
    for index in range(0, len(payloads), RECV_BURST):
        burst = payloads[index:index + RECV_BURST]
        joined = b"".join(burst)
        start = clock()
        offs, lens, base = [], [], 0
        for payload in burst:
            _buf, offsets, lengths = kwire.split_frame(payload)
            offs.append(offsets + base)
            lens.append(lengths)
            base += len(payload)
        buf = np.frombuffer(joined, dtype=np.uint8)
        offsets, lengths = np.concatenate(offs), np.concatenate(lens)
        kwire.parse_headers(buf, offsets, lengths)
        decode(buf, offsets, lengths)
        total += clock() - start
    return total


def replay(inp: dict, landed: int) -> dict:
    """The receive path offline: ``Reassembler.push`` ->
    ``ReportAssembler.feed_frames`` -> in-process translators.

    Same frames, same burst width, same vectorized translators as the
    daemon; the decoded report count must equal the live run's.
    """
    spec = inp["spec"]
    frames = _frames(inp)
    with fresh_registry():
        translators = []
        for shard in range(spec.collectors):
            collector = provision_collector(f"replay-{shard}",
                                            sketch_width=spec.sketch_width)
            translator = Translator(f"replay-t{shard}",
                                    vectorized=spec.vectorized)
            collector.connect_translator(translator)
            translators.append(translator)
        assembler = ReportAssembler(translators,
                                    ClusterMap(collectors=spec.collectors),
                                    batch_size=spec.batch_size)
        reassembler = Reassembler()
        reassemble_s = feed_s = 0.0
        for start_index in range(0, len(frames), RECV_BURST):
            burst = frames[start_index:start_index + RECV_BURST]
            t0 = clock()
            run = [payload for datagram in burst
                   for _kind, payload in reassembler.push(datagram)]
            t1 = clock()
            assembler.feed_frames(run)
            feed_s += clock() - t1
            reassemble_s += t1 - t0
        t0 = clock()
        assembler.finish()
        feed_s += clock() - t0
        if assembler.reports != landed or assembler.malformed:
            raise AssertionError(
                f"offline replay decoded {assembler.reports} reports, the "
                f"live run landed {landed}")
        return {"transport.envelope.reassemble_s": reassemble_s,
                "transport.assembler.feed_frames_s": feed_s}


def _ladder_rates(cfg, inp, rss, ckpt_dir, engine_kw) -> list:
    rates = []
    for _ in range(LADDER_REPS):
        rep = inproc_rep(cfg, inp, NULL, rss, ckpt_dir,
                         engine_kw=engine_kw, read_phase=False)
        if rep["failures"]:
            raise AssertionError(f"ladder lane {engine_kw}: "
                                 + "; ".join(rep["failures"]))
        rates.append(rep["landed"] / rep["wall_s"])
    return rates


def lane_ladder(cfg, inp, rss, ckpt_dir, *, prefix: int, lanes: dict) -> dict:
    """The same input prefix on several executors, three reps each."""
    cut = dict(inp)
    cut["schedule"] = inp["schedule"][:max(1, prefix // inp["batch"])]
    out = {}
    for metric, engine_kw in lanes.items():
        rates = _ladder_rates(cfg, cut, rss, ckpt_dir, engine_kw)
        out[metric] = median(rates)
        if metric == "runtime.lane.thread2_rps":
            out["runtime.lane.thread2_spread"] = max(rates) / min(rates)
    return out
