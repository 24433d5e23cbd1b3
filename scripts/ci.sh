#!/bin/sh
# Minimal CI: build, run the full test suite, then smoke-test the bus
# fast path — the decision cache must actually hit and actually speed the
# checked bus up, and the deterministic experiments must not move.
set -eu
cd "$(dirname "$0")/.."

# Run a command that must fail with exit status exactly 1 (a typed
# refusal), not merely non-zero.
expect_exit_1() {
  st=0
  "$@" > /dev/null 2>&1 || st=$?
  if [ "$st" != 1 ]; then
    echo "expected exit 1, got $st: $*"
    exit 1
  fi
}

dune build
dune runtest --force

# Bus smoke: a short run (BUS_ITERS keeps CI fast) that still exercises
# unchecked/cached/uncached on all three architectures and writes
# BENCH_bus.json; fail if the cache is cold or the speedup is gone. The
# gate reads the paired speedup: the median over 9 interleaved rounds of
# each round's uncached time over its cached time, so drift that spans a
# round cancels and one loaded sweep cannot move it.
BUS_ITERS=${BUS_ITERS:-100000} dune exec bench/main.exe -- bus
python3 - <<'EOF'
import json
with open("BENCH_bus.json") as f:
    data = json.load(f)
for row in data["archs"]:
    assert row["hit_rate"] > 0.9, f"{row['arch']}: decision cache cold ({row['hit_rate']})"
    assert row["paired_speedup"] > 2.0, f"{row['arch']}: fast path regressed ({row['paired_speedup']}x paired)"
print("bus smoke ok:", ", ".join(f"{r['arch']} {r['paired_speedup']}x paired ({r['speedup']}x single) @ {r['hit_rate']:.0%}" for r in data["archs"]))
EOF

# Icache smoke: the decode/block cache must actually hit, the hot loop
# must run through its trace links, and the warm (trace-linked) engine
# must beat the cold (uncached) one by >= 6x on every architecture.
ICACHE_ITERS=${ICACHE_ITERS:-50000} dune exec bench/main.exe -- icache
python3 - <<'EOF'
import json
with open("BENCH_icache.json") as f:
    data = json.load(f)
for row in data["archs"]:
    assert row["hit_rate"] >= 0.95, f"{row['arch']}: block cache cold ({row['hit_rate']})"
    assert row["link_rate"] >= 0.95, f"{row['arch']}: trace links cold ({row['link_rate']})"
    assert row["speedup"] >= 6.0, f"{row['arch']}: warm engine regressed ({row['speedup']}x over cold)"
print("icache smoke ok:", ", ".join(f"{r['arch']} {r['speedup']}x @ {r['link_rate']:.0%} links" for r in data["archs"]))
EOF

# Obs smoke: tracing enabled may cost at most a few percent of wall time
# over the suite workload, and the disabled hooks must stay in the noise.
# The experiment runs 9 rounds of the three modes back to back, and the
# gate reads each mode's median over rounds of its time divided by the
# same round's absent time: drift that spans a round cancels, and one
# loaded round cannot move it. (Wall time on a loaded CI host still
# wobbles — the thresholds leave noise margin over the <5% / ~0% targets
# EXPERIMENTS.md documents.)
OBS_ITERS=${OBS_ITERS:-50} dune exec bench/main.exe -- obs
python3 - <<'EOF'
import json
with open("BENCH_obs.json") as f:
    data = json.load(f)
assert data["enabled_paired_overhead_pct"] < 7.5, f"tracing overhead regressed ({data['enabled_paired_overhead_pct']}%)"
assert data["disabled_paired_overhead_pct"] < 5.0, f"disabled hooks not free ({data['disabled_paired_overhead_pct']}%)"
assert data["events_per_suite_run"] > 500, "traced suite run recorded suspiciously few events"
print("obs smoke ok: enabled %+.2f%%, disabled %+.2f%% (paired medians; minima %+.2f%%, %+.2f%%), %d events/run"
      % (data["enabled_paired_overhead_pct"], data["disabled_paired_overhead_pct"],
         data["enabled_overhead_pct"], data["disabled_overhead_pct"], data["events_per_suite_run"]))
EOF

# Chaos smoke: a one-board campaign with a fixed seed must classify every
# fired fault, catch every landed MPU corruption, and report no silent
# cross-process corruption.
dune exec bin/ticktock_cli.exe -- chaos -k ticktock-arm -n 2 -f 30 -o /tmp/ci_chaos_a.txt
python3 - <<'EOF'
import re
text = open("/tmp/ci_chaos_a.txt").read()
m = re.search(r"faults fired (\d+) \(effective (\d+)\)", text)
fired = int(m.group(1))
classes = re.search(r"masked (\d+)  healed (\d+)  contained (\d+)", text)
total = sum(int(g) for g in classes.groups())
assert fired >= 40, f"campaign too small ({fired} faults fired)"
assert total == fired, f"unclassified faults: {fired} fired, {total} classified"
scrub = re.search(r"scrub detections (\d+) of (\d+) corruptions", text)
assert scrub.group(1) == scrub.group(2), f"scrubber missed corruptions: {scrub.group(0)}"
assert "silent cross-process corruption: none" in text, "silent corruption reported"
assert "campaign: ok" in text, "campaign failed"
print(f"chaos smoke ok: {fired} faults, all classified, scrub {scrub.group(1)}/{scrub.group(2)}")
EOF

# The campaign is a deterministic function of (board, seed): a second run
# — and a single-worker run — must reproduce the report byte-for-byte.
dune exec bin/ticktock_cli.exe -- chaos -k ticktock-arm -n 2 -f 30 -o /tmp/ci_chaos_b.txt
TICKTOCK_JOBS=1 dune exec bin/ticktock_cli.exe -- chaos -k ticktock-arm -n 2 -f 30 -o /tmp/ci_chaos_c.txt
diff /tmp/ci_chaos_a.txt /tmp/ci_chaos_b.txt
diff /tmp/ci_chaos_a.txt /tmp/ci_chaos_c.txt

# The fast paths (bus and icache) must be invisible to the modeled
# experiments: fig11, difftest, latency and fuzz are deterministic in
# model cycles, so two runs must agree and any host-side caching change
# shows up here as a diff. Different fuzz job counts must agree too.
# The bench binary now links the chaos library with no engine attached —
# the idle chaos/scrubber/watchdog hooks must be invisible here as well
# (test_chaos asserts the same inertness at the suite level).
dune exec bench/main.exe -- fig11 difftest latency fuzz > /tmp/ci_det_a.txt
TICKTOCK_JOBS=1 dune exec bench/main.exe -- fig11 difftest latency fuzz > /tmp/ci_det_b.txt
diff /tmp/ci_det_a.txt /tmp/ci_det_b.txt
# ...and across commits: the committed expected output pins every
# model-visible byte, so a host-side speed change that moves one fails
# here even when all modes of the new commit agree with each other.
diff test/expected/bench-fig11-difftest-latency-fuzz.txt /tmp/ci_det_a.txt

# Observation must be invisible too: the same experiments byte-identical
# with tracing absent (default), enabled, and attached-but-disabled.
# Sinks never charge model cycles and recorder timestamps are kernel
# ticks, so any perturbation — an extra cycle, a reordered decision —
# shows up here as a diff.
TICKTOCK_OBS=1 dune exec bench/main.exe -- fig11 difftest latency fuzz > /tmp/ci_det_obs_on.txt
TICKTOCK_OBS=disabled dune exec bench/main.exe -- fig11 difftest latency fuzz > /tmp/ci_det_obs_dis.txt
diff /tmp/ci_det_a.txt /tmp/ci_det_obs_on.txt
diff /tmp/ci_det_a.txt /tmp/ci_det_obs_dis.txt

# Snapshot smoke: capture a pristine post-boot image, inspect the header,
# restore it onto a fresh board of the same configuration, and make sure a
# mismatched board is refused.
dune exec bin/ticktock_cli.exe -- snapshot -k ticktock-arm -o /tmp/ci_arm.snap
dune exec bin/ticktock_cli.exe -- snapshot --info /tmp/ci_arm.snap
dune exec bin/ticktock_cli.exe -- snapshot -k ticktock-arm --check /tmp/ci_arm.snap
if dune exec bin/ticktock_cli.exe -- snapshot -k ticktock-e310 --check /tmp/ci_arm.snap 2>/dev/null; then
  echo "snapshot: mismatched board was NOT refused"
  exit 1
fi
# A truncated snapshot file is refused with exit 1: 4 bytes, the 8-byte
# magic alone, inside the header, inside the pages.
snap_size=$(wc -c < /tmp/ci_arm.snap)
for n in 4 8 30 $((snap_size - 1)); do
  head -c "$n" /tmp/ci_arm.snap > /tmp/ci_snap_trunc.snap
  expect_exit_1 dune exec bin/ticktock_cli.exe -- snapshot --info /tmp/ci_snap_trunc.snap
  expect_exit_1 dune exec bin/ticktock_cli.exe -- snapshot -k ticktock-arm --check /tmp/ci_snap_trunc.snap
done

# Fork equivalence: every harness must be byte-identical between booting a
# fresh board per round (`--exec boot`, the default) and forking rounds
# from the post-boot snapshot, directly (`--exec fork`) or loaded back
# from the file (`--exec snapshot:FILE`) — the admissibility condition
# for fleet campaigns running thousands of rounds off one boot.
dune exec bin/ticktock_cli.exe -- difftest > /tmp/ci_dt_boot.txt
dune exec bin/ticktock_cli.exe -- difftest --exec fork > /tmp/ci_dt_exec.txt
diff /tmp/ci_dt_boot.txt /tmp/ci_dt_exec.txt
dune exec bin/ticktock_cli.exe -- fuzz -k ticktock-arm -n 8 > /tmp/ci_fz_boot.txt
dune exec bin/ticktock_cli.exe -- fuzz -k ticktock-arm -n 8 --exec fork > /tmp/ci_fz_exec_fork.txt
dune exec bin/ticktock_cli.exe -- fuzz -k ticktock-arm -n 8 --exec snapshot:/tmp/ci_arm.snap > /tmp/ci_fz_exec_snap.txt
diff /tmp/ci_fz_boot.txt /tmp/ci_fz_exec_fork.txt
diff /tmp/ci_fz_boot.txt /tmp/ci_fz_exec_snap.txt
if dune exec bin/ticktock_cli.exe -- fuzz -k ticktock-arm -n 8 --exec warp 2>/dev/null; then
  echo "fuzz: bogus --exec spec was NOT refused"
  exit 1
fi
dune exec bin/ticktock_cli.exe -- chaos -k ticktock-arm -n 2 -f 30 --exec fork -o /tmp/ci_chaos_fork.txt
diff /tmp/ci_chaos_a.txt /tmp/ci_chaos_fork.txt

# Snapshot bench gate: restoring the pristine image onto a dirty board
# must stay well clear of a cold boot, and the fork-mode campaign must
# reproduce boot-mode outcomes exactly.
dune exec bench/main.exe -- snapshot
python3 - <<'EOF'
import json
with open("BENCH_snapshot.json") as f:
    data = json.load(f)
fb = data["fresh_board"]
assert fb["restore_speedup"] >= 5.0, f"restore no longer beats cold boot 5x ({fb['restore_speedup']}x)"
assert data["fuzz_campaign"]["outcomes_identical"], "fork-mode fuzz diverged from boot mode"
print("snapshot smoke ok: restore %.1fx faster than boot, fork campaign identical" % fb["restore_speedup"])
EOF

# Fleet smoke: a small campaign's merged report must be byte-identical at
# every jobs setting, and a killed campaign (--stop-after) resumed from
# its store must reproduce the uninterrupted report exactly — stdout
# carries only the deterministic report, so plain diff is the oracle.
dune exec bin/ticktock_cli.exe -- fleet -n 240 -j 1 -o /tmp/ci_fleet_j1.txt
dune exec bin/ticktock_cli.exe -- fleet -n 240 -j 2 -o /tmp/ci_fleet_j2.txt
diff /tmp/ci_fleet_j1.txt /tmp/ci_fleet_j2.txt
diff test/expected/fleet-n240.txt /tmp/ci_fleet_j1.txt
rm -f /tmp/ci_fleet.store
if dune exec bin/ticktock_cli.exe -- fleet -n 240 -j 2 --store /tmp/ci_fleet.store --stop-after 80 2>/dev/null; then
  echo "fleet: interrupted campaign did NOT exit nonzero"
  exit 1
fi
dune exec bin/ticktock_cli.exe -- fleet -n 240 -j 2 --store /tmp/ci_fleet.store --resume -o /tmp/ci_fleet_resumed.txt
diff /tmp/ci_fleet_j1.txt /tmp/ci_fleet_resumed.txt

# Fleet bench gate: a 10k-board-instance campaign must merge
# byte-identically at every jobs setting and in every round; the jobs=2
# speedup is asserted only on multi-core hosts — on a 1-core runner two
# domains time-slice one core and the check would measure the scheduler,
# not the pool. The gate reads the paired speedup: the experiment runs 5
# rounds of jobs 1 and 2, alternating which goes first, and takes the
# median of each round's t1/t2, so drift that spans a round cancels and
# one loaded run cannot move it.
dune exec bench/main.exe -- fleet
python3 - <<'EOF'
import json
with open("BENCH_fleet.json") as f:
    data = json.load(f)
assert data["reports_identical"], "fleet reports diverged across jobs settings or rounds"
assert data["cells"] >= 2000, f"fleet campaign too small ({data['cells']} cells)"
if data["host_cores"] >= 2:
    paired = data["paired_speedup_1_to_2"]
    assert paired >= 1.5, f"fleet scaling regressed ({paired}x jobs 1->2, paired)"
    print("fleet smoke ok: %d cells, %.2fx jobs 1->2 paired (%.2fx single), reports identical"
          % (data["cells"], paired, data["speedup_1_to_2"]))
else:
    assert data["speedup_1_to_2"] is None and data["paired_speedup_1_to_2"] is None, \
        "a 1-core host must not record a jobs 1->2 speedup"
    print("fleet smoke ok: %d cells, reports identical (1-core host: no scaling measured)" % data["cells"])
EOF
# Fabric smoke: the multi-board campaign's report must be byte-identical
# at every jobs setting, and a killed campaign (--stop-after) resumed from
# its store must reproduce the uninterrupted report exactly.
dune exec bin/ticktock_cli.exe -- fabric --plans clean,lossy -n 10 -j 1 -o /tmp/ci_fab_j1.txt
dune exec bin/ticktock_cli.exe -- fabric --plans clean,lossy -n 10 -j 2 -o /tmp/ci_fab_j2.txt
diff /tmp/ci_fab_j1.txt /tmp/ci_fab_j2.txt
diff test/expected/fabric-clean-lossy-n10.txt /tmp/ci_fab_j1.txt
rm -f /tmp/ci_fab.store
if dune exec bin/ticktock_cli.exe -- fabric --plans clean,lossy -n 10 -j 2 --store /tmp/ci_fab.store --stop-after 6 2>/dev/null; then
  echo "fabric: interrupted campaign did NOT exit nonzero"
  exit 1
fi
dune exec bin/ticktock_cli.exe -- fabric --plans clean,lossy -n 10 -j 2 --store /tmp/ci_fab.store --resume -o /tmp/ci_fab_resumed.txt
diff /tmp/ci_fab_j1.txt /tmp/ci_fab_resumed.txt

# fabric --seed: omitting it is the spec's sweep seed 42, and the seed is
# part of a store's spec key, so resuming a store written under another
# seed is a typed refusal.
dune exec bin/ticktock_cli.exe -- fabric --plans clean,lossy -n 10 -j 1 --seed 42 -o /tmp/ci_fab_seed42.txt
diff /tmp/ci_fab_j1.txt /tmp/ci_fab_seed42.txt
rm -f /tmp/ci_fab_seed7.store
dune exec bin/ticktock_cli.exe -- fabric --plans clean -n 2 --seed 7 --store /tmp/ci_fab_seed7.store -o /dev/null
expect_exit_1 dune exec bin/ticktock_cli.exe -- fabric --plans clean -n 2 --store /tmp/ci_fab_seed7.store --resume

# Fabric absence gate: the fabric layer's footprint is host-side only —
# running a whole campaign in the same process must leave the modeled
# experiments byte-identical (same discipline as the obs invisibility
# gates; fabric counters are host-flagged metric rows).
FABRIC_CUTS=4 dune exec bench/main.exe -- fabric fig11 difftest latency fuzz > /tmp/ci_det_fab.txt
n=$(wc -l < /tmp/ci_det_a.txt)
tail -n "$n" /tmp/ci_det_fab.txt > /tmp/ci_det_fab_tail.txt
diff /tmp/ci_det_a.txt /tmp/ci_det_fab_tail.txt

# Fabric bench gate: the full sweep (a power cut at every tick of every
# plan) must classify every cut point, prove zero silent cross-board
# corruption, and merge byte-identically at every jobs setting.
FABRIC_CUTS=${FABRIC_CUTS:-36} dune exec bench/main.exe -- fabric
python3 - <<'EOF'
import json
with open("BENCH_fabric.json") as f:
    data = json.load(f)
assert data["reports_identical"], "fabric reports diverged across jobs settings"
assert data["silent_corruptions"] == 0, f"silent cross-board corruption ({data['silent_corruptions']})"
for row in data["scaling"]:
    assert row["ok"], f"fabric campaign failed at jobs={row['jobs']}"
for key in ("speedup_1_to_2", "paired_speedup_1_to_2"):
    assert (data[key] is None) == (data["host_cores"] < 2), \
        f"{key} must be recorded exactly when the host has 2+ cores"
print("fabric smoke ok: %d plans x %d cuts, zero silent corruption, reports identical"
      % (data["plans"], data["cuts_per_plan"]))
EOF

# Fuzzcov smoke: the guided campaign's report must be byte-identical at
# every jobs setting and to the committed report, and a killed campaign
# (--stop-after) resumed from its store must reproduce the uninterrupted
# report exactly — same stdout-is-the-oracle discipline as the fleet
# smoke above.
dune exec bin/ticktock_cli.exe -- fuzzcov -g 8 -j 1 -o /tmp/ci_fc_j1.txt
dune exec bin/ticktock_cli.exe -- fuzzcov -g 8 -j 2 -o /tmp/ci_fc_j2.txt
diff /tmp/ci_fc_j1.txt /tmp/ci_fc_j2.txt
diff test/expected/fuzzcov-g8-j1.txt /tmp/ci_fc_j1.txt
dune exec bin/ticktock_cli.exe -- fuzzcov -j 1 -o /tmp/ci_fc_default.txt
diff test/expected/fuzzcov-j1.txt /tmp/ci_fc_default.txt
rm -f /tmp/ci_fc.store
if dune exec bin/ticktock_cli.exe -- fuzzcov -g 8 -j 2 --store /tmp/ci_fc.store --stop-after 3 2>/dev/null; then
  echo "fuzzcov: interrupted campaign did NOT exit nonzero"
  exit 1
fi
dune exec bin/ticktock_cli.exe -- fuzzcov -g 8 -j 2 --store /tmp/ci_fc.store --resume -o /tmp/ci_fc_resumed.txt
diff /tmp/ci_fc_j1.txt /tmp/ci_fc_resumed.txt

# Crash triage: upstream Tock crashes under the fuzzer (the §2.2 wild-brk
# panic), so the campaign exits 2 by design. (Its crashers are recorded
# and replayed as TICKRPL bundles by the `--bundles` step further down.)
fc_status=0
dune exec bin/ticktock_cli.exe -- fuzzcov -k tock-arm-upstream -g 4 -o /tmp/ci_fc_upstream.txt || fc_status=$?
if [ "$fc_status" != 2 ]; then
  echo "fuzzcov: upstream campaign did not find a crasher (exit $fc_status)"
  exit 1
fi
diff test/expected/fuzzcov-upstream-g4.txt /tmp/ci_fc_upstream.txt

# Usage errors of the resumable campaigns exit 1, never cmdliner's 125:
# a --store or -o path under a missing directory, and --resume or
# --stop-after without a --store to resume from.
expect_exit_1 dune exec bin/ticktock_cli.exe -- fleet -n 6 --store /nonexistent/dir/x.store
expect_exit_1 dune exec bin/ticktock_cli.exe -- fabric --plans clean -n 2 --horizon 8 --store /nonexistent/x
expect_exit_1 dune exec bin/ticktock_cli.exe -- fuzzcov -g 1 -p 1 --store /nonexistent/x
expect_exit_1 dune exec bin/ticktock_cli.exe -- fleet -n 6 -o /nonexistent/out.txt
expect_exit_1 dune exec bin/ticktock_cli.exe -- fleet -n 6 --resume
expect_exit_1 dune exec bin/ticktock_cli.exe -- fleet -n 6 --stop-after 2
expect_exit_1 dune exec bin/ticktock_cli.exe -- fabric --plans clean -n 2 --horizon 8 --resume
expect_exit_1 dune exec bin/ticktock_cli.exe -- fuzzcov -g 1 -p 1 --stop-after 1
# ...while an unwritable --bundles directory is reported and skipped: the
# campaign's own verdict (2, crashers) stands.
rp_status=0
dune exec bin/ticktock_cli.exe -- fuzzcov -k tock-arm-upstream -g 4 --bundles /nonexistent/a/b -o /dev/null 2>/dev/null || rp_status=$?
if [ "$rp_status" != 2 ]; then
  echo "fuzzcov --bundles into a missing directory: expected exit 2, got $rp_status"
  exit 1
fi

# Fuzzcov bench gate: guided evolution must reach the coverage target —
# the guided run's final bucket count — in fewer execs than blind random
# generation, over the default campaign of 24 generations of 16
# candidates (guidance is a deterministic function of the model, so this
# gate applies even on 1-core runners: only throughput numbers depend on
# the host, and those are not gated).
dune exec bench/main.exe -- fuzzcov
python3 - <<'EOF'
import json
with open("BENCH_fuzzcov.json") as f:
    data = json.load(f)
g, b = data["guided"], data["blind"]
assert g["bits"] > b["bits"], f"guided found no more buckets than blind ({g['bits']} vs {b['bits']})"
assert data["guided_wins"], "guided did not reach the coverage target in fewer execs than blind"
assert g["execs_to_target"] is not None and g["execs_to_target"] <= g["execs"], \
    f"guided never reached its own target ({g['execs_to_target']})"
assert g["crashers"] == 0, f"ticktock board crashed under fuzzing ({g['crashers']} crashers)"
blind_str = b["execs_to_target"] if b["execs_to_target"] is not None else "never"
print("fuzzcov smoke ok: %d buckets in %s execs guided vs %s blind (%d-core host)"
      % (data["target_bits"], g["execs_to_target"], blind_str, data["host_cores"]))
EOF

# Replay smoke: record a fuzz cell as a TICKRPL bundle, re-execute it to
# the recorded fingerprint (exit 0 from `replay run` is the oracle), and
# prove reverse execution byte-for-byte: goto T then back N must print
# exactly the same state and registers as a fresh forward run to T-N.
dune exec bin/ticktock_cli.exe -- replay record -k ticktock-arm --seed 7 --fuzzers 4 --steps 400 --interval 4 -o /tmp/ci_replay.tickrpl > /tmp/ci_rp_record.txt
dune exec bin/ticktock_cli.exe -- replay info /tmp/ci_replay.tickrpl > /dev/null
dune exec bin/ticktock_cli.exe -- replay run /tmp/ci_replay.tickrpl
dune exec bin/ticktock_cli.exe -- replay goto /tmp/ci_replay.tickrpl -t 6 > /tmp/ci_rp_fwd.txt
dune exec bin/ticktock_cli.exe -- replay back /tmp/ci_replay.tickrpl -t 10 -s 4 > /tmp/ci_rp_back.txt
diff /tmp/ci_rp_fwd.txt /tmp/ci_rp_back.txt
# ...and identically at a different navigation interval than the bundle
# was recorded with (snapshot spacing is a navigation cost knob, never a
# semantic one).
dune exec bin/ticktock_cli.exe -- replay back /tmp/ci_replay.tickrpl -t 10 -s 4 --interval 2 > /tmp/ci_rp_back_k2.txt
diff /tmp/ci_rp_fwd.txt /tmp/ci_rp_back_k2.txt
# Backward steps of several lengths at the bundle's interval of 4 mix the
# three ways a backward jump lands: on a trail checkpoint, on a ladder
# checkpoint, and a short re-execution from one.
for n in 1 2 3 5 8; do
  dune exec bin/ticktock_cli.exe -- replay goto /tmp/ci_replay.tickrpl -t $((10 - n)) > /tmp/ci_rp_fwd_n.txt
  dune exec bin/ticktock_cli.exe -- replay back /tmp/ci_replay.tickrpl -t 10 -s "$n" > /tmp/ci_rp_back_n.txt
  diff /tmp/ci_rp_fwd_n.txt /tmp/ci_rp_back_n.txt
done
dune exec bin/ticktock_cli.exe -- replay mpu /tmp/ci_replay.tickrpl -t 6 > /dev/null
dune exec bin/ticktock_cli.exe -- replay trace /tmp/ci_replay.tickrpl -o /tmp/ci_rp_trace.json
grep -q traceEvents /tmp/ci_rp_trace.json

# Every JSON export must parse, including a trace window past the end of
# the recording, which holds no events and only the lane metadata.
dune exec bin/ticktock_cli.exe -- replay trace test/expected/replay-arm-seed7.tickrpl --from 100000 --to 100001 > /tmp/ci_rp_trace_empty.json
dune exec bin/ticktock_cli.exe -- metrics --json > /tmp/ci_metrics.json
python3 - <<'EOF'
import json
for path in ("/tmp/ci_rp_trace.json", "/tmp/ci_rp_trace_empty.json", "/tmp/ci_metrics.json"):
    with open(path) as f:
        json.load(f)
with open("/tmp/ci_rp_trace_empty.json") as f:
    empty = json.load(f)["traceEvents"]
assert empty and all(e["ph"] == "M" for e in empty), "an event-free window exported events"
print("json exports ok: replay trace, event-free window, metrics")
EOF

# A truncated bundle must be refused with exit 1, never navigated, by
# every command that reads one: 4 bytes, the 7-byte magic alone, inside
# the header, inside the body. An uncaught exception would exit 125.
rp_size=$(wc -c < /tmp/ci_replay.tickrpl)
for n in 4 7 40 $((rp_size / 2)) $((rp_size - 1)); do
  head -c "$n" /tmp/ci_replay.tickrpl > /tmp/ci_rp_trunc.tickrpl
  expect_exit_1 dune exec bin/ticktock_cli.exe -- replay info /tmp/ci_rp_trunc.tickrpl
  expect_exit_1 dune exec bin/ticktock_cli.exe -- replay run /tmp/ci_rp_trunc.tickrpl
done

# Cross-commit compatibility: a bundle recorded by an earlier build must
# still load, rebuild its fingerprint marks and reproduce its final
# fingerprint (exit 0), so a change to fingerprint values or to the
# on-disk format cannot pass unnoticed.
dune exec bin/ticktock_cli.exe -- replay run test/expected/replay-arm-seed7.tickrpl

# Failure cells come out of campaigns as bundles: the upstream crasher
# that fuzzcov finds must auto-emit under --bundles and replay
# byte-identically in a fresh process.
rm -rf /tmp/ci_rp_bundles
rp_status=0
dune exec bin/ticktock_cli.exe -- fuzzcov -k tock-arm-upstream -g 4 --bundles /tmp/ci_rp_bundles -o /dev/null || rp_status=$?
if [ "$rp_status" != 2 ]; then
  echo "fuzzcov --bundles: expected exit 2, got $rp_status"
  exit 1
fi
dune exec bin/ticktock_cli.exe -- replay run /tmp/ci_rp_bundles/fuzzcov-crasher-0.tickrpl

# Replay absence gate: a full record + navigate session in-process must
# leave the modeled experiments byte-identical — the recorder boots its
# own boards and reads fingerprints only at tick boundaries, so a
# session it does not own must never notice it ran.
dune exec bench/main.exe -- replay fig11 difftest latency fuzz > /tmp/ci_det_rp.txt
n=$(wc -l < /tmp/ci_det_a.txt)
tail -n "$n" /tmp/ci_det_rp.txt > /tmp/ci_det_rp_tail.txt
diff /tmp/ci_det_a.txt /tmp/ci_det_rp_tail.txt

# Replay bench gate: the bundle must reproduce, a backward step must be
# byte-identical to a fresh forward run, and recording must stay within
# a sane constant factor of a plain run (the absolute factor is
# host-dependent; only the order of magnitude is gated).
python3 - <<'EOF'
import json
with open("BENCH_replay.json") as f:
    data = json.load(f)
assert data["reproduced"], "recorded bundle did not reproduce its final fingerprint"
assert data["back_identical"], "backward step diverged from a fresh forward run"
assert data["record_overhead"] < 20.0, f"record overhead blew up ({data['record_overhead']}x)"
sweep = data["back_step_sweep"]
assert sweep and all(row["back_step_us"] > 0 for row in sweep), "empty back-step sweep"
print("replay smoke ok: %d ticks at %.2fx record overhead, reverse execution byte-identical"
      % (data["ticks"], data["record_overhead"]))
EOF
echo "ci ok"
