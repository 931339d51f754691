#!/usr/bin/env python3
"""Launch a multi-process federation (fed_server + N fed_client) and check it.

Default: a mirror run over a Unix-domain socket with one replica per client,
diffed bit-for-bit against the in-process reference (--check-parity).

    tools/run_federation.py --clients 8
    tools/run_federation.py --clients 4 --algorithm fedkemf --rounds 2
    tools/run_federation.py --mode elastic --clients 4 --scenario kill-restart
    tools/run_federation.py --mode elastic --clients 4 --scenario sigterm
    tools/run_federation.py --mode elastic --clients 4 --scenario chaos
    tools/run_federation.py --mode elastic --clients 4 --scenario overload
    tools/run_federation.py --mode elastic --clients 4 --scenario server-crash
    tools/run_federation.py --scenario phase-crash --rounds 5 --crash-round 2

The chaos scenario is the soak test for the hardened protocol: it first runs
a clean same-seed elastic federation, then reruns it with every client
routed through tools/chaos_proxy (resets, corruption, duplication, reorder,
latency spikes, slow-loris dribble, and one network partition longer than
the liveness timeout), and asserts the chaotic run completes every round
with accuracy within --chaos-accuracy-band of the clean run while every
injected fault class shows up as a nonzero recovery counter in the server's
net_counters telemetry and the proxy's injection stats.

The overload scenario is the soak test for graceful degradation under
resource pressure: a clean elastic run, then the same seed with resource
limits engaged (an admission cap that BUSYs an over-quota probe client, a
fusion-member cap that degrades every round, a memory budget), then an
in-process fedkemf churn run with a spill directory.  It asserts every leg
completes all rounds, the constrained run's accuracy stays within
--overload-accuracy-band of the clean run, and the shed / degraded / spill
counters are all nonzero.

The server-crash scenario is the soak test for the durable server: a clean
same-seed elastic run, then the same federation with --wal-dir enabled while
the *server* is SIGKILLed and restarted at three distinct phases — right
after the first client registers, right after an upload is journaled, and
right after a checkpoint plus a post-checkpoint upload.  The kill points are
found by parsing the write-ahead log the server is appending, so each kill
is guaranteed to land mid-recovery-relevant state.  It asserts the resumed
run completes every round with accuracy within --crash-accuracy-band of the
clean run and that the final server process actually exercised recovery
(nonzero wal_replayed / recovered_uploads / total_reconnects).

The phase-crash scenario runs examples/lossy_network in process (no
fed_server/fed_client): at each telemetry phase boundary (--phases) of
--crash-round the crash injector kills a checkpointed run; the restart, with
the injector disarmed, must exit 0, and the stitched accuracy history must
equal an uninterrupted run's bit for bit.

Exit code 0 iff every launched process exited cleanly and the requested
checks passed.
"""

import argparse
import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
import time

# Federation flags forwarded verbatim to every process (server and clients
# must agree bit-for-bit: HELLO carries a digest of these).
SPEC_FLAGS = (
    "algorithm clients rounds train_samples test_samples seed arch width "
    "image_size epochs batch lr sample_ratio eval_every threads"
).split()


def spec_args(args):
    out = []
    for name in SPEC_FLAGS:
        out += ["--" + name.replace("_", "-"), str(getattr(args, name))]
    return out


class Launcher:
    """launch(procs, name, argv) starts argv with its output in
    <log_dir>/<name>.log, appends (name, Popen) to procs, returns the Popen."""

    def __init__(self, log_dir):
        self.log_dir = log_dir
        self.logs = {}

    def __call__(self, procs, name, argv):
        log = os.path.join(self.log_dir, name + ".log")
        self.logs[name] = log
        with open(log, "w") as f:
            p = subprocess.Popen(argv, stdout=f, stderr=subprocess.STDOUT)
        procs.append((name, p))
        return p


def wait_all(procs, timeout):
    deadline = time.monotonic() + timeout
    codes = []
    for name, p in procs:
        remaining = max(0.1, deadline - time.monotonic())
        try:
            codes.append((name, p.wait(timeout=remaining)))
        except subprocess.TimeoutExpired:
            p.kill()
            codes.append((name, "timeout"))
    return codes


def report(codes, logs):
    ok = all(code == 0 for _, code in codes)
    for name, code in codes:
        marker = "ok" if code == 0 else f"FAILED ({code})"
        print(f"  {name}: {marker}")
        if code != 0 and name in logs:
            sys.stdout.write(open(logs[name]).read())
    return ok


def elastic_argvs(args, endpoint, results, spec=None, server_extra=(), client_extra=(),
                  client_endpoint=None):
    """Command lines of one elastic federation: fed_server plus args.clients
    fed_client workers (ids 0..N-1), all sharing `spec`'s federation flags."""
    spec = spec or args
    server = [args.server_bin, "--mode", "elastic", "--endpoint", endpoint,
              "--min-clients", str(args.clients), "--quiet",
              "--upload-timeout", str(args.upload_timeout), "--results", results,
              *server_extra, *spec_args(spec)]
    clients = [[args.client_bin, "--mode", "elastic", "--endpoint",
                client_endpoint or endpoint, "--id", str(i), *client_extra, *spec_args(spec)]
               for i in range(args.clients)]
    return server, clients


def run_to_completion(launch, label, server, clients, timeout):
    """Runs one federation and exits unless every process exits 0."""
    procs = []
    launch(procs, f"{label}-server", server)
    for i, argv in enumerate(clients):
        launch(procs, f"{label}-client{i}", argv)
    if not report(wait_all(procs, timeout), launch.logs):
        sys.exit(f"error: a {label} federation process failed")


def check_against_clean(failures, label, run, clean, rounds, band):
    """Fails unless `run` completed `rounds` rounds with a final accuracy
    within `band` of the clean run's; prints the accuracy comparison."""
    if run["rounds_completed"] != rounds:
        failures.append(f"{label} run completed {run['rounds_completed']} of {rounds} rounds")
    gap = abs(run["final_accuracy"] - clean["final_accuracy"])
    if gap > band:
        failures.append(f"accuracy gap {gap:.4f} exceeds the {band} band")
    print(f"  accuracy: clean={clean['final_accuracy']:.4f} "
          f"{label}={run['final_accuracy']:.4f} gap={gap:.4f} (band {band})")


def conclude(scenario, failures, ok_message):
    """Prints every failure and exits, or prints the scenario's OK line."""
    if failures:
        for f in failures:
            print(f"  {scenario} FAILED:", f)
        sys.exit(f"error: {scenario} soak failed")
    print(ok_message)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_parity(reference_path, distributed_path):
    ref = load_json(reference_path)
    dist = load_json(distributed_path)
    failures = []
    for key in ("final_accuracy", "best_accuracy", "rounds_completed", "total_bytes"):
        if ref[key] != dist[key]:
            failures.append(f"{key}: reference {ref[key]} != distributed {dist[key]}")
    ref_rounds = [(r["round"], r["accuracy"], r["round_bytes"]) for r in ref["rounds"]]
    dist_rounds = [(r["round"], r["accuracy"], r["round_bytes"]) for r in dist["rounds"]]
    if ref_rounds != dist_rounds:
        failures.append(f"per-round history: reference {ref_rounds} != distributed {dist_rounds}")
    return failures


# The chaos soak's injected fault mix (≈31% of frames combined) and the
# recovery counters each class must light up in the server's telemetry.
CHAOS_PROXY_FLAGS = [
    "--reset-rate", "0.02", "--corrupt-rate", "0.05", "--duplicate-rate", "0.12",
    "--reorder-rate", "0.02", "--delay-rate", "0.05", "--delay-seconds", "0.1",
    "--dribble-rate", "0.05", "--grace-seconds", "2",
    "--partition-at", "3", "--partition-for", "4",
]
CHAOS_INJECTION_CLASSES = [
    "resets", "corruptions", "duplicates", "reorders", "delays", "dribbles",
    "partition_drops",
]
CHAOS_RECOVERY_COUNTERS = [
    "net.server.protocol_errors",    # corruption detected (CRC / frame screen)
    "net.server.duplicate_uploads",  # duplication absorbed idempotently
    "net.server.connections_lost",   # resets / partition tore connections down
    "net.server.rejoins",            # workers re-registered through churn
    "net.server.liveness_evictions", # partition detected via missed heartbeats
    "net.server.pings_sent",         # heartbeats were actually running
]


def run_chaos(args, proxy_bin):
    """Clean elastic run, then the same seed through chaos_proxy, then assert
    completion, an accuracy band, and nonzero per-fault recovery counters."""
    with tempfile.TemporaryDirectory(prefix="fedkemf_chaos_") as tmp:
        launch = Launcher(tmp)

        def elastic_run(label, client_endpoint, server_endpoint, results_json,
                        client_extra=()):
            server, clients = elastic_argvs(
                args, server_endpoint, results_json, client_endpoint=client_endpoint,
                server_extra=["--heartbeat-interval", "0.5", "--liveness-timeout", "3"],
                client_extra=client_extra)
            run_to_completion(launch, label, server, clients, args.timeout)
            return load_json(results_json)

        print(f"chaos soak 1/2: clean same-seed elastic run ({args.algorithm}, "
              f"{args.clients} clients, {args.rounds} rounds)")
        clean = elastic_run("clean", f"unix://{tmp}/clean.sock",
                            f"unix://{tmp}/clean.sock",
                            os.path.join(tmp, "clean.json"))

        upstream = f"unix://{tmp}/up.sock"
        proxied = f"unix://{tmp}/chaos.sock"
        stats_json = os.path.join(tmp, "proxy_stats.json")
        proxy = launch([], "proxy",
                       [proxy_bin, "--listen", proxied, "--upstream", upstream,
                        "--seed", str(args.chaos_seed), "--stats", stats_json]
                       + CHAOS_PROXY_FLAGS)
        print("chaos soak 2/2: rerunning through chaos_proxy (resets, corruption, "
              "duplication, reorder, delay, dribble + one 4s partition)")
        try:
            # The train delay keeps rounds in flight long enough for the
            # partition window to land on live traffic.
            chaotic = elastic_run(
                "chaos", proxied, upstream, os.path.join(tmp, "chaos.json"),
                client_extra=["--connect-timeout", "5", "--server-silence", "3",
                              "--max-reconnects", "40",
                              "--train-delay", str(max(args.train_delay, 0.3))])
        finally:
            if proxy.poll() is None:
                proxy.terminate()
        code = proxy.wait(timeout=30)
        if code != 0:
            sys.stdout.write(open(launch.logs["proxy"]).read())
            sys.exit(f"error: chaos_proxy exited {code}")
        stats = load_json(stats_json)

        failures = []
        check_against_clean(failures, "chaotic", chaotic, clean, args.rounds,
                            args.chaos_accuracy_band)
        injected = stats.get("injected", {})
        for fault in CHAOS_INJECTION_CLASSES:
            if injected.get(fault, 0) <= 0:
                failures.append(f"proxy injected no '{fault}' faults "
                                f"(try another --chaos-seed)")
        counters = chaotic.get("net_counters", {})
        for name in CHAOS_RECOVERY_COUNTERS:
            if counters.get(name, 0) <= 0:
                failures.append(f"recovery counter {name} stayed zero")

        print(f"  injected: " + " ".join(
            f"{k}={injected.get(k, 0)}" for k in CHAOS_INJECTION_CLASSES))
        print(f"  recovery: " + " ".join(
            f"{k.split('.')[-1]}={counters.get(k, 0)}"
            for k in CHAOS_RECOVERY_COUNTERS))
        conclude("chaos", failures,
                 "chaos OK: run completed under ~31% injected faults, accuracy in "
                 "band, every fault class recovered and counted")


def run_overload(args):
    """Clean elastic run, then the same seed under resource limits, then an
    in-process churn+spill soak; assert completion, an accuracy band, and
    nonzero shed / degraded / spill counters."""
    # The federation spec advertises one more client than the server admits:
    # that extra id is the over-quota probe the admission control must BUSY.
    spec = argparse.Namespace(**vars(args))
    spec.clients = args.clients + 1
    with tempfile.TemporaryDirectory(prefix="fedkemf_overload_") as tmp:
        launch = Launcher(tmp)

        def elastic_run(label, results_json, server_extra=(), client_extra=(),
                        probe=False):
            endpoint = f"unix://{tmp}/{label}.sock"
            server, clients = elastic_argvs(args, endpoint, results_json, spec,
                                            server_extra, client_extra)
            procs = []
            launch(procs, f"{label}-server", server)
            for i, argv in enumerate(clients):
                launch(procs, f"{label}-client{i}", argv)
            if probe:
                # Let the legitimate cohort claim every admission slot first,
                # then aim the probe at a deliberately full server.  Its small
                # reconnect budget drains on BUSY backoffs and it exits.
                time.sleep(1.2)
                launch(procs, f"{label}-probe",
                       [args.client_bin, "--mode", "elastic", "--endpoint", endpoint,
                        "--id", str(args.clients), "--max-reconnects", "3",
                        "--connect-timeout", "5"] + spec_args(spec))
            codes = wait_all(procs, args.timeout)
            if probe:
                # The probe normally exhausts its reconnect budget and exits 0
                # while the round is still running; if the federation finishes
                # first the server vanishes mid-backoff and the probe reports
                # the lost connection instead.  Either way the BUSY counter
                # assertion below is what proves admission control fired.
                for i, (name, code) in enumerate(codes):
                    if name == f"{label}-probe" and code == 1:
                        print("  note: probe outlived the run; treating its "
                              "lost-server exit as expected")
                        codes[i] = (name, 0)
            if not report(codes, launch.logs):
                sys.exit(f"error: a {label} federation process failed")
            return load_json(results_json)

        print(f"overload soak 1/3: clean same-seed elastic run ({args.algorithm}, "
              f"{args.clients} clients, {args.rounds} rounds)")
        clean = elastic_run("clean", os.path.join(tmp, "clean.json"))

        fusion_cap = max(2, args.clients - 1)
        print(f"overload soak 2/3: rerunning with resource limits "
              f"(max-connections={args.clients}, fusion cap {fusion_cap}, "
              f"64 MiB budget) plus one over-quota probe client")
        overloaded = elastic_run(
            "overload", os.path.join(tmp, "overload.json"),
            server_extra=["--max-connections", str(args.clients),
                          "--max-inflight-uploads", "64",
                          "--busy-retry-after", "0.3",
                          "--max-fusion-members", str(fusion_cap),
                          "--memory-budget-mb", "64"],
            client_extra=["--train-delay", str(max(args.train_delay, 0.4))],
            probe=True)

        # In-process leg: only the knowledge-distillation algorithms retain
        # per-client state worth spilling, so the spill path is exercised via
        # a fedkemf churn run rather than the elastic fedavg server.
        spill_spec = argparse.Namespace(**vars(args))
        spill_spec.algorithm = "fedkemf"
        spill_spec.clients = 8
        spill_spec.rounds = max(args.rounds, 4)
        spill_json = os.path.join(tmp, "spill.json")
        print(f"overload soak 3/3: in-process fedkemf churn run "
              f"({spill_spec.clients} clients x100 registered, {spill_spec.rounds} "
              f"rounds, departed state spilled to disk)")
        procs = []
        launch(procs, "spill-run",
               [args.server_bin, "--mode", "overload", "--quiet",
                "--results", spill_json,
                "--churn-leave", "0.3", "--churn-rejoin", "0.35",
                "--departed-retention", "1", "--max-fusion-members", "3",
                "--memory-budget-mb", "64",
                "--spill-dir", os.path.join(tmp, "spill"),
                "--population-scale", "100"] + spec_args(spill_spec))
        if not report(wait_all(procs, args.timeout), launch.logs):
            sys.exit("error: the in-process overload run failed")
        spill = load_json(spill_json)

        failures = []
        check_against_clean(failures, "constrained", overloaded, clean, args.rounds,
                            args.overload_accuracy_band)
        counters = overloaded.get("net_counters", {})
        busy = counters.get("net.server.shed.busy_hellos", 0)
        shed_uploads = counters.get("net.server.shed.uploads", 0)
        if busy + shed_uploads <= 0:
            failures.append("nothing was shed: net.server.shed.busy_hellos and "
                            "net.server.shed.uploads both stayed zero")
        if counters.get("fl.fusion.degraded_rounds", 0) <= 0:
            failures.append("fl.fusion.degraded_rounds stayed zero under the "
                            "fusion-member cap")
        if overloaded.get("total_degraded_rounds", 0) <= 0:
            failures.append("the constrained run recorded no degraded rounds")
        if spill["rounds_completed"] != spill_spec.rounds:
            failures.append(f"spill run completed {spill['rounds_completed']} "
                            f"of {spill_spec.rounds} rounds")
        spill_counters = spill.get("net_counters", {})
        if spill_counters.get("fl.spill.stored", 0) <= 0:
            failures.append("fl.spill.stored stayed zero: departed-client "
                            "state never reached the spill directory")
        if spill.get("peak_rss_bytes", 0) <= 0:
            failures.append("peak_rss_bytes missing from the spill-run summary")

        print(f"  shed: busy_hellos={busy} uploads={shed_uploads}")
        print(f"  degraded: rounds="
              f"{counters.get('fl.fusion.degraded_rounds', 0)} "
              f"members={counters.get('fl.fusion.shed_members', 0)}")
        print(f"  spill: stored={spill_counters.get('fl.spill.stored', 0)} "
              f"loaded={spill_counters.get('fl.spill.loaded', 0)} "
              f"peak_rss_mb={spill.get('peak_rss_bytes', 0) / 1048576.0:.1f}")
        conclude("overload", failures,
                 "overload OK: every leg completed, accuracy in band, admission "
                 "control / fusion cap / spill all engaged and counted")


# WAL record framing (src/net/wal.hpp): [magic u32][length u32][crc32 u32]
# [payload], little-endian, payload byte 0 is the record type.  The crash
# scenario parses the log the server is writing to aim each SIGKILL at a
# phase that forces the restarted server down a distinct recovery path.
WAL_MAGIC = 0xFEDAF11E
WAL_ROUND_START = 1
WAL_UPLOAD_CLAIMED = 2
WAL_STALE_APPLIED = 3
WAL_MEMBERSHIP = 4
WAL_CHECKPOINT_MARK = 5
# Either consumption record carries a full upload payload the recovery path
# must re-park (or remember) after a kill.
WAL_CONSUMED = (WAL_UPLOAD_CLAIMED, WAL_STALE_APPLIED)


def wal_record_types(path):
    """Types of the whole records currently in the WAL, in append order."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError:
        return []
    types, off = [], 0
    while off + 12 <= len(blob):
        magic, length, _crc = struct.unpack_from("<III", blob, off)
        if magic != WAL_MAGIC or length < 1 or off + 12 + length > len(blob):
            break  # torn tail — same stop rule as the server's scan
        types.append(blob[off + 12])
        off += 12 + length
    return types


# (phase name, predicate over the record types appended SINCE the last kill,
# what the kill forces the next recovery to prove).
CRASH_PHASES = [
    ("first-join", lambda t: WAL_MEMBERSHIP in t,
     "membership replay from an empty checkpoint horizon"),
    ("mid-upload", lambda t: any(r in WAL_CONSUMED for r in t),
     "a consumed upload whose fusion was lost must be re-parked"),
    ("post-checkpoint", lambda t: WAL_CHECKPOINT_MARK in t
     and any(r in WAL_CONSUMED
             for r in t[len(t) - 1 - t[::-1].index(WAL_CHECKPOINT_MARK):]),
     "checkpoint load plus WAL-suffix replay of a newer upload"),
]


def run_server_crash(args):
    """Clean elastic run, then the same seed with a WAL while the server is
    SIGKILLed + restarted at three phases; assert the resumed run completes,
    stays in the accuracy band, and the recovery counters are nonzero."""
    spec = argparse.Namespace(**vars(args))
    spec.rounds = max(args.rounds, 4)  # room for kills in three distinct rounds
    with tempfile.TemporaryDirectory(prefix="fedkemf_crash_") as tmp:
        launch = Launcher(tmp)

        print(f"server-crash soak 1/2: clean same-seed elastic run "
              f"({args.algorithm}, {args.clients} clients, {spec.rounds} rounds)")
        clean_json = os.path.join(tmp, "clean.json")
        run_to_completion(launch, "clean",
                          *elastic_argvs(args, f"unix://{tmp}/clean.sock", clean_json, spec),
                          args.timeout)
        clean = load_json(clean_json)

        wal_dir = os.path.join(tmp, "wal")
        wal_log = os.path.join(wal_dir, "wal.log")
        crash_json = os.path.join(tmp, "crash.json")
        # Generous reconnect budget: every server kill costs each worker one
        # (or more) reconnect attempts.
        server_argv, client_argvs = elastic_argvs(
            args, f"unix://{tmp}/crash.sock", crash_json, spec,
            server_extra=["--wal-dir", wal_dir, "--checkpoint-every", "1"],
            client_extra=["--connect-timeout", "10", "--server-silence", "3",
                          "--max-reconnects", "60",
                          "--train-delay", str(max(args.train_delay, 0.3))])
        client_argvs[0] += ["--results", os.path.join(tmp, "client0.json")]
        print(f"server-crash soak 2/2: durable run, SIGKILLing the server at "
              f"{len(CRASH_PHASES)} WAL-detected phases")
        procs = []
        server = launch(procs, "crash-server-leg0", server_argv)
        for i, argv in enumerate(client_argvs):
            launch(procs, f"crash-client{i}", argv)

        killed = []
        baseline = 0  # records already in the WAL at the last restart
        for leg, (phase, reached, proves) in enumerate(CRASH_PHASES):
            deadline = time.monotonic() + args.timeout / (len(CRASH_PHASES) + 1)
            while time.monotonic() < deadline:
                if server.poll() is not None:
                    # Satellite of the kill-restart rule: a scenario whose
                    # kill never landed proved nothing and must not pass.
                    sys.exit(f"error: durable run finished before the "
                             f"'{phase}' kill landed; raise --train-delay or "
                             f"--rounds so every phase stays reachable")
                types = wal_record_types(wal_log)
                if reached(types[baseline:]):
                    break
                time.sleep(0.02)
            else:
                sys.exit(f"error: phase '{phase}' never appeared in the WAL "
                         f"(see {launch.logs[f'crash-server-leg{leg}']})")
            server.kill()
            server.wait()
            killed.append(f"crash-server-leg{leg}")
            print(f"  kill {leg + 1}/{len(CRASH_PHASES)} at phase '{phase}' "
                  f"({len(types)} WAL records): next recovery must prove {proves}")
            baseline = len(types)
            time.sleep(0.3)
            server = launch(procs, f"crash-server-leg{leg + 1}", server_argv)

        codes = wait_all(procs, args.timeout)
        codes = [(n, 0 if (n in killed and c == -9) else c) for n, c in codes]
        if not report(codes, launch.logs):
            sys.exit("error: a server-crash federation process failed")
        result = load_json(crash_json)
        worker = load_json(os.path.join(tmp, "client0.json"))

        failures = []
        check_against_clean(failures, "resumed", result, clean, spec.rounds,
                            args.crash_accuracy_band)
        if result["interrupted"]:
            failures.append("the final server leg still reports interrupted=true")
        for counter in ("wal_replayed", "recovered_uploads", "total_reconnects"):
            if result.get(counter, 0) <= 0:
                failures.append(f"{counter} stayed zero in the final server leg")
        if worker.get("interrupted", True):
            failures.append("client0 reports interrupted=true after the run")
        if worker.get("reconnects", 0) <= 0:
            failures.append("client0 never reconnected despite the server kills")

        print(f"  recovery: wal_replayed={result.get('wal_replayed', 0)} "
              f"recovered_uploads={result.get('recovered_uploads', 0)} "
              f"total_reconnects={result.get('total_reconnects', 0)} "
              f"client0_reconnects={worker.get('reconnects', 0)}")
        conclude("server-crash", failures,
                 "server-crash OK: the run survived three server SIGKILLs, resumed "
                 "from the WAL + checkpoints, accuracy in band, recovery counted")


PHASES = ["local_train", "upload", "sanitize", "fuse", "distill", "eval"]
CRASH_EXIT_CODE = 42  # sim::CrashInjector::kCrashExitCode


def evaluated_accuracies(telemetry_path):
    """Evaluated rounds' accuracy, deduplicated keeping the last occurrence."""
    accuracies = {}
    with open(telemetry_path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line) if line.strip() else {}
            if record.get("kind") == "round" and record.get("evaluated"):
                accuracies[int(record["round"])] = record["accuracy"]
    return accuracies


def run_lossy(binary, flags, telemetry, checkpoint=None, crash=None):
    """One lossy_network run; `crash` = (phase, round) arms the injector."""
    command = [binary, *flags, "--telemetry", telemetry]
    if checkpoint is not None:
        command += ["--checkpoint", checkpoint]
    env = {k: v for k, v in os.environ.items() if not k.startswith("FEDKEMF_CRASH_")}
    if crash is not None:
        env["FEDKEMF_CRASH_PHASE"], env["FEDKEMF_CRASH_ROUND"] = crash[0], str(crash[1])
    return subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, check=False).returncode


def kill_and_resume(args, binary, flags, phase, reference, tmp):
    """Kills a run at `phase`, restarts it with the injector disarmed, and
    diffs the stitched history against `reference`; returns a failure or None.
    Any non-zero restart exit fails at once: a 42 there means armed crash
    state survived the checkpoint."""
    checkpoint = os.path.join(tmp, f"ckpt_{phase}")
    telemetry = os.path.join(tmp, f"telemetry_{phase}.jsonl")
    code = run_lossy(binary, flags, telemetry, checkpoint, (phase, args.crash_round))
    if code != CRASH_EXIT_CODE:
        return f"{phase}: expected the injected crash (exit {CRASH_EXIT_CODE}), got exit {code}"
    for _ in range(args.max_restarts):
        code = run_lossy(binary, flags, telemetry, checkpoint)
        if code == 0:
            break
        return f"{phase}: restart exited {code}"
    else:
        return f"{phase}: run did not complete within {args.max_restarts} restarts"
    stitched = evaluated_accuracies(telemetry)
    if stitched != reference:
        return f"{phase}: history mismatch\n    reference: {reference}\n    stitched : {stitched}"
    print(f"  {phase}: killed at round {args.crash_round}, resumed, history identical "
          f"({len(stitched)} evaluated rounds)")


def run_phase_crash(args):
    """Reference run, then a kill + restart at every requested phase; every
    stitched history must equal the reference bit for bit."""
    binary = os.path.join(args.build_dir, "examples", "lossy_network")
    if not os.path.exists(binary):
        sys.exit(f"error: {binary} not found (build the 'lossy_network' target)")
    flags = ["--rounds", str(args.rounds), "--seed", str(args.seed), *args.extra_flag]
    if args.churn:
        # Churn + deadline + stale buffer together exercise the elastic tail of
        # the checkpoint format (membership trace, departed-state FIFO, buffered
        # late uploads); the deadline must be tight enough to actually produce
        # stragglers or the stale path is vacuous.
        flags += ["--churn", "0.25", "--deadline", "0.5", "--stale-alpha", "0.5"]
    with tempfile.TemporaryDirectory(prefix="fedkemf_phase_crash_") as tmp:
        reference_telemetry = os.path.join(tmp, "reference.jsonl")
        code = run_lossy(binary, flags, reference_telemetry)
        reference = evaluated_accuracies(reference_telemetry) if code == 0 else {}
        if not reference:
            sys.exit(f"error: reference run exited {code} with no evaluated rounds")
        print(f"reference: {len(reference)} evaluated rounds over {args.rounds} rounds")
        failures = [f for phase in args.phases
                    if (f := kill_and_resume(args, binary, flags, phase, reference, tmp))]
        conclude("phase-crash", failures,
                 f"phase-crash OK: all {len(args.phases)} kill phases resumed "
                 f"bitwise-identically")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build", help="CMake build directory")
    ap.add_argument("--mode", default="mirror", choices=["mirror", "elastic"])
    ap.add_argument("--endpoint", default="", help="tcp://host:port or unix:///path "
                    "(default: a fresh unix socket in a temp dir)")
    ap.add_argument("--scenario", default="plain",
                    choices=["plain", "kill-restart", "sigterm", "chaos", "overload",
                             "server-crash", "phase-crash"],
                    help="fault scenarios (phase-crash runs in process, any --mode)")
    ap.add_argument("--chaos-seed", type=int, default=7,
                    help="chaos: fault-decision seed handed to chaos_proxy")
    ap.add_argument("--chaos-accuracy-band", type=float, default=0.02,
                    help="chaos: allowed |chaotic - clean| final-accuracy gap")
    ap.add_argument("--overload-accuracy-band", type=float, default=0.02,
                    help="overload: allowed |constrained - clean| final-accuracy gap")
    ap.add_argument("--crash-accuracy-band", type=float, default=0.02,
                    help="server-crash: allowed |resumed - clean| final-accuracy gap")
    ap.add_argument("--check-parity", action=argparse.BooleanOptionalAction, default=None,
                    help="diff against the in-process reference (default: on for mirror)")
    ap.add_argument("--timeout", type=float, default=600.0, help="whole-run timeout seconds")
    ap.add_argument("--train-delay", type=float, default=0.0,
                    help="elastic: artificial per-round client delay")
    ap.add_argument("--upload-timeout", type=float, default=30.0)
    ap.add_argument("--crash-round", type=int, default=1,
                    help="phase-crash: 0-based round the kill point arms at")
    ap.add_argument("--phases", nargs="*", default=PHASES, choices=PHASES,
                    help="phase-crash: phase boundaries to kill at")
    ap.add_argument("--extra-flag", action="append", default=[],
                    help="phase-crash: additional lossy_network flag (repeatable), "
                         "e.g. --extra-flag=--adversary-fraction=0.25")
    ap.add_argument("--churn", action="store_true",
                    help="phase-crash: client churn, a round deadline, and "
                         "staleness-aware aggregation of the late uploads")
    ap.add_argument("--max-restarts", type=int, default=4,
                    help="phase-crash: restarts allowed per killed run")
    # Forwarded federation spec.
    ap.add_argument("--algorithm", default="fedavg")
    ap.add_argument("--clients", type=int, default=8)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--train-samples", type=int, default=512)
    ap.add_argument("--test-samples", type=int, default=256)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--arch", default="cnn2")
    ap.add_argument("--width", type=float, default=0.25)
    ap.add_argument("--image-size", type=int, default=12)
    ap.add_argument("--epochs", type=int, default=1)
    ap.add_argument("--batch", type=int, default=32)
    ap.add_argument("--lr", type=float, default=0.05)
    ap.add_argument("--sample-ratio", type=float, default=1.0)
    ap.add_argument("--eval-every", type=int, default=1)
    ap.add_argument("--threads", type=int, default=0)
    args = ap.parse_args()

    if args.scenario == "phase-crash":
        run_phase_crash(args)
        print("run_federation: all checks passed")
        return

    server_bin = args.server_bin = os.path.join(args.build_dir, "tools", "fed_server")
    client_bin = args.client_bin = os.path.join(args.build_dir, "tools", "fed_client")
    for binary in (server_bin, client_bin):
        if not os.path.exists(binary):
            sys.exit(f"error: {binary} not found (build the 'fed_server'/'fed_client' targets)")
    if args.check_parity is None:
        args.check_parity = args.mode == "mirror" and args.scenario == "plain"

    if args.scenario in ("chaos", "overload", "server-crash"):
        if args.mode != "elastic":
            sys.exit(f"error: --scenario {args.scenario} requires --mode elastic")
        if args.scenario == "chaos":
            proxy_bin = os.path.join(args.build_dir, "tools", "chaos_proxy")
            if not os.path.exists(proxy_bin):
                sys.exit(f"error: {proxy_bin} not found (build the 'chaos_proxy' target)")
            run_chaos(args, proxy_bin)
        elif args.scenario == "overload":
            run_overload(args)
        else:
            run_server_crash(args)
        print("run_federation: all checks passed")
        return

    with tempfile.TemporaryDirectory(prefix="fedkemf_") as tmp:
        endpoint = args.endpoint or f"unix://{tmp}/fed.sock"
        launch, procs = Launcher(tmp), []

        reference_json = os.path.join(tmp, "reference.json")
        if args.check_parity:
            print(f"running in-process reference ({args.algorithm}, "
                  f"{args.clients} clients, {args.rounds} rounds)...")
            subprocess.run([server_bin, "--mode", "reference", "--quiet",
                            "--results", reference_json] + spec_args(args), check=True)

        server_json = os.path.join(tmp, "server.json")
        if args.mode == "mirror":
            server_argv = [server_bin, "--mode", "mirror", "--endpoint", endpoint,
                           "--expect-clients", str(args.clients), "--quiet",
                           "--results", server_json] + spec_args(args)
            client_argvs = [
                [client_bin, "--mode", "mirror", "--endpoint", endpoint,
                 "--own", str(i)] + spec_args(args)
                for i in range(args.clients)
            ]
        else:
            server_argv, client_argvs = elastic_argvs(
                args, endpoint, server_json,
                client_extra=["--train-delay", str(args.train_delay)])

        print(f"launching {args.mode} federation: 1 server + {args.clients} clients "
              f"over {endpoint}")
        victim_name = None
        if args.scenario == "kill-restart":
            # A kill-restart whose kill never landed proved nothing: retry
            # with an earlier kill, and fail the scenario outright if even
            # the shortest delay loses the race.
            for attempt, kill_after in enumerate((1.5, 0.5, 0.15)):
                prefix = "" if attempt == 0 else f"retry{attempt}-"
                if attempt:
                    wait_all(procs, args.timeout)  # drain the no-op run
                    procs.clear()
                    print(f"  retrying with an earlier kill ({kill_after}s)")
                server = launch(procs, prefix + "server", server_argv)
                clients = [launch(procs, f"{prefix}client{i}", argv)
                           for i, argv in enumerate(client_argvs)]
                time.sleep(kill_after)
                victim = clients[-1]
                if victim.poll() is None:
                    victim.kill()
                    victim_name = f"{prefix}client{args.clients - 1}"
                    print("  killed client (SIGKILL); restarting with --rejoin in 0.5s")
                    time.sleep(0.5)
                    launch(procs, prefix + "client-rejoin", client_argvs[-1] + ["--rejoin"])
                    break
                print("  run finished before the kill landed")
            else:
                sys.exit("error: the kill-restart kill never landed, even at "
                         "the shortest delay; raise --train-delay or --rounds")
        else:
            server = launch(procs, "server", server_argv)
            clients = [launch(procs, f"client{i}", argv) for i, argv in enumerate(client_argvs)]
            if args.scenario == "sigterm":
                time.sleep(1.5)
                if server.poll() is None:
                    print("  sending SIGTERM to the server (graceful shutdown)")
                    server.send_signal(signal.SIGTERM)

        codes = wait_all(procs, args.timeout)
        # An elastic client that was deliberately SIGKILLed reports -9; that is
        # the scenario, not a failure.  Same for workers cut off by a sigterm'd
        # or finished server (they exit 0 via BYE handling).
        if args.scenario == "kill-restart":
            codes = [(n, 0 if (n == victim_name and c == -9) else c)
                     for n, c in codes]
        if not report(codes, launch.logs):
            sys.exit("error: a federation process failed")

        result = load_json(server_json)
        print(f"distributed result: final_accuracy={result['final_accuracy']} "
              f"total_bytes={result['total_bytes']} rounds={result['rounds_completed']}")

        if args.check_parity:
            failures = check_parity(reference_json, server_json)
            if failures:
                for f in failures:
                    print("  parity FAILED:", f)
                sys.exit("error: distributed run diverged from the in-process reference")
            print("parity OK: distributed == in-process reference (accuracy and bytes)")

        if args.scenario == "kill-restart":
            if result["total_left"] < 1:
                sys.exit("error: kill-restart scenario recorded no departure")
            print(f"churn OK: joined={result['total_joined']} left={result['total_left']} "
                  f"stale_applied={result['total_stale_applied']}")
        elif args.scenario == "sigterm":
            if not result["interrupted"] and result["rounds_completed"] == args.rounds:
                print("  note: run finished before the SIGTERM landed")
            else:
                print(f"graceful shutdown OK: interrupted={result['interrupted']} after "
                      f"{result['rounds_completed']} rounds")
    print("run_federation: all checks passed")


if __name__ == "__main__":
    main()
