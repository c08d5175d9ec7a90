#!/usr/bin/env python3
"""End-to-end benchmark of the `crd` tool, run as users run it.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--smoke] [--corrupt-pin]

Run from the root of a source checkout. The first run configures and
builds e2ebench/ (the repository's `crd` plus the `crdbench` helper) into
.bench_build/e2ebench; later runs rebuild incrementally.

Workloads (the inputs are generated from --seed by `crdbench gen`):
  check-h2     `crd check` on the H2 ComplexConcurrency trace, race lines
               drained from a pipe and digested.
  check-memo   `crd check --memo=full` on a chunk-repetitive racy trace.
  serve-clean  a `crd serve --workers=2` daemon fed by an open-loop client
               at a fixed arrival rate, race-free 32-thread sessions.

--trace 0 measures the end-to-end metrics; --trace 1 is the traced run:
it replays the input through each layer (`crdbench layers`), runs the
real process a few times with spans around it, and reports the per-layer
metrics. The last stdout line is one JSON object: correct, attempted,
failed, metrics. Every output is checked against an event-at-a-time
reference detector and, for seeds in pinned.json, against pinned digests;
any mismatch fails the run (exit 1). See e2ebench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
CRD = os.path.join(BUILD, "crd_tools", "crd", "crd")
CRDBENCH = os.path.join(BUILD, "crdbench")

WORKLOADS = ("check-h2", "check-memo", "serve-clean")
CHECK_FLAGS = {"check-h2": [], "check-memo": ["--memo=full"]}

# serve-clean: a fixed open-loop arrival rate, about a quarter of the
# 2-worker daemon's capacity measured at the seed, so that sessions seldom
# overlap and latency is service time, not queueing (e2ebench/README.md).
SERVE_WORKERS = 2
SERVE_RATE_PER_S = 12.0
SERVE_MAX_OPEN = 4
SERVE_LAUNCHES = 40
SERVE_FRAME_BYTES = 1 << 16
HANDSHAKE = b"crd-serve/1 detector=seq batch=4096 memo=off\n"
F_SETPIPE_SZ = 1031  # Linux fcntl command.
HEADER_SUMMARY = b"events: 0  commutativity races: 0 (0 distinct objects)\n"
INPUTS_KEPT = 8


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build, inputs, provenance
# ---------------------------------------------------------------------------

def build():
    if not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.isfile(
            os.path.join(ROOT, "tools", "crd", "crd.cpp")):
        raise BenchError("no crd sources next to e2ebench/: run from a "
                         "source checkout")
    os.makedirs(BUILD, exist_ok=True)
    logpath = os.path.join(BUILD, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    with open(logpath, "ab") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cfg = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.call(cfg, stdout=out, stderr=out) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                raise BenchError("cmake configure failed (log: %s)" % logpath)
        cmd = ["cmake", "--build", BUILD, "--target", "crd", "crdbench",
               "-j", jobs]
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            raise BenchError("build failed (log: %s)" % logpath)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generate(workload, seed, smoke, tree):
    """Writes (or reuses) the seeded input; returns (dir, meta). Inputs are
    keyed by the source tree's digest, so a change to the generators, the
    writer or the reference detector regenerates them and the H2 anchor.
    Only the INPUTS_KEPT most recently used inputs stay on disk."""
    tag = "%s-%d%s-%s" % (workload, seed, "-smoke" if smoke else "",
                          tree[:16])
    inputs = os.path.join(BUILD, "inputs")
    d = os.path.join(inputs, tag)
    meta_path = os.path.join(d, "meta.json")
    if not os.path.exists(meta_path):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d, exist_ok=True)
        cmd = [CRDBENCH, "gen", workload, str(seed), d] + (
            ["--smoke"] if smoke else [])
        if subprocess.call(cmd) != 0:
            raise BenchError("input generation failed: %s" % " ".join(cmd))
        with open(meta_path) as f:
            meta = json.load(f)
        meta["expected_sha256"] = sha256_file(os.path.join(d, "expected.txt"))
        with open(meta_path + ".tmp", "w") as f:
            json.dump(meta, f)
        os.replace(meta_path + ".tmp", meta_path)
    os.utime(d)
    kept = sorted((os.path.join(inputs, x) for x in os.listdir(inputs)),
                  key=os.path.getmtime, reverse=True)
    for old in kept[INPUTS_KEPT:]:
        shutil.rmtree(old, ignore_errors=True)
    with open(meta_path) as f:
        return d, json.load(f)


def check_references(workload, seed, smoke, meta, corrupt_pin):
    """Set-up self-checks against pinned.json; returns failure strings."""
    with open(os.path.join(HERE, "pinned.json")) as f:
        pinned = json.load(f)
    problems = []
    if meta["anchor_races"] != pinned["anchor_races"]:
        problems.append("H2 anchor (4 x 4000, seed 2014): %d races, pinned %d"
                        % (meta["anchor_races"], pinned["anchor_races"]))
    pins = pinned["smoke" if smoke else "full"].get(workload, {})
    pin = pins.get(str(seed))
    if pin is not None:
        pin = dict(pin)
        if corrupt_pin:
            pin["sha256"] = "0" * 64
        got = {"events": meta["events"], "races": meta["races"],
               "sha256": meta["expected_sha256"],
               "exit": meta["expected_exit"]}
        for key, want in pin.items():
            if got[key] != want:
                problems.append("%s seed %d: %s is %s, pinned %s"
                                % (workload, seed, key, got[key], want))
    elif corrupt_pin:
        problems.append("--corrupt-pin needs a seed listed in pinned.json")
    return problems


def read_loadavg():
    with open("/proc/loadavg") as f:
        return f.read().split()[:3]


def read_steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def tree_digest():
    """SHA-256 over the sources the benchmark builds and reads."""
    h = hashlib.sha256()
    for top in ("src", "tools", "specs", "e2ebench"):
        for dirpath, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                h.update(sha256_file(path).encode())
    return h.hexdigest()


def git_revision():
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def cpu_demand(workload):
    """CPUs the workload keeps busy at once: the benchmark's client thread,
    plus the crd process (check), or the daemon's I/O thread and as many
    workers as the open connections can occupy (serve)."""
    if workload in CHECK_FLAGS:
        return 1 + 1
    return 1 + 1 + min(SERVE_WORKERS, SERVE_MAX_OPEN)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values):
    """(value, percentile): p95, or the highest percentile that still has
    at least ten samples beyond it when there are fewer than 200."""
    s = sorted(values)
    n = len(s)
    k = math.ceil(0.95 * n)
    if n - k < 10:
        k = n - 10
    if k < math.ceil(n / 2):
        return statistics.median(s), 50.0
    return s[k - 1], 100.0 * k / n


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Children:
    """Every process the benchmark starts; all are reaped on exit."""

    def __init__(self):
        self.procs = []

    def spawn(self, cmd, **kw):
        p = subprocess.Popen(cmd, **kw)
        self.procs.append(p)
        return p

    def reap(self, p):
        """Waits for p; returns (exit code, rusage)."""
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.procs.remove(p)
        return p.returncode, usage

    def kill_all(self):
        for p in list(self.procs):
            if p.poll() is None:
                p.kill()
            p.wait()
        self.procs.clear()


def run_check_once(children, cmd, errf):
    """One `crd check` process: stdout drained from a pipe and digested.
    Returns (wall seconds, exit code, sha256, rusage)."""
    h = hashlib.sha256()
    rfd, wfd = os.pipe()
    try:
        # A 1 MiB pipe lets the digesting reader keep pace with crd.
        fcntl.fcntl(wfd, F_SETPIPE_SZ, 1 << 20)
    except OSError:
        pass
    t0 = time.perf_counter()
    p = children.spawn(cmd, stdout=wfd, stderr=errf)
    os.close(wfd)
    while True:
        block = os.read(rfd, 1 << 20)
        if not block:
            break
        h.update(block)
    code, usage = children.reap(p)
    wall = time.perf_counter() - t0
    os.close(rfd)
    return wall, code, h.hexdigest(), usage


def measure_check(children, workload, d, meta, seconds, errf, reps_cap=None,
                  spans=None):
    """Interleaves workload runs with set-up launches for `seconds`."""
    flags = CHECK_FLAGS[workload]
    cmd = [CRD, "check"] + flags + [os.path.join(d, "input.crdb")]
    setup_cmd = [CRD, "check"] + flags + [os.path.join(d, "header.crdb")]
    header_sha = hashlib.sha256(HEADER_SUMMARY).hexdigest()
    res = {"walls": [], "rss": [], "setup": [], "attempted": 0, "failed": 0,
           "errors": []}

    def record(kind, wall, code, sha, want_code, want_sha):
        res["attempted"] += 1
        if code != want_code or sha != want_sha:
            res["failed"] += 1
            res["errors"].append("%s: exit %d (want %d), digest %s (want %s)"
                                 % (kind, code, want_code, sha[:12],
                                    want_sha[:12]))
            return False
        return True

    run_check_once(children, cmd, errf)  # Warm the page cache; not timed.
    deadline = time.perf_counter() + seconds
    # A run with the wrong output still took its time: it is timed and
    # counted as failed.
    while time.perf_counter() < deadline or len(res["walls"]) < 3:
        t_start = time.perf_counter()
        wall, code, sha, usage = run_check_once(children, cmd, errf)
        if spans is not None:
            spans.append(("crd check", t_start, t_start + wall))
        record("check", wall, code, sha, meta["expected_exit"],
               meta["expected_sha256"])
        res["walls"].append(wall)
        res["rss"].append(usage.ru_maxrss / 1024.0)
        for _ in range(8):
            wall, code, sha, _ = run_check_once(children, setup_cmd, errf)
            record("setup", wall, code, sha, 0, header_sha)
            res["setup"].append(wall)
        if reps_cap and len(res["walls"]) >= reps_cap:
            break
    return res


# ---------------------------------------------------------------------------
# serve-clean
# ---------------------------------------------------------------------------

def frame(kind, body=b""):
    return kind + len(body).to_bytes(4, "little") + body


def session_bytes(trace):
    parts = [HANDSHAKE]
    for off in range(0, len(trace), SERVE_FRAME_BYTES):
        parts.append(frame(b"W", trace[off:off + SERVE_FRAME_BYTES]))
    parts.append(frame(b"E"))
    return b"".join(parts)


def read_lines_until(sock, want_type, buf=b""):
    """Blocking: reads reply lines until one of type `want_type`."""
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            msg = json.loads(line)
            if msg.get("type") == want_type:
                return msg, buf
            if msg.get("type") == "error":
                raise BenchError("daemon error: %s" % msg.get("reason"))
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise BenchError("daemon closed the connection early")
        buf += chunk


class Daemon:
    """One `crd serve` daemon; start() measures launch → first hello."""

    count = 0

    def __init__(self, children, errf, header, extra=()):
        Daemon.count += 1
        self.children = children
        self.sock_path = "d%d.sock" % Daemon.count
        self.cmd = [CRD, "serve", "--socket=" + self.sock_path,
                    "--workers=%d" % SERVE_WORKERS] + list(extra)
        self.errf = errf
        self.header = header

    def start(self):
        t0 = time.perf_counter()
        self.proc = self.children.spawn(self.cmd, stdout=subprocess.PIPE,
                                        stderr=self.errf)
        line = self.proc.stdout.readline()
        if not line.startswith(b"listening on unix:"):
            raise BenchError("daemon did not start: %r" % line)
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.connect(self.sock_path)
        probe.sendall(HANDSHAKE)
        _, buf = read_lines_until(probe, "hello")
        self.setup_s = time.perf_counter() - t0
        self.t_start = t0
        # The probe session streams the header-only trace: 0 events.
        probe.sendall(frame(b"W", self.header) + frame(b"E"))
        summary, _ = read_lines_until(probe, "summary", buf)
        probe.close()
        self.probe_ok = summary.get("events") == 0 and summary.get(
            "races") == 0
        return self

    def stop(self):
        """SIGTERM drain; returns (exit code, rusage, lifetime seconds)."""
        self.proc.send_signal(signal.SIGTERM)
        self.proc.stdout.read()
        code, usage = self.children.reap(self.proc)
        self.proc.stdout.close()
        life = time.perf_counter() - self.t_start
        try:
            os.unlink(self.sock_path)
        except FileNotFoundError:
            pass
        return code, usage, life


class ClientSession:
    def __init__(self, index, sched, payload):
        self.index = index
        self.sched = sched
        self.payload = memoryview(payload)
        self.sent = 0
        self.buf = b""
        self.start = self.hello = self.end = None
        self.summary = None
        self.error = None


def open_loop(daemon_sock, payload, rate, n_sessions, spans=None):
    """Single-threaded open-loop client: session i is due at t0 + i/rate;
    at most SERVE_MAX_OPEN connections are open, a due session beyond that
    waits (its latency still counts from its scheduled start)."""
    sel = selectors.DefaultSelector()
    t0 = time.perf_counter() + 0.02
    done, live = [], {}
    nxt = 0

    def close(s, now, error=None):
        if error and not s.error:
            s.error = error
        if s.sock.fileno() in live:
            sel.unregister(s.sock)
            del live[s.sock.fileno()]
        s.sock.close()
        done.append(s)
        if spans is not None:
            spans.append(("session %d" % s.index, s.sched, s.end or now))

    while nxt < n_sessions or live:
        now = time.perf_counter()
        while (nxt < n_sessions and len(live) < SERVE_MAX_OPEN
               and t0 + nxt / rate <= now):
            s = ClientSession(nxt, t0 + nxt / rate, payload)
            nxt += 1
            s.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.start = time.perf_counter()
            try:
                s.sock.connect(daemon_sock)
            except OSError as e:
                close(s, s.start, "connect: %s" % e)
                continue
            s.sock.setblocking(False)
            sel.register(s.sock, selectors.EVENT_READ | selectors.EVENT_WRITE,
                         s)
            live[s.sock.fileno()] = s
            now = time.perf_counter()
        if nxt < n_sessions and len(live) < SERVE_MAX_OPEN:
            timeout = max(0.0, t0 + nxt / rate - now)
        else:
            timeout = None
        for key, mask in sel.select(timeout):
            s = key.data
            if mask & selectors.EVENT_WRITE and s.sent < len(s.payload):
                try:
                    s.sent += s.sock.send(s.payload[s.sent:s.sent + (1 << 18)])
                except BlockingIOError:
                    pass
                except OSError as e:
                    close(s, time.perf_counter(), "send: %s" % e)
                    continue
                if s.sent == len(s.payload):
                    sel.modify(s.sock, selectors.EVENT_READ, s)
            if mask & selectors.EVENT_READ:
                try:
                    chunk = s.sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                except OSError as e:
                    close(s, time.perf_counter(), "recv: %s" % e)
                    continue
                now = time.perf_counter()
                s.buf += chunk
                while b"\n" in s.buf:
                    line, s.buf = s.buf.split(b"\n", 1)
                    msg = json.loads(line)
                    kind = msg.get("type")
                    if kind == "hello":
                        s.hello = now
                    elif kind == "summary":
                        s.summary, s.end = msg, now
                    elif kind == "error":
                        s.error = msg.get("reason", "error")
                if not chunk:
                    close(s, now)
    sel.close()
    return done


def measure_serve(children, d, meta, seconds, errf, traced=False):
    """SERVE_LAUNCHES set-up launches, then one daemon fed by the open loop
    for most of `seconds`."""
    with open(os.path.join(d, "input.crdb"), "rb") as f:
        trace = f.read()
    with open(os.path.join(d, "header.crdb"), "rb") as f:
        header = f.read()
    payload = session_bytes(trace)
    res = {"setup": [], "attempted": 0, "failed": 0, "errors": [],
           "sessions": [], "spans": [], "pump_rounds": []}

    for _ in range(SERVE_LAUNCHES):
        dm = Daemon(children, errf, header).start()
        res["attempted"] += 1
        code, _, _ = dm.stop()
        if not dm.probe_ok or code != 0:
            res["failed"] += 1
            res["errors"].append("setup launch: probe %s, exit %d"
                                 % (dm.probe_ok, code))
        else:
            res["setup"].append(dm.setup_s)

    chrome = os.path.abspath("serve.chrome.json") if traced else None
    extra = ["--chrome-trace=" + chrome] if traced else []
    dm = Daemon(children, errf, header, extra).start()
    res["attempted"] += 1
    if dm.probe_ok:
        res["setup"].append(dm.setup_s)
    else:
        res["failed"] += 1
        res["errors"].append("daemon probe failed")
    n_sessions = max(1, int(seconds * 0.88 * SERVE_RATE_PER_S))
    done = open_loop(dm.sock_path, payload, SERVE_RATE_PER_S, n_sessions,
                     res["spans"] if traced else None)
    code, usage, life = dm.stop()
    res["rss"] = usage.ru_maxrss / 1024.0
    res["busy"] = (usage.ru_utime + usage.ru_stime) / life
    if code != 0:
        res["failed"] += 1
        res["errors"].append("daemon exit %d" % code)
    for s in done:
        res["attempted"] += 1
        if (s.error is None and s.summary is not None
                and s.summary.get("events") == meta["events"]
                and s.summary.get("races") == 0):
            res["sessions"].append(s)
        else:
            res["failed"] += 1
            res["errors"].append("session %d: %s" % (
                s.index, s.error or "summary %s" % s.summary))
    ok = res["sessions"]
    if ok:
        res["active_s"] = max(s.end for s in ok) - min(s.sched for s in done)
        res["events_done"] = meta["events"] * len(ok)
    if chrome and os.path.exists(chrome):
        with open(chrome) as f:
            events = json.load(f)["traceEvents"]
        rounds = {}
        for e in events:
            if e.get("ph") == "X":
                rounds[e["tid"]] = rounds.get(e["tid"], 0) + 1
        # Drop the probe session (the daemon's first id).
        res["pump_rounds"] = [rounds[i] for i in sorted(rounds)[1:]]
    return res


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, meta, res):
    """events_per_s is the input's events over the median time of one unit
    of work a user waits for: a `crd check` run, or a serve session from
    its scheduled start to its summary. That latency and its tail are
    printed, not gated: gating both would gate one measurement twice."""
    if not res["setup"] or not (res["walls"] if workload in CHECK_FLAGS
                                else res["sessions"]):
        raise BenchError("no operation succeeded, so there is nothing to "
                         "time: %s" % "; ".join(res["errors"][:5]))
    notes = {}
    if workload in CHECK_FLAGS:
        kind, lat = "run", [w * 1000.0 for w in res["walls"]]
        rss = statistics.median(res["rss"])
    else:
        kind, lat = "session", [(s.end - s.sched) * 1000.0
                                for s in res["sessions"]]
        rss = res["rss"]
        # Falls below the offered rate only when a backlog grows.
        notes["completed_events_per_s"] = (res["events_done"]
                                           / res["active_s"])
    p50 = statistics.median(lat)
    m = {"setup_s": metric(statistics.median(res["setup"]), "s"),
         "events_per_s": metric(meta["events"] / (p50 / 1000.0), "1/s"),
         "peak_rss_mb": metric(rss, "MiB")}
    notes[kind + "_p50_ms"] = p50
    notes[kind + "_tail_ms"], notes["tail_percentile"] = tail(lat)
    notes.update({"latency_samples": len(lat),
                  "setup_samples": len(res["setup"]),
                  "error_rate": res["failed"] / max(1, res["attempted"])})
    return m, notes


PER_LAYER_UNITS = {
    "spec.load_ms": "ms", "wire.read_ms": "ms",
    "wire.decode_ns_per_event": "ns", "wire.next_ns_per_event": "ns",
    "wire.bytes_per_event": "B", "wire.memo_hit_ratio": "ratio",
    "wire.memo_hit_ratio_inproc": "ratio", "hb.sync_ns_per_sync": "ns",
    "hb.sync_fraction": "ratio", "translate.touches_ns_per_invoke": "ns",
    "detect.kernel_ns_per_event": "ns", "detect.races": "count",
    "detect.races_per_invoke": "ratio",
    "detect.memo_summary_hit_ratio": "ratio",
    "detect.memo_summary_hit_ratio_cli": "ratio",
    "detect.memo_inproc_speedup": "x", "detect.active_points": "count",
    "format.ns_per_race": "ns", "format.bytes_per_race": "B",
    "format.write_ms": "ms", "serve.session_ns_per_event": "ns",
    "serve.session_p95_ms": "ms", "serve.hello_wait_ms": "ms",
    "serve.generator_lag_ms": "ms",
    "serve.daemon_busy_frac": "ratio", "serve.pump_rounds_per_session":
    "count", "check.unaccounted_ms": "ms", "trace.overhead_frac": "ratio",
}


def cli_memo_ratios(d):
    """Hit ratios as the CLI path sees them: `crd profile --memo=full`."""
    out = subprocess.run([CRD, "profile", "--memo=full",
                          os.path.join(d, "input.crdb")],
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise BenchError("crd profile failed: %s" % out.stderr)
    doc = json.loads(out.stdout)
    src, memo = doc["source"], doc["memo"]
    lookups = src["memo_hits"] + src["memo_misses"]
    chunks = memo["summary_hits"] + memo["chunks_interpreted"]
    return (src["memo_hits"] / lookups if lookups else 0.0,
            memo["summary_hits"] / chunks if chunks else 0.0)


def traced_run(children, workload, d, meta, seconds, errf, smoke, run_dir):
    t_begin = time.perf_counter()
    spans = []
    spans_cpp = os.path.join(run_dir, "layers.chrome.json")
    passes = "1" if smoke else "3"
    t0 = time.perf_counter()
    out = subprocess.run([CRDBENCH, "layers", d,
                          os.path.join(ROOT, "specs", "dictionary.spec"),
                          spans_cpp, passes],
                         capture_output=True, text=True)
    spans.append(("crdbench layers", t0, time.perf_counter()))
    if out.returncode != 0:
        raise BenchError("layer replay failed: %s" % out.stderr)
    lay = json.loads(out.stdout.strip().splitlines()[-1])
    m = {k: lay.get(k, 0.0) for k in PER_LAYER_UNITS}
    m["wire.memo_hit_ratio"], m["detect.memo_summary_hit_ratio_cli"] = \
        cli_memo_ratios(d)
    waterfall = None
    budget = max(1.0, seconds - (time.perf_counter() - t_begin))
    if workload in CHECK_FLAGS:
        res = measure_check(children, workload, d, meta, budget, errf,
                            reps_cap=7, spans=spans)
        wall_ms = statistics.median(res["walls"]) * 1000.0
        # crd check's file source reads the file as it decodes, so
        # wire.read is inside the source row, not a row of its own.
        rows = [("spec.load", lay["spec.load_ms"]),
                ("wire.source (read + decode as crd check pulls it)",
                 lay["wire.next_ns_per_event"] * lay["events"] / 1e6),
                ("detect.kernel", lay["detect.kernel_ms"]),
                ("format.lines", lay["format.lines_ms"]),
                ("format.write", lay["format.write_ms"])]
        m["check.unaccounted_ms"] = wall_ms - sum(v for _, v in rows)
        waterfall = (wall_ms, rows, m["check.unaccounted_ms"])
    else:
        res = measure_serve(children, d, meta, budget, errf, traced=True)
        sess = res["sessions"]
        if sess:
            m["serve.session_p95_ms"] = tail(
                [(s.end - s.sched) * 1000.0 for s in sess])[0]
            m["serve.hello_wait_ms"] = statistics.median(
                (s.hello - s.sched) * 1000.0 for s in sess)
            m["serve.generator_lag_ms"] = tail(
                [(s.start - s.sched) * 1000.0 for s in sess])[0]
        m["serve.daemon_busy_frac"] = res["busy"]
        if res["pump_rounds"]:
            m["serve.pump_rounds_per_session"] = statistics.median(
                res["pump_rounds"])
        for name, a, b in res["spans"]:
            spans.append((name, a, b))
    return ({k: metric(v, PER_LAYER_UNITS[k]) for k, v in m.items()},
            res, waterfall, spans, spans_cpp)


def write_chrome(path, spans, base, cpp_path):
    """run.py's spans (pid 1) merged with the layer replay's (pid 0)."""
    events = [{"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
               "args": {"name": "run.py"}}]
    for i, (name, a, b) in enumerate(spans, 1):
        events.append({"ph": "X", "pid": 1, "tid": 0, "name": name,
                       "ts": (a - base) * 1e6, "dur": (b - a) * 1e6,
                       "args": {"id": i, "parent": 0, "run": os.getpid()}})
    if cpp_path and os.path.exists(cpp_path):
        with open(cpp_path) as f:
            events += json.load(f)["traceEvents"]
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size inputs (the benchmark's own tests)")
    ap.add_argument("--corrupt-pin", action="store_true",
                    help="self-test: replace the pinned digest with a wrong "
                         "one; the run must fail")
    args = ap.parse_args()

    nproc = len(os.sched_getaffinity(0))
    if cpu_demand(args.workload) > nproc:
        raise BenchError("%s needs %d CPUs at once, this host has %d"
                         % (args.workload, cpu_demand(args.workload), nproc))
    build()
    tree = tree_digest()
    d, meta = generate(args.workload, args.seed, args.smoke, tree)
    problems = check_references(args.workload, args.seed, args.smoke, meta,
                                args.corrupt_pin)

    run_dir = os.path.join(BUILD, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    os.chdir(run_dir)  # Unix socket paths stay short and relative.
    load_before = read_loadavg()
    steal_before = read_steal_ticks()
    base = time.perf_counter()

    children = Children()
    waterfall = None
    errf = open("stderr.log", "ab")
    try:
        if args.trace:
            metrics, res, waterfall, spans, cpp = traced_run(
                children, args.workload, d, meta, args.seconds, errf,
                args.smoke, run_dir)
            notes = {"error_rate": res["failed"] / max(1, res["attempted"])}
        elif args.workload in CHECK_FLAGS:
            res = measure_check(children, args.workload, d, meta,
                                args.seconds, errf)
            metrics, notes = end_to_end(args.workload, meta, res)
        else:
            res = measure_serve(children, d, meta, args.seconds, errf)
            metrics, notes = end_to_end(args.workload, meta, res)
    finally:
        children.kill_all()
        errf.close()

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
        "revision": git_revision(), "tree_sha256": tree,
        "loadavg_before": load_before,
        "loadavg_after": read_loadavg(),
        "steal_ticks": read_steal_ticks() - steal_before,
        "events": meta["events"], "races": meta["races"],
        "anchor_races": meta["anchor_races"], "params": meta["params"],
    }
    failed = res["failed"] + len(problems)
    attempted = res["attempted"] + len(problems)
    errors = problems + res["errors"]
    correct = failed == 0

    for name, v in sorted(metrics.items()):
        print("%-36s %16.6f %s" % (name, v["value"], v["unit"]))
    for k, v in notes.items():
        print("%-36s %s" % (k, v))
    if waterfall:
        wall_ms, rows, unaccounted = waterfall
        print("waterfall (median crd check wall %.3f ms):" % wall_ms)
        for name, v in rows:
            print("  %-48s %10.3f ms" % (name, v))
        print("  %-48s %10.3f ms" % ("check.unaccounted", unaccounted))
    for e in errors[:20]:
        print("error: " + e)
    tag = "%s-%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        trace_path = os.path.join(results_dir, tag + ".trace.json")
        write_chrome(trace_path, spans, base, cpp)
        print("spans: " + trace_path)
    record = {"provenance": provenance, "notes": notes, "errors": errors,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    os.chdir(ROOT)
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so every child process is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as e:
        log("e2ebench: error: %s" % e)
        sys.exit(2)
