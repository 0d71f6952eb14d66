#!/usr/bin/env python3
"""End-to-end benchmark of `slx` queries, with a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark builds `slx` from source with dune, then drives the real
binary as a closed loop with one client: one query at a time, the next
sent when the previous one has exited.  The seed permutes the query
order within each pass; the query set is fixed per workload.  Every
output is checked against perfbench/expected.json.

--trace 0 prints the end-to-end metrics (queries_per_s, query_p50_ms,
query_p90_ms, peak_rss_mb, setup_s), with every time scaled to a
reference host speed (HostSpeed).  --trace 1 replays the same
queries in-process through perfbench/tracer (the library calls the CLI
makes, with each layer timed from outside) and prints the per-layer
metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SLX = os.path.join(ROOT, "_build", "default", "bin", "slx_cli.exe")
TRACER = os.path.join(ROOT, "_build", "default", "perfbench", "tracer", "slx_trace.exe")

# A query that runs longer or asks for more address space than this is
# killed and counted as failed, never waited for.  Every workload query
# needs under 400 MB of address space and 2 s.
QUERY_TIMEOUT_S = 60.0
QUERY_MEM_MB = 1536
# p90 is reported only with at least ten samples beyond it.
MIN_SAMPLES = 100
SETUP_REPEATS = 15

# Host speed.  A shared host moves between speed states up to about 1.7x
# apart that last from seconds to minutes, longer than a run.  The
# harness runs a fixed pure-Python loop, which uses none of the
# repository's code, right before and right after every timed step, and
# scales the step's wall time to the speed at which that loop takes
# REF_LOOP_S.  The end-to-end timings are reported at that reference
# speed; the notes also print the raw wall-clock figures.
REF_LOOP_N = 300000
REF_LOOP_S = 0.020


# ---------------------------------------------------------------------------
# Workloads.  Each CLI workload is a fixed list of (query id, slx argv);
# store-serve is a planned session against one fresh `slx serve`.

CLI_WORKLOADS = {
    # Register consensus pays ~99% of its time creating instances: the
    # factory preallocates every round.  CAS rows are the cheap control.
    # The heaviest query runs twice per pass so that p90 falls inside
    # its cluster of samples rather than on the edge between two.
    "explore-safety": [
        ("es-reg-d8", "explore -i register --depth 8 --json"),
        ("es-reg-d10", "explore -i register --depth 10 --json"),
        ("es-reg-d11", "explore -i register --depth 11 --json"),
        ("es-reg-d12", "explore -i register --depth 12 --json"),
        ("es-reg-d8-c1", "explore -i register --depth 8 --crashes 1 --json"),
        ("es-reg-d10-c1", "explore -i register --depth 10 --crashes 1 --json"),
        ("es-reg-d10-c1", "explore -i register --depth 10 --crashes 1 --json"),
        ("es-cas-d8", "explore -i cas --depth 8 --json"),
        ("es-cas-d10-c1", "explore -i cas --depth 10 --crashes 1 --json"),
    ],
    # Fair-cycle search on right-sized instances: the Theorem 5.2 legs,
    # CAS (2,2), and one n=3 exhaustive Figure 1a plane.
    "live-plane": [
        ("lp-reg-11-d14", "live-explore -i register -p 1,1 --depth 14 --crashes 1 --json"),
        ("lp-reg-12-d8", "live-explore -i register -p 1,2 --depth 8 --crashes 1 --json"),
        ("lp-reg-12-d10", "live-explore -i register -p 1,2 --depth 10 --crashes 1 --json"),
        ("lp-reg-12-d12", "live-explore -i register -p 1,2 --depth 12 --crashes 1 --json"),
        ("lp-cas-22-d10", "live-explore -i cas -p 2,2 --depth 10 --crashes 1 --json"),
        ("lp-cas-22-d12", "live-explore -i cas -p 2,2 --depth 12 --crashes 1 --json"),
        ("lp-fig1-exh-n3", "figure1 -o consensus-exhaustive -n 3 --depth 8"),
    ],
    # Sampled adversary games, their history checkers and the audit
    # sweep: no explorer or cache, so explorer changes must not move it.
    "checkers": [
        ("ck-fig1-tm", "figure1 -o tm -n 3 --steps 3000"),
        ("ck-fig1-sprime", "figure1 -o s-prime -n 3 --steps 3000"),
        ("ck-fig1-cons", "figure1 -o consensus -n 3 --steps 3000"),
        ("ck-audit-ci", "audit --ci"),
        ("ck-audit", "audit"),
    ],
}


def spec(sid, kind, impl, depth, crashes=1, prop=""):
    s = {"kind": kind, "impl": impl, "property": prop, "n": 2,
         "depth": depth, "crashes": crashes}
    if kind == "live":
        # Explicit budgets, so the deeper repeat may resume the stored
        # frontier (resume requires equal pump and covering period).
        s.update({"max_period": 6, "pump": 48})
    return (sid, s)


# One store-serve session: every cold query writes a record, each is
# then repeated warm, and three are deepened (a frontier resume).  The
# live register legs cannot resume: live-explore sizes the register
# factory to the depth, so each depth has its own store key.
SERVE_COLD = [
    spec("sv-reg-d8-c1", "explore", "register", 8),
    spec("sv-reg-d10", "explore", "register", 10, crashes=0),
    spec("sv-cas-d10-c1", "explore", "cas", 10),
    spec("sv-reg-12-d10", "live", "register", 10, prop="1,2"),
    spec("sv-reg-11-d10", "live", "register", 10, prop="1,1"),
    spec("sv-cas-22-d10", "live", "cas", 10, prop="2,2"),
]
SERVE_WARM_REPEATS = 4
SERVE_RESUME = [
    spec("sv-reg-d9-c1", "explore", "register", 9),
    spec("sv-reg-d11", "explore", "register", 11, crashes=0),
    spec("sv-cas-22-d12", "live", "cas", 12, prop="2,2"),
]
SERVE_EXPECTED_STATS = {
    "colds": len(SERVE_COLD),
    "warm_hits": len(SERVE_COLD) * SERVE_WARM_REPEATS,
    "resumes": len(SERVE_RESUME),
}

WORKLOADS = list(CLI_WORKLOADS) + ["store-serve"]


def serve_session(rng):
    """The planned query sequence of one session: cold, warm, resume
    phases in that order, each phase shuffled by the seed."""
    cold = list(SERVE_COLD)
    warm = [q for q in SERVE_COLD for _ in range(SERVE_WARM_REPEATS)]
    resume = list(SERVE_RESUME)
    for phase in (cold, warm, resume):
        rng.shuffle(phase)
    return [("cold", q) for q in cold] + [("warm", q) for q in warm] + \
        [("resume", q) for q in resume]


def spec_argv(s):
    argv = ["-k", s["kind"], "-i", s["impl"], "-n", str(s["n"]),
            "--depth", str(s["depth"]), "--crashes", str(s["crashes"])]
    if s["kind"] == "live":
        argv += ["-p", s["property"], "--max-period", str(s["max_period"]),
                 "--pump", str(s["pump"])]
    return argv


# ---------------------------------------------------------------------------
# Processes

class Proc:
    """One finished child: wall time, exit status, output, max RSS."""

    def __init__(self, wall, rc, out, err, maxrss_kb, timed_out):
        self.wall, self.rc, self.out, self.err = wall, rc, out, err
        self.maxrss_kb, self.timed_out = maxrss_kb, timed_out

    @property
    def failed(self):
        return self.rc != 0 or self.timed_out


def limit_memory(mb):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (mb << 20, mb << 20))
    return apply


def run_proc(argv, timeout=QUERY_TIMEOUT_S, mem_mb=QUERY_MEM_MB):
    """Run argv to completion in its own process group under a wall
    clock timeout and an address-space cap; the wall time runs from
    spawn to exit and the max RSS comes from the child's rusage."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         preexec_fn=limit_memory(mem_mb), start_new_session=True)
    timed_out = []

    def kill():
        timed_out.append(True)
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    err_chunks = []
    drain = threading.Thread(target=lambda: err_chunks.append(p.stderr.read()))
    drain.start()
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    timer.cancel()
    drain.join()
    p.stdout.close()
    p.stderr.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, p.returncode, out.decode(errors="replace"),
                b"".join(err_chunks).decode(errors="replace"), ru.ru_maxrss,
                bool(timed_out))


def build(trace):
    """Build slx (and, for a traced run, the tracer) from source, with
    dune's shared cache off so nothing is written outside the tree.
    A tracer that no longer compiles against the library is reported,
    not fatal: the traced run then marks every query stale."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "bin"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no slx source tree at " + ROOT)
    if shutil.which("dune") is None:
        fail("dune is not installed")
    r = subprocess.run(["dune", "build", "--root", ROOT, "--cache=disabled",
                        "./bin/slx_cli.exe"],
                       cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if r.returncode != 0 or not os.path.isfile(SLX):
        fail("dune build of slx failed:\n" + r.stderr.decode(errors="replace")[-4000:])
    if not trace:
        return True
    r = subprocess.run(["dune", "build", "--root", ROOT, "--cache=disabled",
                        "./perfbench/tracer/slx_trace.exe"],
                       cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if r.returncode != 0:
        log("tracer build failed; the layer table will be stale:\n"
            + r.stderr.decode(errors="replace")[-2000:])
        return False
    return True


def fail(msg):
    print("perfbench: error: " + msg, file=sys.stderr)
    sys.exit(2)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Verdict checks against perfbench/expected.json

def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        try:
            return json.loads(line)
        except ValueError:
            continue
    return None


def points(text, prefix):
    """The freedom points on the line of `slx figure1` starting with prefix."""
    for line in text.splitlines():
        if line.startswith(prefix):
            return sorted(p.strip().replace("-freedom", "")
                          for p in line[len(prefix):].split("-freedom,") if p.strip())
    return None


def check_cli(qid, argv, out, exp):
    """Returns (wrong, drift, cert).  `wrong` is a paper-level miss;
    `drift` a difference from the runs / digests / certificates
    recorded at the benchmark's defining commit; `cert` is the lasso
    certificate to re-validate in the traced run."""
    e = exp.get(qid)
    if e is None:
        return True, False, None
    rec = e.get("recorded", {})
    cmd = argv.split()[0]
    if cmd in ("explore", "live-explore"):
        j = last_json(out)
        if j is None:
            return True, False, None
        wrong = j.get("outcome") != e["verdict"]
        st = j.get("stats", {})
        got = {"runs": st.get("runs"), "history_digest": st.get("history_digest")}
        cert = None
        if j.get("outcome") == "lasso":
            cert = {"stem": j.get("stem"), "cycle": j.get("cycle")}
            got["cert"] = cert
        drift = any(got.get(k) != v for k, v in rec.items())
        return wrong, drift, cert
    if cmd == "figure1":
        wrong = (points(out, "strongest not excluding:") != sorted(e["strongest"])
                 or points(out, "weakest excluding:") != sorted(e["weakest"]))
        return wrong, sha(out) != rec.get("sha256"), None
    if cmd == "audit":
        first = out.splitlines()[0] if out else ""
        wrong = not first.endswith(" %d dirty" % e["dirty"])
        return wrong, sha(out) != rec.get("sha256"), None
    return True, False, None


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_serve(sid, result, exp):
    """Check one serve result line; returns (wrong, drift)."""
    e = exp.get(sid)
    if e is None or not isinstance(result, dict) or result.get("state") != "done":
        return True, False
    r = result.get("result", {})
    wrong = r.get("outcome") != e["verdict"]
    rec = e.get("recorded", {})
    drift = ("runs" in rec and r.get("runs") != rec["runs"]) or \
        ("cert" in rec and {"stem": r.get("stem"), "cycle": r.get("cycle")} != rec["cert"])
    return wrong, drift


# ---------------------------------------------------------------------------
# Measurement helpers

def reference_loop():
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOP_N):
        x += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Scales wall times to the reference speed.  A step timed between
    two reference loops that took c0 and c1 seconds counts as
    wall * REF_LOOP_S / ((c0 + c1) / 2); the loop after one step is the
    loop before the next."""

    def __init__(self):
        self.loops = []
        self.mark()

    def mark(self):
        """Run the loop now, as the `before` of the next step."""
        self.last = reference_loop()
        self.loops.append(self.last)

    def scale(self, wall):
        before = self.last
        self.mark()
        return wall * REF_LOOP_S / ((before + self.last) / 2)


def pct(values, q):
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    return statistics.quantiles(s, n=100, method="inclusive")[q - 1]


def fresh_dir(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def cli_setup(workload):
    """Set-up of a CLI workload: a fresh work directory, the expected
    answers loaded, and the binary answering once."""
    t0 = time.perf_counter()
    d = fresh_dir("%s-%d" % (workload, os.getpid()))
    exp = load_expected()
    probe = run_proc([SLX, "--version"])
    if probe.failed:
        fail("slx does not start: " + probe.err)
    return time.perf_counter() - t0, d, exp


class Tally:
    def __init__(self):
        self.walls = []  # at the reference speed
        self.raw_walls = []
        self.by_query = {}
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.drift = 0
        self.problems = []  # reported on stderr
        self.broken = []  # lifecycle or counter faults: the run is not correct

    def record(self, qid, proc, wrong, drift, scaled=None):
        """Count one query; `scaled` is its wall time at the reference
        speed (the traced run passes none)."""
        self.attempted += 1
        self.rss_kb = max(self.rss_kb, proc.maxrss_kb)
        if proc.failed:
            self.failed += 1
            self.problems.append("%s failed (rc %s%s)" % (
                qid, proc.rc, ", timeout" if proc.timed_out else ""))
            return
        self.walls.append(proc.wall if scaled is None else scaled)
        self.raw_walls.append(proc.wall)
        self.by_query.setdefault(qid, []).append(self.walls[-1])
        if wrong:
            self.wrong += 1
            self.problems.append("%s: wrong verdict" % qid)
        if drift:
            self.drift += 1
            self.problems.append("%s: drift from the recorded runs/digest" % qid)


# ---------------------------------------------------------------------------
# Serve lifecycle

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def children_of(pid):
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            kids.append(int(entry))
    return kids


def hwm_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def alive(pid):
    try:
        with open("/proc/%d/stat" % pid) as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Server:
    """One `slx serve -j 1` on a free loopback port over a fresh store."""

    def __init__(self, name):
        t0 = time.perf_counter()
        self.dir = fresh_dir(name)
        self.store = os.path.join(self.dir, "slx.store")
        self.port = free_port()
        self.log = open(os.path.join(self.dir, "serve.out"), "w+")
        self.proc = subprocess.Popen(
            [SLX, "serve", "-j", "1", "--host", "127.0.0.1",
             "--port", str(self.port), "--store", self.store],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=self.log,
            stderr=subprocess.STDOUT, preexec_fn=limit_memory(QUERY_MEM_MB),
            start_new_session=True)
        self.workers = set()
        self.maxrss_kb = 0
        deadline = time.monotonic() + 30
        while True:
            self.log.seek(0)
            if '"serving"' in self.log.read():
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                fail("slx serve did not come up on port %d" % self.port)
            time.sleep(0.001)
        if self.query(["--stats"]).failed:
            self.kill()
            fail("slx serve does not answer /stats")
        self.setup_s = time.perf_counter() - t0

    def query(self, argv):
        return run_proc([SLX, "query", "--host", "127.0.0.1",
                         "--port", str(self.port)] + argv)

    def rss_kb(self):
        """Peak RSS of the coordinator or its worker, whichever is larger."""
        kids = children_of(self.proc.pid)
        self.workers.update(kids)
        return max([hwm_kb(self.proc.pid)] + [hwm_kb(k) for k in kids])

    def stats(self):
        r = self.query(["--stats"])
        return None if r.failed else last_json(r.out)

    def shutdown(self):
        """Ask the server to exit; returns the problems found (a server
        still running, or a worker it left behind)."""
        problems = []
        self.rss_kb()
        self.query(["--shutdown"])
        deadline = time.monotonic() + 20
        status = None
        while time.monotonic() < deadline:
            pid, st, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                status, self.maxrss_kb = st, ru.ru_maxrss
                self.proc.returncode = os.waitstatus_to_exitcode(st)
                break
            time.sleep(0.005)
        if status is None:
            problems.append("slx serve did not exit after --shutdown")
            self.kill()
        orphans = [w for w in self.workers if alive(w)]
        deadline = time.monotonic() + 5
        while orphans and time.monotonic() < deadline:
            time.sleep(0.01)
            orphans = [w for w in orphans if alive(w)]
        for w in orphans:
            problems.append("orphaned serve worker %d" % w)
            try:
                os.kill(w, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.log.close()
        return problems

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        for w in self.workers:
            try:
                os.kill(w, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()


def check_serve_stats(st):
    if st is None:
        return ["no /stats answer"]
    store = st.get("store", {})
    return ["/stats %s = %s, planned %s" % (k, store.get(k), v)
            for k, v in SERVE_EXPECTED_STATS.items() if store.get(k) != v]


# ---------------------------------------------------------------------------
# Untraced runs: the end-to-end metrics

def measure_cli(workload, seed, seconds):
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        s, work, exp = cli_setup(workload)
        setups.append(speed.scale(s))
    queries = CLI_WORKLOADS[workload]
    rng = random.Random(seed)
    tally = Tally()
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and tally.attempted >= MIN_SAMPLES:
            break
        order = list(queries)
        rng.shuffle(order)
        for qid, argv in order:
            proc = run_proc([SLX] + argv.split())
            scaled = speed.scale(proc.wall)
            wrong, drift, _ = (False, False, None) if proc.failed else \
                check_cli(qid, argv, proc.out, exp)
            tally.record(qid, proc, wrong, drift, scaled)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(work, ignore_errors=True)
    return tally, elapsed, statistics.median(setups), speed


def measure_serve(seed, seconds):
    exp = load_expected()
    rng = random.Random(seed)
    tally = Tally()
    speed = HostSpeed()
    setups = []
    busy = 0.0
    session = 0
    while busy < seconds or tally.attempted < MIN_SAMPLES:
        session += 1
        speed.mark()
        server = Server("store-serve-%d-%d" % (os.getpid(), session))
        setups.append(speed.scale(server.setup_s))
        try:
            t0 = time.perf_counter()
            for phase, (sid, s) in serve_session(rng):
                proc = server.query(spec_argv(s) + ["-w"])
                scaled = speed.scale(proc.wall)
                proc.maxrss_kb = server.rss_kb()
                wrong, drift = (False, False) if proc.failed else \
                    check_serve(sid, last_json(proc.out), exp)
                tally.record(phase + ":" + sid, proc, wrong, drift, scaled)
            busy += time.perf_counter() - t0
            tally.broken += check_serve_stats(server.stats())
        finally:
            tally.broken += server.shutdown()
        tally.rss_kb = max(tally.rss_kb, server.maxrss_kb)
        shutil.rmtree(server.dir, ignore_errors=True)
    return tally, busy, statistics.median(setups), speed


def end_to_end(workload, seed, seconds):
    """The end-to-end metrics.  Query and set-up times are at the
    reference speed (HostSpeed); queries_per_s is the completed queries
    over the sum of their times, so it leaves out the harness's own
    work between queries."""
    if workload == "store-serve":
        tally, elapsed, setup, speed = measure_serve(seed, seconds)
    else:
        tally, elapsed, setup, speed = measure_cli(workload, seed, seconds)
    walls_ms = [w * 1000 for w in tally.walls]
    raw_ms = [w * 1000 for w in tally.raw_walls]
    metrics = {
        "queries_per_s": (len(walls_ms) / (sum(walls_ms) / 1000), "1/s"),
        "query_p50_ms": (pct(walls_ms, 50), "ms"),
        "query_p90_ms": (pct(walls_ms, 90), "ms"),
        "peak_rss_mb": (tally.rss_kb / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    notes = ["samples: %d queries in %.1f s" % (len(walls_ms), elapsed),
             "wrong_verdicts: %d   failed: %d / %d   drift: %d" % (
                 tally.wrong, tally.failed, tally.attempted, tally.drift),
             "reference loop: median %.2f ms over %d (%.2f ms is speed 1)" % (
                 1000 * statistics.median(speed.loops), len(speed.loops),
                 1000 * REF_LOOP_S),
             "raw wall clock: %.4f queries/s of query time, p50 %.1f ms, p90 %.1f ms" % (
                 len(raw_ms) / (sum(raw_ms) / 1000), pct(raw_ms, 50), pct(raw_ms, 90)),
             "per query, at the reference speed:"]
    notes += ["  %-24s median %8.1f ms over %d" % (q, 1000 * statistics.median(w), len(w))
              for q, w in sorted(tally.by_query.items())]
    return tally, metrics, notes


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics

class Tracer:
    """The in-process replica (perfbench/tracer).  A run starts one per
    pass, so no pass inherits the previous one's heap; every tracer
    appends its spans to the run's one span file, ids continuing."""

    def __init__(self, work, spans_path, first_id):
        self.proc = subprocess.Popen([TRACER, work, spans_path, str(first_id)], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     preexec_fn=limit_memory(4 * QUERY_MEM_MB),
                                     start_new_session=True, text=True)

    def ask(self, *fields):
        self.proc.stdin.write("\t".join(str(f) for f in fields) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("tracer died on: " + " ".join(map(str, fields)))
        return json.loads(line)

    def finish(self):
        """Write the spans; returns the next free span id."""
        reply = self.ask("finish")
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        if reply["spans_dropped"]:
            log("%d spans beyond the per-query cap were counted, not kept"
                % reply["spans_dropped"])
        return reply["next_span_id"]


LAYER_METRICS = [
    # name, unit
    ("sim.instances", "count"), ("sim.instance_ms", "ms"),
    ("sim.instance_mwords", "Mwords"),
    ("driver.invoke_calls", "count"), ("driver.invoke_ms", "ms"),
    ("check.calls", "count"), ("check.ms", "ms"),
    ("explore.ms", "ms"), ("explore.self_ms", "ms"), ("explore.nodes", "count"),
    ("explore.steps_executed", "count"), ("explore.steps_replayed", "count"),
    ("explore.cache_hit_ratio", "ratio"), ("explore.symmetry_pruned", "count"),
    ("explore.race_reversals", "count"),
    ("live.ms", "ms"), ("live.self_ms", "ms"), ("live.nodes", "count"),
    ("live.steps_executed", "count"), ("live.cache_hit_ratio", "ratio"),
    ("live.cycles_examined", "count"), ("live.fair_cycles", "count"),
    ("live.invoke_order_prunes", "count"),
    ("figure1.ms", "ms"), ("figure1.sim_ms", "ms"), ("figure1.check_ms", "ms"),
    ("audit.ms", "ms"), ("audit.runs", "count"), ("audit.hb_edges", "count"),
    ("store.open_ms", "ms"), ("store.commit_ms", "ms"), ("store.bytes", "bytes"),
    ("store.warm_ms", "ms"), ("store.warm_hits", "count"),
    ("store.steps_saved", "count"),
    ("serve.rtt_ms", "ms"), ("serve.server_ms", "ms"), ("serve.overhead_ms", "ms"),
    ("serve.dedup_hits", "count"), ("serve.re_leases", "count"),
    ("gc.minor_mwords", "Mwords"), ("gc.major_collections", "count"),
    ("gc.top_heap_mb", "MB"),
    ("trace.coverage", "ratio"), ("trace.overhead_frac", "ratio"),
    ("trace.replica_mismatches", "count"),
    ("wrong_verdicts", "count"), ("failed_frac", "ratio"),
    ("verdict_drift", "count"),
]

STATS_REPLICA = ("runs", "nodes", "steps_executed", "history_digest")


def replica_matches(argv, cli_out, t):
    """Does the in-process replica reproduce what slx printed?"""
    if t["verdict"] != t["plain_verdict"]:
        return False
    cmd = argv.split()[0]
    if cmd in ("explore", "live-explore"):
        j = last_json(cli_out) or {}
        st = j.get("stats", {})
        return all(st.get(k) == t["stats"][k] == t["plain_stats"][k]
                   for k in STATS_REPLICA)
    return cli_out == t["text"] == t["plain_text"]


def code(d):
    """Explore.code_of_decision over the CLI's printed decisions."""
    kind, rest = d[0], d[1:]
    p = int(rest.split("(")[0])
    return (p << 2) | {"S": 0, "I": 1, "C": 2}[kind]


class Layers:
    """Per-layer sums over a traced run; reported per traced query."""

    def __init__(self):
        self.sum = {name: 0.0 for name, _ in LAYER_METRICS}
        self.cache_hits = {"explore": 0, "live": 0}
        self.queries = 0
        self.traced_ms = self.self_ms = 0.0
        self.plain_ms = self.top_ms = 0.0

    def add_query(self, t):
        self.queries += 1
        L = t.get("layers", {})

        def lay(name, field):
            return L.get(name, {}).get(field, 0.0)

        s = self.sum
        s["sim.instances"] += lay("sim.instance", "calls")
        s["sim.instance_ms"] += lay("sim.instance", "ms")
        s["sim.instance_mwords"] += lay("sim.instance", "mwords")
        s["driver.invoke_calls"] += lay("driver.invoke", "calls")
        s["driver.invoke_ms"] += lay("driver.invoke", "ms")
        s["check.calls"] += lay("check", "calls")
        s["check.ms"] += lay("check", "ms")
        for eng in ("explore", "live"):
            s[eng + ".ms"] += lay(eng, "ms")
            s[eng + ".self_ms"] += lay(eng, "self_ms")
        st = t.get("stats")
        if st:
            eng = "explore" if "explore" in L else "live"
            for k in ("nodes", "steps_executed", "steps_replayed", "symmetry_pruned",
                      "race_reversals", "cycles_examined", "fair_cycles",
                      "invoke_order_prunes"):
                if eng + "." + k in s:
                    s[eng + "." + k] += st[k]
            self.cache_hits[eng] += st["cache_hits"]
        if "figure1" in L:
            s["figure1.ms"] += lay("figure1", "ms")
            s["figure1.sim_ms"] += lay("figure1.sim", "ms")
            s["figure1.check_ms"] += lay("check", "ms")
        s["audit.ms"] += lay("audit", "ms")
        s["audit.runs"] += t.get("audit.runs", 0)
        s["audit.hb_edges"] += t.get("audit.hb_edges", 0)
        gc = t.get("gc", {})
        s["gc.minor_mwords"] += gc.get("minor_mwords", 0)
        s["gc.major_collections"] += gc.get("major_collections", 0)
        s["gc.top_heap_mb"] = max(s["gc.top_heap_mb"], gc.get("top_heap_mb", 0))
        self.traced_ms += t.get("traced_ms", 0)
        self.self_ms += sum(v.get("self_ms", 0) for v in L.values())
        self.plain_ms += t.get("plain_ms", 0)
        self.top_ms += t.get("traced_top_ms", 0)

    def report(self, tally, mismatches):
        n = max(1, self.queries)
        out = {}
        for name, _ in LAYER_METRICS:
            v = self.sum[name]
            if name == "gc.top_heap_mb":
                out[name] = v
            elif name.endswith("cache_hit_ratio"):
                eng = name.split(".")[0]
                nodes = self.sum[eng + ".nodes"]
                out[name] = self.cache_hits[eng] / nodes if nodes else 0.0
            else:
                out[name] = v / n
        out["trace.coverage"] = self.self_ms / self.traced_ms if self.traced_ms else 0.0
        out["trace.overhead_frac"] = self.top_ms / self.plain_ms - 1 if self.plain_ms else 0.0
        if mismatches:
            # Attribution for a configuration other than the one timed
            # is never reported.
            out = {k: 0.0 for k in out}
        out["trace.replica_mismatches"] = mismatches
        out["wrong_verdicts"] = tally.wrong
        out["failed_frac"] = tally.failed / max(1, tally.attempted)
        out["verdict_drift"] = tally.drift
        units = dict(LAYER_METRICS)
        return {k: (out[k], units[k]) for k, _ in LAYER_METRICS}


def traced_cli(workload, seed, seconds, tracer_ok, spans_path):
    _, work, exp = cli_setup(workload)
    queries = CLI_WORKLOADS[workload]
    rng = random.Random(seed)
    tally, layers, mismatches, span_id = Tally(), Layers(), 0, 1
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or tally.attempted < len(queries):
        tracer = Tracer(work, spans_path, span_id) if tracer_ok else None
        order = list(queries)
        rng.shuffle(order)
        for qid, argv in order:
            proc = run_proc([SLX] + argv.split())
            wrong, drift, cert = (False, False, None) if proc.failed else \
                check_cli(qid, argv, proc.out, exp)
            if cert is not None and tracer is not None:
                a = argv.split()
                v = tracer.ask("validate", qid, opt(a, "-i"), opt(a, "-p"), opt(a, "-n", "2"),
                               opt(a, "--depth"),
                               ",".join(str(code(d)) for d in cert["stem"]),
                               ",".join(str(code(d)) for d in cert["cycle"]))
                wrong = wrong or not v["accepted"]
            tally.record(qid, proc, wrong, drift)
            if proc.failed:
                continue
            if tracer is None:
                mismatches += 1
                continue
            t = tracer.ask("query", qid, argv)
            if replica_matches(argv, proc.out, t):
                layers.add_query(t)
            else:
                mismatches += 1
                tally.problems.append("%s: replica differs from slx output" % qid)
        if tracer is not None:
            span_id = tracer.finish()
    shutil.rmtree(work, ignore_errors=True)
    return tally, layers.report(tally, mismatches)


def opt(argv, key, default=None):
    return argv[argv.index(key) + 1] if key in argv else default


def traced_serve(seed, seconds, tracer_ok, spans_path):
    exp = load_expected()
    rng = random.Random(seed)
    tally, layers, mismatches, span_id = Tally(), Layers(), 0, 1
    store = {k: 0.0 for k in ("open_ms", "commit_ms", "bytes", "warm_ms",
                              "warm_hits", "steps_saved", "dedup_hits", "re_leases")}
    rtt = server_ms = spans_ms = 0.0
    posts = sessions = warm_reads = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or sessions == 0:
        sessions += 1
        server = Server("store-serve-traced-%d-%d" % (os.getpid(), sessions))
        tracer = Tracer(WORK, spans_path, span_id) if tracer_ok else None
        answers = {}
        try:
            for _, (sid, s) in serve_session(rng):
                if tracer is None:
                    proc = server.query(spec_argv(s) + ["-w"])
                    res = last_json(proc.out)
                else:
                    t = tracer.ask("post", sid, server.port, json.dumps(s))
                    res = t["result"]
                    proc = Proc(t["rtt_ms"] / 1000, 0 if t["ok"] and res else 1,
                                "", "", server.rss_kb(), False)
                    if not proc.failed:
                        posts += 1
                        rtt += t["rtt_ms"]
                        spans_ms += sum(v["self_ms"] for v in t["layers"].values())
                        server_ms += 1000 * res.get("elapsed_s", 0)
                wrong, drift = (False, False) if proc.failed else check_serve(sid, res, exp)
                tally.record(sid, proc, wrong, drift)
                answers[sid] = res
            st = server.stats()
            tally.broken += check_serve_stats(st)
            if st:
                store["warm_hits"] += st["store"]["warm_hits"]
                store["steps_saved"] += st["store"]["steps_saved"]
                store["dedup_hits"] += st["dedup_hits"]
                store["re_leases"] += st["re_leases"]
        finally:
            tally.broken += server.shutdown()
        if tracer is not None:
            t = tracer.ask("store", "store-%d" % sessions, server.store,
                           *[json.dumps(s) for _, s in SERVE_COLD])
            for k in ("open_ms", "commit_ms", "bytes"):
                store[k] += t[k]
            for (sid, _), w in zip(SERVE_COLD, t["warm"]):
                store["warm_ms"] += w["ms"]
                warm_reads += 1
                mine, served = w["result"] or {}, (answers.get(sid) or {}).get("result", {})
                if any(mine.get(k) != served.get(k) for k in ("outcome", "runs", "stem", "cycle")):
                    mismatches += 1
                    tally.problems.append("%s: in-process warm read differs from serve" % sid)
            span_id = tracer.finish()
        else:
            mismatches += len(SERVE_COLD)
        shutil.rmtree(server.dir, ignore_errors=True)
    out = layers.report(tally, mismatches)
    if mismatches == 0:
        per_session = {k: v / sessions for k, v in store.items()}
        out["store.open_ms"] = (per_session["open_ms"], "ms")
        out["store.commit_ms"] = (per_session["commit_ms"], "ms")
        out["store.bytes"] = (per_session["bytes"], "bytes")
        out["store.warm_ms"] = (store["warm_ms"] / max(1, warm_reads), "ms")
        out["store.warm_hits"] = (per_session["warm_hits"], "count")
        out["store.steps_saved"] = (per_session["steps_saved"], "count")
        out["serve.dedup_hits"] = (per_session["dedup_hits"], "count")
        out["serve.re_leases"] = (per_session["re_leases"], "count")
        out["serve.rtt_ms"] = (rtt / max(1, posts), "ms")
        out["serve.server_ms"] = (server_ms / max(1, posts), "ms")
        out["serve.overhead_ms"] = ((rtt - server_ms) / max(1, posts), "ms")
        out["trace.coverage"] = (spans_ms / rtt if rtt else 0.0, "ratio")
    return tally, out


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tracer_ok = build(args.trace == 1)
    os.makedirs(WORK, exist_ok=True)
    if args.trace:
        spans = os.path.join(WORK, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        if os.path.exists(spans):
            os.remove(spans)
        if args.workload == "store-serve":
            tally, metrics = traced_serve(args.seed, args.seconds, tracer_ok, spans)
        else:
            tally, metrics = traced_cli(args.workload, args.seed, args.seconds,
                                        tracer_ok, spans)
        notes = ["spans: " + (os.path.relpath(spans, ROOT) if tracer_ok else "none")]
    else:
        tally, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)

    for p in (tally.broken + tally.problems)[:20]:
        log(p)
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print("  %-28s %14.4f %s" % (name, value, unit))
    correct = tally.wrong == 0 and tally.failed == 0 and not tally.broken
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
