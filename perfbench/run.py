#!/usr/bin/env python3
"""The rustudy benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. It builds `rustudy` and the
benchmark's probe from source (into $CARGO_TARGET_DIR, default
`.bench_build`), runs one workload in fresh processes, checks every
output, writes a stamped result file under `.bench_runs/`, and prints
one JSON object as the last line of its standard output. With
`--trace 0` that object holds the end-to-end metrics; with `--trace 1`
the per-layer metrics of a separate traced run. The exit code is not 0
when a correctness check fails or the tree cannot be built.

Workloads (see perfbench/README.md for why each was chosen):
  check_scale   cold `rustudy check FILE` over nine labeled 1k-3k-function programs
  corpus_sweep  study + oracle passes over the corpus and its mutants, in one process
  serve_mixed   open-loop mixed traffic against `rustudy serve`
"""

import argparse
import gc
import hashlib
import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

WORKLOADS = ("check_scale", "corpus_sweep", "serve_mixed")
CLI = "bin/rustudy_cli.exe"
PROBE = "perfbench/probe/probe.exe"
END_TO_END = [
    ("setup_s", "s"),
    ("op.p50_ms", "ms"),
    ("op.tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# set-up is timed this many times per run; setup_s is the median
SETUP_REPEATS = 21
# serve_mixed: the two fixed rates, the rate ladder, and the latency
# limit a ladder rung's tail must meet (requests per second, ms).
SERVE_LOW_RPS = 40
SERVE_HIGH_RPS = 200
SERVE_LADDER_RPS = [300, 400, 550, 700, 900, 1150]
SERVE_LIMIT_MS = 250.0
# the request plan holds enough distinct requests for the fixed-rate
# phases plus this many; the generator cycles through it
SERVE_PLAN_EXTRA = 6000
# a phase is invalid when the generator's own lateness (due ->
# noticed) has a 99th percentile above this: at the fixed rates that
# fails the run, on the ladder it ends the ladder
LAG_BOUND_MS = 20.0
# check_scale's traced run serves its programs at this rate (1/s) for
# this long (s), for the serving layers
CHECK_SERVED_RPS = 3.0
CHECK_SERVED_S = 8.0


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def now():
    return time.perf_counter()


# ---------------------------------------------------------------- stats


def median(xs):
    return statistics.median(xs)


def tail(xs):
    """The highest percentile with at least ten samples beyond it: the
    11th largest sample. Returns (value, percentile, samples)."""
    n = len(xs)
    if n < 11:
        return None
    s = sorted(xs)
    return s[n - 11], 100.0 * (n - 10) / n, n


def pct(xs, q):
    s = sorted(xs)
    if not s:
        return 0.0
    return s[min(len(s) - 1, int(q * len(s)))]


# ---------------------------------------------------------------- build


def check_tree(root):
    for need in ("dune-project", "bin/rustudy_cli.ml", "lib", "perfbench/probe/dune"):
        if not os.path.exists(os.path.join(root, need)):
            die("not a rustudy source tree (missing %s); run from its root" % need)


def build(root, build_dir):
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(build_dir, ".xdg-cache")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "perfbench-build.log")
    t0 = now()
    with open(log, "wb") as f:
        rc = subprocess.call(
            ["dune", "build", "--root", root, "--build-dir", build_dir, "-j", "2",
             "./" + CLI, "./" + PROBE],
            cwd=root, env=env, stdout=f, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(log, "rb") as f:
            sys.stderr.write(f.read()[-4000:].decode("utf-8", "replace"))
        die("build failed (exit %d)" % rc)
    out = os.path.join(build_dir, "default")
    return os.path.join(out, CLI), os.path.join(out, PROBE), now() - t0


# ---------------------------------------------------------------- stamp


def tree_digest(root):
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def git_rev(root):
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def ocaml_version():
    try:
        r = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                           capture_output=True, text=True, timeout=30)
        return r.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def stamp(root, args, build_s):
    return {
        "git_rev": git_rev(root),
        "tree_sha256": tree_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "ocaml": ocaml_version(),
        "python": sys.version.split()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "build_s": build_s,
        "started_unix": time.time(),
    }


# ---------------------------------------------------------------- children


def run_child(argv, out_path, cwd=None):
    """Run argv to completion with stdout/stderr in files; returns wall
    seconds, exit code and peak RSS in MB (from wait4)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = now()
        p = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd)
        _, status, ru = os.wait4(p.pid, 0)
        t1 = now()
    p.returncode = os.waitstatus_to_exitcode(status)
    return t1 - t0, p.returncode, ru.ru_maxrss / 1024.0


def read(path):
    with open(path, "rb") as f:
        return f.read().decode("utf-8", "replace")


def probe(ctx, *args):
    out = os.path.join(ctx["work"], "probe.out")
    _, rc, rss = run_child([ctx["probe"]] + [str(a) for a in args], out)
    if rc != 0:
        sys.stderr.write(read(out + ".err")[-4000:])
        die("probe %s failed (exit %d)" % (args[0], rc), 1)
    return rss


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------- check_scale


def label_holds(lab, out, code):
    """A bug label must be reported, by kind, in its site function and
    nothing else reported; a control must be reported clean."""
    lines = [l for l in out.split("\n") if l]
    if lab["tag"] is None:
        return code == 0 and lines == ["no issues found"]
    prefix = "[%s] bug in `%s`" % (lab["tag"], lab["site"])
    return code == 1 and bool(lines) and all(l.startswith(prefix) for l in lines)


def check_scale(ctx):
    work, cli, seconds = ctx["work"], ctx["cli"], ctx["seconds"]
    one = os.path.join(work, "one.rs")
    with open(one, "w") as f:
        f.write("fn main() {}\n")
    setups, failures = [], []
    for i in range(SETUP_REPEATS):
        t, rc, _ = run_child([cli, "check", one], os.path.join(work, "one.out"))
        if rc != 0 or read(os.path.join(work, "one.out")) != "no issues found\n":
            failures.append("setup check of a one-line file")
        setups.append(t)
    ctx["runs"]["setup_s"] = setups
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    probe(ctx, "gen-check", ctx["seed"], inputs)
    labels = load_json(os.path.join(inputs, "labels.json"))
    by_file = {l["file"]: l for l in labels}

    if ctx["trace"]:
        out = os.path.join(work, "traced.json")
        probe(ctx, "check-traced", inputs, seconds, out)
        r = load_json(out)
        attempted = len(r["outputs"])
        failed = 0
        for o in r["outputs"]:
            if not label_holds(by_file[o["file"]], o["out"], o["exit"]):
                failed += 1
                failures.append("label missed: " + os.path.basename(o["file"]))
        if r["mismatches"]:
            failures.append("traced output differs from untraced: %s" % r["mismatches"])
        ctx["runs"]["traced"] = {k: v for k, v in r.items() if k != "outputs"}
        ctx["spans"] = r["spans"]
        served, bad, n = check_served(ctx, labels, r["outputs"])
        failures += bad
        attempted += n
        failed += len(bad)
        m = dict(r["metrics"])
        m.update(served)
        m["server.handler_ms"] = r["untraced_ms_per_op"]
        return attempted, failed, failures, m

    # whole rounds over the set, each in a seeded order, until the
    # measuring time is used up: every round weighs each program once
    rng = random.Random(ctx["seed"])
    samples, peak, attempted, failed = [], 0.0, 0, 0
    t_end = now() + seconds
    while now() < t_end:
        order = list(labels)
        rng.shuffle(order)
        for lab in order:
            out = os.path.join(work, "check.out")
            t, rc, rss = run_child([cli, "check", lab["file"]], out)
            attempted += 1
            samples.append(t * 1000.0)
            peak = max(peak, rss)
            if not label_holds(lab, read(out), rc):
                failed += 1
                failures.append("label missed: " + lab["name"])
    elapsed = sum(samples) / 1000.0
    ctx["runs"]["check_ms"] = samples
    tl = tail(samples)
    if tl is None:
        die("too few checks (%d) for a tail in %s s" % (len(samples), seconds), 1)
    ctx["tails"]["op.tail_ms"] = {"percentile": tl[1], "samples": tl[2]}
    return attempted, failed, failures, {
        "setup_s": median(setups),
        "op.p50_ms": median(samples),
        "op.tail_ms": tl[0],
        "throughput_per_s": attempted / elapsed,
        "peak_rss_mb": peak,
    }


def check_served(ctx, labels, outputs):
    """The serving layers on check_scale's inputs: a fresh daemon serves
    the nine programs, cycled, open-loop at CHECK_SERVED_RPS for
    CHECK_SERVED_S seconds, with a stats op after every third. Every
    served out/err/exit must equal the in-process Handlers.check of the
    same file. Returns (metrics, failures, requests)."""
    expected = {o["file"]: o for o in outputs}
    plan = []
    for k, lab in enumerate(labels):
        o = expected[lab["file"]]
        plan.append({"kind": "check", "out": o["out"], "err": o["err"], "exit": o["exit"],
                     "frame": frame({"id": k, "cmd": "check", "file": lab["file"],
                                     "source": read(lab["file"])})})
        if k % 3 == 2:
            plan.append({"kind": "admin", "frame": frame({"id": -k, "cmd": "stats"})})
    queue_len_max = 0

    def record(r):
        nonlocal queue_len_max
        if r["item"]["kind"] == "admin" and "stats" in r["resp"]:
            queue_len_max = max(queue_len_max, r["resp"]["stats"].get("queue_len", 0))

    sock = os.path.join(".bench_runs", "s%d.sock" % os.getpid())
    daemon, _ = start_daemon(ctx, sock)
    try:
        due = arrivals(random.Random(ctx["seed"]), CHECK_SERVED_RPS, 0.0, CHECK_SERVED_S)
        _, done, _, lags, bmax = drive(sock, max_connections(), plan, 0, due, now() + 0.01, record)
        final = rpc(sock, {"id": -1, "cmd": "stats"})["stats"]
        access = rpc(sock, {"id": -2, "cmd": "flight"})["access_log"]
    finally:
        stop_daemon(daemon)
        if os.path.exists(sock):
            os.unlink(sock)
    bad = [b for b in (judge(r) for r in done) if b]
    served, _ = join_access(ctx, done, access, final, queue_len_max, lags, bmax)
    ctx["runs"]["served"] = {"requests": len(done), "latency": latency_summary(done)}
    return served, bad, len(done)


# ---------------------------------------------------------------- corpus_sweep


def corpus_sweep(ctx):
    work, seconds = ctx["work"], ctx["seconds"]
    setups, failures = [], []
    for i in range(SETUP_REPEATS):
        t0 = now()
        p = subprocess.Popen([ctx["probe"], "setup"], stdout=subprocess.PIPE)
        line = p.stdout.readline()
        setups.append(now() - t0)
        p.stdout.read()
        p.wait()
        if p.returncode != 0 or not line.startswith(b"ready 170 "):
            failures.append("setup did not load the corpus")
    ctx["runs"]["setup_s"] = setups
    out = os.path.join(work, "sweep.json")
    rss = probe(ctx, "sweep", ctx["seed"], seconds, ctx["trace"], out)
    r = load_json(out)
    failures += r["checks_failed"]
    ctx["runs"]["pass_s"] = r["pass_s"]
    ctx["runs"]["report_md5"] = r["report_md5"]
    if ctx["trace"]:
        ctx["runs"]["traced"] = {k: v for k, v in r.items() if k not in ("pass_s", "metrics")}
        ctx["spans"] = r["spans"]
        return r["attempted"], r["failed"], failures, r["metrics"]
    ms = [s * 1000.0 for s in r["pass_s"]]
    tl = tail(ms)
    if tl is None:
        die("too few passes (%d) for a tail in %s s" % (len(ms), seconds), 1)
    ctx["tails"]["op.tail_ms"] = {"percentile": tl[1], "samples": tl[2]}
    ctx["runs"]["entries_per_pass"] = r["entries_per_pass"]
    return r["attempted"], r["failed"], failures, {
        "setup_s": median(setups),
        "op.p50_ms": median(ms),
        "op.tail_ms": tl[0],
        "throughput_per_s": r["entries_per_pass"] * len(ms) / sum(r["pass_s"]),
        "peak_rss_mb": rss,
    }


# ---------------------------------------------------------------- serve_mixed


def max_connections():
    """The generator's connections: at most nproc (and at most 4)."""
    return max(1, min(os.cpu_count() or 1, 4))


def frame(obj):
    b = json.dumps(obj, separators=(",", ":")).encode()
    return struct.pack(">I", len(b)) + b


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""
        self.req = None  # the request in flight

    def take_frame(self):
        if len(self.buf) < 4:
            return None
        (n,) = struct.unpack(">I", self.buf[:4])
        if len(self.buf) < 4 + n:
            return None
        body, self.buf = self.buf[4:4 + n], self.buf[4 + n:]
        return json.loads(body)


def rpc(path, obj):
    c = Conn(path)
    c.sock.sendall(frame(obj))
    while True:
        r = c.take_frame()
        if r is not None:
            c.sock.close()
            return r
        chunk = c.sock.recv(65536)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        c.buf += chunk


def start_daemon(ctx, sock):
    """Spawn the daemon; return (process, seconds until its first ping
    answer)."""
    if os.path.exists(sock):
        os.unlink(sock)
    log = open(os.path.join(ctx["work"], "daemon.err"), "ab")
    t0 = now()
    p = subprocess.Popen([ctx["cli"], "serve", "--socket", sock, "--access-log-cap", "65536"],
                         stdout=log, stderr=log, cwd=ctx["root"])
    while True:
        try:
            r = rpc(sock, {"id": 0, "cmd": "ping"})
            if r.get("status") == "ok":
                return p, now() - t0
        except (OSError, ConnectionError, ValueError):
            pass
        if p.poll() is not None:
            die("daemon exited during start-up", 1)
        if now() - t0 > 30:
            p.kill()
            p.wait()
            die("daemon did not answer ping within 30 s", 1)
        time.sleep(0.0005)


def hwm_mb(pid):
    """The process's resident high-water mark so far (VmHWM), in MB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def stop_daemon(p):
    """SIGTERM (graceful drain), wait, return peak RSS in MB."""
    p.send_signal(signal.SIGTERM)
    try:
        _, _, ru = os.wait4(p.pid, 0)
    except ChildProcessError:
        return 0.0
    return ru.ru_maxrss / 1024.0


def arrivals(rng, rate, start, duration):
    t, out = start, []
    while True:
        t += rng.expovariate(rate)
        if t >= start + duration:
            return out
        out.append(t)


def drive(sock, nconns, plan, cursor, due_times, t0, record):
    """Open-loop: each request is sent at its due time (t0 + offset) on
    an idle connection; at most one request in flight per connection.
    Returns (next plan cursor, samples, drain seconds after the last
    arrival, generator lag list, max backlog)."""
    conns = [Conn(sock) for _ in range(nconns)]
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    idle = list(conns)
    pending = []  # due, noticed-late requests waiting for a connection
    done, lags, backlog_max = [], [], 0
    i, n = 0, len(due_times)
    last_due = t0 + (due_times[-1] if due_times else 0.0)
    while i < n or pending or len(idle) < nconns:
        t = now()
        while i < n and t0 + due_times[i] <= t:
            due = t0 + due_times[i]
            item = plan[cursor % len(plan)]
            cursor += 1
            pending.append({"due": due, "noticed": t, "item": item})
            lags.append((t - due) * 1000.0)
            i += 1
        backlog_max = max(backlog_max, len(pending))
        while idle and pending:
            c = idle.pop()
            r = pending.pop(0)
            r["sent"] = now()
            c.sock.sendall(r["item"]["frame"])
            c.req = r
        timeout = 0.05
        if i < n:
            timeout = max(0.0, min(timeout, t0 + due_times[i] - now()))
        for key, _ in sel.select(timeout):
            c = key.data
            chunk = c.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("daemon closed a connection")
            c.buf += chunk
            resp = c.take_frame()
            if resp is not None:
                r = c.req
                r["recv"] = now()
                r["resp"] = resp
                c.req = None
                idle.append(c)
                done.append(r)
                record(r)
    finish = now()
    for c in conns:
        sel.unregister(c.sock)
        c.sock.close()
    return cursor, done, max(0.0, finish - last_due), lags, backlog_max


def saturate(sock, nconns, plan, cursor, dur, record):
    """Closed loop: every connection sends its next request as soon as
    its previous one is answered, for dur seconds. Returns (next plan
    cursor, completed requests, elapsed seconds)."""
    conns = [Conn(sock) for _ in range(nconns)]
    sel = selectors.DefaultSelector()
    done = []

    def send(c):
        nonlocal cursor
        r = {"item": plan[cursor % len(plan)]}
        cursor += 1
        r["due"] = r["sent"] = now()
        c.req = r
        c.sock.sendall(r["item"]["frame"])

    t0 = now()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
        send(c)
    busy = nconns
    while busy:
        for key, _ in sel.select(0.05):
            c = key.data
            chunk = c.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("daemon closed a connection")
            c.buf += chunk
            resp = c.take_frame()
            if resp is not None:
                r = c.req
                r["recv"] = now()
                r["resp"] = resp
                done.append(r)
                record(r)
                if now() - t0 < dur:
                    send(c)
                else:
                    busy -= 1
    elapsed = now() - t0
    for c in conns:
        sel.unregister(c.sock)
        c.sock.close()
    return cursor, done, elapsed


def judge(r):
    """None if the response is correct, else why not."""
    item, resp = r["item"], r["resp"]
    if item["kind"] == "admin":
        return None if resp.get("status") == "ok" and "stats" in resp else "stats op failed"
    if resp.get("status") in ("rejected", "error"):
        return "%s %s" % (resp.get("status"), resp.get("code"))
    if (resp.get("out"), resp.get("err"), resp.get("exit")) != (
            item["out"], item["err"], item["exit"]):
        return "served bytes differ from offline (%s)" % item["kind"]
    return None


def latency_summary(done):
    lat = [(r["recv"] - r["due"]) * 1000.0 for r in done if r["item"]["kind"] != "admin"]
    tl = tail(lat)
    kinds = {}
    for r in done:
        kinds.setdefault(r["item"]["kind"], []).append((r["recv"] - r["due"]) * 1000.0)
    return {
        "samples": len(lat),
        "p50_ms": median(lat) if lat else None,
        "tail_ms": tl[0] if tl else None,
        "tail_percentile": tl[1] if tl else None,
        "by_kind": {k: {"n": len(v), "p50_ms": median(v), "max_ms": max(v)}
                    for k, v in sorted(kinds.items())},
        "latencies_ms": {k: [round(x, 3) for x in v] for k, v in sorted(kinds.items())},
    }


def serve_mixed(ctx):
    sock = os.path.join(".bench_runs", "s%d.sock" % os.getpid())
    setups = []
    for k in range(9):
        p, t = start_daemon(ctx, sock)
        setups.append(t)
        if k < 8:
            stop_daemon(p)
    ctx["runs"]["setup_s"] = setups
    daemon = p
    try:
        return serve_measure(ctx, sock, daemon, setups)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        if os.path.exists(sock):
            os.unlink(sock)


def serve_measure(ctx, sock, daemon, setups):
    work, seconds, seed = ctx["work"], ctx["seconds"], ctx["seed"]
    failures = []
    n_conns = max_connections()
    # phase lengths: a quarter each for the fixed rates, a fifth for the
    # closed-loop capacity, the rest for the ladder
    low_s = high_s = seconds / 4.0
    sat_s = seconds / 5.0
    rung_s = (seconds - low_s - high_s - sat_s) / len(SERVE_LADDER_RPS)
    count = int((SERVE_LOW_RPS * low_s + SERVE_HIGH_RPS * high_s) * 1.1) + SERVE_PLAN_EXTRA
    plan_path = os.path.join(work, "plan.json")
    probe(ctx, "serve-plan", seed, count, plan_path)
    plan = load_json(plan_path)
    for k, item in enumerate(plan):
        if item["kind"] == "admin":
            item["frame"] = frame({"id": k, "cmd": "stats"})
        else:
            req = {"id": k, "cmd": "check", "file": item["file"], "source": item["source"],
                   "keep_going": True}
            if "deadline_ms" in item:
                req["deadline_ms"] = item["deadline_ms"]
            item["frame"] = frame(req)
    # the generator's own garbage collector stays out of the measured
    # phases: the plan is frozen, and collection is off until the end
    gc.collect()
    gc.freeze()
    gc.disable()
    rng = random.Random(seed)
    cursor = 0
    all_done, all_lags, backlog_max, queue_len_max = [], [], 0, 0
    phases = {}

    def record(r):
        nonlocal queue_len_max
        if r["item"]["kind"] == "admin" and "stats" in r["resp"]:
            queue_len_max = max(queue_len_max, r["resp"]["stats"].get("queue_len", 0))

    def phase(name, rate, dur):
        nonlocal cursor, backlog_max
        due = arrivals(rng, rate, 0.0, dur)
        t0 = now() + 0.01
        cursor, done, drain_s, lags, bmax = drive(sock, n_conns, plan, cursor, due, t0, record)
        all_done.extend(done)
        all_lags.extend(lags)
        backlog_max = max(backlog_max, bmax)
        bad = [judge(r) for r in done]
        s = latency_summary(done)
        s.update({"rate": rate, "seconds": dur, "arrived": len(due),
                  "achieved_rps": len(due) / dur, "failed": sum(1 for b in bad if b),
                  "drain_ms": drain_s * 1000.0, "backlog_max": bmax,
                  "lag_p99_ms": pct(lags, 0.99)})
        phases[name] = s
        return s, [b for b in bad if b]

    low, bad_low = phase("low", SERVE_LOW_RPS, low_s)
    high, bad_high = phase("high", SERVE_HIGH_RPS, high_s)
    # the daemon's memory high-water mark over the fixed-rate phases
    # (the ladder's length varies from run to run)
    rss = hwm_mb(daemon.pid)
    failures += bad_low + bad_high
    attempted = low["arrived"] + high["arrived"]
    failed = len(bad_low) + len(bad_high)
    for s in (low, high):
        if s["lag_p99_ms"] > LAG_BOUND_MS:
            failures.append("load generator fell behind at %d/s: lag p99 %.2f ms > %.1f ms"
                            % (s["rate"], s["lag_p99_ms"], LAG_BOUND_MS))
    # capacity: the completion rate with every connection kept busy
    cursor, sat_done, sat_elapsed = saturate(sock, n_conns, plan, cursor, sat_s, record)
    all_done.extend(sat_done)
    bad_sat = [b for b in (judge(r) for r in sat_done) if b]
    capacity = len(sat_done) / sat_elapsed
    phases["capacity"] = {"seconds": sat_elapsed, "completed": len(sat_done),
                          "rps": capacity, "failed": len(bad_sat)}
    attempted += len(sat_done)
    failed += len(bad_sat)
    failures += bad_sat
    # the ladder: rungs up to the first that misses the limit (a shed
    # or failed request misses it by definition), leaves a backlog that
    # does not drain within the limit, or outruns the generator
    ladder, passed = [], None
    for rate in SERVE_LADDER_RPS:
        s, bad = phase("ladder_%d" % rate, rate, rung_s)
        s["generator_bound"] = s["lag_p99_ms"] > LAG_BOUND_MS
        ok = (s["tail_ms"] is not None and s["tail_ms"] <= SERVE_LIMIT_MS
              and not bad and s["drain_ms"] <= SERVE_LIMIT_MS)
        s["meets_limit"] = ok
        ladder.append(s)
        attempted += s["arrived"]
        failed += len(bad)
        failures += bad
        if not ok or s["generator_bound"]:
            break
        passed = s
    # max_rps: the last rung that met the limit, interpolated towards
    # the first that did not by where its tail crossed the limit (not
    # towards a rung the generator could not drive)
    miss = ladder[-1]
    if passed is None:
        max_rps = 0.0
    elif miss is passed or miss["generator_bound"]:
        max_rps = passed["achieved_rps"]
    else:
        frac = 0.0
        if miss["tail_ms"] is not None and miss["tail_ms"] > passed["tail_ms"]:
            frac = (SERVE_LIMIT_MS - passed["tail_ms"]) / (miss["tail_ms"] - passed["tail_ms"])
        frac = min(1.0, max(0.0, frac))
        max_rps = passed["achieved_rps"] + frac * (miss["achieved_rps"] - passed["achieved_rps"])
    gc.enable()
    final = rpc(sock, {"id": -1, "cmd": "stats"})["stats"]
    access = None
    if ctx["trace"]:
        access = rpc(sock, {"id": -2, "cmd": "flight"})["access_log"]
    ctx["runs"]["daemon_peak_rss_mb"] = stop_daemon(daemon)
    lag_p99 = pct(all_lags, 0.99)
    mix = {}
    for r in all_done:
        mix[r["item"]["kind"]] = mix.get(r["item"]["kind"], 0) + 1
    total = sum(mix.values())
    ctx["runs"].update({
        "phases": phases,
        "ladder_limit_ms": SERVE_LIMIT_MS,
        "connections": n_conns,
        "traffic_share": {k: v / total for k, v in sorted(mix.items())},
        "traffic_count": mix,
        "daemon_stats": final,
        "loadgen": {"lag_p99_ms": lag_p99, "lag_max_ms": max(all_lags) if all_lags else 0.0,
                    "bound_ms": LAG_BOUND_MS, "backlog_max": backlog_max},
    })
    if low["tail_ms"] is None or high["tail_ms"] is None:
        die("too few requests for a tail at the fixed rates", 1)
    ctx["tails"]["op.tail_ms"] = {"rate": "low", "percentile": low["tail_percentile"],
                                  "samples": low["samples"]}
    ctx["extra"] = {
        "serve.low.p50_ms": low["p50_ms"], "serve.low.tail_ms": low["tail_ms"],
        "serve.high.p50_ms": high["p50_ms"], "serve.high.tail_ms": high["tail_ms"],
        "serve.max_rps": max_rps,
        "serve.capacity_rps": capacity,
    }
    if not ctx["trace"]:
        return attempted, failed, failures, {
            "setup_s": median(setups),
            "op.p50_ms": low["p50_ms"],
            "op.tail_ms": low["tail_ms"],
            "throughput_per_s": capacity,
            "peak_rss_mb": rss,
        }
    return attempted, failed, failures, serve_layers(ctx, all_done, access, final,
                                                      queue_len_max, all_lags, backlog_max,
                                                      plan_path)


def join_access(ctx, done, access, final, queue_len_max, lags, backlog_max):
    """The serving layers: the generator's client-side spans joined with
    the daemon's access-log lines on the server-minted request id.
    Returns the server and generator metrics and the served-request
    residue share (time from due to response that is neither generator
    wait nor daemon queue or service: framing, socket, client)."""
    by_req = {a["req"]: a for a in access}
    spans, queue, service, rtt, residue, admin = [], [], [], [], [], []
    for r in done:
        resp, kind = r["resp"], r["item"]["kind"]
        a = by_req.get(resp.get("req"))
        total = (r["recv"] - r["due"]) * 1000.0
        w = (r["sent"] - r["due"]) * 1000.0
        if kind == "admin":
            admin.append((r["recv"] - r["sent"]) * 1000.0)
        row = {"req": resp.get("req"), "kind": kind, "due": r["due"], "sent": r["sent"],
               "recv": r["recv"], "loadgen.wait_ms": w}
        if a is not None and kind != "admin":
            q, s = a["queue_ns"] / 1e6, (a["wall_ns"] - a["queue_ns"]) / 1e6
            queue.append(q)
            service.append(s)
            rtt.append(total)
            residue.append(total - w - q - s)
            row.update({"server.queue_ms": q, "server.service_ms": s})
        spans.append(row)
    spans_path = os.path.join(ctx["work"], "client-spans.jsonl")
    with open(spans_path, "w") as f:
        for row in spans:
            f.write(json.dumps(row) + "\n")
    ctx["client_spans"] = spans_path
    return {
        "server.admin_rtt_ms": median(admin) if admin else 0.0,
        "server.queue_ms": statistics.fmean(queue) if queue else 0.0,
        "server.service_ms": statistics.fmean(service) if service else 0.0,
        "server.shed": final["shed"],
        "server.retried": final["retried"],
        "server.timeouts": final["timeouts"],
        "server.queue_len_max": queue_len_max,
        "loadgen.lag_ms": pct(lags, 0.99),
        "loadgen.backlog_max": backlog_max,
    }, (sum(residue) / sum(rtt) if rtt else 0.0)


def serve_layers(ctx, done, access, final, queue_len_max, lags, backlog_max, plan_path):
    """serve_mixed's layer vector: the joined serving layers plus the
    in-process handler, cache and runtime layers of the same requests."""
    served, residue = join_access(ctx, done, access, final, queue_len_max, lags, backlog_max)
    out = os.path.join(ctx["work"], "serve-traced.json")
    probe(ctx, "serve-traced", plan_path, out)
    inproc = load_json(out)
    if inproc["mismatches"]:
        ctx["failures_extra"] = ["in-process replay differs from the planned outcome"]
    ctx["runs"]["inprocess"] = {k: v for k, v in inproc.items() if k != "metrics"}
    m = dict(inproc["metrics"])
    m.update(served)
    m["trace.residue_share"] = residue
    return m


# ---------------------------------------------------------------- main


def per_layer_names(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    check_tree(root)
    if not os.path.exists(os.path.join(root, "BENCHMARK.json")):
        die("BENCHMARK.json not found; run from the root of the tree")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    cli, probe_exe, build_s = build(root, build_dir)
    runs_dir = os.path.join(root, ".bench_runs")
    run_id = "%s-seed%d-trace%d-%d-%d" % (args.workload, args.seed, args.trace,
                                         int(time.time()), os.getpid())
    work = os.path.join(runs_dir, "work", run_id)
    os.makedirs(work)
    ctx = {"root": root, "cli": cli, "probe": probe_exe, "work": work, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "runs": {}, "tails": {},
           "extra": {}, "spans": None}
    t0 = now()
    fn = {"check_scale": check_scale, "corpus_sweep": corpus_sweep,
          "serve_mixed": serve_mixed}[args.workload]
    attempted, failed, failures, values = fn(ctx)
    failures += ctx.get("failures_extra", [])
    wall = now() - t0
    if args.trace:
        names = per_layer_names(root)
    else:
        names = END_TO_END
    metrics = {}
    for name, unit in names:
        # a layer that is not on this workload's path reports 0
        v = values.get(name, 0.0 if args.trace else None)
        if v is None:
            die("metric %s was not measured" % name, 1)
        metrics[name] = {"value": v, "unit": unit}
    correct = not failures
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "stamp": stamp(root, args, build_s),
        "wall_s": wall,
        "result": result,
        "failures": failures,
        "failed_share": failed / attempted if attempted else 0.0,
        "tails": ctx["tails"],
        "also_measured": ctx["extra"],
        "all_values": values,
        "runs": ctx["runs"],
        "spans": ctx["spans"],
        "client_spans": ctx.get("client_spans"),
    }
    path = os.path.join(runs_dir, run_id + ".json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    with open(os.path.join(runs_dir, "index.jsonl"), "a") as f:
        f.write(json.dumps({"file": os.path.relpath(path, root), "workload": args.workload,
                            "seed": args.seed, "trace": args.trace, "correct": correct,
                            "metrics": {k: v["value"] for k, v in metrics.items()}}) + "\n")
    # keep the spans and the result; drop the generated inputs
    shutil.rmtree(os.path.join(work, "inputs"), ignore_errors=True)
    for name, unit in names:
        print("%-40s %14.6g %s" % (name, metrics[name]["value"], unit))
    for name, v in sorted(ctx["extra"].items()):
        print("%-40s %14.6g (reported, not gated)" % (name, v))
    print("%-40s %14.6g (%d of %d)" % ("failed_share", record["failed_share"], failed, attempted))
    for f in failures[:20]:
        print("FAILED: " + f)
    print("result: " + os.path.relpath(path, root))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
