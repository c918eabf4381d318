"""Trace format, workload generators and the sequential game driver.

Traces are line oriented: `find <a> <b>`, `remove <ref>`, `verify`,
`stats`; blank lines and `#` comments are skipped. A remove ref is a
path id, or a negative index counting back through the currently live
paths (-1 = most recent). Path ids number the trace's finds that pass
the game rules from 0, served or not: removing a failed find's id is a
caller-error. Commands run strictly in order; find/remove failures are
recorded per command with their class (caller-error vs
expansion-violation) and the run keeps going unless asked to stop.

The generator replays the game rules on a `router.Ledger` of
endpoint-only records, the same ledger the engine keeps, so it emits only
requests the engine would accept.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .errors import CallerError, ExpansionViolation, FormatError
from .graph import plain, read_ascii
from .profiles import ceil_log2
from .router import Ledger, RoutingEngine


@dataclass(frozen=True)
class TraceCommand:
    kind: str           # "find" | "remove" | "verify" | "stats"
    a: int = -1
    b: int = -1
    ref: int = 0
    line: int = 0

    def text(self):
        if self.kind == "find":
            return "find %d %d" % (self.a, self.b)
        if self.kind == "remove":
            return "remove %d" % self.ref
        return self.kind


def parse_trace(text):
    commands = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        word = parts[0].lower()
        try:
            if word == "find":
                if len(parts) != 3:
                    raise ValueError("find takes two vertex arguments")
                commands.append(
                    TraceCommand("find", a=int(plain(parts[1])), b=int(plain(parts[2])), line=lineno)
                )
            elif word == "remove":
                if len(parts) != 2:
                    raise ValueError("remove takes one reference argument")
                commands.append(TraceCommand("remove", ref=int(plain(parts[1])), line=lineno))
            elif word in ("verify", "stats"):
                if len(parts) != 1:
                    raise ValueError("%s takes no arguments" % word)
                commands.append(TraceCommand(word, line=lineno))
            else:
                raise ValueError("unknown command %r" % word)
        except ValueError as exc:
            raise FormatError("trace line %d: %s" % (lineno, exc)) from None
    return commands


def format_trace(commands):
    return "\n".join(c.text() for c in commands) + ("\n" if commands else "")


def load_trace(path):
    return parse_trace(read_ascii(path, "trace"))


def save_trace(path, commands):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_trace(commands))


@dataclass
class RunReport:
    n: int = 0  # the engine's vertex count, which `figures` reads
    requests_served: int = 0
    failures: list = field(default_factory=list)   # (line, error class, message)
    path_length_histogram: dict = field(default_factory=dict)
    connector_length_histogram: dict = field(default_factory=dict)  # len(seg_mid) -> count
    oracle_call_counts: dict = field(default_factory=dict)
    wall_clock: dict = field(default_factory=dict)  # percentiles over request seconds
    build_s: float = 0.0  # graph load plus engine build, as `route run` times it
    verify_findings: int = 0
    verifies_run: int = 0
    verify_s: float = 0.0  # seconds inside engine.verify(), summed over the run's verifies
    peak_rss_mib: float = 0.0  # the process's high-water mark, as `route run` reads it at the end

    @property
    def clean(self):
        return not self.failures and self.verify_findings == 0

    def figures(self):
        """{} before a find is served, else served finds, mean and max path length in hops and
        over log2 n (the paper's O(log n) bound), ceil_log2(n) and oracle adds per served find."""
        lengths, calls = self.path_length_histogram, self.oracle_call_counts
        served = sum(lengths.values())
        if not served:
            return {}
        mean, top, log_n = sum(k * c for k, c in lengths.items()) / served, max(lengths), math.log2(self.n)
        return dict(served_finds=served, mean_len=mean, mean_len_over_log2n=mean / log_n, max_len=top,
                    max_len_over_log2n=top / log_n, ceil_log2n=ceil_log2(self.n),
                    adds_per_find=(calls["out_add"] + calls["in_add"]) / served)

    def format_text(self):
        classes = [cls for _, cls, _ in self.failures]
        split = ", ".join("%d %s" % (classes.count(cls), cls) for cls in ("expansion-violation", "caller-error")
                          if cls in classes)
        lines = ["requests served: %d" % self.requests_served,
                 "failures: %d" % len(classes) + (" (%s)" % split if split else "")]
        lines += ["  line %d [%s] %s" % failure for failure in self.failures[:10]]
        for label, histogram in (("path lengths", self.path_length_histogram),
                                 ("connector lengths", self.connector_length_histogram)):
            if histogram:
                lines.append("%s: %s" % (label, " ".join("%d:%d" % pair for pair in sorted(histogram.items()))))
        fig = self.figures()
        lines += [line % fig for line in (
            "served finds: %(served_finds)d",
            "mean path length: %(mean_len).3f hops, %(mean_len_over_log2n).3f log2(n)",
            "max path length: %(max_len)d hops, %(max_len_over_log2n).3f log2(n), ceil_log2(n) = %(ceil_log2n)d",
            "oracle adds per served find: %(adds_per_find).2f",
        ) if fig]
        if self.build_s:
            lines.append("build seconds: %.6f" % self.build_s)
        if self.wall_clock:
            lines.append("per-request seconds: p50=%(p50).6f p90=%(p90).6f p99=%(p99).6f max=%(max).6f" % self.wall_clock)
        lines.append("oracle calls: %s" % self.oracle_call_counts)
        lines.append("verifies: %d run, %d findings" % (self.verifies_run, self.verify_findings))
        lines.append("verify seconds: %.6f" % self.verify_s)
        if self.verifies_run:
            lines.append("ms per verify: %.3f" % (1e3 * self.verify_s / self.verifies_run))
        if self.peak_rss_mib:
            lines.append("peak RSS: %.1f MiB" % self.peak_rss_mib)
        return "\n".join(lines) + "\n"


def _percentile(sorted_values, p):
    """Nearest-rank p-th percentile (p in percent) of a non-empty sorted list."""
    return sorted_values[max(0, (p * len(sorted_values) + 99) // 100 - 1)]


def resolve_ref(engine: RoutingEngine, ref):
    """Path id, or negative index from the most recent live path: only
    `engine.ledger.resolve(ref)`, kept because perfbench/run.py imports it."""
    return engine.ledger.resolve(ref)


def _engine_id(engine, served, ref):
    """Engine id of a remove ref; served[i] is trace id i's engine id, None if its find failed."""
    if ref < 0:
        return engine.ledger.resolve(ref)
    path_id = served[ref] if ref < len(served) else -1
    if path_id is None:
        raise CallerError("path id %d was never served: its find failed" % ref)
    if path_id not in engine.ledger.paths:
        raise CallerError("unknown path id %d" % ref)
    return path_id


def run_trace(engine, commands, verify_every=0, stop_on_failure=False, emit=None):
    """Drive a fresh engine through a command list; returns a RunReport.

    `emit` receives one line per served find (`PATH <id> <a> <b> <len> :
    v0 v1 ...`, with the trace's path id), per verify and per stats
    command. `wall_clock` times each find_path/remove_path call alone,
    without path reconstruction or emit; `verify_s` sums the verify calls.
    """
    report = RunReport(n=engine.n)
    timings = []
    since_verify = 0
    served = []
    for cmd in commands:
        if cmd.kind == "stats":
            if emit:
                emit(
                    "STATS live=%d served=%d failures=%d"
                    % (len(engine.ledger.paths), report.requests_served, len(report.failures))
                )
            continue
        if cmd.kind != "verify":
            start = time.perf_counter()
            try:
                try:
                    if cmd.kind == "find":
                        rec = engine.find_path(cmd.a, cmd.b)
                    else:
                        engine.remove_path(_engine_id(engine, served, cmd.ref))
                finally:
                    timings.append(time.perf_counter() - start)
                if cmd.kind == "find":
                    served.append(rec.id)
                    verts = engine.path_vertices(rec)
                    if emit:
                        emit(
                            "PATH %d %d %d %d : %s"
                            % (len(served) - 1, rec.a, rec.b, rec.length, " ".join(map(str, verts)))
                        )
                    for histogram, length in (
                        (report.path_length_histogram, rec.length),
                        (report.connector_length_histogram, len(rec.seg_mid)),
                    ):
                        histogram[length] = histogram.get(length, 0) + 1
                report.requests_served += 1
            except (CallerError, ExpansionViolation) as exc:
                cls = "caller-error" if isinstance(exc, CallerError) else "expansion-violation"
                if cls == "expansion-violation":
                    served.append(None)  # only a find that passed the rules raises it: it takes a trace id
                report.failures.append((cmd.line, cls, str(exc)))
                if emit:
                    emit("FAIL line %d [%s] %s" % (cmd.line, cls, exc))
                if stop_on_failure:
                    break
            since_verify += 1
            if not verify_every or since_verify < verify_every:
                continue
            since_verify = 0
        # a verify command, or the one every verify_every requests
        start = time.perf_counter()
        rep = engine.verify()
        report.verify_s += time.perf_counter() - start
        report.verifies_run += 1
        report.verify_findings += len(rep.findings)
        if emit and (cmd.kind == "verify" or not rep.ok):  # a periodic clean verify is not emitted
            emit("VERIFY %s" % ("clean" if rep.ok else "%d findings" % len(rep.findings)))
        if not rep.ok and stop_on_failure:
            break
    timings.sort()
    if timings:
        report.wall_clock = {
            "p50": _percentile(timings, 50),
            "p90": _percentile(timings, 90),
            "p99": _percentile(timings, 99),
            "max": timings[-1],
        }
    report.oracle_call_counts = engine.oracle_call_counts()
    return report


# --- workload generation --------------------------------------------------------


def _pick_pair(rng, ledger):
    for _ in range(200):
        a = rng.randrange(ledger.n)
        b = rng.randrange(ledger.n)
        if not ledger.violation(a, b):
            return a, b
    return None


def gen_workload(kind, n, params, seed, endpoint_cap, r):
    """Deterministic request streams: churn, fill, or hotspot.

    churn: `ops` commands holding roughly `live_target` live paths.
    fill:  `count` finds and nothing else (count must stay below r).
    hotspot: `ops` commands whose starts rotate through hot vertices,
             each used up to endpoint_cap - 1 times in a row.
    """
    rng = random.Random(seed)
    ledger = Ledger(n, endpoint_cap, r)
    out = []

    def emit_find(a, b):
        out.append(TraceCommand("find", a=a, b=b, line=len(out) + 1))
        ledger.add(a, b)

    def emit_remove(pid):
        ledger.remove(pid)
        out.append(TraceCommand("remove", ref=pid, line=len(out) + 1))

    if kind in ("churn", "hotspot"):
        ops = int(params.get("ops", 0))
        live_target = int(params.get("live_target", max(1, r // 2)))
        if kind == "hotspot" and (live_target < 1 or r < 2):
            raise CallerError("hotspot needs a live target of at least 1 below r=%d" % r)
        if live_target >= r:
            raise CallerError("%s live_target must stay below r=%d" % (kind, r))
    if kind == "fill":
        count = int(params.get("count", 0))
        if count >= r:
            raise CallerError("fill of %d paths needs count < r=%d" % (count, r))
        while ledger.next_id < count:
            pair = _pick_pair(rng, ledger)
            if pair is None:
                raise CallerError("fill target unreachable under the endpoint caps")
            emit_find(*pair)
    elif kind == "churn":
        attempts = 0
        while len(out) < ops:
            attempts += 1
            if attempts > 20 * ops + 100:
                raise CallerError("churn parameters starve the generator")
            live = len(ledger.paths)
            want_find = live < live_target or (live < r - 1 and rng.random() < 0.5)
            if want_find:
                pair = _pick_pair(rng, ledger)
                if pair is None:
                    want_find = False
                else:
                    emit_find(*pair)
            if not want_find:
                if not ledger.paths:
                    continue
                emit_remove(list(ledger.paths)[rng.randrange(len(ledger.paths))])
    elif kind == "hotspot":
        burst = max(1, endpoint_cap - 1)
        hot = 0
        used = 0
        attempts = 0
        while len(out) < ops:
            attempts += 1
            if attempts > 20 * ops + 10 * n + 100:
                raise CallerError("hotspot parameters starve the generator")
            if len(ledger.paths) >= live_target:
                emit_remove(next(iter(ledger.paths)))
                continue
            if used >= burst or ledger.ps[hot] >= endpoint_cap:
                hot = (hot + 1) % n
                used = 0
                continue
            b = rng.randrange(n)
            if ledger.violation(hot, b):
                hot = (hot + 1) % n
                used = 0
                continue
            emit_find(hot, b)
            used += 1
    else:
        raise CallerError("unknown workload kind %r" % kind)
    return out
