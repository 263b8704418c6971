"""The workloads of the quditqkd benchmark, with their output checks.

Each workload is one operation ("op") repeated for the run's seconds,
plus probes of the CLI commands its op does not run.  Every call into
the package goes through :class:`stats.Recorder`, in the order the
matching CLI subcommand makes it, so the same records give the
end-to-end metrics and, in the traced pass, the layer spans.

keygen-bulk
    One op is ``simulate`` (n=2, ``z_flip:0.3``, 4*10^6 rounds), then
    ``distill --channel z_flip:0.3 --auto-params --count 10^7``:
    bell_distribution -> error_matrix -> select_params (k=3, r=5315)
    -> sample_labeled_key -> simulate_distillation.  Almost all op time
    is in protocol's vectorised engine and in distill, all memory in the
    round log and label arrays.  Stresses: protocol (few terms, many
    rounds), distill, peak RSS.  Bypasses: the many-term channel paths
    of protocol.  Shows ROADMAP item 5 (streaming, ``np.unique`` in
    ``_outcome_counts``) and distill kernels; the bypass case for items
    1 and 3.

wire-direct
    One op is a two-role ``netrun`` session, alice in the benchmark
    process and bob in one forked child, over one socketpair: n=2,
    identity channel, 2*10^4 rounds, k=1, r=3.  All op time is in netrun
    framing, the three-frame ping-pong per round, SHA-256 transcripts
    and the scalar protocol/qstates helpers.  Both roles run on one
    CPU (see wiretap.py): left free, the scheduler sometimes put them on
    two vCPUs, where each frame waits for the host to wake the other and
    sessions ran at about 6000 instead of 10500 rounds/s, so the rate of
    a run depended on placement.  Its simulate probe runs
    256-term channels (n=3 ``full_dephase``, n=8 ``shift_noise:0.1``) at
    few rounds, so the engine's per-term row-mask loop runs here against
    keygen-bulk's few terms and many rounds.  Stresses: netrun, and
    through the probe the many-term session path.  Shows ROADMAP items
    3 and 1; the bypass case for item 5.

    Left out: eve.  A relay adds three threads, more than a 2-core
    machine runs without measuring the scheduler; alice and bob in
    threads of one process spread by up to ~25%, the forked child less.

Dropped: channel-sweep.  Its op ran simulate on n=3 and n=4
``full_dephase``, n=8 ``shift_noise:0.1`` and n=5
``partial_intercept:0.2``, analyze on n=3 ``full_dephase``, n=5 and n=6
``shift_noise:0.1`` and n=4 ``partial_intercept:0.3``, threshold for
n=2..8 (and n=8 at grid 20000) and verify with 2000 samples: about 8 s
of mostly pure-Python work, so only four ops fit a run.  On a shared
2-vCPU VM whose cores switched to their slow state for minutes, its
quartile spread across ten runs reached 0.27-0.40 on six end-to-end
metrics, above their 0.25 bound, in a set where the two kept workloads
stayed within theirs.  Its cases live on as the probes below, except
n=4 ``full_dephase`` simulate (2 s a session plus 0.6 s to build),
n=6 ``shift_noise`` analysis (4 s) and the n=8 grid-20000 scan.  Even
within it, n=4 ``full_dephase`` analysis (about 206 s) and n>=7
``shift_noise`` analysis (minutes) were left out as too long to repeat:
the cases to add once ROADMAP item 1 makes them fast.

Probes.  The benchmark reports every end-to-end metric on every
workload, so each workload also runs, once per cycle, the commands its
op leaves out, at the sizes of the dropped channel-sweep:

    simulate   n=3 full_dephase, n=8 shift_noise:0.1, n=5
               partial_intercept:0.2, 10^5 rounds each   ~0.35 s
    distill    3*10^6 labels, z_flip:0.3 auto-params       ~0.5 s
    analyze    n=3 full_dephase, n=5 shift_noise:0.1, n=4
               partial_intercept:0.3                        ~0.75 s
    threshold  e_max_scan n=2..8 at grid 2000               ~0.55 s
    verify     run_all(samples=2000)                        ~1.3 s
    netrun     8000 rounds                                  ~0.75 s

(seconds on a 2-vCPU VM).  A cycle is one op, each probe once, then one
set-up sample in a fresh interpreter, so every metric is sampled across
the whole run.  Each run's result file holds the measured median share
of a cycle that each part took; over 240 s runs on that VM they were

    keygen-bulk  op 0.49, analyze 0.10, threshold 0.08, verify 0.17,
                 netrun 0.11, set-up 0.05 (cycle ~6.8 s)
    wire-direct  op 0.40, simulate 0.05, distill 0.08, analyze 0.12,
                 threshold 0.10, verify 0.21, set-up 0.06 (cycle ~5.5 s)

Probes are operations of their own: ``op_p50_s`` times the op alone.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from quditqkd import (
    DistillParams,
    LabeledKey,
    SessionConfig,
    analysis_report,
    bell_distribution,
    e_max_scan,
    ep_recursion,
    error_matrix,
    field_spec,
    resolve_channel,
    run_session,
    sample_labeled_key,
    select_params,
    simulate_distillation,
    verify,
)
from quditqkd.channels import UnitaryTerm
from quditqkd.protocol import STREAM_PAIRING, spawn_streams

from stats import Recorder, median
from wiretap import PHASES, BobServer, summarize_sessions


@dataclass(frozen=True)
class Case:
    """One channel at one field degree; ``rounds`` for session cases."""

    n: int
    channel: str
    rounds: int = 0

    @property
    def name(self) -> str:
        return f"n{self.n}-{self.channel.partition(':')[0]}"


DEGREES = tuple(range(2, 9))

KEYGEN_SESSION = Case(2, "z_flip:0.3", 4_000_000)
KEYGEN_LABELS = 10_000_000
DISTILL_CASE = Case(2, "z_flip:0.3")
# select_params picks these for z_flip:0.3 with the default budget.
DISTILL_EXPECTED = DistillParams(3, 5315)

WIRE_ROUNDS = 20_000
WIRE_PARAMS = DistillParams(1, 3)

SIMULATE_PROBE = (
    Case(3, "full_dephase", 100_000),
    Case(8, "shift_noise:0.1", 100_000),
    Case(5, "partial_intercept:0.2", 100_000),
)
ANALYZE_PROBE = (
    Case(3, "full_dephase"),
    Case(5, "shift_noise:0.1"),
    Case(4, "partial_intercept:0.3"),
)
PROBE_LABELS = 3_000_000
SCAN_GRID = 2000
VERIFY_SAMPLES = 2000
PROBE_WIRE_ROUNDS = 8000

# The first op of every run takes this seed whatever the run's seed, so
# the peak RSS read after it is comparable across runs: the round log's
# and label arrays' temporaries differ by up to ~15% between inputs.
FIRST_OP_SEED = 0

LOG_COLUMNS = (
    "alice_i", "alice_j", "alice_s", "bob_i", "bob_j", "outcome", "bob_bit", "offset",
)
VERIFY_SUITES = {
    "check_field_tables": "field_tables",
    "check_born_completeness": "born_completeness",
    "check_conjugation": "conjugation",
}


def closed_form_e_b(case: Case) -> float | None:
    """Exact in-pair error rate of a channel where one is known in closed form.

    Uniform sign masks flip an in-pair outcome half the time; a pure shift
    either moves the state off Alice's pair (Outside) or maps it to
    itself; an intercepted round collapses to one index, whose in-pair
    outcome is an error half the time.
    """
    kind, _, arg = case.channel.partition(":")
    if kind == "partial_intercept":
        return float(arg) / 2
    return {"full_dephase": 0.5, "shift_noise": 0.0, "identity": 0.0}.get(kind)


def derive_seed(seed: int, *labels) -> int:
    """Input seed of one call, fixed by the run seed and the call's place."""
    words = [seed] + [zlib.crc32(str(label).encode()) for label in labels]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    """An op, the channel cases set-up builds, and the probes of each cycle."""

    name: str
    op: object
    cases: tuple[Case, ...]
    probes: tuple[str, ...]


@dataclass
class Context:
    """What one pass built at set-up and collected while running."""

    workload: Workload
    rec: Recorder
    tracing: bool
    models: dict = field(default_factory=dict)
    bob: BobServer | None = None
    expected_e_b: dict = field(default_factory=dict)
    wire_alice: list = field(default_factory=list)
    wire_bob: list = field(default_factory=list)


# -- set-up -------------------------------------------------------------------


def setup(name: str, rec: Recorder, tracing: bool) -> Context:
    """Build every field spec and channel model the run uses, fork bob."""
    ctx = Context(WORKLOADS[name], rec, tracing)
    specs = {n: rec.call("field.spec_build", f"n{n}", field_spec, n) for n in DEGREES}
    for case in ctx.workload.cases:
        if case.name not in ctx.models:
            ctx.models[case.name] = rec.call(
                "channels.build", case.name, resolve_channel, case.channel, specs[case.n]
            )
    ctx.bob = BobServer(tracing)
    return ctx


def prepare_references(ctx: Context) -> None:
    """Expected session e_b per case, computed once outside every timed region."""
    for case in ctx.workload.cases:
        if case.rounds:
            expected = closed_form_e_b(case)
            if expected is None:
                expected = analysis_report(ctx.models[case.name])["e_b"]
            ctx.expected_e_b[case.name] = expected


# -- commands -----------------------------------------------------------------


def simulate(ctx: Context, case: Case, seed: int) -> None:
    rec = ctx.rec
    cfg = SessionConfig(n=case.n, rounds=case.rounds, channel=ctx.models[case.name], seed=seed)
    out = rec.call("protocol.run_session", case.name, run_session, cfg)
    stats = out.stats
    rec.note(
        rounds=case.rounds,
        sifted=stats.sifted_count,
        key_bits=stats.key_length,
        log_bytes=sum(getattr(out.log, col).nbytes for col in LOG_COLUMNS),
    )
    what = f"simulate {case.name}"
    rec.check(len(out.alice_key) == len(out.bob_key) == stats.key_length, f"{what}: key lengths")
    if stats.status != "ok":
        rec.check(stats.status == "insufficient-sift" and stats.sifted_count == 0, f"{what}: status")
        return
    rec.check(stats.key_length == stats.sifted_count - stats.sample_count, f"{what}: key = sifted - sampled")
    expected = ctx.expected_e_b[case.name]
    trials = stats.e_b.trials
    if trials:
        # eight standard errors: a correct engine never leaves this band
        band = 8 * max(expected * (1 - expected), 1 / trials) ** 0.5 / trials ** 0.5
        rec.check(abs(stats.e_b.rate - expected) <= band, f"{what}: e_b {stats.e_b.rate} vs {expected}")


def _distill_matrix(model):
    return error_matrix(bell_distribution(model))


def _select(matrix):
    m = ep_recursion(matrix, 0)
    return m, select_params(m)


def distill(ctx: Context, labels: int, seed: int) -> None:
    """The ``distill --channel z_flip:0.3 --auto-params --count`` command."""
    rec = ctx.rec
    case = DISTILL_CASE.name
    matrix = rec.call("analysis.bell_distribution", case, _distill_matrix, ctx.models[case])
    m, outcome = rec.call("distill.select_params", case, _select, matrix)
    rec.check(outcome.feasible and outcome.params == DISTILL_EXPECTED, "distill: selected params")
    params = outcome.params
    rng = np.random.default_rng(seed)
    keys = rec.call("distill.sample_labeled_key", case, sample_labeled_key, m, labels, rng)
    run = rec.call(
        "distill.simulate_distillation", case, simulate_distillation, keys, params, rng, matrix=m
    )
    rec.note(
        labels=labels,
        stages=[(s.paired, s.kept) for s in run.stages],
        survivors=run.survivor_count,
        blocks=run.n_blocks,
    )
    rec.check(run.disagreement_count == int(run.out_z.astype(np.int64).sum()), "distill: disagreements")
    rec.check(np.array_equal(run.alice_out ^ run.bob_out, run.out_z), "distill: bob = alice ^ z")
    rec.check(run.n_blocks == run.survivor_count // params.r == len(run.alice_out), "distill: blocks")
    lengths = [s.input_length for s in run.stages] + [run.survivor_count]
    kept = [labels] + [s.kept for s in run.stages]
    rec.check(lengths == kept, "distill: stage lengths chain")


def conjugation_count(model) -> int:
    """Bell-frame conjugations bell_distribution makes: N(N-1) per unitary term."""
    order = model.spec.order
    unitary = sum(isinstance(action, UnitaryTerm) for _, action in model.terms)
    return unitary * order * (order - 1)


def analyze(ctx: Context, case: Case) -> None:
    rec = ctx.rec
    model = ctx.models[case.name]
    report = rec.call("analysis.analysis_report", case.name, analysis_report, model)
    rec.note(conjugations=conjugation_count(model))
    what = f"analyze {case.name}"
    if model.has_intercept():
        rec.check(report["kind"] == "intercept", f"{what}: kind")
    else:
        rec.check(report["kind"] == "unitary" and report["consistent"], f"{what}: consistent")
    e_b = report["e_b"]
    expected = closed_form_e_b(case)
    if expected is None:
        rec.check(e_b is not None and 0 <= e_b <= 0.5, f"{what}: e_b {e_b}")
    else:
        rec.check(abs(e_b - expected) < 1e-12, f"{what}: e_b {e_b} vs {expected}")


def scan(ctx: Context, n: int) -> None:
    rec = ctx.rec
    result = rec.call("threshold.e_max_scan", f"n{n}", e_max_scan, n, grid=SCAN_GRID)
    rec.note(slices=len(result.rows), feasible=sum(row.feasible for row in result.rows))
    rec.check(0.499 <= result.e_max <= 0.5, f"threshold n{n}: e_max {result.e_max}")


@contextmanager
def _suite_spans(rec: Recorder):
    """Time each suite run_all calls by wrapping the suite functions it looks up."""
    saved = {name: getattr(verify, name) for name in VERIFY_SUITES}

    def wrap(name, fn):
        return lambda *a, **kw: rec.call("verify.suite", VERIFY_SUITES[name], fn, *a, **kw)

    try:
        for name, fn in saved.items():
            setattr(verify, name, wrap(name, fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(verify, name, fn)


def verify_all(ctx: Context, samples: int, seed: int) -> None:
    rec = ctx.rec
    with _suite_spans(rec) if ctx.tracing else nullcontext():
        results = rec.call("verify.run_all", "", verify.run_all, samples=samples, seed=seed)
    cases = sum(r.total for r in results)
    mismatches = sum(r.total - r.ok for r in results)
    rec.note(cases=cases)
    rec.check(mismatches == 0 and cases > 0, f"verify: {mismatches} mismatches")


def netrun(ctx: Context, rounds: int, seed: int):
    """One alice<->bob session; returns the criterion-9 check to run untimed."""
    rec = ctx.rec
    session = SessionConfig(n=2, rounds=rounds, seed=seed)
    alice, bob, wire = ctx.bob.session(rec, session, WIRE_PARAMS)
    if wire is not None:
        ctx.wire_alice.append(wire)
        ctx.wire_bob.append(bob["wire"])
    rec.check(alice.status == "pass" and bob["status"] == "pass",
              f"netrun: status alice={alice.status} bob={bob['status']}")
    if alice.status != "pass" or bob["status"] != "pass":
        return None
    rec.check(len(alice.final_key) == len(bob["final_key"]), "netrun: key lengths")
    rec.check(alice.shared == bob["shared"], "netrun: shared facts differ")
    mine, theirs = alice.transcripts["peer"], bob["transcripts"]["peer"]
    rec.check(mine["tx_sha256"] == theirs["rx_sha256"] and mine["rx_sha256"] == theirs["tx_sha256"],
              "netrun: transcripts")

    def reference() -> None:
        # ROADMAP criterion 9: the wire keys and facts are the engine's.
        engine = run_session(session)
        labeled = LabeledKey(
            engine.alice_key,
            np.zeros(len(engine.alice_key), np.uint8),
            engine.alice_key ^ engine.bob_key,
        )
        ref = simulate_distillation(labeled, WIRE_PARAMS, spawn_streams(seed)[STREAM_PAIRING])
        stats = engine.stats
        facts = alice.shared
        rec.check(alice.final_key == ref.alice_out.tolist(), "netrun: alice key != engine")
        rec.check(bob["final_key"] == ref.bob_out.tolist(), "netrun: bob key != engine")
        rec.check(
            facts["sifted"] == stats.sifted_count
            and facts["sampled"] == stats.sample_count
            and facts["e_b"] == [stats.e_b.successes, stats.e_b.trials]
            and facts["e_c"] == [stats.e_c.successes, stats.e_c.trials]
            and facts["kept_per_stage"] == [s.kept for s in ref.stages]
            and facts["survivors"] == ref.survivor_count
            and facts["blocks"] == ref.n_blocks
            and facts["disagreements"] == ref.disagreement_count,
            "netrun: shared facts != engine",
        )

    return reference


# -- operations and probes ----------------------------------------------------


def keygen_op(ctx: Context, seed: int):
    simulate(ctx, KEYGEN_SESSION, derive_seed(seed, "simulate"))
    distill(ctx, KEYGEN_LABELS, derive_seed(seed, "distill"))


def wire_op(ctx: Context, seed: int):
    return netrun(ctx, WIRE_ROUNDS, seed)


def simulate_probe(ctx: Context, seed: int):
    for case in SIMULATE_PROBE:
        simulate(ctx, case, derive_seed(seed, case.name))


def distill_probe(ctx: Context, seed: int):
    distill(ctx, PROBE_LABELS, seed)


def analyze_probe(ctx: Context, seed: int):
    for case in ANALYZE_PROBE:
        analyze(ctx, case)


def threshold_probe(ctx: Context, seed: int):
    for n in DEGREES:
        scan(ctx, n)


def verify_probe(ctx: Context, seed: int):
    verify_all(ctx, VERIFY_SAMPLES, seed)


def netrun_probe(ctx: Context, seed: int):
    return netrun(ctx, PROBE_WIRE_ROUNDS, seed)


# Each returns a deferred check to run outside the timed region, or None.
PROBES = {
    "simulate": simulate_probe,
    "distill": distill_probe,
    "analyze": analyze_probe,
    "threshold": threshold_probe,
    "verify": verify_probe,
    "netrun": netrun_probe,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "keygen-bulk", keygen_op, (KEYGEN_SESSION,) + ANALYZE_PROBE,
            ("analyze", "threshold", "verify", "netrun"),
        ),
        Workload(
            "wire-direct", wire_op, SIMULATE_PROBE + (DISTILL_CASE,) + ANALYZE_PROBE,
            ("simulate", "distill", "analyze", "threshold", "verify"),
        ),
    )
}


# -- metrics ------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "simulate_rounds_per_s": "rounds/s",
    "distill_labels_per_s": "labels/s",
    "analyze_s": "s",
    "threshold_slices_per_s": "slices/s",
    "verify_s": "s",
    "netrun_rounds_per_s": "rounds/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
LOWER_IS_BETTER = {"setup_s", "analyze_s", "verify_s", "op_p50_s", "peak_rss_mb"}
# Metrics the traced pass reports its overhead on: every timed one.
OVERHEAD_METRICS = tuple(name for name in END_TO_END_UNITS if name not in ("peak_rss_mb", "ok_frac"))

DISTILL_LAYERS = ("distill.select_params", "distill.sample_labeled_key",
                  "distill.simulate_distillation")


def samples(ctx: Context, setup_samples: list[float]) -> dict:
    """Per-op samples of every timed end-to-end metric.

    A sample is one op's or one probe's seconds in the metric's calls,
    or its work over those seconds for a rate; set-up gives one sample
    per fresh interpreter.
    """
    rec = ctx.rec
    return {
        "setup_s": list(setup_samples),
        "simulate_rounds_per_s": rec.per_op_rates(("protocol.run_session",), "rounds"),
        "distill_labels_per_s": rec.per_op_rates(DISTILL_LAYERS, "labels"),
        "analyze_s": rec.per_op("analysis.analysis_report"),
        "threshold_slices_per_s": rec.per_op_rates(("threshold.e_max_scan",), "slices"),
        "verify_s": rec.per_op("verify.run_all"),
        "netrun_rounds_per_s": rec.per_op_rates(("netrun.run_alice",), "rounds"),
        "op_p50_s": [op.seconds for op in rec.ops if op.kind == "op"],
    }


def end_to_end(ctx: Context, setup_samples: list[float], first_rss_kb: int) -> dict:
    """Median of each metric's samples, plus peak RSS and the ok share."""
    metrics = {name: median(values) for name, values in samples(ctx, setup_samples).items()}
    metrics["peak_rss_mb"] = max(first_rss_kb, ctx.bob.first_rss_kb) / 1024
    metrics["ok_frac"] = sum(op.ok for op in ctx.rec.ops) / len(ctx.rec.ops)
    return metrics


SESSION_CASES = (KEYGEN_SESSION,) + SIMULATE_PROBE
TERM_CASES = tuple({c.name: c for c in SESSION_CASES + ANALYZE_PROBE}.values())
DISTILL_STAGES = DISTILL_EXPECTED.k


def _median_or_zero(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def per_layer(ctx: Context) -> dict:
    """Layer metrics of a traced pass; 0 for a case the workload does not run."""
    rec = ctx.rec
    m: dict = {}
    m["field.spec_build_s"] = sum(c.seconds for c in rec.select("field.spec_build"))
    m["channels.build_s"] = sum(c.seconds for c in rec.select("channels.build"))
    for case in TERM_CASES:
        model = ctx.models.get(case.name)
        m[f"channels.terms.{case.name}"] = len(model.terms) if model else 0
    for case in SESSION_CASES:
        calls = rec.select("protocol.run_session", case.name)
        m[f"protocol.run_session_s.{case.name}"] = _median_or_zero(c.seconds for c in calls)
        m[f"protocol.rounds_per_s.{case.name}"] = (
            sum(c.attrs["rounds"] for c in calls) / sum(c.seconds for c in calls) if calls else 0.0
        )
    sessions = rec.select("protocol.run_session")
    rounds = sum(c.attrs["rounds"] for c in sessions)
    m["protocol.log_bytes"] = max((c.attrs["log_bytes"] for c in sessions), default=0)
    m["protocol.sifted_frac"] = sum(c.attrs["sifted"] for c in sessions) / rounds if rounds else 0.0
    m["protocol.key_frac"] = sum(c.attrs["key_bits"] for c in sessions) / rounds if rounds else 0.0
    for case in ANALYZE_PROBE:
        calls = rec.select("analysis.analysis_report", case.name)
        m[f"analysis.report_s.{case.name}"] = _median_or_zero(c.seconds for c in calls)
        m[f"analysis.conjugations.{case.name}"] = calls[0].attrs["conjugations"] if calls else 0
    m["analysis.bell_distribution_s"] = _median_or_zero(rec.per_op("analysis.bell_distribution"))
    for step in ("select_params", "sample_labeled_key", "simulate_distillation"):
        m[f"distill.{step}_s"] = _median_or_zero(rec.per_op(f"distill.{step}"))
    runs = rec.select("distill.simulate_distillation")
    for t in range(DISTILL_STAGES):
        paired = sum(c.attrs["stages"][t][0] for c in runs)
        kept = sum(c.attrs["stages"][t][1] for c in runs)
        m[f"distill.stage{t}.keep_frac"] = kept / paired if paired else 0.0
    labels = sum(c.attrs["labels"] for c in runs)
    m["distill.survivor_frac"] = sum(c.attrs["survivors"] for c in runs) / labels if labels else 0.0
    m["distill.blocks"] = _median_or_zero(c.attrs["blocks"] for c in runs)
    for n in DEGREES:
        m[f"threshold.scan_s.n{n}"] = _median_or_zero(
            c.seconds for c in rec.select("threshold.e_max_scan", f"n{n}"))
    scans = rec.select("threshold.e_max_scan")
    probes = len({c.op for c in scans})
    m["threshold.slices"] = sum(c.attrs["slices"] for c in scans) / probes
    m["threshold.feasible_slices"] = sum(c.attrs["feasible"] for c in scans) / probes
    for suite in VERIFY_SUITES.values():
        m[f"verify.suite_s.{suite}"] = _median_or_zero(rec.per_op("verify.suite", suite))
    m["verify.cases"] = median(c.attrs["cases"] for c in rec.select("verify.run_all"))
    m.update(summarize_sessions(ctx.wire_alice, ctx.wire_bob))
    m["trace.uncovered_frac"] = median(rec.uncovered_share(op) for op in rec.ops if op.kind == "op")
    return m


def netrun_units() -> dict:
    units = {}
    for p in PHASES:
        units[f"netrun.{p}.frames"] = "count"
        units[f"netrun.{p}.bytes"] = "bytes"
    for role in ("alice", "bob"):
        units.update({f"netrun.{role}.{p}.s": "s" for p in PHASES})
        units[f"netrun.{role}.recv_wait_s"] = "s"
    units["netrun.frames_per_round"] = "ratio"
    units["netrun.round_rtt_p50_us"] = "us"
    units["netrun.round_rtt_p99_us"] = "us"
    return units


def _per_layer_units() -> dict:
    units = {"field.spec_build_s": "s", "channels.build_s": "s"}
    units.update({f"channels.terms.{c.name}": "count" for c in TERM_CASES})
    for c in SESSION_CASES:
        units[f"protocol.run_session_s.{c.name}"] = "s"
        units[f"protocol.rounds_per_s.{c.name}"] = "rounds/s"
    units.update({"protocol.log_bytes": "bytes", "protocol.sifted_frac": "ratio",
                  "protocol.key_frac": "ratio"})
    for c in ANALYZE_PROBE:
        units[f"analysis.report_s.{c.name}"] = "s"
        units[f"analysis.conjugations.{c.name}"] = "count"
    units["analysis.bell_distribution_s"] = "s"
    for step in ("select_params", "sample_labeled_key", "simulate_distillation"):
        units[f"distill.{step}_s"] = "s"
    units.update({f"distill.stage{t}.keep_frac": "ratio" for t in range(DISTILL_STAGES)})
    units.update({"distill.survivor_frac": "ratio", "distill.blocks": "count"})
    units.update({f"threshold.scan_s.n{n}": "s" for n in DEGREES})
    units.update({"threshold.slices": "count", "threshold.feasible_slices": "count"})
    units.update({f"verify.suite_s.{s}": "s" for s in VERIFY_SUITES.values()})
    units["verify.cases"] = "count"
    units.update(netrun_units())
    units["trace.uncovered_frac"] = "ratio"
    units.update({f"trace.overhead.{name}": "ratio" for name in OVERHEAD_METRICS})
    return units


PER_LAYER_UNITS = _per_layer_units()
