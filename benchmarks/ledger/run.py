"""The performance ledger's single command.

Contract form (what ``BENCHMARK.json`` names; one workload, one process)::

    python3 benchmarks/ledger/run.py --workload cold_whatif --seed 42 \
        --seconds 15 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the separate traced pass and reports the per-layer metrics.

Without ``--workload`` it runs all four workloads, each in its own
process (``--trace`` adds the traced pass, ``--repeat N`` the noise
report, ``--smoke`` the small preset)::

    python -m benchmarks.ledger --seed 42 [--trace] [--repeat 5] [--smoke]
"""

from __future__ import annotations

import time

#: ``setup_s`` counts from the first line of the entry script of a fresh
#: process: importing ``repro`` is part of what a user waits for
_T0 = time.perf_counter()

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: the closed loop's one driver thread / one connection
CLIENT_THREADS = 1
#: every timed phase runs at least this many blocks, however slow
MIN_BLOCKS = 2
#: the contract gives one run 180 s: one still going after this many has
#: hung, so it dumps every thread's stack to stderr, stops every process
#: it started and exits non-zero
WATCHDOG_S = 165
#: how long a process this run started gets to end on SIGTERM before SIGKILL
REAP_GRACE_S = 5.0


def _spec() -> "dict":
    """``BENCHMARK.json``: the one place that names the workloads, the
    metrics and their units; the benchmark reports exactly that list."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _bootstrap() -> None:
    """Make ``repro`` and this package importable here and in every child
    (set-up probes, shard workers) without an installed distribution."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"ledger: no program to measure: {SRC / 'repro'} is missing")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    inherited = os.environ.get("PYTHONPATH", "")
    if str(SRC) not in inherited.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), str(ROOT), inherited) if p
        )


# -- no process outlives the run -------------------------------------------------------
#
# A run starts processes of three kinds: shard workers (``serve_http``), a
# set-up probe (one more of this script, with shard workers of its own) and
# the ``multiprocessing`` resource tracker that Python starts next to the
# first spawned worker and that only ends once its parent has closed a
# pipe — left to ``os._exit`` that is *after* the run has ended, so whoever
# started the run still sees a process of it.  Every way out of this script
# therefore goes through :func:`reap_children`.


def adopt_orphans() -> None:
    """Make this process the one that inherits every descendant whose own
    parent has died (``PR_SET_CHILD_SUBREAPER``), so that a probe killed
    half-way cannot hand its shard workers to ``init``, out of reach."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: direct children only
        pass


def _children() -> "list[int]":
    """Pids whose parent is this process, running or not yet waited for."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                after_name = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(after_name[1]) == me:
            found.append(int(entry))
    return found


def _wait_all(pids: "list[int]", seconds: float) -> None:
    """Wait for ``pids`` to end, up to ``seconds``."""
    deadline = time.monotonic() + seconds
    left = list(pids)
    while left:
        for pid in list(left):
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    left.remove(pid)
            except ChildProcessError:  # somebody else waited for it
                left.remove(pid)
        if not left or time.monotonic() >= deadline:
            break
        time.sleep(0.005)


def reap_children(grace: float = REAP_GRACE_S) -> None:
    """Stop every process this one started (or inherited) and wait until
    each has ended.  On the normal way out only the resource tracker is
    left, and it ends as soon as its pipe is closed."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        try:
            os.close(fd)
        except OSError:
            pass
        tracker._fd = None
    # first let them end by themselves, then ask, then insist; a child that
    # dies may leave us children of its own, hence the second SIGKILL round
    for sig in (None, signal.SIGTERM, signal.SIGKILL, signal.SIGKILL):
        children = _children()
        if not children:
            return
        for pid in children if sig is not None else ():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        _wait_all(children, 0.5 if sig is None else grace)


def _on_signal(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


def _watchdog() -> None:
    faulthandler.dump_traceback(all_threads=True)
    reap_children(grace=1.0)
    os._exit(3)


def host_record(seed: int) -> "dict[str, object]":
    """What every output records about where and on what it ran."""
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text(encoding="ascii").strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text(encoding="ascii").strip() if ref.is_file() else commit
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "client_threads": CLIENT_THREADS,
    }


# -- one workload, this process ------------------------------------------------------


def run_blocks(workload, seconds: float, log=None, midway=None) -> "dict":
    """Whole blocks for about ``seconds``: each block runs every slot ``k``
    times in slot order, and another block starts while at least half of
    it fits (and until :data:`MIN_BLOCKS` are done).  ``midway`` runs once,
    un-timed, after the block that crosses half the time.  Returns
    ``samples[slot][block] -> k wall ms``, wall and CPU seconds, and the
    resident set read after every slot of every block."""
    from benchmarks.ledger.spans import NULL_LOG

    log = log or NULL_LOG
    samples: "list[list[list[float]]]" = [[] for _ in workload.slots]
    rss: "list[list[float]]" = []
    wall = cpu = 0.0
    done = 0
    while done < MIN_BLOCKS or wall + 0.5 * wall / done < seconds:
        started, cpu_started = time.perf_counter(), time.process_time()
        workload.before_block()
        rss.append([])
        for index, slot in enumerate(workload.slots):
            block = []
            for rep in range(workload.k):
                with log.span(
                    "op", slot=slot.name, kind=slot.kind, block=workload.block, rep=rep
                ):
                    block.append(workload.run_op(slot, rep))
            samples[index].append(block)
            rss[-1].append(workload.rss_mb())
        workload.block += 1
        done += 1
        wall += time.perf_counter() - started
        cpu += time.process_time() - cpu_started
        if midway is not None and wall >= seconds / 2.0:
            midway()
            midway = None
    if midway is not None:
        midway()
    return {"samples": samples, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss}


def _child(args: argparse.Namespace, workload: str, *extra: str) -> "list[str]":
    """Command line of one more process of this script on ``workload``."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    command += ["--seed", str(args.seed), *extra]
    return command + ["--smoke"] if args.smoke else command


def _communicate(command: "list[str]", timeout: float) -> "tuple[str, str, int]":
    """Run one more of this script to its end.  On a timeout, or when this
    process is told to stop, the child gets SIGTERM first — it stops its own
    shard workers on the way out — and is always waited for."""
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except BaseException:
        child.terminate()
        try:
            child.communicate(timeout=REAP_GRACE_S + 2.0)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
        raise
    return stdout, stderr, child.returncode


def setup_probe_child(args: argparse.Namespace) -> float:
    """``setup_s`` of one more fresh process: import, build, first answer."""
    stdout, stderr, code = _communicate(_child(args, args.workload, "--setup-probe"), 90)
    if code != 0:
        raise RuntimeError(f"set-up probe failed:\n{stderr[-2000:]}")
    return float(json.loads(stdout.strip().splitlines()[-1])["setup_s"])


def measure(workload, args: argparse.Namespace, own_setup_s: float) -> "dict[str, float]":
    """The un-traced pass: the four end-to-end metrics.  Set-up is
    measured twice, far apart — this process's own before block 1 and a
    fresh child process half-way through the blocks — and the smaller is
    reported, like every other best-of statistic here."""
    from benchmarks.ledger.stats import best_block

    setups = [own_setup_s]
    timed = run_blocks(
        workload,
        args.seconds,
        midway=lambda: setups.append(setup_probe_child(args)),
    )
    workload.verify()
    stats = best_block(timed["samples"])
    return {
        "setup_s": min(setups),
        "op_p50_ms": stats["op_p50_ms"],
        "ops_per_s": stats["ops_per_s"],
        "peak_rss_mb": min(map(max, timed["rss_mb"])),
    }


def trace(workload, args: argparse.Namespace, host: "dict") -> "dict[str, float]":
    """The traced pass: half the time un-traced (the comparison base and
    the raw-sample statistics), half under ``repro.obs.trace.tracing()``
    with the benchmark's spans on, then the layer probes."""
    from repro.obs.trace import tracing

    from benchmarks.ledger import layers
    from benchmarks.ledger.spans import NULL_LOG, SpanLog
    from benchmarks.ledger.stats import best_block, raw_tail

    half = args.seconds / 2.0
    gen2_before = gc.get_stats()[2]["collections"]
    plain = run_blocks(workload, half)
    gen2 = gc.get_stats()[2]["collections"] - gen2_before
    log = SpanLog()
    before = workload.layer_counters()
    workload.log = log
    with tracing():
        traced = run_blocks(workload, half, log)
        workload.trace_reference()
    workload.log = NULL_LOG
    after = workload.layer_counters()
    workload.verify()
    delta = {key: after[key] - before.get(key, 0.0) for key in after}

    out = layers.probe_in_process(workload.config, log)
    out.update(layers.probe_pool(workload, log, delta))
    out.update(layers.scoped_metrics(workload.phases, delta))
    out.update(workload.layer_overrides())

    plain_stats, traced_stats = best_block(plain["samples"]), best_block(traced["samples"])
    out["obs.tracing_overhead_ratio"] = traced_stats["op_p50_ms"] / plain_stats["op_p50_ms"]
    raw = [ms for slot in plain["samples"] for block in slot for ms in block]
    out.update({f"proc.{key}": value for key, value in raw_tail(raw).items()})
    out["proc.host_kernel_ms"] = layers.host_kernel_ms(log)
    out["proc.gc_gen2_collections"] = float(gen2)
    out["proc.cpu_over_wall"] = plain["cpu_s"] / plain["wall_s"]
    out["proc.block_spread"] = plain_stats["block_spread"]

    # close before writing: close_s is a layer metric of its own
    workload.close()
    out["service.close_s"] = workload.close_s
    target = HERE / "out"
    target.mkdir(exist_ok=True)
    with open(target / f"trace-{workload.name}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "host": host,
                "workload": workload.name,
                "preset": workload.preset.name,
                "metrics": out,
                "self_ms_by_name": log.self_ms_by_name(),
                "program_spans": workload.program_spans,
                "spans": log.spans,
            },
            handle,
        )
    return out


def run_one(args: argparse.Namespace) -> int:
    """Contract form: one workload in this process."""
    from benchmarks.ledger.workloads import FULL, SMOKE, WORKLOADS

    watchdog = threading.Timer(WATCHDOG_S, _watchdog)
    watchdog.daemon = True
    watchdog.start()
    host = host_record(args.seed)
    if CLIENT_THREADS > (os.cpu_count() or 1):
        sys.exit(
            f"ledger: {CLIENT_THREADS} client threads on {os.cpu_count()} "
            "processors would measure the client, not the program"
        )
    workload = WORKLOADS[args.workload](SMOKE if args.smoke else FULL, args.seed)
    try:
        workload.setup()
        own_setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        workload.prepare()
        if args.trace:
            values = trace(workload, args, host)
        else:
            values = measure(workload, args, own_setup_s)
    finally:
        workload.close()
    print("# host " + json.dumps(host, sort_keys=True))
    for message in workload.failures:
        print("# FAILED " + message)
    declared = _spec()["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError(
            "metrics measured and metrics declared in BENCHMARK.json differ: "
            f"{sorted({m['name'] for m in declared} ^ set(values))}"
        )
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{args.workload}.{name} = {values[name]:.6g} {unit}")
    print(f"{args.workload}.ops_attempted = {workload.attempted}")
    print(f"{args.workload}.ops_failed = {workload.failed}")
    print(
        json.dumps(
            {
                "correct": workload.failed == 0,
                "attempted": workload.attempted,
                "failed": workload.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if workload.failed == 0 else 1


# -- all workloads, one process each -------------------------------------------------


def run_child(workload: str, args: argparse.Namespace, traced: bool) -> "dict":
    command = _child(
        args, workload, "--seconds", str(args.seconds), "--trace", str(int(traced))
    )
    stdout, stderr, code = _communicate(command, 600)
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if code not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} crashed:\n{stderr[-4000:]}")
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    from benchmarks.ledger.stats import noise_row
    from benchmarks.ledger.workloads import WORKLOADS

    failed = 0
    units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    runs: "list[dict[str, float]]" = []
    for repeat in range(args.repeat):
        if args.repeat > 1:
            print(f"# run {repeat + 1} of {args.repeat}")
        gated: "dict[str, float]" = {}
        for workload in WORKLOADS:
            result = run_child(workload, args, traced=False)
            failed += result["failed"]
            for name in units:
                gated[f"{workload}.{name}"] = result["metrics"][name]["value"]
            if args.trace:
                failed += run_child(workload, args, traced=True)["failed"]
        runs.append(gated)
    if args.repeat > 1:
        print(f"# noise over {args.repeat} runs of the same commit and seed")
        print("| metric | unit | median | q1 | q3 | (q3-q1)/median | max dev |")
        print("|---|---|---|---|---|---|---|")
        for key in runs[0]:
            row = noise_row([run[key] for run in runs])
            print(
                f"| {key} | {units[key.split('.', 1)[1]]} | {row['median']:.5g} "
                f"| {row['q1']:.5g} | {row['q3']:.5g} "
                f"| {row['spread']:.2%} | {row['max_dev']:.2%} |"
            )
    print(f"# ops_failed = {failed}")
    return 0 if failed == 0 else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="ledger", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, help="length of the timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--repeat", type=int, default=1, help="noise report over N runs")
    parser.add_argument("--smoke", action="store_true", help="small cube, two blocks")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(_spec()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    from benchmarks.ledger.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    return run_one(args)


def exit_now() -> None:
    """Entry-point exit: whatever ``main`` did — returned, raised, was told
    to stop — every process it started is stopped and waited for before
    this one ends.  Skipping interpreter teardown then saves each run the
    second it takes to free a 96,000-leaf cube."""
    adopt_orphans()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _on_signal)
    code = 1
    try:
        code = main()
    except SystemExit as stop:
        if isinstance(stop.code, int) or stop.code is None:
            code = stop.code or 0
        else:
            print(stop.code, file=sys.stderr)
    except BaseException:  # noqa: BLE001 - reported, then the exit code says so
        import traceback

        traceback.print_exc()
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(signum, signal.SIG_IGN)
        reap_children()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    exit_now()
