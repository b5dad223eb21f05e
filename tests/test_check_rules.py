"""The ``repro check`` static-analysis pass: every rule, both ways.

Each rule gets a *positive* fixture (a seeded violation flagged at the
right file:line), a *negative* fixture (idiomatic clean code passes),
and the suppression machinery is exercised end to end (reasoned
ignores silence, reasonless ones become RC00).  A final test runs the
real checker over the live tree exactly like ``make check`` does, so
the repository itself can never drift into violation.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.tools.check import RULES, check_paths
from repro.tools.check.cli import main as check_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_check(tmp_path, rel, source, *, strict=False, select=None):
    """Write ``source`` at a repo-shaped relative path and check it."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return check_paths([path], strict=strict, select=select)


def marker(code, reason=None):
    """Build an ignore comment at runtime.

    Concatenated so the literal marker never appears in *this* file —
    the live-tree test scans it, and the suppression scanner reads raw
    source lines (string literals included).
    """
    tail = f" -- {reason}" if reason else ""
    return "# repro-check: " + f"ignore[{code}]{tail}"


def codes(result):
    return [v.rule for v in result.violations]


# ----------------------------------------------------------------------
# RC01 — int-exact interval arithmetic


def test_rc01_flags_true_division_in_exact_module(tmp_path):
    result = run_check(
        tmp_path,
        "repro/core/tree.py",
        """\
        def subtree_weight(total, fanout):
            return total / fanout
        """,
        select=["RC01"],
    )
    assert codes(result) == ["RC01"]
    assert result.violations[0].line == 2
    assert "//" in result.violations[0].message


def test_rc01_flags_float_literal_and_cast_in_exact_module(tmp_path):
    result = run_check(
        tmp_path,
        "repro/core/numbering.py",
        """\
        SCALE = 1.5

        def approx(n):
            return float(n)
        """,
        select=["RC01"],
    )
    assert codes(result) == ["RC01", "RC01"]
    assert [v.line for v in result.violations] == [1, 4]


def test_rc01_clean_floor_division_passes(tmp_path):
    result = run_check(
        tmp_path,
        "repro/core/interval.py",
        """\
        def midpoint(begin, end):
            return begin + (end - begin) // 2
        """,
        select=["RC01"],
    )
    assert result.clean


def test_rc01_grid_scope_only_flags_interval_touching_expressions(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/runtime/metrics.py",
        """\
        def throughput(nodes, elapsed):
            return nodes / elapsed

        def bad_split(interval):
            return (interval.begin + interval.end) / 2
        """,
        select=["RC01"],
    )
    # Wall-clock division is legal in grid/; interval arithmetic is not.
    assert codes(result) == ["RC01"]
    assert result.violations[0].line == 5


def test_rc01_flags_float_literal_mixed_into_interval_compare(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/runtime/balance.py",
        """\
        def overloaded(weight):
            return weight > 0.5
        """,
        select=["RC01"],
    )
    assert codes(result) == ["RC01"]
    assert result.violations[0].line == 2


# ----------------------------------------------------------------------
# RC03 — versioned, codec-registered wire messages


RC03_FRAMING = """\
_WIRE_TYPES = {cls.__name__: cls for cls in (Request, Update, Rogue)}
"""

RC03_PROTOCOL = """\
from dataclasses import dataclass


@dataclass
class Request:
    worker: str
    seq: int = 0
    version: int = 1


@dataclass
class Unversioned:
    worker: str
    seq: int = 0


@dataclass
class Unregistered:
    worker: str
    seq: int = 0
    version: int = 1


@dataclass
class PlainValue:
    payload: str
"""


def _rc03_tree(tmp_path, protocol_source):
    protocol = tmp_path / "repro/grid/runtime/protocol.py"
    framing = tmp_path / "repro/grid/net/framing.py"
    protocol.parent.mkdir(parents=True)
    framing.parent.mkdir(parents=True)
    protocol.write_text(textwrap.dedent(protocol_source))
    framing.write_text(
        RC03_FRAMING.replace("Update", "Unversioned")
    )
    return [protocol, framing]


def test_rc03_flags_unversioned_and_unregistered_messages(tmp_path):
    result = check_paths(_rc03_tree(tmp_path, RC03_PROTOCOL), select=["RC03"])
    found = {(v.line, v.rule): v.message for v in result.violations}
    # Unversioned (registered, no version field) at its class line.
    assert any("Unversioned" in m and "version" in m for m in found.values())
    # Unregistered (has seq, not in _WIRE_TYPES).
    assert any("Unregistered" in m and "_WIRE_TYPES" in m for m in found.values())
    # Request is fine; PlainValue (no seq, not registered) is exempt.
    assert not any("Request" in m for m in found.values())
    assert not any("PlainValue" in m for m in found.values())
    assert len(result.violations) == 2


def test_rc03_violations_anchor_on_the_class_definition(tmp_path):
    result = check_paths(_rc03_tree(tmp_path, RC03_PROTOCOL), select=["RC03"])
    lines = sorted(v.line for v in result.violations)
    text = textwrap.dedent(RC03_PROTOCOL).splitlines()
    assert [text[line - 1] for line in lines] == [
        "class Unversioned:",
        "class Unregistered:",
    ]


def test_rc03_clean_protocol_passes(tmp_path):
    clean = """\
    from dataclasses import dataclass


    @dataclass
    class Request:
        worker: str
        seq: int = 0
        version: int = 1
    """
    protocol = tmp_path / "repro/grid/runtime/protocol.py"
    framing = tmp_path / "repro/grid/net/framing.py"
    protocol.parent.mkdir(parents=True)
    framing.parent.mkdir(parents=True)
    protocol.write_text(textwrap.dedent(clean))
    framing.write_text("_WIRE_TYPES = {cls.__name__: cls for cls in (Request,)}\n")
    assert check_paths([protocol, framing], select=["RC03"]).clean


# ----------------------------------------------------------------------
# RC04 — no raw sends outside the retry helper


def test_rc04_flags_raw_send_but_not_helper_traffic(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/runtime/bbprocess.py",
        """\
        class _RpcChannel:
            def send(self, message):
                self._connection.send(message)


        def worker_loop(connection):
            chan = _RpcChannel()
            chan.send("request")
            connection.send("rogue")
        """,
        select=["RC04"],
    )
    # Inside the helper class and via a helper instance: both fine.
    # The raw connection.send is the one violation.
    assert codes(result) == ["RC04"]
    assert result.violations[0].line == 9


def test_rc04_out_of_scope_module_ignored(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/runtime/launcher.py",
        """\
        def reply(listener, worker):
            listener.send(worker, "grant")
        """,
        select=["RC04"],
    )
    assert result.clean


# ----------------------------------------------------------------------
# RC05 — simulator determinism


def test_rc05_flags_global_rng_and_wall_clock_in_simulator(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/simulator/network.py",
        """\
        import random
        import time


        def jitter():
            return random.random() + time.time()
        """,
        select=["RC05"],
    )
    assert codes(result) == ["RC05", "RC05"]
    assert all(v.line == 6 for v in result.violations)


def test_rc05_covers_the_worker_core_the_simulator_runs(tmp_path):
    source = "import random, time\nstamp = random.random(), time.monotonic()\n"
    result = run_check(tmp_path, "repro/grid/runtime/worker.py", source, select=["RC05"])
    assert codes(result) == ["RC05", "RC05"]
    assert "time.monotonic()" in result.violations[1].message


@pytest.mark.parametrize(
    "module", ["repro/grid/service/core.py", "repro/grid/runtime/coordinator.py"]
)
def test_rc05_covers_the_service_core_the_simulator_runs(tmp_path, module):
    source = "import time\n\n\ndef park(wait):\n    return time.monotonic() + wait\n"
    result = run_check(tmp_path, module, source, select=["RC05"])
    assert codes(result) == ["RC05"]
    assert "time.monotonic()" in result.violations[0].message


def test_rc05_seeded_rng_and_virtual_clock_pass(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/simulator/network.py",
        """\
        import random


        def jitter(rng: random.Random, clock):
            return rng.random() + clock.now()
        """,
        select=["RC05"],
    )
    assert result.clean


def test_rc05_strict_extends_to_benchmarks_but_not_wall_clock(tmp_path):
    source = """\
    import random
    import time


    def pick():
        return random.choice([1, 2]), time.time()
    """
    rel = "benchmarks/bench_pick.py"
    relaxed = run_check(tmp_path, rel, source, select=["RC05"])
    strict = run_check(tmp_path, rel, source, strict=True, select=["RC05"])
    assert relaxed.clean  # benchmarks are out of scope without --strict
    # Under --strict the global RNG is flagged; wall time stays legal
    # outside the simulator (benchmarks measure it on purpose).
    assert codes(strict) == ["RC05"]
    assert "random.choice" in strict.violations[0].message


# ----------------------------------------------------------------------
# RC06 — no blocking I/O in async bodies


def test_rc06_flags_blocking_calls_inside_async_def(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/net/tcp.py",
        """\
        import socket
        import time


        async def handle(reader, sock):
            time.sleep(0.1)
            data = sock.recv(4)
            with open("dump.bin", "wb") as fh:
                fh.write(data)


        def sync_path(sock):
            return sock.recv(4)
        """,
        select=["RC06"],
    )
    assert codes(result) == ["RC06", "RC06", "RC06"]
    assert [v.line for v in result.violations] == [6, 7, 8]
    # The same .recv() outside async is untouched.
    assert all(v.line != 13 for v in result.violations)


def test_rc06_asyncio_idioms_pass(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/net/tcp.py",
        """\
        import asyncio


        async def handle(reader, writer):
            data = await reader.readexactly(4)
            writer.write(data)
            await writer.drain()
            await asyncio.sleep(0.1)
        """,
        select=["RC06"],
    )
    assert result.clean


# ----------------------------------------------------------------------
# RC07 — typed-core annotation discipline


def test_rc07_flags_unannotated_defs_in_typed_core(tmp_path):
    result = run_check(
        tmp_path,
        "repro/core/engine.py",
        """\
        def annotated(x: int) -> int:
            return x


        def bare(x):
            return x


        class Engine:
            def __init__(self, depth: int):
                self.depth = depth

            def step(self):
                return self.depth
        """,
        select=["RC07"],
    )
    # bare(): params + return; Engine.step(): return.  __init__ needs
    # no return annotation and self never counts as a parameter.
    assert codes(result) == ["RC07", "RC07", "RC07"]
    assert [v.line for v in result.violations] == [5, 5, 13]


def test_rc07_out_of_scope_module_is_ignored(tmp_path):
    result = run_check(
        tmp_path,
        "repro/analysis/report.py",
        "def untyped(x):\n    return x\n",
        select=["RC07"],
    )
    assert result.clean


# ----------------------------------------------------------------------
# RC08 — durable checkpoint writes


def test_rc08_flags_raw_write_on_checkpoint_paths(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/runtime/coordinator.py",
        """\
        import json


        def persist(store, payload):
            with open(store.intervals_path, "w") as handle:
                json.dump(payload, handle)


        def note_epoch(epoch_path, epoch):
            epoch_path.write_text(str(epoch))
        """,
        select=["RC08"],
    )
    assert codes(result) == ["RC08", "RC08"]
    assert [v.line for v in result.violations] == [5, 10]
    assert "_atomic_write_json" in result.violations[0].message


def test_rc08_reads_and_unrelated_writes_pass(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/runtime/coordinator.py",
        """\
        import json


        def load(store):
            with open(store.intervals_path) as handle:
                return json.load(handle)


        def write_report(report_path, text):
            with open(report_path, "w") as handle:
                handle.write(text)
        """,
        select=["RC08"],
    )
    assert result.clean


def test_rc08_checkpoint_module_itself_is_exempt(tmp_path):
    result = run_check(
        tmp_path,
        "repro/core/checkpoint.py",
        """\
        def rotate(journal_path):
            open(journal_path, "wb").close()
        """,
        select=["RC08"],
    )
    assert result.clean


# ----------------------------------------------------------------------
# RC10 — frontier node numbering stays int-exact


def test_rc10_flags_true_division_on_node_numbers(tmp_path):
    result = run_check(
        tmp_path,
        "repro/core/engine.py",
        """\
        def midpoint(entry, weights, depth):
            child_number = entry.number + entry.rank * weights[depth]
            return child_number / 2
        """,
        select=["RC10"],
    )
    assert codes(result) == ["RC10"]
    assert result.violations[0].line == 3
    assert "//" in result.violations[0].message


def test_rc10_flags_float_conversion_and_mixed_literals(tmp_path):
    result = run_check(
        tmp_path,
        "repro/core/resumable.py",
        """\
        def progress_fraction(interval, total_leaves):
            done = float(total_leaves - interval.length)
            return done


        def stale(number):
            return number > 1e15
        """,
        select=["RC10"],
    )
    assert codes(result) == ["RC10", "RC10"]
    assert "2**53" in result.violations[0].message
    assert "float literal" in result.violations[1].message


def test_rc10_leaves_cost_and_clock_floats_alone(tmp_path):
    # Costs, bounds and wall-clock budgets are float country; the rule
    # only guards the node-number identifiers.
    result = run_check(
        tmp_path,
        "repro/core/engine.py",
        """\
        import math


        def prune_margin(cost, bound):
            return cost / max(bound, 1.0)


        def step(max_nodes=math.inf):
            elapsed = 0.25
            return max_nodes - elapsed
        """,
        select=["RC10"],
    )
    assert result.clean


def test_rc10_scope_is_engine_and_resumable_only(tmp_path):
    # The same expression in grid/ is RC01 territory, not RC10.
    result = run_check(
        tmp_path,
        "repro/grid/runtime/launcher.py",
        """\
        def half(number):
            return number / 2
        """,
        select=["RC10"],
    )
    assert result.clean


# ----------------------------------------------------------------------
# RC11 — job ids are opaque


def test_rc11_flags_ordering_and_arithmetic_on_job_ids(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/service/scheduler.py",
        """\
        def pick(jobs):
            return sorted(jobs)[0]


        def shard(job_id):
            return int(job_id)


        def newer(job, other):
            return job > other


        def successor(job):
            return job + "-next"
        """,
        select=["RC11"],
    )
    assert codes(result) == ["RC11", "RC11", "RC11", "RC11"]
    assert "opaque" in result.violations[0].message


def test_rc11_equality_and_membership_pass(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/service/server.py",
        """\
        def route(job, coordinators):
            if job in coordinators:
                return coordinators[job]
            return None


        def same(job, job_id):
            return job == job_id


        def by_admission(records):
            return sorted(records, key=lambda record: record.order)
        """,
        select=["RC11"],
    )
    assert result.clean


def test_rc11_scope_is_the_service_package_only(tmp_path):
    # The coordinator predates job ids; sorting *worker* ids there is
    # someone else's business.
    result = run_check(
        tmp_path,
        "repro/grid/runtime/coordinator.py",
        """\
        def pick(jobs):
            return sorted(jobs)[0]
        """,
        select=["RC11"],
    )
    assert result.clean


# ----------------------------------------------------------------------
# RC12 — wire-schema changes bump the message version


RC12_FRAMING = """\
_WIRE_TYPES = {cls.__name__: cls for cls in (Request,)}
"""

RC12_PROTOCOL = """\
from dataclasses import dataclass


@dataclass
class Request:
    worker: str
    seq: int = 0
    version: int = 1
"""

RC12_GOLDEN = {
    "messages": {
        "Request": {
            "version": 1,
            "fields": {"worker": "str", "seq": "int", "version": "int"},
        }
    }
}


def _rc12_tree(tmp_path, protocol_source, golden=RC12_GOLDEN, framing=RC12_FRAMING):
    protocol = tmp_path / "repro/grid/runtime/protocol.py"
    framing_path = tmp_path / "repro/grid/net/framing.py"
    schema = tmp_path / "tools/check/schemas/wire.json"
    for path in (protocol, framing_path, schema):
        path.parent.mkdir(parents=True, exist_ok=True)
    protocol.write_text(textwrap.dedent(protocol_source))
    framing_path.write_text(textwrap.dedent(framing))
    schema.write_text(json.dumps(golden))
    return [protocol, framing_path]


def test_rc12_matching_schema_passes(tmp_path):
    result = check_paths(_rc12_tree(tmp_path, RC12_PROTOCOL), select=["RC12"])
    assert result.clean


def test_rc12_field_added_without_version_bump_fails(tmp_path):
    drifted = RC12_PROTOCOL.replace(
        "version: int = 1", "version: int = 1\n    retries: int = 0"
    )
    result = check_paths(_rc12_tree(tmp_path, drifted), select=["RC12"])
    assert codes(result) == ["RC12"]
    violation = result.violations[0]
    assert "without a version bump" in violation.message
    assert "added: retries" in violation.message
    # Anchored on the class definition line.
    assert violation.path.endswith("protocol.py")
    assert violation.line == 5


def test_rc12_field_retyped_without_version_bump_fails(tmp_path):
    drifted = RC12_PROTOCOL.replace("seq: int = 0", "seq: float = 0")
    result = check_paths(_rc12_tree(tmp_path, drifted), select=["RC12"])
    assert codes(result) == ["RC12"]
    assert "retyped: seq" in result.violations[0].message


def test_rc12_drift_with_version_bump_demands_snapshot_refresh(tmp_path):
    drifted = RC12_PROTOCOL.replace(
        "version: int = 1", "version: int = 2\n    retries: int = 0"
    )
    result = check_paths(_rc12_tree(tmp_path, drifted), select=["RC12"])
    assert codes(result) == ["RC12"]
    assert "--update-schemas" in result.violations[0].message
    assert "version bump to 2" in result.violations[0].message


def test_rc12_new_registered_message_must_be_recorded(tmp_path):
    extended = RC12_PROTOCOL + textwrap.dedent(
        """\

        @dataclass
        class Cancel:
            worker: str
            seq: int = 0
            version: int = 1
        """
    )
    framing = "_WIRE_TYPES = {cls.__name__: cls for cls in (Request, Cancel)}\n"
    result = check_paths(
        _rc12_tree(tmp_path, extended, framing=framing), select=["RC12"]
    )
    assert codes(result) == ["RC12"]
    assert "new wire message Cancel" in result.violations[0].message


def test_rc12_message_removed_from_registry_is_flagged_in_framing(tmp_path):
    golden = {
        "messages": {
            **RC12_GOLDEN["messages"],
            "Retired": {"version": 3, "fields": {"worker": "str"}},
        }
    }
    result = check_paths(
        _rc12_tree(tmp_path, RC12_PROTOCOL, golden=golden), select=["RC12"]
    )
    assert codes(result) == ["RC12"]
    assert "Retired" in result.violations[0].message
    assert result.violations[0].path.endswith("framing.py")


def test_rc12_version_via_module_constant_resolves(tmp_path):
    source = RC12_PROTOCOL.replace(
        "from dataclasses import dataclass",
        "from dataclasses import dataclass\n\nPROTOCOL_VERSION = 1",
    ).replace("version: int = 1", "version: int = PROTOCOL_VERSION")
    result = check_paths(_rc12_tree(tmp_path, source), select=["RC12"])
    assert result.clean


def test_rc12_round_trip_update_then_mutate(tmp_path):
    """The full gate lifecycle: snapshot, verify clean, drift, fail."""
    from repro.tools.check.rules import update_wire_schemas

    # Start from an empty tree-local snapshot so the update targets the
    # fixture, never the checker package's own golden file.
    paths = _rc12_tree(tmp_path, RC12_PROTOCOL, golden={"messages": {}})
    assert not check_paths(paths, select=["RC12"]).clean  # unrecorded message
    target, count = update_wire_schemas(paths)
    assert count == 1
    assert target == tmp_path / "tools/check/schemas/wire.json"
    assert check_paths(paths, select=["RC12"]).clean
    # Now a field changes without touching the version: the gate trips.
    protocol = paths[0]
    protocol.write_text(
        protocol.read_text().replace("worker: str", "worker: bytes")
    )
    result = check_paths(paths, select=["RC12"])
    assert codes(result) == ["RC12"]
    assert "retyped: worker" in result.violations[0].message


# ----------------------------------------------------------------------
# RC13 — asyncio concurrency discipline


def test_rc13_flags_await_under_sync_lock(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/service/server.py",
        """\
        import threading


        class Server:
            def __init__(self):
                self._lock = threading.Lock()

            async def pump(self, writer):
                with self._lock:
                    await writer.drain()
        """,
        select=["RC13"],
    )
    assert codes(result) == ["RC13"]
    assert result.violations[0].line == 10
    assert "event loop" in result.violations[0].message


def test_rc13_await_under_lock_tracks_lock_through_assignment(tmp_path):
    # The guard is taint-based: a lock reached through a local alias
    # is still a lock, even though the alias name says nothing.
    result = run_check(
        tmp_path,
        "repro/grid/net/serve.py",
        """\
        import threading


        async def pump(registry, writer):
            guard = registry.state_lock
            with guard:
                await writer.drain()
        """,
        select=["RC13"],
    )
    assert codes(result) == ["RC13"]
    assert result.violations[0].line == 7


def test_rc13_async_lock_and_lock_free_await_pass(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/service/server.py",
        """\
        import asyncio


        class Server:
            def __init__(self):
                self._lock = asyncio.Lock()

            async def pump(self, writer):
                async with self._lock:
                    await writer.drain()

            async def tick(self):
                await asyncio.sleep(0.1)
        """,
        select=["RC13"],
    )
    assert result.clean


def test_rc13_flags_sync_thread_mutation_of_loop_state(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/service/server.py",
        """\
        class Server:
            def __init__(self):
                self.jobs = {}

            async def _on_submit(self, msg):
                self.jobs[msg.job_id] = msg

            def cancel(self, job_id):
                self.jobs.pop(job_id)
        """,
        select=["RC13"],
    )
    assert codes(result) == ["RC13"]
    assert result.violations[0].line == 9
    assert "loop-confined" in result.violations[0].message
    assert "_on_submit" in result.violations[0].message


def test_rc13_marshalled_mutation_and_init_are_exempt(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/service/server.py",
        """\
        class Server:
            def __init__(self):
                self.jobs = {}

            async def _on_submit(self, msg):
                self.jobs[msg.job_id] = msg

            def cancel(self, loop, job_id):
                def _evict():
                    self.jobs.pop(job_id)

                loop.call_soon_threadsafe(_evict)
        """,
        select=["RC13"],
    )
    assert result.clean


def test_rc13_scope_is_net_and_service_only(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/runtime/coordinator.py",
        """\
        import threading


        class Coordinator:
            def __init__(self):
                self._lock = threading.Lock()

            async def pump(self, writer):
                with self._lock:
                    await writer.drain()
        """,
        select=["RC13"],
    )
    assert result.clean


# ----------------------------------------------------------------------
# RC14 — checkpoint writes reach fsync on every branch


def test_rc14_flags_write_that_returns_without_fsync(tmp_path):
    result = run_check(
        tmp_path,
        "repro/core/checkpoint.py",
        """\
        def append(fh, payload):
            fh.write(payload)
            fh.flush()
        """,
        select=["RC14"],
    )
    assert codes(result) == ["RC14"]
    assert result.violations[0].line == 2
    assert "page cache" in result.violations[0].message


def test_rc14_write_followed_by_fsync_passes(tmp_path):
    result = run_check(
        tmp_path,
        "repro/core/checkpoint.py",
        """\
        import os


        def append(fh, payload):
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        """,
        select=["RC14"],
    )
    assert result.clean


def test_rc14_conditional_fsync_does_not_cover_unconditional_write(tmp_path):
    result = run_check(
        tmp_path,
        "repro/core/checkpoint.py",
        """\
        import os


        def append(fh, payload, flush):
            fh.write(payload)
            if flush:
                os.fsync(fh.fileno())
        """,
        select=["RC14"],
    )
    assert codes(result) == ["RC14"]
    assert result.violations[0].line == 5


def test_rc14_fsync_in_finally_covers_the_whole_try(tmp_path):
    result = run_check(
        tmp_path,
        "repro/core/checkpoint.py",
        """\
        import os


        def append(fh, payload):
            try:
                fh.write(payload)
            finally:
                fh.flush()
                os.fsync(fh.fileno())
        """,
        select=["RC14"],
    )
    assert result.clean


def test_rc14_open_for_write_needs_fsync_inside_the_with(tmp_path):
    source = """\
    import os


    def rotate(path):
        with open(path, "wb") as fh:
            fh.flush()
    """
    result = run_check(tmp_path, "repro/core/checkpoint.py", source, select=["RC14"])
    assert codes(result) == ["RC14"]
    assert result.violations[0].line == 5
    fixed = source.replace(
        "fh.flush()", "fh.flush()\n            os.fsync(fh.fileno())"
    )
    assert run_check(
        tmp_path, "repro/core/checkpoint.py", fixed, select=["RC14"]
    ).clean


def test_rc14_read_paths_and_other_modules_are_exempt(tmp_path):
    assert run_check(
        tmp_path,
        "repro/core/checkpoint.py",
        """\
        def load(path):
            with open(path, "rb") as fh:
                return fh.read()
        """,
        select=["RC14"],
    ).clean
    assert run_check(
        tmp_path,
        "repro/grid/runtime/launcher.py",
        "def note(fh, text):\n    fh.write(text)\n",
        select=["RC14"],
    ).clean


# ----------------------------------------------------------------------
# RC15 — handlers never swallow exceptions broadly


def test_rc15_flags_broad_swallow_in_handler(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/runtime/coordinator.py",
        """\
        def handle(self, msg):
            try:
                self.apply(msg)
            except Exception:
                pass
        """,
        select=["RC15"],
    )
    assert codes(result) == ["RC15"]
    assert result.violations[0].line == 4
    assert "silently dropped" in result.violations[0].message


def test_rc15_flags_bare_except_and_broad_tuple(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/service/server.py",
        """\
        async def _on_push(self, msg):
            try:
                self.apply(msg)
            except:
                self.log("dropped")


        def handle_update(self, msg):
            try:
                self.apply(msg)
            except (ValueError, Exception):
                self.log("dropped")
        """,
        select=["RC15"],
    )
    assert codes(result) == ["RC15", "RC15"]
    assert [v.line for v in result.violations] == [4, 11]


def test_rc15_covers_the_service_core(tmp_path):
    source = (
        "def _on_work(self, msg):\n"
        "    try:\n        self.apply(msg)\n    except Exception:\n        pass\n"
    )
    result = run_check(tmp_path, "repro/grid/service/core.py", source, select=["RC15"])
    assert codes(result) == ["RC15"]


def test_rc15_answering_or_narrow_handlers_pass(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/service/server.py",
        """\
        def handle_submit(self, msg):
            try:
                return self.admit(msg)
            except Exception:
                return self.refuse(msg)


        def handle_push(self, msg):
            try:
                self.apply(msg)
            except Exception:
                self.log("failed")
                raise


        def handle_bye(self, msg):
            try:
                self.apply(msg)
            except KeyError:
                pass
        """,
        select=["RC15"],
    )
    assert result.clean


def test_rc15_non_handler_functions_are_not_audited(tmp_path):
    result = run_check(
        tmp_path,
        "repro/grid/runtime/coordinator.py",
        """\
        def best_effort_cleanup(self):
            try:
                self.flush()
            except Exception:
                pass
        """,
        select=["RC15"],
    )
    assert result.clean


# ----------------------------------------------------------------------
# Suppressions and RC00


def test_reasoned_suppression_silences_the_violation(tmp_path):
    source = """\
    def report(connection, message):
        connection.send(message)  MARKER
    """.replace("MARKER", marker("RC04", "fixture exercising the ignore path"))
    result = run_check(
        tmp_path, "repro/grid/runtime/bbprocess.py", source, select=["RC04"]
    )
    assert result.clean


def test_reasoned_suppression_on_preceding_comment_line(tmp_path):
    source = """\
    def report(connection, message):
        MARKER
        connection.send(message)
    """.replace("MARKER", marker("RC04", "fixture exercising the ignore path"))
    result = run_check(
        tmp_path, "repro/grid/runtime/bbprocess.py", source, select=["RC04"]
    )
    assert result.clean


def test_trailing_suppression_does_not_leak_to_the_next_line(tmp_path):
    source = """\
    def report(connection, message):
        staged = message  MARKER
        connection.send(staged)
    """.replace("MARKER", marker("RC04", "anchored to the wrong line"))
    result = run_check(
        tmp_path, "repro/grid/runtime/bbprocess.py", source, select=["RC04"]
    )
    # The violation still fires, and the mis-anchored ignore (which
    # silenced nothing) is itself reported as an unused suppression.
    assert codes(result) == ["RC00", "RC04"]
    assert "unused suppression" in result.violations[0].message


def test_reasonless_suppression_is_rc00_and_does_not_suppress(tmp_path):
    source = """\
    def report(connection, message):
        connection.send(message)  MARKER
    """.replace("MARKER", marker("RC04"))
    result = run_check(
        tmp_path, "repro/grid/runtime/bbprocess.py", source, select=["RC04"]
    )
    assert sorted(codes(result)) == ["RC00", "RC04"]


def test_unknown_rule_code_in_suppression_is_rc00(tmp_path):
    source = "x = 1  MARKER\n".replace(
        "MARKER", marker("RC99", "no such rule")
    )
    result = run_check(
        tmp_path, "repro/core/interval.py", source, select=["RC01"]
    )
    assert codes(result) == ["RC00"]
    assert "RC99" in result.violations[0].message


def test_prose_mention_of_ignore_syntax_is_not_a_suppression(tmp_path):
    source = '"""Docs quoting the marker: MARKER."""\n'.replace(
        "MARKER", marker("RULE")
    )
    result = run_check(
        tmp_path, "repro/core/interval.py", source, select=["RC01"]
    )
    assert result.clean


# ----------------------------------------------------------------------
# Framework behavior


def test_unknown_select_code_raises(tmp_path):
    (tmp_path / "mod.py").write_text("x = 1\n")
    with pytest.raises(ValueError):
        check_paths([tmp_path / "mod.py"], select=["RC42"])


def test_syntax_error_reports_check_error_exit_2(tmp_path):
    bad = tmp_path / "repro/core/interval.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def broken(:\n")
    result = check_paths([bad])
    assert result.errors and result.exit_code() == 2


def test_every_rule_registered_with_metadata():
    assert sorted(RULES) == ["RC01"] + [f"RC0{i}" for i in range(3, 9)] + [
        "RC10",
        "RC11",
        "RC12",
        "RC13",
        "RC14",
        "RC15",
    ]
    for code, cls in RULES.items():
        assert cls.code == code
        assert cls.title and cls.invariant and cls.scope


# ----------------------------------------------------------------------
# CLI surface


def test_cli_json_format_and_exit_code(tmp_path, capsys):
    target = tmp_path / "repro/grid/runtime/bbprocess.py"
    target.parent.mkdir(parents=True)
    target.write_text("def f(conn, message):\n    conn.send(message)\n")
    exit_code = check_main(
        [str(target), "--select", "RC04", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert payload["files_checked"] == 1
    assert [v["rule"] for v in payload["violations"]] == ["RC04"]
    assert payload["violations"][0]["line"] == 2


def test_cli_sarif_format(tmp_path, capsys):
    target = tmp_path / "repro/grid/runtime/bbprocess.py"
    target.parent.mkdir(parents=True)
    target.write_text("def f(conn, message):\n    conn.send(message)\n")
    exit_code = check_main(
        [str(target), "--select", "RC04", "--output", "sarif"]
    )
    sarif = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-check"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"RC00", "RC04", "RC12", "RC15"} <= rule_ids
    (found,) = run["results"]
    assert found["ruleId"] == "RC04"
    region = found["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2


def test_cli_sarif_clean_run_has_no_results(tmp_path, capsys):
    target = tmp_path / "repro/core/interval.py"
    target.parent.mkdir(parents=True)
    target.write_text("x = 1\n")
    assert check_main([str(target), "--format", "sarif"]) == 0
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["runs"][0]["results"] == []


def test_cli_update_schemas_writes_the_golden_file(tmp_path, capsys):
    protocol = tmp_path / "repro/grid/runtime/protocol.py"
    framing = tmp_path / "repro/grid/net/framing.py"
    schema = tmp_path / "tools/check/schemas/wire.json"
    for path in (protocol, framing, schema):
        path.parent.mkdir(parents=True, exist_ok=True)
    protocol.write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Request:\n"
        "    worker: str\n    seq: int = 0\n    version: int = 1\n"
    )
    framing.write_text("_WIRE_TYPES = {cls.__name__: cls for cls in (Request,)}\n")
    schema.write_text("{}")
    assert check_main([str(tmp_path / "repro"), "--update-schemas"]) == 0
    out = capsys.readouterr().out
    assert "wrote golden schemas for 1 wire message(s)" in out
    written = json.loads(schema.read_text())
    assert written["messages"]["Request"]["version"] == 1
    assert written["messages"]["Request"]["fields"]["worker"] == "str"


def test_cli_list_rules(capsys):
    assert check_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


def test_cli_rejects_unknown_select_and_missing_path(tmp_path, capsys):
    assert check_main([str(tmp_path), "--select", "RC42"]) == 2
    assert check_main([str(tmp_path / "nowhere")]) == 2


# ----------------------------------------------------------------------
# The live tree stays clean — exactly what `make check` enforces.


def test_live_tree_is_violation_free():
    paths = [
        REPO_ROOT / part
        for part in ("src", "tests", "benchmarks", "examples")
        if (REPO_ROOT / part).exists()
    ]
    result = check_paths(paths, strict=True)
    assert result.files_checked > 100
    assert result.errors == []
    assert [v.format() for v in result.violations] == []
