"""The bulk path's copy budget, held on both drivers (DESIGN.md §10).

``tools/copy_budget.py`` is the instrument; this module runs it in tier-1.
Three numbers are counts of bytes, not timings, so they are the same on
every machine: one warm 1.2 MB ``Echo`` may hold ``PEAK_BUDGET`` payloads
of traced memory at its peak, each worker's first (cold) one
``COLD_BUDGET``, and nothing payload-sized may still be referenced once
the exchange is over.  The parent of the PR that added
this read 7-9 payloads at peak with two requests and two responses pinned
by the idle pool workers.

The rest is what glibc makes of that — resident memory and page faults —
and is read by the kernel from fresh interpreters (one ``--cell`` of the
instrument's matrix per driver): the process's one allocator policy
(``transport.base.prime_allocator``) is what these pin.
"""

import importlib.util
import json
import os
import platform
import subprocess
import sys
import threading

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module", params=["aio", "threaded"])
def measured(request):
    """The instrument's in-process run against one driver."""
    copy_budget = load_tool("copy_budget")
    return copy_budget, copy_budget.measure(request.param)


def test_bulk_echo_stays_within_the_copy_budget(measured):
    copy_budget, result = measured
    assert result["pinned"] == []
    assert max(result["peak_payloads"]) <= copy_budget.PEAK_BUDGET, result


def test_a_workers_first_bulk_exchange_stays_within_the_cold_budget(measured):
    """The exchange that compiles a worker's codec plans: it read 3.0-3.1
    payloads while the encode-plan check joined the stateless encoding and
    the replay, and sets the process's high-water mark if it holds more
    than a warm exchange does."""
    copy_budget, result = measured
    assert len(result["cold_peak_payloads"]) == copy_budget.WORKERS, result
    assert max(result["cold_peak_payloads"]) <= copy_budget.COLD_BUDGET, result


glibc_only = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/status"),
    reason="pins glibc malloc behaviour, read from Linux's procfs",
)


def run_tool(*args: str) -> str:
    """Run the instrument in an interpreter of its own (allocator state is
    per process); its standard output."""
    run = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "copy_budget.py"), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    return run.stdout


@glibc_only
def test_warm_bulk_exchanges_do_not_fault_the_heap_back_in():
    """The trim threshold, pinned: without it a server that pins nothing
    has its heap trimmed after every 1.2 MB exchange and faults ~570 pages
    back in for the next."""
    assert "minor faults per exchange" in run_tool("--core", "aio")


@pytest.fixture(scope="module", params=["aio", "threaded"])
def bulk_cell(request):
    """Warm 1.2 MB echoes on two concurrent connections: a server process
    (``workers=2``) and a client process that does nothing but
    ``connect_tcp`` and ``SoapHttpClient.call``."""
    cell = json.loads(run_tool("--cell", f"{request.param}:100000:2", "--seconds", "0.3"))
    assert cell["failed"] == 0 and cell["exchanges"] > 0, cell
    return cell


@glibc_only
def test_a_serving_process_keeps_one_arena(bulk_cell):
    """Resident memory above the idle floor, in payloads: every thread in
    an arena of its own read 8.5-9.5 (each arena keeps its own high-water
    mark), all of them in one 4.2-4.7, since a cold exchange holds what a
    warm one does 2.1-2.3, and 2.5-2.65 since start-up's freed heap is trimmed
    before the floor is read (the exchanges fault it back in)."""
    copy_budget = load_tool("copy_budget")
    assert bulk_cell["server_rss_payloads"] <= copy_budget.RSS_BUDGET, bulk_cell
    assert bulk_cell["server_faults"] <= copy_budget.FAULT_BUDGET, bulk_cell


@glibc_only
def test_a_process_that_only_connects_is_not_trimmed_either(bulk_cell):
    """``connect_tcp`` applies the policy: a client never starts a server,
    and unprimed it faulted ~1100 pages per 1.2 MB exchange."""
    copy_budget = load_tool("copy_budget")
    assert bulk_cell["client_faults"] <= copy_budget.FAULT_BUDGET, bulk_cell


@glibc_only
def test_the_matrix_prints_a_row_per_cell():
    rows = run_tool("--matrix", "--cell", "aio:5461:1", "--repeats", "1", "--seconds", "0.2")
    header, rule, row = rows.splitlines()
    assert header.count("|") == rule.count("|") == row.count("|")
    assert row.startswith("| aio | 0.07 MB | 1 |") and "failed" not in row


class FakeMallopt:
    """Stands in for the C library's ``mallopt``: records each setting with
    the threads alive when it was made.  Its :meth:`trim` stands in for
    ``malloc_trim`` and records the pad with how many settings preceded it."""

    def __init__(self) -> None:
        self.calls: list[tuple[int, int, set[str]]] = []
        self.trims: list[tuple[int, int]] = []

    def __call__(self, parameter: int, value: int) -> int:
        self.calls.append((parameter, value, {t.name for t in threading.enumerate()}))
        return 1

    def trim(self, pad: int) -> int:
        self.trims.append((pad, len(self.calls)))
        return 1


@pytest.fixture
def unprimed(monkeypatch):
    """``transport.base`` as in a process that has not set its policy yet.
    ``unprimed(mallopt)`` substitutes what the ``mallopt`` lookup answers,
    and the ``malloc_trim`` lookup ``mallopt.trim`` (so this process's real
    ``malloc`` is left alone), and returns the list the ``mallopt`` lookups
    made are appended to."""
    from repro.transport import base

    monkeypatch.setattr(base, "_allocator_primed", False)

    def substitute(mallopt):
        lookups = []
        monkeypatch.setattr(base, "_find_mallopt", lambda: lookups.append(1) or mallopt)
        monkeypatch.setattr(base, "_find_malloc_trim", lambda: getattr(mallopt, "trim", None))
        return lookups

    return substitute


def echo_once(core: str) -> None:
    """One small ``Echo`` through a started ``SoapServeService`` over TCP."""
    from repro.core.client import SoapHttpClient
    from repro.core.envelope import SoapEnvelope
    from repro.serve import ServeConfig, SoapServeService
    from repro.services.echo import echo_dispatcher
    from repro.transport import TcpListener, connect_tcp
    from repro.xdm import element, leaf

    listener = TcpListener()
    service = SoapServeService(
        listener, echo_dispatcher(), config=ServeConfig(workers=2, core=core), name="policy"
    ).start()
    try:
        client = SoapHttpClient(lambda: connect_tcp(*listener.address))
        try:
            reply = client.call(SoapEnvelope.wrap(element("Echo", leaf("x", 1))))
        finally:
            client.close()
        assert reply.body_root.name.local == "EchoResponse"
    finally:
        service.stop()


@pytest.mark.parametrize("core", ["aio", "threaded"])
def test_the_policy_is_set_once_and_before_any_serving_thread(unprimed, core):
    from repro.transport.base import MAX_READ_BYTES

    mallopt = FakeMallopt()
    lookups = unprimed(mallopt)
    echo_once(core)
    echo_once(core)
    assert lookups == [1]  # the second service, and every connect, found it set
    # M_ARENA_MAX, M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, M_TOP_PAD (malloc.h)
    assert [call[:2] for call in mallopt.calls] == [
        (-8, 1),
        (-3, MAX_READ_BYTES + 4096),
        (-1, 2 * MAX_READ_BYTES),
        (-2, 2 * MAX_READ_BYTES),
    ]
    # a thread keeps the arena it first allocated from: pool workers, the
    # loop and the accept thread all have to come after
    for _parameter, _value, alive in mallopt.calls:
        assert not {name for name in alive if name.startswith("policy")}, alive


def test_a_process_that_only_connects_sets_the_policy_too(unprimed):
    from repro.transport import TcpListener, base, connect_tcp

    mallopt = FakeMallopt()
    unprimed(mallopt)
    listener = TcpListener()
    try:
        connect_tcp(*listener.address).close()
    finally:
        listener.close()
    assert [call[:2] for call in mallopt.calls] == list(base._ALLOCATOR_POLICY)


@pytest.mark.parametrize("core", ["aio", "threaded"])
def test_without_mallopt_the_policy_is_a_no_op_and_the_process_serves(unprimed, core):
    """A C library with no ``mallopt`` (or no ``ctypes`` to reach it with):
    the lookup answers ``None`` and nothing else changes."""
    lookups = unprimed(None)
    echo_once(core)
    assert lookups == [1]


def test_one_trim_ends_the_policy_and_only_after_its_settings(unprimed, monkeypatch):
    """``malloc_trim(0)`` once, after the four settings; where there is no
    ``mallopt`` there is no policy, and the trim is not even looked up."""
    from repro.transport import base

    mallopt = FakeMallopt()
    unprimed(mallopt)
    base.prime_allocator()
    base.prime_allocator()
    assert mallopt.trims == [(0, len(base._ALLOCATOR_POLICY))]
    unprimed(None)
    monkeypatch.setattr(base, "_allocator_primed", False)
    monkeypatch.setattr(base, "_find_malloc_trim", lambda: pytest.fail("trim without mallopt"))
    base.prime_allocator()


@glibc_only
def test_start_up_gives_back_the_heap_its_compiler_freed(tmp_path):
    """A process compiling ``repro`` (and here the standard library too)
    from source frees the compiler's heap but keeps it resident: the policy's
    one trim returns it — ~2.5 MiB of ``RssAnon`` in this child, ~0.9 with
    only ``repro`` compiled (the benchmark's server), nothing from a warm
    bytecode cache."""
    from tests.test_import_budget import ENV, SERVING_IMPORTS

    code = f"""{SERVING_IMPORTS}
from repro.transport import base

def rss_anon_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("RssAnon:"))

before = rss_anon_kib()
base.prime_allocator()
print(before - rss_anon_kib())
"""
    run = subprocess.run(
        [sys.executable, "-B", "-X", f"pycache_prefix={tmp_path}", "-c", code],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) >= 256, f"RssAnon fell by {run.stdout.strip()} KiB"


def _transparent_huge_pages() -> str:
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled", encoding="ascii") as fh:
            return fh.read()
    except OSError:
        return ""


@glibc_only
@pytest.mark.skipif(
    "[madvise]" not in _transparent_huge_pages(),
    reason="huge pages are only given where advised (the kernel's 'madvise' mode)",
)
def test_a_landing_buffer_is_never_backed_by_huge_pages():
    """numpy advises huge pages for arrays of 4 MiB and up; a landing is
    one, sized by a peer's claim, in heap the start-up trim left untouched.
    Under the policy a byte received at a 2 MiB boundary of a fresh 16 MiB
    landing costs a page (it cost 2048 KiB with numpy's advice)."""
    code = """
import numpy as np
from repro.transport import base

def vm_rss_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmRSS:"))

base.prime_allocator()
view = base._uninitialised(16 << 20)
boundary = -np.frombuffer(view, "u1").ctypes.data % (2 << 20) + (2 << 20)
before = vm_rss_kib()
view[boundary] = 1
print(vm_rss_kib() - before)
"""
    from tests.test_import_budget import ENV

    run = subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 1024, f"{run.stdout.strip()} KiB resident for one byte"


def seeded_copy(tmp_path, rel: str, anchor: str, replacement: str) -> str:
    """``src/repro/<rel>`` copied under ``tmp_path`` with ``anchor`` (which
    must occur exactly once) replaced; the copy's path."""
    with open(os.path.join(TOOLS, "..", "src", "repro", rel), encoding="utf-8") as fh:
        source = fh.read()
    assert source.count(anchor) == 1, anchor
    seeded = tmp_path / "repro" / rel
    seeded.parent.mkdir(parents=True, exist_ok=True)
    seeded.write_text(source.replace(anchor, replacement), encoding="utf-8")
    return str(seeded)


def test_lint_keeps_the_join_off_the_response_path(tmp_path):
    """The seeded violation: a ``response.to_bytes()`` in ``_enqueue_response``."""
    lint = load_tool("lint")
    source_path = os.path.join(TOOLS, "..", "src", "repro", "transport", "aio.py")
    assert lint.response_join_findings(source_path) == []
    seeded = seeded_copy(
        tmp_path,
        "transport/aio.py",
        "            conn.outbuf += response.iter_wire()\n",
        "            conn.outbuf.append(response.to_bytes())\n",
    )
    (finding,) = lint.response_join_findings(seeded)
    assert "must not join a message" in finding[1]
    # the refusals stay legal, and other modules are not the rule's business
    assert lint.response_join_findings(source_path.replace("aio.py", "http/server.py")) == []
    elsewhere = tmp_path / "repro" / "harness" / "overheads.py"
    elsewhere.parent.mkdir(parents=True)
    elsewhere.write_text("wire = request.to_bytes()\n", encoding="utf-8")
    assert lint.response_join_findings(str(elsewhere)) == []


def test_lint_keeps_the_join_off_the_request_path(tmp_path):
    """The seeded violations: the two joins the gather-send replaced — the
    client's ``req.to_bytes()`` and the TCP binding's ``header + payload``."""
    lint = load_tool("lint")
    src = os.path.join(TOOLS, "..", "src", "repro", "transport")
    # (the binding builds its few header bytes with ``+``: that is not a send)
    for clean in ("http/client.py", "tcp_binding.py"):
        assert lint.response_join_findings(os.path.join(src, clean)) == []
    client = seeded_copy(
        tmp_path,
        "transport/http/client.py",
        "                wire = list(req.iter_wire())\n",
        "                wire = [req.to_bytes()]\n",
    )
    (finding,) = lint.response_join_findings(client)
    assert "must not join a message: .to_bytes()" in finding[1]
    binding = seeded_copy(
        tmp_path,
        "transport/tcp_binding.py",
        "        send_pieces(channel, (header, *pieces))\n",
        "        channel.send_all(header + pieces[0])\n",
    )
    (finding,) = lint.response_join_findings(binding)
    assert "head + payload handed to a send" in finding[1]


def test_lint_keeps_the_landing_in_one_place(tmp_path):
    """The seeded violations: a driver calling ``recv_into`` itself, a
    second uninitialised buffer, and the pieces-and-join receive regrown."""
    lint = load_tool("lint")
    src = os.path.join(TOOLS, "..", "src", "repro")
    for clean in ("base.py", "aio.py", "sockets.py", "memory.py", "tcp_binding.py",
                  "http/messages.py", "resilience.py", "instrument.py", "attachments.py"):  # fmt: skip
        assert lint.body_landing_findings(os.path.join(src, "transport", clean)) == []
    private_landing = seeded_copy(
        tmp_path,
        "transport/aio.py",
        "                data = body.landing.fill(conn.sock)\n",
        "                data = conn.sock.recv_into(np.empty(body.owed, 'u1'))\n",
    )
    findings = lint.body_landing_findings(private_landing)
    assert [message.split(";")[0] for _, message in findings] == [
        "a declared body is received by transport/base.py's Landing",
        "the uninitialised receive buffer is allocated in transport/base.py only",
    ]
    pieces_and_join = seeded_copy(
        tmp_path,
        "transport/tcp_binding.py",
        "        payload = land(channel, length)\n",
        "        payload = b\"\".join(iter(lambda: channel.recv(65536), b\"\"))\n",
    )
    (finding,) = lint.body_landing_findings(pieces_and_join)
    assert "a declared body lands in place" in finding[1]
    # a channel's own recv_into forwards to what it wraps; the chunked
    # consumers and the field reader keep their joins; and outside
    # src/repro/transport none of this is the rule's business
    elsewhere = tmp_path / "repro" / "gridftp" / "client.py"
    elsewhere.parent.mkdir(parents=True)
    elsewhere.write_text(
        "got = sock.recv_into(np.empty(n, 'u1'))\nblob = b\"\".join(parts)\n", encoding="utf-8"
    )
    assert lint.body_landing_findings(str(elsewhere)) == []


def test_lint_keeps_allocator_tuning_in_one_place(tmp_path):
    """The seeded violations: a ``ctypes`` import, a second ``mallopt``
    caller, a second trimmer."""
    lint = load_tool("lint")
    src = os.path.join(TOOLS, "..", "src", "repro")
    assert lint.allocator_findings(os.path.join(src, "transport", "base.py")) == []
    seeded = tmp_path / "repro" / "serve" / "pool.py"
    seeded.parent.mkdir(parents=True)
    seeded.write_text(
        "import ctypes\n"
        "from ctypes import util\n"
        "ctypes.CDLL(None).mallopt(-8, 4)\n"
        "libc.malloc_trim(0)\n",
        encoding="utf-8",
    )
    findings = lint.allocator_findings(str(seeded))
    assert [line for line, _ in findings] == [1, 2, 3, 4]
    assert "malloc_trim here is a second allocator policy" in findings[3][1]
    assert all("reserved to transport/base.py" in message for _, message in findings)
    # the home may do both; code outside src/repro is not the rule's business
    home = tmp_path / "repro" / "transport" / "base.py"
    home.parent.mkdir(parents=True)
    home.write_text(seeded.read_text(encoding="utf-8"), encoding="utf-8")
    assert lint.allocator_findings(str(home)) == []
    tool = tmp_path / "tools" / "probe.py"
    tool.parent.mkdir()
    tool.write_text("import ctypes\n", encoding="utf-8")
    assert lint.allocator_findings(str(tool)) == []


def test_lint_keeps_package_imports_lazy_and_openssl_out_of_the_closure(tmp_path):
    """The seeded violations: an eager re-export in a package ``__init__``,
    a module-level ``hashlib`` in a module every host loads."""
    lint = load_tool("lint")
    src = os.path.join(TOOLS, "..", "src", "repro")
    for clean in ("__init__.py", "obs/__init__.py", "obs/trace.py", "core/security.py"):
        assert lint.package_surface_findings(os.path.join(src, clean)) == []
    package = tmp_path / "repro" / "core" / "__init__.py"
    package.parent.mkdir(parents=True)
    package.write_text(
        "from repro._exports import lazy_exports\n"
        "from repro.core.engine import SoapEngine\n"
        "import repro.core.wsdl\n"
        "from .fault import SoapFault\n"
        "import json\n"
        "def late():\n"
        "    from repro.core import client\n",
        encoding="utf-8",
    )
    findings = lint.package_surface_findings(str(package))
    assert [line for line, _ in findings] == [2, 3, 4]
    assert all("re-exports lazily" in message for _, message in findings)
    # the one eager edge is repro.obs -> repro.obs.trace, and only there
    obs = tmp_path / "repro" / "obs" / "__init__.py"
    obs.parent.mkdir()
    obs.write_text(
        "from repro.obs.trace import get_recorder\nfrom repro.obs.metrics import Counter\n",
        encoding="utf-8",
    )
    assert [line for line, _ in lint.package_surface_findings(str(obs))] == [2]
    engine = tmp_path / "repro" / "core" / "engine.py"
    engine.write_text(
        "import hashlib\n"
        "from hmac import compare_digest\n"
        "from repro.core.concepts import check_security_policy\n"
        "def digest():\n"
        "    import hashlib\n",
        encoding="utf-8",
    )
    findings = lint.package_surface_findings(str(engine))
    assert [line for line, _ in findings] == [1, 2]
    assert all("maps OpenSSL" in message for _, message in findings)
    # a model that signs may; code outside src/repro is not the rule's business
    model = tmp_path / "repro" / "core" / "security.py"
    model.write_text("import hashlib\nimport hmac\n", encoding="utf-8")
    assert lint.package_surface_findings(str(model)) == []
    tool = tmp_path / "tools" / "probe.py"
    tool.parent.mkdir()
    tool.write_text("import hashlib\n", encoding="utf-8")
    assert lint.package_surface_findings(str(tool)) == []
