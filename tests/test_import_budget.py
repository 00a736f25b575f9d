"""The import budget of a serving process, held (DESIGN.md §10 "process floor").

A process pays resident memory for every module it loads, so what a SOAP
host loads is a budget like the bulk path's copies are
(``tests/test_copy_budget.py``): packages re-export lazily
(``repro/_exports.py``), the engine imports policy *concepts* and never a
*model*, OpenSSL is mapped when something first signs or digests, and the
load-generation client lives with the load generators.  Each of those is
read here from ``sys.modules`` of a fresh interpreter; reverting any one of
them fails ``test_a_serving_process_loads_only_what_it_serves``.

The banned modules are read against what the serving imports *add* to the
interpreter's own startup modules: a site ``.pth`` hook may run before any
``repro`` code does (one that imports ``certifi`` loads
``importlib.resources`` and with it ``tempfile``), and the process would be
charged for what the interpreter loaded.  A listed module that startup has
already loaded cannot be observed in that interpreter.

The price of lazy re-exports is that a typo in an export table is no longer
an ``ImportError`` at package import, so the last tests resolve every name
of every table.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.core.client import SoapHttpClient, SoapTcpClient
from repro.core.envelope import SoapEnvelope
from repro.core.policies import BXSAEncoding, XMLEncoding
from repro.core.security import HmacSigningPolicy, SecretKey
from repro.transport.sockets import connect_tcp
from repro.xdm import element, leaf

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))

#: What a process that serves echoes over HTTP has no use for: OpenSSL and
#: the two stdlib modules that drag in ``random``/``shutil``-sized closures,
#: every model the engine composes with but does not need, the SOAP client
#: and the client half of the engine (with the concept checks and the retry
#: layer it imports), the TCP binding, the recording trace recorder, and the
#: evaluation substrates.  A package stands for its submodules too.
#: Checked against the modules the serving imports add to a fresh
#: interpreter, not against the whole ``sys.modules``: a site ``.pth`` hook
#: may import ``certifi`` -> ``importlib.resources`` -> ``tempfile`` before
#: ``repro`` is imported, and a module startup already holds is invisible here.
NOT_IN_A_SERVING_PROCESS = """
    _hashlib hmac tempfile uuid
    repro.core.security repro.core.wsdl repro.core.compression
    repro.core.intermediary repro.core.client repro.core.engine repro.core.concepts
    repro.transport.resilience repro.transport.tcp_binding repro.obs.recorder
    repro.netcdf repro.gridftp repro.datachannel repro.fed repro.harness
    repro.netsim repro.loadgen repro.workloads
    repro.services.eventing repro.services.verification
    repro.xdm.xpath repro.obs.sampling repro.obs.analyze
""".split()

#: ``repro.*`` modules in that process: 58 when this was written, 61 with
#: the client engine, the TCP binding and the recording recorder, 90 before
#: packages re-exported lazily.
MAX_REPRO_MODULES = 60

#: Source lines of those modules, which an uncached process compiles before
#: it serves: 11 466 when this was written, 12 413 with the three above.
MAX_REPRO_LINES = 11_500

KEY = b"import-budget-shared-secret-0123"


def in_a_fresh_interpreter(statements: str, expression: str = "list(sys.modules)"):
    """What ``expression`` is worth (through JSON) in a new interpreter that
    has run ``statements``."""
    code = f"{statements}\nimport json, sys\nprint(json.dumps({expression}))"
    run = subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


#: What a serving process imports: the host, the echo service, the aio core.
SERVING_IMPORTS = "import repro.serve.service, repro.services.echo, repro.transport.aio as aio"

#: The stdlib modules of the banned list, which the interpreter's startup may
#: hold already (see the module docstring) and so are also read statically.
BANNED_STDLIB = {"_hashlib", "hashlib", "hmac", "tempfile", "uuid"}


def test_a_serving_process_loads_only_what_it_serves():
    loaded, added, client_in_driver, lines = in_a_fresh_interpreter(
        f"import sys\nSTARTUP = set(sys.modules)\n{SERVING_IMPORTS}",
        "[list(sys.modules), sorted(set(sys.modules) - STARTUP),"
        " [n for n in ('LadderResult', 'drive_connections') if hasattr(aio, n)],"
        " sum(len(open(m.__file__, 'rb').read().splitlines()) for name, m in"
        " list(sys.modules.items()) if name.split('.')[0] == 'repro'"
        " and getattr(m, '__file__', None))]",
    )
    unwanted = [
        module
        for module in added
        for banned in NOT_IN_A_SERVING_PROCESS
        if module == banned or module.startswith(banned + ".")
    ]
    assert unwanted == []
    assert client_in_driver == []  # the ladder client is repro.loadgen's
    ours = [module for module in loaded if module.split(".")[0] == "repro"]
    assert len(ours) <= MAX_REPRO_MODULES, sorted(ours)
    assert lines <= MAX_REPRO_LINES


def module_level_imports(source: str) -> set[str]:
    """Root names of the imports a module runs when it is imported: its own
    statements, ``if``/``try`` blocks included, not function or class bodies."""
    roots = set()
    pending: list[ast.AST] = [ast.parse(source)]
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return roots


def test_no_serving_module_imports_a_banned_stdlib_module_at_import():
    """The static half of the budget, for what startup may already hold: a
    module-level ``import tempfile`` in ``transport/base.py`` passes the
    dynamic check on an interpreter whose site hook loaded ``tempfile``."""
    files = in_a_fresh_interpreter(
        SERVING_IMPORTS,
        "{m: sys.modules[m].__file__ for m in sys.modules"
        " if m.split('.')[0] == 'repro' and getattr(sys.modules[m], '__file__', None)}",
    )
    assert len(files) > 40  # the serving imports, not a stub
    offenders = {}
    for module, path in sorted(files.items()):
        with open(path, encoding="utf-8") as handle:
            banned = module_level_imports(handle.read()) & BANNED_STDLIB
        if banned:
            offenders[module] = sorted(banned)
    assert offenders == {}


def test_the_static_import_reader_sees_module_level_imports_only():
    source = (
        "import os, tempfile.x\nfrom hmac import new\nfrom . import sibling\n"
        "try:\n    import uuid\nexcept ImportError:\n    import hashlib.x\n"
        "def f():\n    import _hashlib\nclass C:\n    import _hashlib\n"
    )
    assert module_level_imports(source) == {"os", "tempfile", "hmac", "uuid", "hashlib"}


@pytest.mark.parametrize(
    "statements",
    ["import repro", "import repro.obs.analyze", "from repro import obs; obs.span('x')"],
)
def test_what_needs_no_numpy_loads_no_numpy(statements):
    assert "numpy" not in in_a_fresh_interpreter(statements)


#: The host exactly as ``benchmarks/ledger/server.py`` and ``repro.fed.node``
#: build it: announce the bound address, serve until stdin closes, then
#: report what ``sys.modules`` gained after ``start()`` returned.
SERVING_CHILD = """
import json, sys
from repro.serve import ServeConfig, SoapServeService
from repro.services.echo import echo_dispatcher
from repro.transport.sockets import TcpListener

core, key = sys.argv[1], bytes.fromhex(sys.argv[2])
security = None
if key:
    from repro.core.security import HmacSigningPolicy, SecretKey
    security = HmacSigningPolicy(SecretKey(key))
listener = TcpListener("127.0.0.1", 0)
service = SoapServeService(
    listener, echo_dispatcher(), config=ServeConfig(workers=2, core=core), security=security
).start()
started = set(sys.modules)
print("ADDR", *listener.address, flush=True)
sys.stdin.buffer.read()
service.stop()
print(json.dumps({"gained": sorted(set(sys.modules) - started), "openssl": "_hashlib" in sys.modules}))
"""


#: ``SoapTcpService`` the same way: the TCP binding it resolves in its
#: constructor, and nothing at the first length-prefixed exchange.
TCP_SERVING_CHILD = """
import json, sys
from repro.core.service import SoapTcpService
from repro.services.echo import echo_dispatcher
from repro.transport.sockets import TcpListener

listener = TcpListener("127.0.0.1", 0)
service = SoapTcpService(listener, echo_dispatcher()).start()
started = set(sys.modules)
print("ADDR", *listener.address, flush=True)
sys.stdin.buffer.read()
service.stop()
print(json.dumps({"gained": sorted(set(sys.modules) - started), "openssl": "_hashlib" in sys.modules}))
"""


def echoes_through_a_child(
    core: str, key: bytes = b"", child_source: str = SERVING_CHILD, client_class=SoapHttpClient
) -> dict:
    """One BXSA and one XML ``Echo`` through a serving child; its report."""
    child = subprocess.Popen(
        [sys.executable, "-c", child_source, core, key.hex()],
        env=ENV,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        _, host, port = child.stdout.readline().split()
        for encoding in (BXSAEncoding(), XMLEncoding()):
            client = client_class(
                lambda: connect_tcp(host, int(port)),
                encoding=encoding,
                security=HmacSigningPolicy(SecretKey(key)) if key else None,
            )
            try:
                request = SoapEnvelope.wrap(element("Echo", leaf("x", 7, "int"), leaf("y", 2.5)))
                reply = client.call(request)  # verifies the reply's MAC
            finally:
                client.close()
            assert reply.body_root.name.local == "EchoResponse"
            assert [(node.name.local, node.value) for node in reply.body_root.children] == [
                ("x", 7),
                ("y", 2.5),
            ]
        report, _ = child.communicate(timeout=30)  # closes stdin: the stop signal
    finally:
        child.kill()
        child.wait(timeout=10)
    assert child.returncode == 0
    return json.loads(report)


@pytest.mark.parametrize("core", ["aio", "threaded"])
def test_nothing_is_imported_during_an_exchange(core):
    """A host resolves what its ``ServeConfig`` selects by the time
    ``start()`` returns; a lazy export first touched by a request would
    make that request pay an import."""
    report = echoes_through_a_child(core)
    assert [m for m in report["gained"] if m.split(".")[0] == "repro"] == []
    assert not report["openssl"]


def test_nothing_is_imported_during_a_tcp_exchange():
    report = echoes_through_a_child("tcp", child_source=TCP_SERVING_CHILD, client_class=SoapTcpClient)
    assert [m for m in report["gained"] if m.split(".")[0] == "repro"] == []
    assert not report["openssl"]


def test_openssl_is_mapped_by_the_process_that_signs():
    report = echoes_through_a_child("aio", KEY)
    assert report["openssl"]
    assert [m for m in report["gained"] if m.split(".")[0] == "repro"] == []


PACKAGES = ["repro"] + [
    module.name for module in pkgutil.walk_packages(repro.__path__, "repro.") if module.ispkg
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
    for exported in package.__all__:
        getattr(package, exported)  # a typo in the table raises here
    assert set(dir(package)) >= set(package.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        package.no_such_name
    # a name that is also a submodule would be rebound by whichever import
    # ran last, now that the table no longer runs at package import
    submodules = {module.name for module in pkgutil.iter_modules(package.__path__)}
    assert not submodules & set(package.__all__)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(namespace) >= set(package.__all__)


def test_a_name_is_one_object_at_every_level():
    import repro.core.engine

    assert repro.SoapEngine is repro.core.SoapEngine is repro.core.engine.SoapEngine
    assert repro.bxsa_decode is repro.bxsa.decode is repro.bxsa.decoder.decode
    assert "SoapEngine" in vars(repro)  # resolved once, then an ordinary attribute
