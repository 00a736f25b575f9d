"""The bulk path's copy budget, held on both drivers (DESIGN.md §10).

``tools/copy_budget.py`` is the instrument; this module runs it in tier-1.
Both numbers are counts of bytes, not timings, so they are the same on
every machine: one warm 1.2 MB ``Echo`` may hold ``PEAK_BUDGET`` payloads
of traced memory at its peak, and nothing payload-sized may still be
referenced once the exchange is over.  The parent of the PR that added
this read 7-9 payloads at peak with two requests and two responses pinned
by the idle pool workers.
"""

import importlib.util
import os
import platform
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("core", ["aio", "threaded"])
def test_bulk_echo_stays_within_the_copy_budget(core):
    copy_budget = load_tool("copy_budget")
    result = copy_budget.measure(core)
    assert result["pinned"] == []
    assert max(result["peak_payloads"]) <= copy_budget.PEAK_BUDGET, result


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins a glibc malloc heuristic")
def test_warm_bulk_exchanges_do_not_fault_the_heap_back_in():
    """The drivers' ``prime_allocator`` step, pinned: without it a server
    that pins nothing has its heap trimmed after every 1.2 MB exchange and
    faults ~570 pages back in for the next.  Allocator thresholds are
    process state, so the instrument runs in an interpreter of its own."""
    tool = os.path.join(TOOLS, "copy_budget.py")
    run = subprocess.run(
        [sys.executable, tool, "--core", "aio"], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "minor faults per exchange" in run.stdout


def test_lint_keeps_the_join_off_the_response_path(tmp_path):
    """The seeded violation: a ``response.to_bytes()`` in ``_enqueue_response``."""
    lint = load_tool("lint")
    source_path = os.path.join(TOOLS, "..", "src", "repro", "transport", "aio.py")
    with open(source_path, encoding="utf-8") as fh:
        source = fh.read()
    assert lint.response_join_findings(source_path) == []
    seeded = tmp_path / "repro" / "transport" / "aio.py"
    seeded.parent.mkdir(parents=True)
    anchor = "            conn.outbuf += response.iter_wire()\n"
    assert source.count(anchor) == 1
    seeded.write_text(
        source.replace(anchor, "            conn.outbuf.append(response.to_bytes())\n"),
        encoding="utf-8",
    )
    (finding,) = lint.response_join_findings(str(seeded))
    assert "must not join a message" in finding[1]
    # the refusals stay legal, and other modules are not the rule's business
    assert lint.response_join_findings(source_path.replace("aio.py", "http/server.py")) == []
    elsewhere = tmp_path / "repro" / "transport" / "http" / "client.py"
    elsewhere.parent.mkdir(parents=True)
    elsewhere.write_text("wire = request.to_bytes()\n", encoding="utf-8")
    assert lint.response_join_findings(str(elsewhere)) == []
