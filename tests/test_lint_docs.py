"""The docs check of ``tools/lint.py``: every test and every
"`path.py` `symbol`" that DESIGN.md cites exists in the tree."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_lint():
    spec = importlib.util.spec_from_file_location("lint", os.path.join(ROOT, "tools", "lint.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_design_cites_only_what_exists():
    lint = load_lint()
    assert lint.design_citation_findings(os.path.join(ROOT, "DESIGN.md"), ROOT) == []


def test_a_citation_of_what_is_gone_is_found(tmp_path):
    lint = load_lint()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_here.py").write_text("def test_present():\n    pass\n")
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (core / "exchange.py").write_text(
        "class Served:\n    def body(self):\n        pass\n\n\ndef serve_exchange():\n    pass\n"
    )
    design = tmp_path / "DESIGN.md"
    design.write_text(
        "`tests/test_here.py` pins `test_present`; `test_gone` and `test_away.py` do not exist.\n"
        "`core/exchange.py` `serve_exchange(payload)` and `core/exchange.py` `Served.body`\n"
        "resolve, as does a method by its bare name, `core/exchange.py` `body`;\n"
        "`core/engine.py` `serve_exchange` and `core/exchange.py` `Served.gone` do not.\n"
    )
    findings = lint.design_citation_findings(str(design), str(tmp_path))
    assert [(line, message.split(",")[0]) for line, message in findings] == [
        (1, "cites test_away.py"),
        (1, "cites test_gone"),
        (4, "cites `core/engine.py` `serve_exchange`"),
        (4, "cites `core/exchange.py` `Served.gone`"),
    ]
