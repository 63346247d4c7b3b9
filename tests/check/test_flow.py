"""Cross-module flow lint: every seeded defect is caught with the
exact RC1xx/RC2xx code, fixture trees analyze clean otherwise, and the
real source tree is flow-clean end to end."""

from __future__ import annotations

import io
import json
from pathlib import Path
from textwrap import dedent

from repro.check import check_flow
from repro.check.cli import main
from repro.check.symbols import SymbolTable

SRC = Path(__file__).resolve().parents[2] / "src"


# ----------------------------------------------------------------------
# A minimal — but complete — fixture package: protocol + worker +
# emitter + faults + kernel triple + code registry.  Each defect test
# overrides exactly one file.
# ----------------------------------------------------------------------
PROTOCOL = """
    OP_BUILD = "build"
    OP_TICK = "tick"
    OP_PAIRS = "pairs_at"

    REPLY_DROP_OP = "reply"


    class CommandSpec:
        def __init__(self, op, n_args=0, mutating=False, doc=""):
            self.op = op
            self.n_args = n_args
            self.mutating = mutating
            self.doc = doc


    COMMANDS = {
        OP_BUILD: CommandSpec(OP_BUILD, n_args=1, mutating=True),
        OP_TICK: CommandSpec(OP_TICK, n_args=1, mutating=True),
        OP_PAIRS: CommandSpec(OP_PAIRS, n_args=1, mutating=False),
    }
"""

WORKER = """
    from typing import Dict, List

    from .protocol import OP_BUILD, OP_PAIRS, OP_TICK


    class Engine:
        def tick(self, t):
            self.now = t

        def result_at(self, t):
            return []


    def build_engine(spec):
        return Engine()


    def make_checkpoint(engine):
        return {"format": "ckpt/1", "spec": engine.now, "store": []}


    def restore_engine(blob):
        if blob.get("format") != "ckpt/1":
            raise ValueError("format")
        engine = build_engine(blob["spec"])
        engine.store = blob["store"]
        return engine


    def checkpoint_spec(blob):
        return blob["spec"]


    def execute(registry: Dict[int, Engine], cmds: List):
        results = []
        for cmd in cmds:
            op, sid = cmd[0], cmd[1]
            if op == OP_BUILD:
                registry[sid] = build_engine(cmd[2])
                results.append(True)
            elif op == OP_TICK:
                eng = registry[sid]
                eng.tick(cmd[2])
                results.append(True)
            elif op == OP_PAIRS:
                eng = registry[sid]
                results.append(eng.result_at(cmd[2]))
            else:
                raise ValueError(op)
        return results
"""

SHARDED = """
    from .protocol import OP_BUILD, OP_PAIRS, OP_TICK


    class ShardedEngine:
        def _fan_all(self, op, *args):
            return [(op, sid) + args for sid in (0, 1)]

        def build(self, spec):
            return [(OP_BUILD, 0, spec)]

        def step(self, t):
            cmds = [(OP_TICK, 0, t), (OP_PAIRS, 0, t)]
            return cmds
"""

# Fixture fault kinds deliberately collide with nothing real: the flow
# lint also scans the repo's tests/ tree, so the broken specs embedded
# below must not parse as real fault specs there.
FAULTS = """
    WORKER_KINDS = ("zap", "stall")
    PARENT_KINDS = ("discard",)

    DEFAULT_CHAOS = "zap:op=tick;discard:nth=2"
"""

CONSTANTS = """
    EPS = 1e-12
    TOL = 1e-9
"""

INTERSECTION = """
    from .constants import EPS


    def pair_test(a, b):
        return abs(a - b) <= EPS
"""

KERNELS = """
    from .constants import EPS


    def batch_pair_windows(batch_a, ia, batch_b, jb, t0, t1):
        return EPS


    def batch_sweep(batch, dim):
        return batch
"""

ERRORS = """
    SANITIZER_CODES = ("SC901", "SC902")
    LINT_CODES = ("RC901",)
    FLOW_CODES = ("RC902",)
    RETIRED_CODES = ("RC890",)
"""

BASE_FILES = {
    "pkg/__init__.py": "",
    "pkg/par/__init__.py": "",
    "pkg/par/protocol.py": PROTOCOL,
    "pkg/par/worker.py": WORKER,
    "pkg/par/sharded.py": SHARDED,
    "pkg/faults.py": FAULTS,
    "pkg/geometry/__init__.py": "",
    "pkg/geometry/constants.py": CONSTANTS,
    "pkg/geometry/intersection.py": INTERSECTION,
    "pkg/geometry/kernels.py": KERNELS,
    "pkg/check/__init__.py": "",
    "pkg/check/errors.py": ERRORS,
}


def write_tree(tmp_path: Path, overrides=None) -> Path:
    files = dict(BASE_FILES)
    files.update(overrides or {})
    for rel, text in files.items():
        if text is None:
            continue
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(text))
    return tmp_path


def flow(tmp_path, overrides=None, **kwargs):
    return check_flow(write_tree(tmp_path, overrides), **kwargs)


def codes(findings) -> set:
    return {f.code for f in findings}


# ----------------------------------------------------------------------
# Shard-protocol completeness (RC101-RC107)
# ----------------------------------------------------------------------
class TestProtocolFlow:
    def test_clean_fixture_is_clean(self, tmp_path):
        assert flow(tmp_path) == []

    def test_dropped_dispatch_arm_is_rc101(self, tmp_path):
        # Neutralize the tick arm's test: no comparison, no arm.
        broken = WORKER.replace("elif op == OP_TICK:", "elif False:")
        found = flow(tmp_path, {"pkg/par/worker.py": broken})
        # Both directions notice: the registry declares tick, and the
        # sharded engine still emits it.
        assert codes(found) == {"RC101"}
        assert len(found) == 2

    def test_undeclared_arm_is_rc102(self, tmp_path):
        slim = PROTOCOL.replace(
            "OP_PAIRS: CommandSpec(OP_PAIRS, n_args=1, mutating=False),\n", ""
        )
        found = flow(tmp_path, {"pkg/par/protocol.py": slim})
        assert codes(found) == {"RC102"}

    def test_unflagged_mutating_arm_is_rc103(self, tmp_path):
        unflagged = PROTOCOL.replace(
            "OP_TICK: CommandSpec(OP_TICK, n_args=1, mutating=True),",
            "OP_TICK: CommandSpec(OP_TICK, n_args=1, mutating=False),",
        )
        found = flow(tmp_path, {"pkg/par/protocol.py": unflagged})
        assert codes(found) == {"RC103"}
        assert "tick" in found[0].message

    def test_registry_store_counts_as_mutation(self, tmp_path):
        unflagged = PROTOCOL.replace(
            "OP_BUILD: CommandSpec(OP_BUILD, n_args=1, mutating=True),",
            "OP_BUILD: CommandSpec(OP_BUILD, n_args=1, mutating=False),",
        )
        found = flow(tmp_path, {"pkg/par/protocol.py": unflagged})
        assert codes(found) == {"RC103"}

    def test_checkpoint_key_mismatch_is_rc104(self, tmp_path):
        skewed = WORKER.replace(
            'engine.store = blob["store"]', 'engine.store = blob["store_v2"]'
        )
        found = flow(tmp_path, {"pkg/par/worker.py": skewed})
        assert codes(found) == {"RC104"}
        messages = " ".join(f.message for f in found)
        assert "store_v2" in messages  # consumed but never produced
        assert "'store'" in messages  # produced but never consumed

    def test_unknown_fault_op_is_rc105(self, tmp_path):
        chaos = FAULTS.replace("zap:op=tick", "zap:op=tik")
        found = flow(tmp_path, {"pkg/faults.py": chaos})
        assert codes(found) == {"RC105"}
        assert "tik" in found[0].message

    def test_unknown_fault_kind_is_rc105(self, tmp_path):
        chaos = FAULTS.replace("discard:nth=2", "discarded:nth=2")
        found = flow(tmp_path, {"pkg/faults.py": chaos})
        assert codes(found) == {"RC105"}

    def test_bare_op_literal_is_rc106(self, tmp_path):
        leaky = SHARDED.replace(
            "cmds = [(OP_TICK, 0, t), (OP_PAIRS, 0, t)]",
            "cmds = [(OP_TICK, 0, t), (OP_PAIRS, 0, t)]\n"
            '            probe = "pairs_at"',
        )
        found = flow(tmp_path, {"pkg/par/sharded.py": leaky})
        assert codes(found) == {"RC106"}
        assert "pairs_at" in found[0].message

    def test_op_literal_as_dict_key_is_data_not_a_finding(self, tmp_path):
        tagged = SHARDED.replace(
            "return cmds",
            'stats = {"tick": t}\n'
            "            return cmds",
        )
        assert flow(tmp_path, {"pkg/par/sharded.py": tagged}) == []

    def test_missing_protocol_module_is_rc107(self, tmp_path):
        standalone = """
            def execute(registry, cmds):
                results = []
                for cmd in cmds:
                    op = cmd[0]
                    if op == "build":
                        registry[cmd[1]] = object()
                return results
        """
        found = flow(tmp_path, {
            "pkg/par/protocol.py": None,
            "pkg/par/worker.py": standalone,
            "pkg/par/sharded.py": "",
            "pkg/faults.py": "",
        })
        assert codes(found) == {"RC107"}


# ----------------------------------------------------------------------
# Kernel-pair tolerance parity (RC202)
# ----------------------------------------------------------------------
class TestKernelFlow:
    def test_inline_tolerance_literal_is_rc202(self, tmp_path):
        inlined = KERNELS.replace("return EPS", "return 1e-12")
        found = flow(tmp_path, {"pkg/geometry/kernels.py": inlined})
        assert codes(found) == {"RC202"}

    def test_missing_constants_import_is_rc202(self, tmp_path):
        detached = """
            def pair_test(a, b):
                return a <= b
        """
        found = flow(tmp_path, {"pkg/geometry/intersection.py": detached})
        assert codes(found) == {"RC202"}


# ----------------------------------------------------------------------
# Registry consistency (RC211-RC213)
# ----------------------------------------------------------------------
class TestRegistryFlow:
    def test_duplicate_code_is_rc211(self, tmp_path):
        doubled = ERRORS.replace(
            'LINT_CODES = ("RC901",)', 'LINT_CODES = ("RC901", "SC901")'
        )
        found = flow(tmp_path, {"pkg/check/errors.py": doubled})
        assert codes(found) == {"RC211"}
        assert "SC901" in found[0].message

    def test_retired_code_reuse_is_rc211(self, tmp_path):
        recycled = ERRORS.replace(
            'FLOW_CODES = ("RC902",)', 'FLOW_CODES = ("RC902", "RC890")'
        )
        found = flow(tmp_path, {"pkg/check/errors.py": recycled})
        assert codes(found) == {"RC211"}
        assert "retired" in found[0].message

    def test_unregistered_raised_code_is_rc212(self, tmp_path):
        rogue = """
    from .errors import Finding


    def audit(thing):
        return [Finding("RC999", "unregistered", "x")]
"""
        finding_class = (
            "\n\n"
            "    class Finding:\n"
            '        def __init__(self, code, message, location=""):\n'
            "            self.code = code\n"
        )
        found = flow(tmp_path, {
            "pkg/check/errors.py": ERRORS + finding_class,
            "pkg/check/audit.py": rogue,
        })
        assert codes(found) == {"RC212"}
        assert "RC999" in found[0].message

    def test_undocumented_code_is_rc212(self, tmp_path):
        docs = tmp_path / "docs.md"
        docs.write_text("Codes: SC901 SC902 RC901.\n")  # RC902 missing
        found = flow(tmp_path, {}, docs_path=docs)
        assert codes(found) == {"RC212"}
        assert "RC902" in found[0].message

    def test_untested_code_is_rc213(self, tmp_path):
        tests = tmp_path / "fixture_tests"
        tests.mkdir()
        (tests / "test_codes.py").write_text(
            'REFERENCED = ("SC901", "SC902", "RC901")\n'  # RC902 missing
        )
        found = flow(tmp_path, {}, tests_root=tests)
        assert codes(found) == {"RC213"}
        assert "RC902" in found[0].message


# ----------------------------------------------------------------------
# The symbol-table substrate
# ----------------------------------------------------------------------
class TestSymbolTable:
    def test_const_eval_follows_imports(self, tmp_path):
        table = SymbolTable.build(write_tree(tmp_path))
        sharded = table.find("par.sharded")
        assert table.resolve_name(sharded, "OP_TICK") == "tick"

    def test_registry_tuples_fold(self, tmp_path):
        table = SymbolTable.build(write_tree(tmp_path))
        faults = table.find("faults")
        assert table.resolve_name(faults, "WORKER_KINDS") == ("zap", "stall")

    def test_broken_files_are_skipped(self, tmp_path):
        root = write_tree(tmp_path, {"pkg/extra.py": "def broken(:\n"})
        table = SymbolTable.build(root)
        assert table.find("extra") is None
        assert table.find("par.worker") is not None


# ----------------------------------------------------------------------
# The real tree and the CLI
# ----------------------------------------------------------------------
class TestRealSource:
    def test_src_is_flow_clean(self):
        assert check_flow(SRC) == []

    def test_cli_flow_clean_exit_zero(self):
        out = io.StringIO()
        assert main(["flow", str(SRC)], out=out) == 0
        assert "clean" in out.getvalue()

    def test_cli_flow_findings_exit_one_json(self, tmp_path):
        broken = FAULTS.replace("zap:op=tick", "zap:op=tik")
        root = write_tree(tmp_path, {"pkg/faults.py": broken})
        out = io.StringIO()
        assert main(["flow", str(root), "--format", "json"], out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["check"] == "flow"
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "RC105"

    def test_cli_lint_shares_json_format(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("def f(x=[]):\n    return x\n")
        out = io.StringIO()
        assert main(["lint", str(target), "--format", "json"], out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["check"] == "lint"
        assert [f["code"] for f in payload["findings"]] == ["RC003"]
