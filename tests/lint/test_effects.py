"""Effect-inference engine: classifications, and the adversarial cases.

Every test certifies a small in-memory module through the same
``PackageIndex`` + ``certify_class_info`` pipeline the CLI uses, so the
assertions exercise exactly the code path the shard-safety gate trusts.
The adversarial battery covers the smuggling tricks a static pass is
most likely to miss: ``setattr`` with a computed name, closure captures,
mutable default arguments, ``@property`` bodies that mutate on read, and
dict/set iteration whose order could leak into results.
"""

import pytest

from repro.lint.callgraph import PackageIndex
from repro.lint.effects import (
    SHARDABLE,
    analyze_package,
    certify_class_info,
)


def certify(source: str, class_name: str, module: str = "repro.scratch"):
    index = PackageIndex("repro")
    info = index.add_source(source, module)
    cls = info.classes[class_name]
    return certify_class_info(index, cls)


class TestBasicClassifications:
    def test_stateless_operator_is_pure(self):
        cert = certify(
            "class Op:\n"
            "    def process(self, tup, now):\n"
            "        return tup.value * 2\n",
            "Op",
        )
        assert cert.classification == "pure"

    def test_own_window_state_is_shard_safe(self):
        cert = certify(
            "class Op:\n"
            "    def __init__(self):\n"
            "        self.window = []\n"
            "        self.count = 0\n"
            "    def process(self, tup, now):\n"
            "        self.window.append(tup)\n"
            "        self.count += 1\n",
            "Op",
        )
        assert cert.classification in SHARDABLE
        assert "window" in cert.effects["self_writes"]
        assert "window" in cert.effects["mutated_writes"]
        # rebinding count is a write but not an object mutation
        assert "count" not in cert.effects["mutated_writes"]

    def test_global_write_is_shared_state(self):
        cert = certify(
            "TALLY = {}\n"
            "class Op:\n"
            "    def process(self, tup, now):\n"
            "        TALLY[tup.stream] = 1\n",
            "Op",
        )
        assert cert.classification == "shared-state"
        assert "TALLY" in cert.effects["global_writes"]

    def test_class_attribute_write_is_shared_state(self):
        cert = certify(
            "class Op:\n"
            "    cache = {}\n"
            "    def process(self, tup, now):\n"
            "        self.cache[tup.seq] = tup\n",
            "Op",
        )
        assert cert.classification == "shared-state"

    def test_declared_cap_downgrades(self):
        cert = certify(
            "class Op:\n"
            "    __effects__ = 'shared-state'\n"
            "    def process(self, tup, now):\n"
            "        return tup\n",
            "Op",
        )
        assert cert.classification == "shared-state"
        assert cert.inferred == "pure"


class TestAdversarial:
    def test_setattr_smuggling(self):
        cert = certify(
            "class Op:\n"
            "    def process(self, tup, now):\n"
            "        setattr(self, 'hidden_' + str(tup.stream), tup)\n",
            "Op",
        )
        # computed attribute name: the engine must assume any root
        assert "*" in cert.effects["self_writes"]

    def test_setattr_on_global_is_shared_state(self):
        cert = certify(
            "REGISTRY = {}\n"
            "class Op:\n"
            "    def process(self, tup, now):\n"
            "        setattr(REGISTRY, 'x', tup)\n",
            "Op",
        )
        assert cert.classification == "shared-state"

    def test_global_write_only_in_on_finish(self):
        # the runtime calls on_finish on every node at end of run; a
        # write hidden there is as shared as one in process
        cert = certify(
            "FLUSHED = []\n"
            "class Op:\n"
            "    def process(self, tup, now):\n"
            "        return tup.value\n"
            "    def on_finish(self, now):\n"
            "        FLUSHED.append(now)\n"
            "        return []\n",
            "Op",
        )
        assert cert.classification == "shared-state"
        assert "on_finish" in cert.entry_methods
        assert "FLUSHED" in cert.effects["global_writes"]

    def test_closure_smuggling_surfaces_the_assumption(self):
        # a per-instance closure from a factory IS shard-safe (fresh
        # cell per __init__), but the engine cannot see inside it — the
        # certificate must carry the assumption so the determinism
        # sanitizer knows to verify it at run time
        cert = certify(
            "def make_counter():\n"
            "    state = []\n"
            "    def bump(tup):\n"
            "        state.append(tup)\n"
            "    return bump\n"
            "class Op:\n"
            "    def __init__(self):\n"
            "        self.cb = make_counter()\n"
            "    def process(self, tup, now):\n"
            "        self.cb(tup)\n",
            "Op",
        )
        assert "cb" in cert.effects["opaque_calls"]
        assert any("assumed pure" in w for w in cert.why)

    def test_mutable_default_argument_smuggling(self):
        cert = certify(
            "class Op:\n"
            "    def process(self, tup, now, acc=[]):\n"
            "        acc.append(tup)\n"
            "        return len(acc)\n",
            "Op",
        )
        # the default list is created once at def time: mutating it is
        # cross-instance shared state
        assert cert.classification == "shared-state"

    def test_property_getter_mutation_is_caught(self):
        cert = certify(
            "HITS = {}\n"
            "class Op:\n"
            "    @property\n"
            "    def hot(self):\n"
            "        HITS['n'] = HITS.get('n', 0) + 1\n"
            "        return True\n"
            "    def process(self, tup, now):\n"
            "        if self.hot:\n"
            "            return tup\n",
            "Op",
        )
        assert cert.classification == "shared-state"
        assert "HITS" in cert.effects["global_writes"]

    def test_set_iteration_order_is_flagged(self):
        cert = certify(
            "class Op:\n"
            "    def __init__(self):\n"
            "        self.keys = set()\n"
            "    def process(self, tup, now):\n"
            "        for k in self.keys:\n"
            "            return k\n",
            "Op",
        )
        assert cert.classification == "shared-state"
        assert cert.effects["set_iteration"]

    def test_global_aliased_into_self_then_written(self):
        cert = certify(
            "SHARED = []\n"
            "class Op:\n"
            "    def __init__(self):\n"
            "        self.buf = SHARED\n"
            "    def process(self, tup, now):\n"
            "        self.buf.append(tup)\n",
            "Op",
        )
        assert cert.classification == "shared-state"

    def test_wall_clock_is_shared_state(self):
        cert = certify(
            "import time\n"
            "class Op:\n"
            "    def process(self, tup, now):\n"
            "        return time.time()\n",
            "Op",
        )
        assert cert.classification == "shared-state"

    def test_global_rng_is_shared_state(self):
        cert = certify(
            "import random\n"
            "class Op:\n"
            "    def process(self, tup, now):\n"
            "        return random.random()\n",
            "Op",
        )
        assert cert.classification == "shared-state"


class TestMutationVsBinding:
    def test_injected_collaborator_binding_is_not_mutation(self):
        cert = certify(
            "class Op:\n"
            "    def __init__(self, predicate):\n"
            "        self.predicate = predicate\n"
            "    def process(self, tup, now):\n"
            "        return self.predicate\n",
            "Op",
        )
        assert "predicate" in cert.effects["self_writes"]
        assert "predicate" not in cert.effects["mutated_writes"]
        assert "predicate" in cert.effects["aliased_writes"]

    def test_subscript_store_is_mutation(self):
        cert = certify(
            "class Op:\n"
            "    def __init__(self):\n"
            "        self.d = {}\n"
            "    def process(self, tup, now):\n"
            "        self.d[tup.seq] = tup\n",
            "Op",
        )
        assert "d" in cert.effects["mutated_writes"]

    def test_nested_attribute_store_is_mutation(self):
        cert = certify(
            "class Op:\n"
            "    def __init__(self, cfg):\n"
            "        self.cfg = cfg\n"
            "    def process(self, tup, now):\n"
            "        self.cfg.limit = 5\n",
            "Op",
        )
        assert "cfg" in cert.effects["mutated_writes"]

    def test_local_alias_mutation_is_attributed(self):
        cert = certify(
            "class Op:\n"
            "    def __init__(self):\n"
            "        self.window = []\n"
            "    def process(self, tup, now):\n"
            "        w = self.window\n"
            "        w.append(tup)\n",
            "Op",
        )
        assert "window" in cert.effects["mutated_writes"]


class TestInterprocedural:
    def test_effects_propagate_through_helpers(self):
        cert = certify(
            "COUNTS = {}\n"
            "class Op:\n"
            "    def _bump(self):\n"
            "        COUNTS['n'] = 1\n"
            "    def process(self, tup, now):\n"
            "        self._bump()\n",
            "Op",
        )
        assert cert.classification == "shared-state"
        assert "COUNTS" in cert.effects["global_writes"]

    def test_mutation_through_helper_chain(self):
        cert = certify(
            "class Op:\n"
            "    def __init__(self):\n"
            "        self.items = []\n"
            "    def _store(self, tup):\n"
            "        self.items.append(tup)\n"
            "    def process(self, tup, now):\n"
            "        self._store(tup)\n",
            "Op",
        )
        assert "items" in cert.effects["mutated_writes"]


class TestPackageManifest:
    """The real package: the acceptance bar for the tentpole."""

    @pytest.fixture(scope="class")
    def analysis(self):
        return analyze_package()

    def test_every_operator_class_is_classified(self, analysis):
        assert analysis.certificates, "no classes certified"
        for name, cert in analysis.certificates.items():
            assert cert.classification != "unknown", (
                f"{name}: {cert.why}"
            )

    def test_shard_replicated_operators_certify_shardable(self, analysis):
        for name in (
            "repro.joins.mjoin.MJoinOperator",
            "repro.joins.indexed.IndexedMJoin",
            "repro.core.grubjoin.GrubJoinOperator",
        ):
            cert = analysis.get(name)
            assert cert is not None, name
            assert cert.classification in SHARDABLE, (
                name, cert.classification, cert.why
            )

    def test_router_declares_shared_state(self, analysis):
        cert = analysis.get("repro.parallel.router.RouterOperator")
        assert cert.classification == "shared-state"
        assert cert.declared == "shared-state"

    def test_manifest_is_byte_deterministic(self, analysis):
        from repro.lint.effects import analyze_index, package_src_root
        from repro.lint.callgraph import PackageIndex as PI

        fresh = analyze_index(PI.build(package_src_root()))
        assert fresh.manifest_json() == analysis.manifest_json()

    def test_committed_manifest_is_current(self, analysis):
        from pathlib import Path

        committed = (
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "effects" / "MANIFEST.json"
        )
        assert committed.exists(), (
            "benchmarks/effects/MANIFEST.json missing — regenerate with "
            "python -m repro.lint --effects src --manifest-out "
            "benchmarks/effects/MANIFEST.json"
        )
        assert committed.read_text() == analysis.manifest_json(), (
            "committed effect manifest is stale — regenerate it"
        )
