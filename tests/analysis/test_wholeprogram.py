"""Tests for the whole-program rules RPR010-RPR013.

Mirrors the PR 5 per-rule matrix — firing, suppressed, negative, and
shipped-tree-zero — plus the four planted-violation acceptance tests
(one finding each) and the lint timing budget.

Fixtures are materialised as real package trees under tmp_path because
the rules are path-aware: realtime modules are recognised by
``repro/gateway/`` (etc.) path shape, solve-phase roots by
``broker.py``/``mega.py`` basenames, and topics by the
``repro.network.topics`` module name — so the fixture tree mimics the
repo layout without importing any of it.
"""

from __future__ import annotations

import textwrap
import time
from pathlib import Path

import repro
from repro.analysis.wholeprogram import analyze_paths

PKG_ROOT = Path(repro.__file__).parent


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "proj"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    # Every directory from the file up to (exclusive) the root is a
    # package, so dotted module names mirror the repo layout.
    for path in list(root.rglob("*.py")):
        directory = path.parent
        while directory != root:
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
            directory = directory.parent
    return root


def _run(tmp_path, files, select):
    findings, _scanned, _model = analyze_paths(
        [_tree(tmp_path, files)], select=select
    )
    return findings


def _active(findings):
    return [f for f in findings if not f.suppressed]


# ----------------------------------------------------------------------
# RPR010 async-blocking
# ----------------------------------------------------------------------


class TestRPR010AsyncBlocking:
    def test_direct_sleep_in_gateway_coroutine_fires(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/gateway/server.py": """
                    import time

                    async def pump():
                        time.sleep(0.1)
                """,
            },
            select=["RPR010"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR010"]
        assert "time.sleep" in active[0].message
        assert active[0].path.endswith("server.py")

    def test_transitive_chain_fires_with_witness(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/gateway/server.py": """
                    from repro.util.io import fetch

                    async def handle():
                        fetch()
                """,
                "repro/util/io.py": """
                    from repro.util.deep import load

                    def fetch():
                        return load()
                """,
                "repro/util/deep.py": """
                    def load():
                        with open("x") as fh:
                            return fh.read()
                """,
            },
            select=["RPR010"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR010"]
        # Anchored in the coroutine, witness names the chain + sink.
        assert active[0].path.endswith("server.py")
        assert "fetch" in active[0].message
        assert "open" in active[0].message

    def test_pragma_at_call_site_suppresses(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/gateway/server.py": """
                    import time

                    async def pump():
                        time.sleep(0.1)  # reprolint: allow[async-blocking]
                """,
            },
            select=["RPR010"],
        )
        assert _active(findings) == []
        assert [f.rule for f in findings] == ["RPR010"]
        assert findings[0].suppressed

    def test_pragma_at_sink_cuts_propagation(self, tmp_path):
        """A sanctioned offload site deep in a helper clears every
        coroutine that reaches it — no finding, not even suppressed."""
        findings = _run(
            tmp_path,
            {
                "repro/gateway/server.py": """
                    from repro.util.io import fetch

                    async def handle():
                        fetch()
                """,
                "repro/util/io.py": """
                    import time

                    def fetch():
                        time.sleep(0)  # reprolint: allow[async-blocking]
                """,
            },
            select=["RPR010"],
        )
        assert findings == []

    def test_sync_function_and_non_realtime_module_negative(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                # Blocking in a *sync* gateway function: fine.
                "repro/gateway/server.py": """
                    import time

                    def warmup():
                        time.sleep(0.1)
                """,
                # Blocking in an async def *outside* realtime modules:
                # out of scope for this rule.
                "repro/middleware/jobs.py": """
                    import time

                    async def batch():
                        time.sleep(0.1)
                """,
            },
            select=["RPR010"],
        )
        assert findings == []

    def test_shipped_tree_zero(self, shipped_model):
        findings, scanned, _model = analyze_paths(
            [PKG_ROOT], select=["RPR010"], model=shipped_model
        )
        assert scanned > 50
        assert _active(findings) == [], "\n".join(
            f.render() for f in _active(findings)
        )


# ----------------------------------------------------------------------
# RPR011 transitive-impurity
# ----------------------------------------------------------------------


class TestRPR011TransitiveImpurity:
    def test_deep_impure_call_from_solve_round_fires(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/middleware/broker.py": """
                    from repro.core.helpers import accumulate

                    class Broker:
                        def solve_round(self, pending):
                            return accumulate(pending)
                """,
                "repro/core/helpers.py": """
                    from repro.core.cachemod import remember

                    def accumulate(x):
                        return remember(x)
                """,
                "repro/core/cachemod.py": """
                    _SEEN = {}

                    def remember(x):
                        _SEEN[id(x)] = x
                        return x
                """,
            },
            select=["RPR011"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR011"]
        assert active[0].path.endswith("broker.py")
        assert "remember" in active[0].message

    def test_self_write_through_helper_method_fires(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/middleware/broker.py": """
                    class Broker:
                        def solve_round(self, pending):
                            phi = self._memoised_basis()
                            return phi

                        def _memoised_basis(self):
                            self._cache = 1
                            return self._cache
                """,
            },
            select=["RPR011"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR011"]
        assert "_memoised_basis" in active[0].message

    def test_pragma_on_write_line_sanctions_all_paths(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/middleware/broker.py": """
                    class Broker:
                        def solve_round(self, pending):
                            return self._memo()

                        def _memo(self):
                            self._cache = 1  # reprolint: allow[transitive-impurity]
                            return self._cache
                """,
            },
            select=["RPR011"],
        )
        assert findings == []

    def test_def_line_pragma_sanctions_whole_function(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/middleware/broker.py": """
                    class Broker:
                        def solve_round(self, pending):
                            return self._memo()

                        def _memo(self):  # reprolint: allow[transitive-impurity]
                            self._a = 1
                            self._b = 2
                            return self._a
                """,
            },
            select=["RPR011"],
        )
        assert findings == []

    def test_pragma_at_call_site_suppresses_that_finding(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/middleware/broker.py": """
                    class Broker:
                        def solve_round(self, pending):
                            return self._memo()  # reprolint: allow[transitive-impurity]

                        def _memo(self):
                            self._cache = 1
                            return self._cache
                """,
            },
            select=["RPR011"],
        )
        assert _active(findings) == []
        assert [f.suppressed for f in findings] == [True]

    def test_constructor_writes_and_pure_chain_negative(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/middleware/broker.py": """
                    from repro.core.acc import Acc

                    class Broker:
                        def solve_round(self, pending):
                            acc = Acc()
                            return helper(pending)

                    def helper(x):
                        return x + 1
                """,
                # __init__ self-writes initialise a fresh object: not
                # impurity the solve phase can observe.
                "repro/core/acc.py": """
                    class Acc:
                        def __init__(self):
                            self.total = 0
                """,
            },
            select=["RPR011"],
        )
        assert findings == []

    def test_mega_solve_kernel_is_a_root(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/mega.py": """
                    from repro.core.cachemod import remember

                    def _solve_zone(payload):
                        return remember(payload)
                """,
                "repro/core/cachemod.py": """
                    _SEEN = {}

                    def remember(x):
                        _SEEN[id(x)] = x
                        return x
                """,
            },
            select=["RPR011"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR011"]
        assert active[0].path.endswith("mega.py")

    def test_shipped_tree_zero(self, shipped_model):
        findings, _scanned, _model = analyze_paths(
            [PKG_ROOT], select=["RPR011"], model=shipped_model
        )
        assert _active(findings) == [], "\n".join(
            f.render() for f in _active(findings)
        )


# ----------------------------------------------------------------------
# RPR012 seed-lineage
# ----------------------------------------------------------------------


class TestRPR012SeedLineage:
    def test_duplicate_literal_seed_across_files_fires_once(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/a.py": """
                    import numpy as np

                    def make():
                        return np.random.default_rng(1234)
                """,
                "repro/sim/b.py": """
                    import numpy as np

                    def make():
                        return np.random.default_rng(1234)
                """,
            },
            select=["RPR012"],
        )
        active = _active(findings)
        # One finding at the *second* site, pointing back at the first.
        assert [f.rule for f in active] == ["RPR012"]
        assert active[0].path.endswith("b.py")
        assert "a.py" in active[0].message

    def test_duplicate_seed_keyword_and_random_random(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/mix.py": """
                    import random

                    import numpy as np

                    def make():
                        g = np.random.default_rng(seed=7)
                        r = random.Random(7)
                        return g, r
                """,
            },
            select=["RPR012"],
        )
        assert len(_active(findings)) == 1

    def test_rng_passed_to_executor_fires(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/pool.py": """
                    import numpy as np

                    def fan_out(pool, work):
                        rng = np.random.default_rng(99)
                        return pool.submit(work, rng)
                """,
            },
            select=["RPR012"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR012"]
        assert "rng" in active[0].message

    def test_closure_capturing_rng_submitted_fires(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/pool.py": """
                    import numpy as np

                    def fan_out(pool, items):
                        rng = np.random.default_rng(5)

                        def job(item):
                            return item + rng.normal()

                        return pool.map(job, items)
                """,
            },
            select=["RPR012"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR012"]

    def test_pragma_suppresses(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/pool.py": """
                    import numpy as np

                    def fan_out(pool, work):
                        rng = np.random.default_rng(99)
                        return pool.submit(work, rng)  # reprolint: allow[seed-lineage]
                """,
            },
            select=["RPR012"],
        )
        assert _active(findings) == []
        assert [f.suppressed for f in findings] == [True]

    def test_distinct_and_nonliteral_seeds_negative(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/a.py": """
                    import numpy as np

                    def make(seed):
                        first = np.random.default_rng(1)
                        second = np.random.default_rng(2)
                        derived = np.random.default_rng(seed)
                        also = np.random.default_rng(seed)
                        return first, second, derived, also
                """,
                # Submitting plain data to an executor is fine.
                "repro/sim/pool.py": """
                    def fan_out(pool, work):
                        return pool.submit(work, 1234)
                """,
            },
            select=["RPR012"],
        )
        assert findings == []

    def test_spawned_children_negative(self, tmp_path):
        """SeedSequence(literal) once + spawned children: the sanctioned
        idiom must not trip the duplicate detector."""
        findings = _run(
            tmp_path,
            {
                "repro/sim/spawn.py": """
                    import numpy as np

                    def shards(n):
                        root = np.random.SeedSequence(2024)
                        return [
                            np.random.default_rng(child)
                            for child in root.spawn(n)
                        ]
                """,
            },
            select=["RPR012"],
        )
        assert findings == []

    def test_shipped_tree_zero(self, shipped_model):
        findings, _scanned, _model = analyze_paths(
            [PKG_ROOT], select=["RPR012"], model=shipped_model
        )
        assert _active(findings) == [], "\n".join(
            f.render() for f in _active(findings)
        )


# ----------------------------------------------------------------------
# RPR013 pubsub-flow
# ----------------------------------------------------------------------

_TOPICS = """
    TOPIC_ALPHA = "fixture/alpha"
    TOPIC_BETA = "fixture/beta"
    TOPIC_SPARE = "fixture/spare"
"""


class TestRPR013PubsubFlow:
    def test_publish_without_subscriber_fires(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/network/topics.py": _TOPICS,
                "repro/middleware/pub.py": """
                    from repro.network.topics import TOPIC_ALPHA

                    def emit(bus, msg):
                        bus.publish(TOPIC_ALPHA, msg)
                """,
            },
            select=["RPR013"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR013"]
        assert "TOPIC_ALPHA" in active[0].message
        assert active[0].path.endswith("pub.py")

    def test_subscribe_without_publisher_fires(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/network/topics.py": _TOPICS,
                "repro/middleware/sub.py": """
                    from repro.network.topics import TOPIC_BETA

                    def listen(bus, addr):
                        bus.subscribe(addr, TOPIC_BETA)
                """,
            },
            select=["RPR013"],
        )
        active = _active(findings)
        assert [f.rule for f in active] == ["RPR013"]
        assert "TOPIC_BETA" in active[0].message

    def test_matched_pair_and_unused_topic_negative(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/network/topics.py": _TOPICS,
                # Publisher and subscriber in *different* files; the
                # subscriber resolves the constant through a package
                # re-export.  TOPIC_SPARE is used by nobody: reserving
                # a constant is not a violation.
                "repro/network/__init__.py": """
                    from .topics import TOPIC_ALPHA
                """,
                "repro/middleware/pub.py": """
                    from repro.network.topics import TOPIC_ALPHA

                    def emit(bus, msg):
                        bus.publish(TOPIC_ALPHA, msg)
                """,
                "repro/middleware/sub.py": """
                    from repro.network import TOPIC_ALPHA

                    def listen(bus, addr):
                        bus.subscribe(addr, TOPIC_ALPHA)
                """,
            },
            select=["RPR013"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/network/topics.py": _TOPICS,
                "repro/middleware/pub.py": """
                    from repro.network.topics import TOPIC_ALPHA

                    def emit(bus, msg):
                        bus.publish(TOPIC_ALPHA, msg)  # reprolint: allow[pubsub-flow]
                """,
            },
            select=["RPR013"],
        )
        assert _active(findings) == []
        assert [f.suppressed for f in findings] == [True]

    def test_shipped_tree_zero(self, shipped_model):
        findings, _scanned, _model = analyze_paths(
            [PKG_ROOT], select=["RPR013"], model=shipped_model
        )
        assert _active(findings) == [], "\n".join(
            f.render() for f in _active(findings)
        )


# ----------------------------------------------------------------------
# The four planted violations from the acceptance criteria — each must
# produce exactly one finding against a realistic mini-tree.
# ----------------------------------------------------------------------


class TestPlantedViolations:
    def test_planted_sleep_in_gateway_coroutine(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/gateway/server.py": """
                    import time

                    async def _serve_device(reader, writer):
                        time.sleep(0.05)
                        return reader, writer
                """,
            },
            select=["RPR010"],
        )
        assert len(_active(findings)) == 1

    def test_planted_deep_impure_call_in_solve_phase(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/middleware/broker.py": """
                    from repro.core.stats import tally

                    class Broker:
                        def solve_round(self, pending):
                            tally(pending)
                            return pending
                """,
                "repro/core/stats.py": """
                    _COUNTS = {}

                    def tally(x):
                        _COUNTS[type(x).__name__] = 1
                """,
            },
            select=["RPR011"],
        )
        assert len(_active(findings)) == 1

    def test_planted_duplicate_seed(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/sim/seeds.py": """
                    import numpy as np

                    def streams():
                        truth = np.random.default_rng(42)
                        noise = np.random.default_rng(42)
                        return truth, noise
                """,
            },
            select=["RPR012"],
        )
        assert len(_active(findings)) == 1

    def test_planted_subscriberless_topic(self, tmp_path):
        findings = _run(
            tmp_path,
            {
                "repro/network/topics.py": """
                    TOPIC_ORPHAN = "fixture/orphan"
                """,
                "repro/middleware/pub.py": """
                    from repro.network.topics import TOPIC_ORPHAN

                    def emit(bus, msg):
                        bus.publish(TOPIC_ORPHAN, msg)
                """,
            },
            select=["RPR013"],
        )
        assert len(_active(findings)) == 1


# ----------------------------------------------------------------------
# Whole-tree gates
# ----------------------------------------------------------------------


class TestShippedTreeGates:
    def test_zero_unsuppressed_findings_all_rules(self, shipped_model):
        """PR 10's acceptance gate: the full pass (per-file + whole-
        program) is clean on the shipped package."""
        findings, scanned, _model = analyze_paths(
            [PKG_ROOT], model=shipped_model
        )
        active = _active(findings)
        assert scanned > 50
        assert active == [], "\n".join(f.render() for f in active)

    def test_whole_program_pass_stays_under_time_budget(self):
        """The call-graph layer must not quietly make lint 10x slower.

        The budget is deliberately generous (shared CI runners): the
        full pass takes ~4s locally; 60s means an order-of-magnitude
        regression still fails loudly.
        """
        start = time.perf_counter()
        analyze_paths([PKG_ROOT])
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"full reprolint pass took {elapsed:.1f}s"

    def test_model_reuse_caches_parses(self):
        findings, _scanned, model = analyze_paths([PKG_ROOT])
        assert model.files_parsed > 50
        again, _scanned2, model2 = analyze_paths([PKG_ROOT], model=model)
        assert model2 is model
        assert model.files_cached > 50
        assert model.files_parsed == 0
        assert [f.render() for f in again] == [
            f.render() for f in findings
        ]
